//! Schema check for the obsdump Chrome-trace export: the document must be
//! valid `trace_events` JSON that Perfetto/chrome://tracing will load —
//! every event carries `ph`/`pid`/`name`, complete events carry `ts`/`dur`,
//! each rank has one track, and slices are named by their ledger phase.

use obs::json::{validate, Json};
use std::collections::BTreeSet;

#[test]
fn obsdump_trace_is_valid_trace_events_json() {
    let dump = okbench::obsdump::run(2, 2);
    let doc = validate(&dump.trace_json).expect("obsdump output must parse as JSON");

    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty(), "a profiled run must emit events");

    let mut phases = BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(matches!(ph, "X" | "M"), "unexpected phase {ph}");
        phases.insert(ph.to_string());
        assert!(e.get("pid").and_then(Json::as_f64).is_some(), "every event has pid");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "every event has name");
        if ph == "X" {
            let ts = e.get("ts").and_then(Json::as_f64).expect("complete event has ts");
            let dur = e.get("dur").and_then(Json::as_f64).expect("complete event has dur");
            assert!(ts >= 0.0 && dur >= 0.0, "sanitized times: ts={ts} dur={dur}");
        }
    }
    assert!(phases.contains("X"), "timeline events present");
    assert!(phases.contains("M"), "metadata (process/thread names) present");

    // One track per rank: pids 0 and 1, each with thread 0 only.
    let ids = |key| -> BTreeSet<u64> {
        events.iter().filter_map(|e| e.get(key).and_then(Json::as_f64)).map(|x| x as u64).collect()
    };
    assert_eq!(ids("pid"), BTreeSet::from([0, 1]), "one pid per rank");
    assert_eq!(ids("tid"), BTreeSet::from([0]), "one thread per rank");

    // Every slice is named `phase · activity`, among them the trainer's
    // compute and Ok-Topk's split-and-reduce traffic.
    let slices: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(slices.iter().all(|n| n.contains(" · ")), "a slice without a phase");
    for expected in ["compute", "okt_split_reduce"] {
        assert!(slices.iter().any(|n| n.contains(expected)), "no {expected:?} slice");
    }

    // The summary table carries the per-run metrics.
    assert!(dump.summary.contains("sim.recv_wait_vsec"), "summary lists sim metrics");
}
