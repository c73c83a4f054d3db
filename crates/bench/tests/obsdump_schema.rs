//! Schema check for the obsdump Chrome-trace export: the document must be
//! valid `trace_events` JSON that Perfetto/chrome://tracing will load —
//! every event carries `ph`/`pid`/`name`, complete events carry `ts`/`dur`,
//! and the expected tracks (rank timelines, spans) are present.

use obs::json::{validate, Json};

#[test]
fn obsdump_trace_is_valid_trace_events_json() {
    let dump = okbench::obsdump::run(2, 2);
    let doc = validate(&dump.trace_json).expect("obsdump output must parse as JSON");

    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty(), "a profiled run must emit events");

    let mut phases = std::collections::BTreeSet::new();
    for e in events {
        let ph = e.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph}");
        phases.insert(ph.to_string());
        assert!(e.get("pid").and_then(Json::as_f64).is_some(), "every event has pid");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "every event has name");
        if ph == "X" {
            let ts = e.get("ts").and_then(Json::as_f64).expect("complete event has ts");
            let dur = e.get("dur").and_then(Json::as_f64).expect("complete event has dur");
            assert!(ts >= 0.0 && dur >= 0.0, "sanitized times: ts={ts} dur={dur}");
        }
        if ph == "i" {
            assert!(e.get("s").and_then(Json::as_str).is_some(), "instant event has scope");
        }
    }
    assert!(phases.contains("X"), "timeline/span events present");
    assert!(phases.contains("M"), "metadata (process/thread names) present");

    let names: Vec<&str> =
        events.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
    // Trainer spans made it in.
    for expected in ["iter", "compute", "exchange"] {
        assert!(names.contains(&expected), "missing {expected:?} events");
    }

    // The summary table carries the per-run metrics.
    assert!(dump.summary.contains("sim.recv_wait_vsec"), "summary lists sim metrics");
    assert!(dump.summary.contains("train.steps"), "summary lists trainer metrics");
}
