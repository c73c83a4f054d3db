//! Per-rank execution traces in virtual time, with a text timeline renderer
//! and a Chrome/Perfetto exporter.
//!
//! Enable with [`crate::Comm::enable_trace`]; every send, receive, compute block,
//! barrier and pause is recorded with its modeled start/end times and the
//! ledger phase it was charged to ([`crate::Comm::set_phase`]), so a traced
//! `Send`'s elements are exactly what the ledger counted for that phase. The
//! renderer draws an ASCII Gantt chart — handy for seeing schedules like
//! split-and-reduce's rotation actually pipelining, without leaving the
//! terminal; [`export_chrome`] names each interval by its phase.
//!
//! When a chaos plan is installed ([`crate::Cluster::with_chaos`]), events whose
//! timing was perturbed carry a `perturbed` tag and render as lowercase glyphs;
//! injected pauses appear as their own [`TraceKind::Pause`] intervals, and
//! [`render_timeline_with_chaos`] adds a header row marking the plan's windows.

use std::sync::Arc;

/// What a rank was doing during one traced interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceKind {
    /// Injecting a message (occupies the send port).
    Send {
        /// Destination rank.
        dst: usize,
        /// Body size in wire elements.
        elems: u64,
    },
    /// Draining a message: the reception port's `[max(head arrival, port
    /// free), +β·L]`. Any wait before the head arrives is idle time, not part
    /// of the interval.
    Recv {
        /// Source rank.
        src: usize,
        /// Body size in wire elements.
        elems: u64,
    },
    /// Local computation charged via `compute`.
    Compute,
    /// Barrier synchronization (wait + latency).
    Barrier,
    /// An injected chaos pause: the rank was frozen by the plan.
    Pause,
}

/// One traced interval on one rank's virtual timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Modeled start time (s).
    pub start: f64,
    /// Modeled end time (s).
    pub end: f64,
    /// Activity during the interval.
    pub kind: TraceKind,
    /// Whether an installed chaos plan perturbed this interval (stretched
    /// compute, degraded/jittered link, or pause-gated activity).
    pub perturbed: bool,
    /// The ledger phase the interval was charged to: the run's interned
    /// name, shared, so recording an event allocates nothing.
    pub phase: Arc<str>,
}

impl TraceEvent {
    /// Construct an event, checking (in debug builds) that the interval is
    /// well-formed: recording code must clamp `start` and `end` consistently,
    /// perturbed pairs as much as clean ones.
    pub fn new(start: f64, end: f64, kind: TraceKind, perturbed: bool, phase: Arc<str>) -> Self {
        debug_assert!(
            start <= end,
            "trace event with start {start} > end {end} ({kind:?}, perturbed {perturbed}): \
             clamp the pair consistently"
        );
        Self { start, end, kind, perturbed, phase }
    }

    fn glyph(&self) -> char {
        let clean = match self.kind {
            TraceKind::Send { .. } => 'S',
            TraceKind::Recv { .. } => 'R',
            TraceKind::Compute => 'C',
            TraceKind::Barrier => 'B',
            TraceKind::Pause => 'P',
        };
        if self.perturbed && self.kind != TraceKind::Pause {
            clean.to_ascii_lowercase()
        } else {
            clean
        }
    }
}

const LEGEND: &str = "S=send R=recv C=compute B=barrier P=chaos-pause ·=idle; lowercase=perturbed";

fn span_of(traces: &[Vec<TraceEvent>]) -> f64 {
    traces.iter().flat_map(|t| t.iter().map(|e| e.end)).fold(0.0f64, f64::max).max(1e-12)
}

fn render_rows(out: &mut String, traces: &[Vec<TraceEvent>], width: usize, t_max: f64) {
    for (rank, events) in traces.iter().enumerate() {
        let mut row = vec!['·'; width];
        for e in events {
            let a = ((e.start / t_max) * width as f64).floor() as usize;
            // Zero-length intervals (instant barriers, empty pauses) would
            // otherwise have floor(a) == ceil(b) and vanish; paint ≥1 cell.
            let b = (((e.end / t_max) * width as f64).ceil() as usize).max(a + 1);
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = e.glyph();
            }
        }
        out.push_str(&format!("rank {rank:>3} |{}|\n", row.iter().collect::<String>()));
    }
}

/// Render per-rank traces as an ASCII Gantt chart of `width` columns spanning
/// `[0, t_max]`. Overlapping events on one rank keep the later glyph; idle time
/// renders as `·`.
pub fn render_timeline(traces: &[Vec<TraceEvent>], width: usize) -> String {
    let t_max = span_of(traces);
    let mut out = String::new();
    out.push_str(&format!("timeline 0 .. {t_max:.3e} s  ({LEGEND})\n"));
    render_rows(&mut out, traces, width, t_max);
    out
}

/// Like [`render_timeline`], with an extra `chaos` header row marking the
/// injected perturbation windows `(start, end)` (e.g. from
/// `chaos::CompiledChaos::windows`) as `#`. Open windows (`end = ∞`) are
/// clamped to the traced span.
pub fn render_timeline_with_chaos(
    traces: &[Vec<TraceEvent>],
    width: usize,
    windows: &[(f64, f64)],
) -> String {
    let t_max = span_of(traces);
    let mut out = String::new();
    out.push_str(&format!("timeline 0 .. {t_max:.3e} s  ({LEGEND}; #=injected window)\n"));
    let mut row = vec!['·'; width];
    for &(start, end) in windows {
        let end = end.min(t_max);
        if end <= start {
            continue;
        }
        let a = ((start / t_max) * width as f64).floor() as usize;
        let b = ((end / t_max) * width as f64).ceil() as usize;
        for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
            *cell = '#';
        }
    }
    out.push_str(&format!("chaos    |{}|\n", row.iter().collect::<String>()));
    render_rows(&mut out, traces, width, t_max);
    out
}

/// Export per-rank traces as one Chrome/Perfetto `trace_events` JSON
/// document: one pid per rank with one track, each interval a complete slice
/// named by its phase and activity (`okt_split_reduce · send → 5`,
/// `fwd_bwd · compute`). Perturbed intervals carry a `perturbed` arg and
/// chaos pauses are slices of their own, so chaos shows on each rank's track.
/// Virtual seconds map to microseconds (`ts = vsec × 10⁶`). An empty slice
/// gives a valid, empty document.
pub fn export_chrome(traces: &[Vec<TraceEvent>]) -> String {
    use obs::chrome::{Arg, TraceBuilder};
    const US: f64 = 1e6;
    let mut tb = TraceBuilder::new();
    for (rank, events) in traces.iter().enumerate() {
        let pid = rank as u64;
        tb.process_name(pid, &format!("rank {rank}"));
        tb.process_sort_index(pid, rank as i64);
        tb.thread_name(pid, 0, "timeline");
        for e in events {
            let (activity, mut args): (String, Vec<(&str, Arg)>) = match e.kind {
                TraceKind::Send { dst, elems } => {
                    (format!("send → {dst}"), vec![("elems", Arg::U64(elems))])
                }
                TraceKind::Recv { src, elems } => {
                    (format!("recv ← {src}"), vec![("elems", Arg::U64(elems))])
                }
                TraceKind::Compute => ("compute".to_string(), vec![]),
                TraceKind::Barrier => ("barrier".to_string(), vec![]),
                TraceKind::Pause => ("chaos pause".to_string(), vec![]),
            };
            if e.perturbed {
                args.push(("perturbed", Arg::U64(1)));
            }
            let name = format!("{} · {activity}", e.phase);
            tb.complete(pid, 0, &name, e.start * US, (e.end - e.start) * US, &args);
        }
    }
    tb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cluster, CostModel};

    fn ev(start: f64, end: f64, kind: TraceKind) -> TraceEvent {
        TraceEvent::new(start, end, kind, false, "default".into())
    }

    fn perturbed(start: f64, end: f64, kind: TraceKind) -> TraceEvent {
        TraceEvent::new(start, end, kind, true, "default".into())
    }

    #[test]
    fn traces_record_all_activity_kinds() {
        let cost = CostModel { alpha: 1.0, beta: 0.1 };
        let report = Cluster::new(2, cost).run(|comm| {
            comm.enable_trace();
            comm.compute(2.0);
            comm.set_phase("shift");
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1.0f32; 10]);
            } else {
                let _: Vec<f32> = comm.recv(0, 0);
            }
            comm.barrier();
            comm.take_trace()
        });
        let t0 = &report.results[0];
        assert!(t0.iter().any(|e| matches!(e.kind, TraceKind::Compute)));
        assert!(t0.iter().any(|e| matches!(e.kind, TraceKind::Send { dst: 1, elems: 10 })));
        assert!(t0.iter().any(|e| matches!(e.kind, TraceKind::Barrier)));
        let t1 = &report.results[1];
        // The Recv interval is the drain, not the wait: the head arrives at
        // 2.0 + α = 3.0 and the body streams for β·10 = 1.0. Rank 1 sat idle
        // from 2.0 to 3.0.
        let recv = t1.iter().find(|e| matches!(e.kind, TraceKind::Recv { .. })).expect("recv");
        assert_eq!(recv.kind, TraceKind::Recv { src: 0, elems: 10 });
        assert_eq!((recv.start, recv.end), (3.0, 4.0));
        // Each interval carries the phase it was charged to.
        for tr in &report.results {
            for e in tr {
                let want = if e.kind == TraceKind::Compute { "default" } else { "shift" };
                assert_eq!(&*e.phase, want, "{e:?}");
            }
        }
        // Without a chaos plan, nothing is tagged perturbed.
        for tr in &report.results {
            assert!(tr.iter().all(|e| !e.perturbed));
        }
        // Events are time-ordered with non-negative spans.
        for tr in &report.results {
            for e in tr {
                assert!(e.end >= e.start);
            }
            for w in tr.windows(2) {
                assert!(w[1].start >= w[0].start - 1e-12);
            }
        }
    }

    #[test]
    fn untraced_comm_returns_empty() {
        let report = Cluster::new(1, CostModel::free()).run(|comm| {
            comm.compute(1.0);
            comm.take_trace()
        });
        assert!(report.results[0].is_empty());
    }

    #[test]
    fn renderer_produces_one_row_per_rank() {
        let traces = vec![
            vec![
                ev(0.0, 0.5, TraceKind::Compute),
                ev(0.5, 1.0, TraceKind::Send { dst: 1, elems: 4 }),
            ],
            vec![ev(0.5, 1.0, TraceKind::Recv { src: 0, elems: 4 })],
        ];
        let s = render_timeline(&traces, 20);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].contains('C') && lines[1].contains('S'));
        assert!(lines[2].contains('R') && lines[2].contains('·'));
    }

    #[test]
    fn perturbed_events_render_lowercase_and_pauses_render_p() {
        let traces = vec![vec![
            perturbed(0.0, 0.4, TraceKind::Compute),
            perturbed(0.4, 0.6, TraceKind::Pause),
            ev(0.6, 1.0, TraceKind::Compute),
        ]];
        let s = render_timeline(&traces, 20);
        let row = s.lines().nth(1).expect("rank row");
        assert!(row.contains('c'), "perturbed compute lowercased: {row}");
        assert!(row.contains('P'), "pause glyph present: {row}");
        assert!(row.contains('C'), "clean compute untouched: {row}");
    }

    #[test]
    fn chaos_row_marks_windows_and_clamps_open_ends() {
        let traces = vec![vec![ev(0.0, 1.0, TraceKind::Compute)]];
        let s = render_timeline_with_chaos(&traces, 20, &[(0.5, f64::INFINITY)]);
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with("chaos"));
        let marks = lines[1].chars().filter(|&c| c == '#').count();
        assert!((9..=11).contains(&marks), "half the row marked: {}", lines[1]);
    }

    #[test]
    #[should_panic(expected = "clamp the pair")]
    #[cfg(debug_assertions)]
    fn inverted_perturbed_pair_trips_debug_assert() {
        let _ = perturbed(1.0, 0.5, TraceKind::Pause);
    }

    #[test]
    fn empty_trace_renders_a_header_and_no_rows() {
        let s = render_timeline(&[], 20);
        assert_eq!(s.lines().count(), 1, "header only: {s:?}");
        assert!(s.starts_with("timeline 0 .. "));
        // The chaos variant still renders its window row over the degenerate
        // span without dividing by zero.
        let s = render_timeline_with_chaos(&[], 20, &[(0.0, 1.0)]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[1].starts_with("chaos"));
    }

    #[test]
    fn zero_length_intervals_still_occupy_one_column() {
        // A zero-duration event (floor(a) == position of ceil(b)) must not
        // vanish: ceil rounds the right edge up to paint at least one cell.
        let traces =
            vec![vec![ev(0.0, 1.0, TraceKind::Compute), ev(0.25, 0.25, TraceKind::Barrier)]];
        let s = render_timeline(&traces, 20);
        let row = s.lines().nth(1).expect("rank row");
        assert!(row.contains('B'), "zero-length event painted: {row}");
    }

    #[test]
    fn overlapping_chaos_windows_merge_in_the_header_row() {
        let traces = vec![vec![ev(0.0, 1.0, TraceKind::Compute)]];
        // Two overlapping windows plus one inverted (end < start) that must be
        // skipped; the merged mark covers [0.2, 0.8] exactly once.
        let windows = [(0.2, 0.6), (0.4, 0.8), (0.9, 0.1)];
        let s = render_timeline_with_chaos(&traces, 20, &windows);
        let row = s.lines().nth(1).expect("chaos row");
        let marks = row.chars().filter(|&c| c == '#').count();
        assert!((11..=14).contains(&marks), "merged window width: {row}");
        // Contiguous: one '#' run, no gap between the overlapping windows.
        let body: String = row.chars().skip_while(|&c| c != '|').collect();
        assert!(!body.contains("#·#"), "no gap inside merged windows: {row}");
    }

    #[test]
    fn chrome_export_gives_one_track_per_rank_named_by_phase() {
        use obs::json::{validate, Json};
        let split =
            |start, end, kind| TraceEvent::new(start, end, kind, false, "okt_split_reduce".into());
        let traces = vec![
            vec![
                ev(0.0, 0.25, TraceKind::Compute),
                split(0.25, 0.5, TraceKind::Send { dst: 1, elems: 4 }),
            ],
            vec![
                TraceEvent::new(
                    0.0,
                    0.5,
                    TraceKind::Recv { src: 0, elems: 4 },
                    true,
                    "okt_split_reduce".into(),
                ),
                perturbed(0.5, 0.75, TraceKind::Pause),
            ],
        ];
        let doc = export_chrome(&traces);
        let v = validate(&doc).expect("valid trace_events JSON");
        let events = v.get("traceEvents").and_then(Json::as_arr).expect("array");
        let slices: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        let names: Vec<&str> =
            slices.iter().filter_map(|e| e.get("name").and_then(Json::as_str)).collect();
        assert_eq!(
            names,
            [
                "default · compute",
                "okt_split_reduce · send → 1",
                "okt_split_reduce · recv ← 0",
                "default · chaos pause"
            ]
        );
        // One pid per rank, one thread each.
        let ids = |key| -> std::collections::BTreeSet<u64> {
            events
                .iter()
                .filter_map(|e| e.get(key).and_then(Json::as_f64))
                .map(|x| x as u64)
                .collect()
        };
        assert_eq!(ids("pid"), [0, 1].into());
        assert_eq!(ids("tid"), [0].into());
        // The perturbed Recv says so; the clean Send does not.
        let perturbed = |e: &&&Json| e.get("args").and_then(|a| a.get("perturbed")).is_some();
        assert_eq!(slices.iter().filter(perturbed).count(), 2);
    }

    #[test]
    fn chrome_export_of_nothing_is_an_empty_document() {
        let doc = export_chrome(&[]);
        let v = obs::json::validate(&doc).expect("valid");
        assert_eq!(
            v.get("traceEvents").and_then(obs::json::Json::as_arr).map(<[obs::json::Json]>::len),
            Some(0)
        );
    }
}
