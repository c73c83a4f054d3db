//! Profile a small Ok-Topk training job and export the observability
//! artifacts: a Chrome/Perfetto `trace_events` JSON (open at
//! `ui.perfetto.dev` or `chrome://tracing`) plus a text metrics summary on
//! stdout. See EXPERIMENTS.md § "Profiling a run".
//!
//! Usage: `cargo run --release -p okbench --bin obsdump [--out PATH]
//! [--ranks P] [--iters N]`

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let out = flag("--out").unwrap_or("target/obsdump-trace.json").to_string();
    let ranks: usize = flag("--ranks").map_or(4, |v| v.parse().expect("--ranks wants a number"));
    let iters: usize = flag("--iters").map_or(6, |v| v.parse().expect("--iters wants a number"));

    let dump = okbench::obsdump::run(ranks, iters);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).expect("create output directory");
    }
    std::fs::write(&out, &dump.trace_json).expect("write trace json");
    print!("{}", dump.summary);
    println!("\nwrote {out} ({} bytes) — open at https://ui.perfetto.dev", dump.trace_json.len());
}
