//! One layered benchmark: five workloads, two clocks, per-layer probes from
//! outside. See `README.md` in this directory.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints one JSON result line last on stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Without `--workload` every workload runs, each in a child process of its
//! own; `--twice` repeats the set and compares, `--quick` uses small shapes.

mod driver;
mod e2e;
mod gen;
mod layers;
mod probes;
mod report;
mod runner;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    twice: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: 1, seconds: None, trace: false, quick: false, twice: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => args.trace = value()? == "1",
            "--quick" => args.quick = true,
            "--twice" => args.twice = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        return Err(format!("--seconds must be in (0, 60], got {:?}", args.seconds));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let launch = Instant::now();
    // Before any thread exists and before any crate reads its knob.
    for knob in report::KNOBS {
        std::env::remove_var(knob);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("okbenchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        let problems = driver::run(args.seed, args.seconds, args.quick, args.twice);
        return if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    };
    let seconds = args.seconds.unwrap_or(10.0);
    let Some(mut spec) = workloads::find(&workload, args.quick) else {
        let names: Vec<_> = workloads::ALL.iter().map(|s| s.name).collect();
        eprintln!("okbenchmark: unknown workload {workload:?}; one of {names:?}");
        return ExitCode::from(2);
    };
    if spec.kind == workloads::Kind::Train {
        spec.n = dnn::Model::num_params(&runner::bert(args.seed));
    }
    let shape = format!(
        "scheme={} P={} n={} density={} tau={} tau_prime={} rpn={} chaos={} warmup={} \
         model_steps={} quick={}",
        spec.scheme_name(),
        spec.p,
        spec.n,
        spec.density,
        spec.tau,
        spec.tau_prime,
        spec.rpn,
        spec.chaos,
        spec.warmup,
        spec.model_steps,
        args.quick,
    );
    eprintln!("{}", report::provenance(spec.name, args.seed, seconds, &shape));
    let (metrics, checks, notes) = if args.trace {
        let out = layers::run(&spec, args.seed, seconds, args.quick);
        (out.metrics, out.checks, out.notes)
    } else {
        let out = e2e::run(&spec, args.seed, seconds, args.quick, launch);
        let notes = format!("{} sim_fingerprint={:016x}", out.notes, out.fingerprint);
        (out.metrics, out.checks, notes)
    };
    eprintln!("{notes}");
    for m in &metrics {
        eprintln!("  {:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", report::result_line(checks, &metrics));
    ExitCode::SUCCESS
}
