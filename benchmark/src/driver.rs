//! Run-everything mode: each workload in its own child process, one at a
//! time, every metric printed by name with its unit, and the printed names
//! checked against `BENCHMARK.json`. `--twice` runs the set twice and
//! compares the two.

use crate::report::KNOBS;
use obs::json::{validate, Json};
use std::collections::BTreeMap;
use std::process::Command;

const MANIFEST_DIR: &str = env!("CARGO_MANIFEST_DIR");

/// What `BENCHMARK.json` declares.
pub struct Declared {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    /// name -> (unit, better, bound)
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// name -> unit
    pub per_layer: Vec<(String, String)>,
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, String> {
    obj.get(key).ok_or(format!("BENCHMARK.json: missing {key}"))
}

fn text(obj: &Json, key: &str) -> Result<String, String> {
    field(obj, key)?.as_str().map(str::to_string).ok_or(format!("BENCHMARK.json: {key} not text"))
}

fn items<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    field(doc, key)?.as_arr().ok_or(format!("BENCHMARK.json: {key} is not a list"))
}

pub fn declared() -> Result<Declared, String> {
    let path = format!("{MANIFEST_DIR}/../BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let doc = validate(&raw).map_err(|e| format!("{path}: {e}"))?;
    let mut d = Declared {
        workloads: Vec::new(),
        run_seconds: field(&doc, "run_seconds")?.as_f64().ok_or("run_seconds not a number")?,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
    };
    for w in items(&doc, "workloads")? {
        d.workloads.push(text(w, "name")?);
    }
    for m in items(&doc, "end_to_end")? {
        let bound = field(m, "bound")?.as_f64().ok_or("bound not a number")?;
        d.end_to_end.push((text(m, "name")?, text(m, "unit")?, text(m, "better")?, bound));
    }
    for m in items(&doc, "per_layer")? {
        d.per_layer.push((text(m, "name")?, text(m, "unit")?));
    }
    Ok(d)
}

/// One child run's result line, parsed.
pub struct ChildResult {
    pub correct: bool,
    pub attempted: f64,
    pub failed: f64,
    /// (name, value, unit), sorted by name.
    pub metrics: Vec<(String, f64, String)>,
    pub fingerprint: String,
}

/// Run one workload in a fresh child process with the knobs stripped.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]).args([
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if quick {
        cmd.arg("--quick");
    }
    for knob in KNOBS {
        cmd.env_remove(knob);
    }
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    eprint!("{stderr}");
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or(format!("{workload}: no result line"))?;
    let doc = validate(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let number = |key: &str| {
        doc.get(key).and_then(Json::as_f64).ok_or(format!("{workload}: result lacks {key}"))
    };
    let by_name = doc.get("metrics").and_then(Json::as_obj).ok_or("result lacks metrics")?;
    let mut metrics = Vec::new();
    for (name, m) in by_name {
        // The parser keeps one value per key, so a repeat is counted in the text.
        if line.matches(&format!("\"{name}\": {{")).count() != 1 {
            return Err(format!("{workload}: metric {name} is printed more than once"));
        }
        let value = m.get("value").and_then(Json::as_f64).ok_or("metric lacks value")?;
        let unit = m.get("unit").and_then(Json::as_str).ok_or("metric lacks unit")?;
        metrics.push((name.clone(), value, unit.to_string()));
    }
    let fingerprint = stderr
        .split("sim_fingerprint=")
        .nth(1)
        .map(|s| s.chars().take_while(char::is_ascii_hexdigit).collect())
        .unwrap_or_default();
    Ok(ChildResult {
        correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
        fingerprint,
    })
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The printed names must equal the declared list exactly: each declared
/// metric once, with its unit, and nothing undeclared.
fn check_names(workload: &str, got: &ChildResult, want: &[(String, String)]) -> Vec<String> {
    let mut problems = Vec::new();
    let printed: BTreeMap<&str, &str> =
        got.metrics.iter().map(|(n, _, u)| (n.as_str(), u.as_str())).collect();
    for (name, unit) in want {
        match printed.get(name.as_str()) {
            None => problems.push(format!("{workload}: declared metric {name} not printed")),
            Some(u) if u != unit => {
                problems.push(format!("{workload}: {name} printed in {u}, declared in {unit}"))
            }
            Some(_) => {}
        }
    }
    for (name, _, _) in &got.metrics {
        if !name_ok(name) {
            problems.push(format!("{workload}: metric name {name:?} has a forbidden character"));
        }
        if !want.iter().any(|(n, _)| n == name) {
            problems.push(format!("{workload}: printed metric {name} is not declared"));
        }
    }
    problems
}

fn print_result(workload: &str, clock: &str, r: &ChildResult) {
    println!(
        "\n== {workload} [{clock}] correct={} attempted={} failed={} fail_share={} \
         sim_fingerprint={}",
        r.correct,
        r.attempted,
        r.failed,
        r.failed / r.attempted,
        r.fingerprint
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name:<42} {value:>20.9} {unit}");
    }
}

/// One full set: every workload untraced, then (unless `e2e_only`) traced.
/// Returns the untraced results by workload and the problems found.
fn run_set(
    d: &Declared,
    seed: u64,
    seconds: f64,
    quick: bool,
    e2e_only: bool,
) -> (Vec<(String, ChildResult)>, Vec<String>) {
    let mut problems = Vec::new();
    let mut set = Vec::new();
    let e2e_names: Vec<(String, String)> =
        d.end_to_end.iter().map(|(n, u, _, _)| (n.clone(), u.clone())).collect();
    for workload in &d.workloads {
        for trace in [false, true] {
            if trace && e2e_only {
                continue;
            }
            let clock = if trace { "per-layer, traced" } else { "end-to-end, untraced" };
            match run_child(workload, seed, seconds, trace, quick) {
                Ok(r) => {
                    print_result(workload, clock, &r);
                    let want = if trace { &d.per_layer } else { &e2e_names };
                    problems.extend(check_names(workload, &r, want));
                    if !r.correct {
                        problems.push(format!("{workload} [{clock}]: {} checks failed", r.failed));
                    }
                    if !trace {
                        set.push((workload.clone(), r));
                    }
                }
                // A panic, a deadlock report or a non-zero exit fails the workload.
                Err(e) => problems.push(e),
            }
        }
    }
    (set, problems)
}

/// Compare two sets of the same commit and seed, metric by metric.
fn compare(
    d: &Declared,
    first: &[(String, ChildResult)],
    second: &[(String, ChildResult)],
) -> Vec<String> {
    let mut problems = Vec::new();
    println!("\n== repeatability: two sets of the same commit and seed");
    println!(
        "{:<22} {:<26} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "first", "second", "worse_by", "bound"
    );
    for ((workload, a), (_, b)) in first.iter().zip(second) {
        for (name, _, better, bound) in &d.end_to_end {
            let value = |r: &ChildResult| {
                r.metrics.iter().find(|(n, _, _)| n == name).map_or(f64::NAN, |(_, v, _)| *v)
            };
            let (x, y) = (value(a), value(b));
            // Positive when the second run is worse than the first.
            let worse_by = if better == "higher" { (x - y) / x } else { (y - x) / x };
            let ok = worse_by.abs() <= *bound;
            println!(
                "{workload:<22} {name:<26} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}%  {}",
                worse_by * 100.0,
                bound * 100.0,
                if ok { "within bound" } else { "OUTSIDE BOUND" }
            );
            if !ok {
                problems.push(format!("{workload}: {name} differs by {:.1}%", worse_by * 100.0));
            }
        }
        let same = a.fingerprint == b.fingerprint && !a.fingerprint.is_empty();
        println!(
            "{workload:<22} {:<26} {:>16} {:>16} {:>9} {:>7}  {}",
            "sim_fingerprint",
            a.fingerprint,
            b.fingerprint,
            "-",
            "exact",
            if same { "identical" } else { "DIFFERENT" }
        );
        if !same {
            problems.push(format!("{workload}: sim_fingerprint differs between the two sets"));
        }
    }
    problems
}

/// Entry point of the run-everything mode; returns the problems found.
pub fn run(seed: u64, seconds: Option<f64>, quick: bool, twice: bool) -> Vec<String> {
    let d = match declared() {
        Ok(d) => d,
        Err(e) => return vec![e],
    };
    let seconds = seconds.unwrap_or(if quick { 0.2 } else { d.run_seconds });
    println!(
        "okbenchmark: {} workloads, seed {seed}, {seconds} s per run{}",
        d.workloads.len(),
        if quick { ", quick shapes" } else { "" }
    );
    let (first, mut problems) = run_set(&d, seed, seconds, quick, twice);
    if twice {
        let (second, more) = run_set(&d, seed, seconds, quick, true);
        problems.extend(more);
        problems.extend(compare(&d, &first, &second));
    }
    println!("\n{} problem(s)", problems.len());
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    problems
}
