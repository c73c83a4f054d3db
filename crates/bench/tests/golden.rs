//! Golden check: every figure's modeled rows against its committed
//! `results/<name>.txt`, byte for byte. The cheap figures rerun in full; the
//! expensive ones rerun one cell, which must appear verbatim in the file, and
//! the model panels also check that the file lists exactly the schemes and P
//! values their table row runs. A rerun also fails if one of the figure's
//! printed checks did (table1's 6k bound, chaos and hier's invariants), so a
//! failed check cannot be accepted by copying its output over the file.
//!
//! On a mismatch the test writes what the file would read under
//! `target/golden/<name>.txt` and prints the diff; copying that file over
//! `results/<name>.txt` is how a change to a modeled number is accepted.
//!
//! Release builds only (`cargo test --release -p okbench --test golden`,
//! which `scripts/check.sh` runs): the cells train real models, which takes
//! minutes unoptimized.
#![cfg(not(debug_assertions))]

use std::path::{Path, PathBuf};

use okbench::panels::{flat_schemes, BREAKDOWN, CONVERGENCE};
use okbench::{figures, is_host_line, Figure, FIGURES};
use train::Scheme;

fn root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("the workspace root exists")
}

fn committed(name: &str) -> String {
    let path = root().join("results").join(format!("{name}.txt"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn modeled(text: &str) -> Vec<&str> {
    text.lines().filter(|l| !is_host_line(l)).collect()
}

/// Pass, or write `actual` under `target/golden/` and fail with the diff.
fn verdict(name: &str, ok: bool, actual: &str) {
    if ok {
        return;
    }
    let dir = root().join("target/golden");
    std::fs::create_dir_all(&dir).expect("create target/golden");
    let out = dir.join(format!("{name}.txt"));
    std::fs::write(&out, actual).expect("write the actual text");
    let want = root().join("results").join(format!("{name}.txt"));
    let diff = std::process::Command::new("diff").arg("-u").arg(&want).arg(&out).output();
    let diff = diff.map(|o| String::from_utf8_lossy(&o.stdout).into_owned()).unwrap_or_default();
    panic!(
        "{name}: modeled rows differ from results/{name}.txt; the actual text is in {} \
         (copy it over the results file to accept the change)\n{diff}",
        out.display()
    );
}

/// Rerun figure `name` in full.
fn full(name: &'static str) {
    let run = FIGURES.iter().find(|(n, _)| *n == name).expect("a known figure").1;
    let mut fig = Figure::capture(name);
    run(&mut fig);
    assert_eq!(fig.failure(), None, "{name}: a printed check failed");
    verdict(name, modeled(&committed(name)) == modeled(fig.text()), fig.text());
}

/// Rerun one cell of figure `name`: its modeled lines must appear, in
/// order and contiguous, in the committed file, anchored at its first line.
fn cell(name: &'static str, run: impl FnOnce(&mut Figure)) {
    let mut fig = Figure::capture(name);
    run(&mut fig);
    assert_eq!(fig.failure(), None, "{name}: a printed check failed");
    let got: Vec<&str> = modeled(fig.text()).into_iter().skip_while(|l| l.is_empty()).collect();
    let text = committed(name);
    let mut lines: Vec<&str> = text.lines().collect();
    let at = lines.iter().position(|l| *l == got[0]);
    let at = at.unwrap_or_else(|| panic!("{name}: results/{name}.txt has no line {:?}", got[0]));
    let end = (at + got.len()).min(lines.len());
    let ok = lines[at..end] == got[..];
    lines.splice(at..end, got);
    verdict(name, ok, &(lines.join("\n") + "\n"));
}

/// The committed file must hold a block for every P the panel runs (opened
/// by a line `is_header` picks out) and a row for every scheme in each (a line
/// holding `marker`).
fn same_rows(
    name: &str,
    is_header: fn(&str) -> bool,
    marker: &str,
    ps: &[usize],
    schemes: &[Scheme],
) {
    let text = committed(name);
    let p_of = |l: &str| {
        l.split("P = ").nth(1).map(|r| r.chars().take_while(char::is_ascii_digit).collect())
    };
    let listed_ps: Vec<String> = text.lines().filter(|l| is_header(l)).filter_map(p_of).collect();
    let rows = text.lines().filter(|l| l.starts_with("  ") && l.contains(marker));
    let listed: Vec<&str> = rows.filter_map(|l| l.split_whitespace().next()).collect();
    let want: Vec<&str> = ps.iter().flat_map(|_| schemes.iter().map(|s| s.name())).collect();
    let want_ps: Vec<String> = ps.iter().map(|p| p.to_string()).collect();
    assert_eq!(
        listed_ps, want_ps,
        "results/{name}.txt has other P values than the {name} row runs"
    );
    assert_eq!(listed, want, "results/{name}.txt lists other schemes than the {name} row runs");
}

fn breakdown(i: usize) {
    let row = &BREAKDOWN[i];
    same_rows(row.name, |l| l.starts_with("P = "), " sparsification ", row.ps, &flat_schemes());
    cell(row.name, |fig| row.cell(fig));
}

fn convergence(i: usize) {
    let row = &CONVERGENCE[i];
    let is_title = |l: &str| l.starts_with("Figure ") && l.contains("  (P = ");
    same_rows(row.name, is_title, " vs modeled time:", row.ps, &(row.schemes)());
    cell(row.name, |fig| row.cell(fig));
}

#[test]
fn table1() {
    full("table1");
}

#[test]
fn fig4_lstm_panel() {
    cell("fig4", |fig| figures::fig4_panel(fig, 1));
}

#[test]
fn fig5() {
    full("fig5");
}

#[test]
fn fig6_lstm_panel() {
    cell("fig6", |fig| figures::fig6_panel(fig, 1));
}

#[test]
fn fig7() {
    full("fig7");
}

#[test]
fn fig8_cell() {
    breakdown(0);
}

#[test]
fn fig9_cell() {
    convergence(0);
}

#[test]
fn fig10_cell() {
    breakdown(1);
}

#[test]
fn fig11_cell() {
    convergence(1);
}

#[test]
fn fig12_cell() {
    breakdown(2);
}

#[test]
fn fig13_cell() {
    convergence(2);
}

#[test]
fn ablations() {
    full("ablations");
}

#[test]
fn trace_demo() {
    full("trace_demo");
}

#[test]
fn chaos() {
    full("chaos");
}

#[test]
fn hier() {
    full("hier");
}
