//! Fig. 12: BERT stand-in weak scaling (a row of `okbench::panels::BREAKDOWN`); `--paper-axis` sweeps P to 4096.

fn main() {
    okbench::main("fig12");
}
