//! Fig. 11: LSTM stand-in WER proxy vs modeled time (a row of `okbench::panels::CONVERGENCE`).

fn main() {
    okbench::main("fig11");
}
