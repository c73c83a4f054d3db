//! Fig. 13: BERT stand-in loss vs modeled time (a row of `okbench::panels::CONVERGENCE`).

fn main() {
    okbench::main("fig13");
}
