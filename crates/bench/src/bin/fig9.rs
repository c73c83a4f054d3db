//! Fig. 9: VGG stand-in top-1 accuracy vs modeled time (a row of `okbench::panels::CONVERGENCE`).

fn main() {
    okbench::main("fig9");
}
