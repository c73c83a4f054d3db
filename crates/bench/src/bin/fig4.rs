//! Fig. 4: gradient value distributions and local top-k threshold predictions.

fn main() {
    okbench::main("fig4");
}
