//! Fig. 5: the empirical ξ of Assumption 1 over training.

fn main() {
    okbench::main("fig5");
}
