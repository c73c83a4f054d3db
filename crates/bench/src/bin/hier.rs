//! Flat vs hierarchical allreduces on a two-tier fabric, clean and under inter-link chaos.

fn main() {
    okbench::main("hier");
}
