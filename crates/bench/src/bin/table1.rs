//! Table 1: per-rank communication volume and modeled time of the six allreduces.

fn main() {
    okbench::main("table1");
}
