//! Ablations beyond Fig. 7: bucket size, τ, balance trigger, network class, topology.

fn main() {
    okbench::main("ablations");
}
