//! Chaos robustness: each flat allreduce's modeled slowdown under a straggler and jitter.

fn main() {
    okbench::main("chaos");
}
