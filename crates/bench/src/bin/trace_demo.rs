//! Split-and-reduce timelines with and without destination rotation.

fn main() {
    okbench::main("trace_demo");
}
