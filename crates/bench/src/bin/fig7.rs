//! Fig. 7: balanced space repartition, data balancing and destination rotation.

fn main() {
    okbench::main("fig7");
}
