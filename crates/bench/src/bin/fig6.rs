//! Fig. 6: local and global top-k selection counts over training.

fn main() {
    okbench::main("fig6");
}
