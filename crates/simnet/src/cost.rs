//! Latency–bandwidth cost model and wire-size accounting.

/// Network/compute cost parameters for the simulation.
///
/// The communication part is the classic α–β model used throughout the paper
/// (§2, Table 1): a message of `L` elements costs `α + β·L`. One *element* is one
/// 4-byte word — an `f32` gradient value or a `u32` coordinate — matching the paper's
/// COO accounting where a k-sparse gradient occupies `2k` elements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-message latency in seconds (wire + software stack).
    pub alpha: f64,
    /// Per-element transfer time in seconds (4-byte words).
    pub beta: f64,
}

impl CostModel {
    /// Cray-Aries-class calibration used for the paper-shaped experiments.
    ///
    /// * `alpha = 1.5 µs`: small-message latency through an MPI stack on Aries.
    /// * `beta = 4 ns/element`: ≈1 GB/s *effective* per-flow bandwidth for 4-byte
    ///   elements through a Python + mpi4py stack. This is deliberately effective
    ///   (not peak link) bandwidth: it makes a dense allreduce of a 27.5M-parameter
    ///   model cost ≈0.2 s, the same order as the paper's measured dense
    ///   communication time, so breakdown proportions land in the paper's regime.
    pub fn aries() -> Self {
        Self { alpha: 1.5e-6, beta: 4.0e-9 }
    }

    /// Commodity-cloud calibration (≈25 µs latency, ≈100 MB/s effective bandwidth).
    /// The paper predicts its speedups grow on such networks; the ablation harness
    /// uses this preset to check that claim directionally.
    pub fn commodity() -> Self {
        Self { alpha: 25.0e-6, beta: 40.0e-9 }
    }

    /// Zero-cost network; useful in tests that only check data correctness.
    pub fn free() -> Self {
        Self { alpha: 0.0, beta: 0.0 }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::aries()
    }
}

/// Types that can be sent through [`crate::Comm`] must report their size in
/// 4-byte wire elements so the cost model can charge for them.
///
/// Implementations exist for the payload shapes the collectives use; downstream crates
/// implement it for their own message types (e.g. COO gradient chunks).
pub trait WireSize {
    /// Number of 4-byte elements this value occupies on the wire.
    fn wire_elems(&self) -> u64;
}

impl WireSize for () {
    fn wire_elems(&self) -> u64 {
        // Control message: header only; charged latency but no body.
        0
    }
}

impl WireSize for f32 {
    fn wire_elems(&self) -> u64 {
        1
    }
}

impl WireSize for u32 {
    fn wire_elems(&self) -> u64 {
        1
    }
}

impl WireSize for u64 {
    fn wire_elems(&self) -> u64 {
        2
    }
}

impl WireSize for f64 {
    fn wire_elems(&self) -> u64 {
        2
    }
}

impl WireSize for usize {
    fn wire_elems(&self) -> u64 {
        2
    }
}

impl<T: WireSize> WireSize for Vec<T> {
    fn wire_elems(&self) -> u64 {
        self.iter().map(WireSize::wire_elems).sum()
    }
}

impl<T: WireSize + ?Sized> WireSize for std::sync::Arc<T> {
    fn wire_elems(&self) -> u64 {
        (**self).wire_elems()
    }
}

impl<T: WireSize> WireSize for Option<T> {
    fn wire_elems(&self) -> u64 {
        match self {
            Some(v) => v.wire_elems(),
            None => 0,
        }
    }
}

impl<A: WireSize, B: WireSize> WireSize for (A, B) {
    fn wire_elems(&self) -> u64 {
        self.0.wire_elems() + self.1.wire_elems()
    }
}

impl<A: WireSize, B: WireSize, C: WireSize> WireSize for (A, B, C) {
    fn wire_elems(&self) -> u64 {
        self.0.wire_elems() + self.1.wire_elems() + self.2.wire_elems()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_match_coo_accounting() {
        // A k-sparse COO gradient = k values + k indexes = 2k elements.
        let values: Vec<f32> = vec![0.5; 100];
        let indexes: Vec<u32> = vec![7; 100];
        assert_eq!((values, indexes).wire_elems(), 200);
    }

    #[test]
    fn nested_and_optional_sizes() {
        let v: Vec<(u32, f32)> = vec![(1, 2.0), (3, 4.0)];
        assert_eq!(v.wire_elems(), 4);
        assert_eq!(Some(5u32).wire_elems(), 1);
        assert_eq!(None::<u32>.wire_elems(), 0);
        assert_eq!(().wire_elems(), 0);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let a = CostModel::aries();
        let c = CostModel::commodity();
        assert!(a.alpha < c.alpha);
        assert!(a.beta < c.beta);
    }
}
