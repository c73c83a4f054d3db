//! Balanced gradient-space partitioning for split-and-reduce (§3.1.1).
//!
//! The gradient index space `[0, n)` is split into `P` regions; worker `j` owns the
//! reduction of region `j`. Equal-width regions ("naive") can be badly imbalanced
//! because top-k coordinates cluster; the paper instead has every worker compute
//! boundaries that balance *its own* local top-k mass, then reach consensus by
//! averaging the boundary vectors across workers (one tiny allreduce, amortized over
//! τ iterations).
//!
//! This module holds the boundary math; the consensus allreduce lives in the `oktopk`
//! crate where the communicator is available.

/// Equal-width ("naive") region boundaries: `P+1` values from 0 to `n`.
pub fn equal_boundaries(n: u32, p: usize) -> Vec<u32> {
    assert!(p >= 1);
    (0..=p).map(|j| ((n as u64 * j as u64) / p as u64) as u32).collect()
}

/// Boundaries that give each of the `p` regions an (approximately) equal share of
/// the local top-k coordinates. `topk_indexes` must be sorted ascending.
///
/// Returned as `f64` so vectors from different workers can be averaged exactly;
/// endpoints are pinned to `0` and `n`.
pub fn balanced_boundaries(topk_indexes: &[u32], n: u32, p: usize) -> Vec<f64> {
    assert!(p >= 1);
    debug_assert!(topk_indexes.windows(2).all(|w| w[0] <= w[1]));
    let m = topk_indexes.len();
    if m == 0 {
        return equal_boundaries(n, p).into_iter().map(f64::from).collect();
    }
    let mut b = Vec::with_capacity(p + 1);
    b.push(0.0);
    for j in 1..p {
        // Boundary j sits just above the coordinate of the (j·m/p)-th selected entry,
        // so regions [b_j, b_{j+1}) each hold ≈ m/p selected coordinates.
        let pos = (j * m) / p;
        let coord = if pos == 0 {
            0.0
        } else if pos >= m {
            n as f64
        } else {
            // Midpoint between consecutive selected coordinates keeps the boundary
            // stable under small index jitter.
            (topk_indexes[pos - 1] as f64 + topk_indexes[pos] as f64) / 2.0 + 0.5
        };
        b.push(coord.clamp(0.0, n as f64));
    }
    b.push(n as f64);
    // Enforce monotonicity (possible ties when many selected coords coincide).
    for j in 1..=p {
        if b[j] < b[j - 1] {
            b[j] = b[j - 1];
        }
    }
    b
}

/// Element-wise average of boundary vectors from all workers, rounded to integer
/// coordinates with monotonicity and endpoint pinning restored — the consensus step
/// of §3.1.1 after the P-element allreduce.
pub fn consensus_boundaries(sum: &[f64], workers: usize, n: u32) -> Vec<u32> {
    assert!(workers >= 1 && sum.len() >= 2);
    let p = sum.len() - 1;
    let mut b: Vec<u32> =
        sum.iter().map(|&s| ((s / workers as f64).round().clamp(0.0, n as f64)) as u32).collect();
    b[0] = 0;
    b[p] = n;
    for j in 1..=p {
        if b[j] < b[j - 1] {
            b[j] = b[j - 1];
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_boundaries_cover_space() {
        assert_eq!(equal_boundaries(16, 4), vec![0, 4, 8, 12, 16]);
        assert_eq!(equal_boundaries(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(equal_boundaries(5, 1), vec![0, 5]);
    }

    #[test]
    fn balanced_boundaries_split_clustered_mass() {
        // All top-k coordinates in the first tenth of the space.
        let idx: Vec<u32> = (0..100).collect();
        let b = balanced_boundaries(&idx, 1000, 4);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[4], 1000.0);
        // Interior boundaries must sit inside the cluster, not at 250/500/750.
        assert!(b[1] < 150.0 && b[2] < 150.0 && b[3] < 150.0, "{b:?}");
        let counts: Vec<usize> = b
            .windows(2)
            .map(|w| idx.iter().filter(|&&i| w[0] as u32 <= i && i < w[1] as u32).count())
            .collect();
        assert!(counts.iter().all(|c| (20..=30).contains(c)), "{counts:?}");
    }

    #[test]
    fn balanced_boundaries_empty_topk_falls_back_to_equal() {
        let b = balanced_boundaries(&[], 100, 4);
        assert_eq!(b, vec![0.0, 25.0, 50.0, 75.0, 100.0]);
    }

    #[test]
    fn consensus_averages_and_restores_invariants() {
        let sum = vec![0.0, 30.0, 10.0, 200.0]; // average of 2 workers: [0,15,5,100]
        let b = consensus_boundaries(&sum, 2, 100);
        assert_eq!(b[0], 0);
        assert_eq!(b[3], 100);
        assert!(b.windows(2).all(|w| w[0] <= w[1]), "{b:?}");
        assert_eq!(b[1], 15);
        assert_eq!(b[2], 15); // clamped up to preserve monotonicity
    }

    #[test]
    fn single_region_takes_everything() {
        let idx: Vec<u32> = vec![3, 4, 5];
        let b = balanced_boundaries(&idx, 10, 1);
        assert_eq!(b, vec![0.0, 10.0]);
    }
}
