//! Coordinate-format sparse gradients.
//!
//! The paper assumes COO storage throughout (§2): a k-sparse gradient is k `f32`
//! values plus k `u32` indexes, i.e. 2k wire elements. `CooGradient` maintains the
//! invariant that indexes are *strictly increasing* (sorted, unique), which makes
//! merge-sum (the reduction kernel of every sparse allreduce here) a linear sort-merge.

use simnet::WireSize;
use std::borrow::Borrow;
use std::ops::Range;

/// A sparse gradient in coordinate format with sorted, unique indexes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CooGradient {
    indexes: Vec<u32>,
    values: Vec<f32>,
}

impl CooGradient {
    /// An empty sparse gradient.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from parallel arrays that are already sorted by strictly increasing index.
    ///
    /// # Panics
    /// In debug builds, panics if the invariant does not hold.
    pub fn from_sorted(indexes: Vec<u32>, values: Vec<f32>) -> Self {
        debug_assert_eq!(indexes.len(), values.len());
        debug_assert!(
            indexes.windows(2).all(|w| w[0] < w[1]),
            "indexes must be strictly increasing"
        );
        Self { indexes, values }
    }

    /// Build from unsorted parallel arrays; sorts and merges duplicate indexes by sum.
    pub fn from_unsorted(mut pairs: Vec<(u32, f32)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indexes = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if indexes.last() == Some(&i) {
                *values.last_mut().expect("values parallel to indexes") += v;
            } else {
                indexes.push(i);
                values.push(v);
            }
        }
        Self { indexes, values }
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indexes.len()
    }

    /// Whether the gradient holds no entries.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Sorted, unique coordinate indexes.
    pub fn indexes(&self) -> &[u32] {
        &self.indexes
    }

    /// Values, parallel to [`indexes`](Self::indexes).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterate over `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.indexes.iter().copied().zip(self.values.iter().copied())
    }

    /// Merge-sum with another sparse gradient (the sparse reduction kernel).
    /// Entries with equal indexes are added; the result keeps the sorted invariant.
    pub fn merge_sum(&self, other: &Self) -> Self {
        let mut indexes = Vec::with_capacity(self.nnz() + other.nnz());
        let mut values = Vec::with_capacity(self.nnz() + other.nnz());
        self.merge_sum_to(other, &mut indexes, &mut values);
        Self { indexes, values }
    }

    /// The linear sort-merge core: append the merge of `self` and `other` to the
    /// given output buffers.
    fn merge_sum_to(&self, other: &Self, indexes: &mut Vec<u32>, values: &mut Vec<f32>) {
        let (mut a, mut b) = (0usize, 0usize);
        while a < self.nnz() && b < other.nnz() {
            match self.indexes[a].cmp(&other.indexes[b]) {
                std::cmp::Ordering::Less => {
                    indexes.push(self.indexes[a]);
                    values.push(self.values[a]);
                    a += 1;
                }
                std::cmp::Ordering::Greater => {
                    indexes.push(other.indexes[b]);
                    values.push(other.values[b]);
                    b += 1;
                }
                std::cmp::Ordering::Equal => {
                    indexes.push(self.indexes[a]);
                    values.push(self.values[a] + other.values[b]);
                    a += 1;
                    b += 1;
                }
            }
        }
        indexes.extend_from_slice(&self.indexes[a..]);
        values.extend_from_slice(&self.values[a..]);
        indexes.extend_from_slice(&other.indexes[b..]);
        values.extend_from_slice(&other.values[b..]);
    }

    /// In-place merge-sum (avoids one allocation when accumulating many chunks).
    pub fn merge_sum_into(&mut self, other: &Self) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            self.indexes = other.indexes.clone();
            self.values = other.values.clone();
            return;
        }
        *self = self.merge_sum(other);
    }

    /// Merge-sum `other` into `self`, using the caller's spare buffers as the
    /// output storage: after return `self` holds the merge and the spares hold
    /// `self`'s previous (cleared) storage, ready for the next merge.
    ///
    /// This is the allocation-free accumulation loop of split-and-reduce: ping-
    /// ponging one spare pair against the accumulator means a whole bucket of
    /// incoming shards reduces without touching the heap once the spare capacity
    /// covers the steady-state union size.
    pub fn merge_sum_swap(
        &mut self,
        other: &Self,
        spare_idx: &mut Vec<u32>,
        spare_val: &mut Vec<f32>,
    ) {
        if other.is_empty() {
            return;
        }
        spare_idx.clear();
        spare_val.clear();
        // A no-op once warm: capacity only ratchets up to the largest a+b seen.
        spare_idx.reserve(self.nnz() + other.nnz());
        spare_val.reserve(self.nnz() + other.nnz());
        self.merge_sum_to(other, spare_idx, spare_val);
        std::mem::swap(&mut self.indexes, spare_idx);
        std::mem::swap(&mut self.values, spare_val);
    }

    /// Merge-sum many sparse gradients at once.
    ///
    /// Folding with [`merge_sum_into`](Self::merge_sum_into) costs `O(P · |union|)`;
    /// for large worker counts this concat-and-sort formulation's
    /// `O(total · log total)` is far cheaper and is what the allgather-based
    /// reductions use.
    ///
    /// Items are read through [`Borrow`], so a slice of owned gradients and a
    /// slice of shared handles (`Arc<CooGradient>`, what the item allgather
    /// returns) reduce through the same code.
    pub fn merge_sum_many<G: Borrow<Self>>(items: &[G]) -> Self {
        let total: usize = items.iter().map(|g| g.borrow().nnz()).sum();
        let mut pairs: Vec<(u32, f32)> = Vec::with_capacity(total);
        for g in items {
            pairs.extend(g.borrow().iter());
        }
        Self::from_unsorted(pairs)
    }

    /// Scatter into a dense vector of length `n`, adding values at their indexes.
    ///
    /// Deliberately scalar: the writes are random-access (gather/scatter needs
    /// AVX-512 to vectorize profitably) and the loop is O(k), not O(n) — it is
    /// not on the hot path the `simd` module covers.
    fn scatter_add(&self, dense: &mut [f32]) {
        for (i, v) in self.iter() {
            dense[i as usize] += v;
        }
    }

    /// Materialize a dense vector of length `n`.
    pub fn to_dense(&self, n: usize) -> Vec<f32> {
        let mut dense = vec![0.0; n];
        self.scatter_add(&mut dense);
        dense
    }

    /// Keep only entries with `|value| >= threshold`.
    pub fn filter_abs_ge(&self, threshold: f32) -> Self {
        let mut indexes = Vec::new();
        let mut values = Vec::new();
        for (i, v) in self.iter() {
            if v.abs() >= threshold {
                indexes.push(i);
                values.push(v);
            }
        }
        Self { indexes, values }
    }

    /// Positions of the entries whose index lies in `[lo, hi)` — *the*
    /// definition of "which entries fall in a region": slice
    /// [`indexes`](Self::indexes) and [`values`](Self::values) with it. Two
    /// binary searches, no allocation; empty when `hi <= lo`.
    pub fn index_range(&self, lo: u32, hi: u32) -> Range<usize> {
        let start = self.indexes.partition_point(|&i| i < lo);
        start..start + self.indexes[start..].partition_point(|&i| i < hi)
    }

    /// Split into per-region shards given region boundaries `b[0]=0 ≤ … ≤ b[P]=n`;
    /// shard `j` receives the entries with index in `[b[j], b[j+1])`
    /// ([`index_range`](Self::index_range)). An entry below `b[0]` or at or
    /// above `b[P]` lies in no region and is in no shard.
    pub fn split_by_boundaries(&self, boundaries: &[u32]) -> Vec<Self> {
        assert!(boundaries.len() >= 2, "need at least one region");
        boundaries
            .windows(2)
            .map(|b| {
                let r = self.index_range(b[0], b[1]);
                Self { indexes: self.indexes[r.clone()].to_vec(), values: self.values[r].to_vec() }
            })
            .collect()
    }

    /// Concatenate shards whose index ranges are disjoint and ordered. Like
    /// [`merge_sum_many`](Self::merge_sum_many), reads owned shards and shared
    /// handles alike.
    pub fn concat_ordered<G: Borrow<Self>>(shards: &[G]) -> Self {
        let total: usize = shards.iter().map(|s| s.borrow().nnz()).sum();
        let mut indexes = Vec::with_capacity(total);
        let mut values = Vec::with_capacity(total);
        for s in shards {
            let s = s.borrow();
            debug_assert!(
                indexes.last().is_none_or(|&last| s.indexes.first().is_none_or(|&f| last < f)),
                "shards must be ordered and disjoint"
            );
            indexes.extend_from_slice(&s.indexes);
            values.extend_from_slice(&s.values);
        }
        Self { indexes, values }
    }

    /// Scale all values by `c` (lane-vectorized; elementwise, so bit-identical
    /// to the scalar loop).
    pub fn scale(&mut self, c: f32) {
        crate::simd::scale_inplace(&mut self.values, c);
    }

    /// ℓ2 norm of the values.
    pub fn l2_norm(&self) -> f64 {
        self.values.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt()
    }

    /// Consume into parallel arrays.
    pub fn into_parts(self) -> (Vec<u32>, Vec<f32>) {
        (self.indexes, self.values)
    }
}

impl WireSize for CooGradient {
    fn wire_elems(&self) -> u64 {
        // k values + k indexes, all 4-byte words.
        2 * self.nnz() as u64
    }
}

impl FromIterator<(u32, f32)> for CooGradient {
    fn from_iter<T: IntoIterator<Item = (u32, f32)>>(iter: T) -> Self {
        Self::from_unsorted(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coo(pairs: &[(u32, f32)]) -> CooGradient {
        CooGradient::from_unsorted(pairs.to_vec())
    }

    #[test]
    fn from_unsorted_sorts_and_merges() {
        let g = coo(&[(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(g.indexes(), &[2, 5]);
        assert_eq!(g.values(), &[2.0, 4.0]);
    }

    #[test]
    fn merge_sum_matches_dense_addition() {
        let a = coo(&[(0, 1.0), (3, -2.0), (7, 0.5)]);
        let b = coo(&[(3, 2.0), (4, 1.0), (9, -1.0)]);
        let m = a.merge_sum(&b);
        let mut dense = a.to_dense(10);
        for (d, x) in dense.iter_mut().zip(b.to_dense(10)) {
            *d += x;
        }
        assert_eq!(m.to_dense(10), dense);
        assert_eq!(m.nnz(), 5); // index 3 merged
    }

    #[test]
    fn merge_sum_swap_matches_merge_sum() {
        let a0 = coo(&[(0, 1.0), (3, -2.0), (7, 0.5)]);
        let b = coo(&[(3, 2.0), (4, 1.0), (9, -1.0)]);
        let mut a = a0.clone();
        let (mut si, mut sv) = (Vec::new(), Vec::new());
        a.merge_sum_swap(&b, &mut si, &mut sv);
        assert_eq!(a, a0.merge_sum(&b));
        // The spares now hold a's old storage and must be reusable immediately.
        a.merge_sum_swap(&coo(&[(1, 1.0)]), &mut si, &mut sv);
        assert_eq!(a, a0.merge_sum(&b).merge_sum(&coo(&[(1, 1.0)])));
        // Merging an empty gradient is a no-op that leaves the spares alone.
        let before = a.clone();
        a.merge_sum_swap(&CooGradient::new(), &mut si, &mut sv);
        assert_eq!(a, before);
    }

    #[test]
    fn wire_size_is_2k() {
        let g = coo(&[(1, 1.0), (2, 2.0), (3, 3.0)]);
        assert_eq!(g.wire_elems(), 6);
    }

    #[test]
    fn split_and_concat_roundtrip() {
        let g = coo(&[(0, 1.0), (4, 2.0), (5, 3.0), (9, 4.0)]);
        let shards = g.split_by_boundaries(&[0, 5, 8, 10]);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0].indexes(), &[0, 4]);
        assert_eq!(shards[1].indexes(), &[5]);
        assert_eq!(shards[2].indexes(), &[9]);
        assert_eq!(CooGradient::concat_ordered(&shards), g);
    }

    #[test]
    fn empty_region_split() {
        let g = coo(&[(9, 4.0)]);
        let shards = g.split_by_boundaries(&[0, 5, 10]);
        assert_eq!(shards[0].nnz(), 0);
        assert_eq!(shards[1].nnz(), 1);
    }

    #[test]
    fn index_range_is_half_open_and_total() {
        let g = coo(&[(2, 1.0), (5, 2.0), (6, 3.0), (9, 4.0)]);
        assert_eq!(g.index_range(0, 2), 0..0);
        assert_eq!(g.index_range(2, 5), 0..1); // 2 is in, 5 is not
        assert_eq!(g.index_range(5, 5), 1..1); // empty region
        assert_eq!(g.index_range(5, 10), 1..4);
        assert_eq!(g.index_range(7, 3), 3..3); // inverted bounds select nothing
        assert_eq!(CooGradient::new().index_range(0, 10), 0..0);
        // Duplicate boundaries make an empty shard; an entry on a boundary goes
        // to the region it opens; entries outside [b[0], b[P]) are in no shard.
        let shards = g.split_by_boundaries(&[3, 5, 5, 9]);
        assert_eq!(shards[0].nnz(), 0);
        assert_eq!(shards[1].nnz(), 0);
        assert_eq!(shards[2].indexes(), &[5, 6]);
    }

    #[test]
    fn filter_abs_ge_keeps_magnitudes() {
        let g = coo(&[(0, 0.1), (1, -0.5), (2, 0.3)]);
        let f = g.filter_abs_ge(0.3);
        assert_eq!(f.indexes(), &[1, 2]);
    }

    #[test]
    fn l2_norm_and_scale() {
        let mut g = coo(&[(0, 3.0), (1, 4.0)]);
        assert!((g.l2_norm() - 5.0).abs() < 1e-12);
        g.scale(2.0);
        assert!((g.l2_norm() - 10.0).abs() < 1e-12);
    }
}
