//! Quantized sparse allreduce — the SparCML-style combination of sparsification
//! and quantization (\[36\], §2: "a combination of sparsification and quantization
//! is studied in SparCML").
//!
//! Same transport as TopkA (allgather + local reduction) but the sparse gradients
//! travel with 16- or 8-bit values, cutting the bandwidth term from `2k(P−1)` to
//! `1.5k(P−1)` / `1.25k(P−1)` at the price of bounded quantization noise, which
//! the residual mechanism absorbs like any other gradient noise.

use crate::dense::allgather_items;
use simnet::Net;
use sparse::quant::{QuantMode, QuantizedCoo};
use sparse::CooGradient;

/// Sparse allreduce with quantized values: quantize → allgather → dequantize →
/// local union-sum. The result carries each contribution's quantization error.
pub fn quantized_allgather_allreduce<C: Net>(
    comm: &mut C,
    local: CooGradient,
    mode: QuantMode,
) -> CooGradient {
    comm.set_phase("topk_a_quant");
    let q = QuantizedCoo::quantize(&local, mode);
    let all = allgather_items(comm, q);
    let dequantized: Vec<CooGradient> = all.iter().map(|q| q.dequantize()).collect();
    CooGradient::merge_sum_many(&dequantized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk_a::topk_allgather_allreduce;
    use rand::prelude::*;
    use simnet::{Cluster, CostModel};
    use sparse::select::topk_exact;

    fn locals(p: usize, n: usize, k: usize, seed: u64) -> Vec<CooGradient> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..p)
            .map(|_| {
                let dense: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                topk_exact(&dense, k)
            })
            .collect()
    }

    #[test]
    fn result_close_to_unquantized() {
        let (p, n, k) = (4, 512, 32);
        let ls = locals(p, n, k, 3);
        let exact = {
            let ls = ls.clone();
            Cluster::new(p, CostModel::free())
                .run(move |comm| topk_allgather_allreduce(comm, ls[comm.rank()].clone()))
                .results
                .remove(0)
        };
        for mode in [QuantMode::Q16, QuantMode::Q8] {
            let ls2 = ls.clone();
            let got = Cluster::new(p, CostModel::free())
                .run(move |comm| {
                    quantized_allgather_allreduce(comm, ls2[comm.rank()].clone(), mode)
                })
                .results
                .remove(0);
            assert_eq!(got.indexes(), exact.indexes());
            // Error ≤ P contributions × per-value quantization error.
            let tol = match mode {
                QuantMode::Q16 => 1e-3,
                QuantMode::Q8 => 5e-2,
            };
            for (a, b) in got.values().iter().zip(exact.values()) {
                assert!((a - b).abs() < tol * p as f32, "{mode:?}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn wire_volume_is_reduced() {
        let (p, n, k) = (8, 4096, 128);
        let ls = locals(p, n, k, 5);
        let volume = |q: Option<QuantMode>| -> u64 {
            let ls = ls.clone();
            let report = Cluster::new(p, CostModel::aries()).run(move |comm| match q {
                None => {
                    topk_allgather_allreduce(comm, ls[comm.rank()].clone());
                }
                Some(mode) => {
                    quantized_allgather_allreduce(comm, ls[comm.rank()].clone(), mode);
                }
            });
            report.ledger.total_elements()
        };
        let full = volume(None);
        let q16 = volume(Some(QuantMode::Q16));
        let q8 = volume(Some(QuantMode::Q8));
        // 2k → 1.5k → 1.25k per contribution (+1 scale word each).
        assert!((q16 as f64) < full as f64 * 0.78, "q16 {q16} vs full {full}");
        assert!((q8 as f64) < full as f64 * 0.66, "q8 {q8} vs full {full}");
        assert!(q8 < q16);
    }
}
