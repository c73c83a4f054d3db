//! Concurrent-caller stress for the okpar worker pool.
//!
//! `simnet` runs one OS thread per simulated rank, and several ranks hit the
//! parallel kernels at the same time — so the pool must accept concurrent
//! dispatches whose jobs interleave in one shared queue. This test runs 8
//! caller threads × mixed kernels (all three matmuls, threshold scan,
//! select-ge) with per-iteration thread counts up to 17 (far beyond the core
//! count), asserting every result is bit-identical to the serial reference.
//! Completion of the `std::thread::scope` doubles as the no-deadlock check:
//! a stuck dispatch would hang the join and trip the test harness timeout.

use dnn::ops::{matmul_acc_with_threads, matmul_acc_wt_with_threads, matmul_acc_xt_with_threads};
use sparse::scratch::{exact_threshold_scratch, select_ge_with_threads, SelectScratch};

fn pseudo(n: usize, seed: u64) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed);
            let v = ((h >> 33) % 2000) as f32 / 1000.0 - 1.0;
            if v.abs() < 0.3 {
                0.0
            } else {
                v
            }
        })
        .collect()
}

#[test]
fn eight_concurrent_callers_mixed_kernels_bit_identical() {
    const CALLERS: usize = 8;
    const ITERS: usize = 25;
    const THREADS: [usize; 4] = [2, 3, 8, 17];
    let (rows, inner, cols) = (13, 17, 11);
    let n = 6000;
    let k = 97;

    let x = pseudo(rows * inner, 1);
    let w = pseudo(inner * cols, 2);
    let dy = pseudo(rows * cols, 3);
    let dense = pseudo(n, 4);

    // Serial references, computed once up front.
    let mut out_ref = vec![0.125f32; rows * cols];
    matmul_acc_with_threads(&x, &w, &mut out_ref, rows, inner, cols, 1);
    let mut dx_ref = vec![0.25f32; rows * inner];
    matmul_acc_wt_with_threads(&dy, &w, &mut dx_ref, rows, inner, cols, 1);
    let mut dw_ref = vec![0.5f32; inner * cols];
    matmul_acc_xt_with_threads(&x, &dy, &mut dw_ref, rows, inner, cols, 1);
    let mut scratch0 = SelectScratch::new();
    let th_ref = exact_threshold_scratch(&dense, k, &mut scratch0);
    let sel_ref = select_ge_with_threads(&dense, th_ref, &mut scratch0, 1);

    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let (x, w, dy, dense) = (&x, &w, &dy, &dense);
            let (out_ref, dx_ref, dw_ref, sel_ref) = (&out_ref, &dx_ref, &dw_ref, &sel_ref);
            s.spawn(move || {
                let mut scratch = SelectScratch::new();
                for iter in 0..ITERS {
                    let threads = THREADS[(caller + iter) % THREADS.len()];

                    let mut out = vec![0.125f32; rows * cols];
                    matmul_acc_with_threads(x, w, &mut out, rows, inner, cols, threads);
                    assert_eq!(out, *out_ref, "acc caller={caller} iter={iter} t={threads}");

                    let mut dx = vec![0.25f32; rows * inner];
                    matmul_acc_wt_with_threads(dy, w, &mut dx, rows, inner, cols, threads);
                    assert_eq!(dx, *dx_ref, "wt caller={caller} iter={iter} t={threads}");

                    let mut dw = vec![0.5f32; inner * cols];
                    matmul_acc_xt_with_threads(x, dy, &mut dw, rows, inner, cols, threads);
                    assert_eq!(dw, *dw_ref, "xt caller={caller} iter={iter} t={threads}");

                    let th = exact_threshold_scratch(dense, k, &mut scratch);
                    assert_eq!(th.to_bits(), th_ref.to_bits(), "th caller={caller} iter={iter}");
                    let sel = select_ge_with_threads(dense, th, &mut scratch, threads);
                    assert_eq!(&sel, sel_ref, "sel caller={caller} iter={iter} t={threads}");
                    scratch.recycle(sel);
                }
            });
        }
    });
}
