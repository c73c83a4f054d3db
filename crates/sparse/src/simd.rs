//! Explicit-lane SIMD kernels for the selection/residual hot path and the dnn
//! matmuls.
//!
//! Every Ok-Topk step burns most of its compute in a handful of O(n) per-element
//! passes: the threshold count/scan, the survivor filter, and the residual
//! accumulate (fused with the scan on a steady-state step); a training step's
//! forward and backward passes burn theirs in matmuls. Three kinds of
//! kernels, deliberately implemented differently:
//!
//! - **Compare/mask kernels** ([`count_abs_ge`], [`scan_keep_append`]) use
//!   hand-written AVX2/SSE2 intrinsics on x86-64 — the compare → movemask →
//!   trailing_zeros survivor emission is a shape LLVM does not autovectorize,
//!   and it is worth >3× on the steady-state threshold scan. These dispatch on
//!   a lane width and keep `*_with_lanes` variants, with [`Lanes::S1`] as the
//!   scalar reference the parity suites compare against.
//! - **Elementwise streaming kernels** (residual fuse, scale, max-abs, axpy)
//!   are one portable `[f32; 8]` core each, which LLVM autovectorizes at the
//!   build's baseline ISA. Explicit `target_feature` wrappers were measured
//!   *slower* here (see the note on the x86 module), and a width sweep read
//!   within 3% across 1/4/8 lanes: these loops are memory-bound, so wider
//!   registers add nothing.
//! - **The matmul microkernel** ([`gather_madd`]) is one portable core too,
//!   but compute-bound on L1-resident panels, so on an AVX2 host it runs that
//!   core compiled for AVX2.
//!
//! ## Lane width
//!
//! The mask kernels' width is a CPU probe, resolved once per process: AVX2 →
//! 8 lanes, x86-64 baseline SSE2 → 4 lanes, aarch64 NEON → 4 lanes (portable
//! mask core, NEON codegen), otherwise scalar. [`caps`] reports it; bench
//! harnesses record it in their JSON headers so perf trajectories across hosts
//! stay interpretable.
//!
//! ## Bit-compatibility (reassociation tolerance policy)
//!
//! Every kernel here is **bit-identical to its scalar reference** — asserted by
//! the `lane_parity` proptest suite. That is possible because none of them
//! reassociates a float reduction:
//!
//! - counts are integer reductions (order-free);
//! - `fused_scale_add`, `scale_inplace`, `axpy` are elementwise (each output
//!   element sees the exact scalar operation sequence);
//! - `gather_madd` puts its lanes on *independent outputs*: each lane adds its
//!   own terms in ascending order, the sequence of a scalar loop, while the
//!   panel stays in registers;
//! - the keep-scan emits survivors in index order off a lane mask;
//! - `accumulate_scan_keep_append` is `axpy` then the keep-scan, tile by tile:
//!   `o + a·r` rounds exactly as `fused_scale_add`'s `e + s·g` does, so it
//!   leaves the bits that kernel followed by a whole-array scan would.
//!
//! Lanes along a reduction (a horizontal-sum dot product) would reassociate,
//! and no kernel here does that: the dnn matmuls, dot products included, put
//! the lanes across outputs instead (see `dnn::ops`). If a future kernel must
//! reassociate, its parity test drops from bitwise equality to a documented
//! relative-error tolerance — that is the only sanctioned relaxation.

use std::sync::OnceLock;

/// Lane width for the compare/mask kernels in this module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lanes {
    /// Scalar reference path (1 element per step).
    S1,
    /// 4-wide lanes (SSE2 on x86-64, NEON-friendly portable core elsewhere).
    W4,
    /// 8-wide lanes (AVX2 on x86-64, portable core elsewhere).
    W8,
}

impl Lanes {
    /// Number of f32 elements processed per lane step.
    pub fn width(self) -> usize {
        match self {
            Lanes::S1 => 1,
            Lanes::W4 => 4,
            Lanes::W8 => 8,
        }
    }

    /// All widths, for parity sweeps.
    pub const ALL: [Lanes; 3] = [Lanes::S1, Lanes::W4, Lanes::W8];
}

/// The host's SIMD capability, probed once per process.
#[derive(Clone, Debug)]
pub struct SimdCaps {
    /// The lane width the auto-dispatching mask kernels use.
    pub lanes: Lanes,
    /// Human-readable ISA the width maps to (`"avx2"`, `"sse2"`, `"neon"`,
    /// `"scalar"`).
    pub isa: &'static str,
}

fn detect() -> SimdCaps {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdCaps { lanes: Lanes::W8, isa: "avx2" };
        }
        return SimdCaps { lanes: Lanes::W4, isa: "sse2" }; // x86-64 baseline
    }
    #[cfg(target_arch = "aarch64")]
    {
        return SimdCaps { lanes: Lanes::W4, isa: "neon" }; // NEON is baseline on aarch64
    }
    #[allow(unreachable_code)]
    SimdCaps { lanes: Lanes::S1, isa: "scalar" }
}

/// The process-wide SIMD capability (the first call probes the CPU).
pub fn caps() -> &'static SimdCaps {
    static CAPS: OnceLock<SimdCaps> = OnceLock::new();
    CAPS.get_or_init(detect)
}

// ---------------------------------------------------------------------------
// Portable fixed-width mask cores, for widths without an intrinsic kernel.
// ---------------------------------------------------------------------------

#[inline(always)]
fn count_abs_ge_core<const L: usize>(values: &[f32], th: f32) -> usize {
    let mut lane = [0usize; L];
    let mut it = values.chunks_exact(L);
    for chunk in &mut it {
        for j in 0..L {
            lane[j] += usize::from(chunk[j].abs() >= th);
        }
    }
    let mut total: usize = lane.iter().sum();
    for v in it.remainder() {
        total += usize::from(v.abs() >= th);
    }
    total
}

/// `select_ge` keep predicate: survivors have `|v| >= th` and are not exact
/// zeros (an explicit zero carries no information in a sparse gradient).
#[inline(always)]
fn keep(v: f32, th: f32) -> bool {
    v.abs() >= th && v != 0.0
}

/// Bitmask of keep-lanes for one L-block (bit j = block[j] survives).
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn keep_mask_core<const L: usize>(block: &[f32], th: f32) -> u32 {
    let mut mask = 0u32;
    for j in 0..L {
        mask |= u32::from(keep(block[j], th)) << j;
    }
    mask
}

// ---------------------------------------------------------------------------
// x86-64 intrinsic kernels — count/mask, plus an AVX2 build of the portable
// matmul microkernel. The mask kernels use hand-written AVX2/SSE2 compares
// because LLVM does not reliably turn the portable mask fold into movemask.
// The elementwise streaming kernels deliberately have NO intrinsic
// variants: their portable core already autovectorizes at the build's baseline
// ISA, and `#[target_feature(enable = "avx2")]` wrappers around them measured
// consistently *slower* than baseline codegen on memory-bound sizes (the
// hotpath bench's residual_fuse row read 0.79–0.92x with a wrapper) — wider
// registers buy nothing once the stream is bandwidth-bound, and the
// non-inlinable target_feature boundary costs scheduling freedom.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    const ABS_MASK: u32 = 0x7fff_ffff;

    #[inline]
    unsafe fn hsum_epi32(v: __m256i) -> i32 {
        let lo = _mm256_castsi256_si128(v);
        let hi = _mm256_extracti128_si256::<1>(v);
        let s = _mm_add_epi32(lo, hi);
        let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01>(s));
        _mm_cvtsi128_si32(s)
    }

    /// AVX2 threshold count: per-lane i32 counters via compare-and-subtract
    /// (a true compare lane is −1), 16 elements per iteration.
    #[target_feature(enable = "avx2")]
    pub unsafe fn count_abs_ge_w8(values: &[f32], th: f32) -> usize {
        let absmask = _mm256_set1_ps(f32::from_bits(ABS_MASK));
        let t = _mm256_set1_ps(th);
        let mut c0 = _mm256_setzero_si256();
        let mut c1 = _mm256_setzero_si256();
        let mut it = values.chunks_exact(16);
        for chunk in &mut it {
            let a = _mm256_and_ps(_mm256_loadu_ps(chunk.as_ptr()), absmask);
            let b = _mm256_and_ps(_mm256_loadu_ps(chunk.as_ptr().add(8)), absmask);
            c0 = _mm256_sub_epi32(c0, _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(a, t)));
            c1 = _mm256_sub_epi32(c1, _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(b, t)));
        }
        let mut total = hsum_epi32(_mm256_add_epi32(c0, c1)) as usize;
        for v in it.remainder() {
            total += usize::from(v.abs() >= th);
        }
        total
    }

    /// SSE2 threshold count, 8 elements per iteration.
    #[target_feature(enable = "sse2")]
    pub unsafe fn count_abs_ge_w4(values: &[f32], th: f32) -> usize {
        let absmask = _mm_set1_ps(f32::from_bits(ABS_MASK));
        let t = _mm_set1_ps(th);
        let mut c0 = _mm_setzero_si128();
        let mut c1 = _mm_setzero_si128();
        let mut it = values.chunks_exact(8);
        for chunk in &mut it {
            let a = _mm_and_ps(_mm_loadu_ps(chunk.as_ptr()), absmask);
            let b = _mm_and_ps(_mm_loadu_ps(chunk.as_ptr().add(4)), absmask);
            c0 = _mm_sub_epi32(c0, _mm_castps_si128(_mm_cmpge_ps(a, t)));
            c1 = _mm_sub_epi32(c1, _mm_castps_si128(_mm_cmpge_ps(b, t)));
        }
        let s = _mm_add_epi32(c0, c1);
        let s = _mm_add_epi32(s, _mm_unpackhi_epi64(s, s));
        let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01>(s));
        let mut total = _mm_cvtsi128_si32(s) as usize;
        for v in it.remainder() {
            total += usize::from(v.abs() >= th);
        }
        total
    }

    /// Keep-lane bitmask for one 8-block (bit j = lane j survives).
    #[target_feature(enable = "avx2")]
    pub unsafe fn keep_mask_w8(block: *const f32, th: f32) -> u32 {
        let absmask = _mm256_set1_ps(f32::from_bits(ABS_MASK));
        let v = _mm256_loadu_ps(block);
        let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(_mm256_and_ps(v, absmask), _mm256_set1_ps(th));
        let nz = _mm256_cmp_ps::<_CMP_NEQ_UQ>(v, _mm256_setzero_ps());
        _mm256_movemask_ps(_mm256_and_ps(ge, nz)) as u32
    }

    /// [`super::gather_madd`]'s portable core compiled for AVX2: the same
    /// lane code on registers twice as wide. Multiply and add stay separate
    /// instructions (no FMA contraction), so every lane rounds exactly as the
    /// portable core does; the kernel is compute-bound on L1-resident panels,
    /// so, unlike the streaming kernels, the width pays (EXPERIMENTS.md
    /// § "Lane-parallel matmul kernels").
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_madd_avx2(acc: &mut [f32], src: &[f32], offs: &[usize], coefs: &[f32]) {
        super::gather_madd_core(acc, src, offs, coefs)
    }

    /// Keep-lane bitmask for one 4-block.
    #[target_feature(enable = "sse2")]
    pub unsafe fn keep_mask_w4(block: *const f32, th: f32) -> u32 {
        let absmask = _mm_set1_ps(f32::from_bits(ABS_MASK));
        let v = _mm_loadu_ps(block);
        let ge = _mm_cmpge_ps(_mm_and_ps(v, absmask), _mm_set1_ps(th));
        let nz = _mm_cmpneq_ps(v, _mm_setzero_ps());
        _mm_movemask_ps(_mm_and_ps(ge, nz)) as u32
    }
}

#[cfg(target_arch = "x86_64")]
#[inline]
fn have_avx2() -> bool {
    // `is_x86_feature_detected!` caches after the first probe.
    std::arch::is_x86_feature_detected!("avx2")
}

// ---------------------------------------------------------------------------
// Mask-kernel dispatchers. The `*_with_lanes` variants are the parity-test
// surface: a forced width the CPU cannot accelerate still computes through the
// portable core at that width (same math, same result).
// ---------------------------------------------------------------------------

/// Count entries with `|v| >= th` (the steady-state threshold scan).
pub fn count_abs_ge(values: &[f32], th: f32) -> usize {
    count_abs_ge_with_lanes(values, th, caps().lanes)
}

/// [`count_abs_ge`] at an explicit lane width.
pub fn count_abs_ge_with_lanes(values: &[f32], th: f32, lanes: Lanes) -> usize {
    match lanes {
        Lanes::S1 => values.iter().filter(|v| v.abs() >= th).count(),
        Lanes::W4 => {
            #[cfg(target_arch = "x86_64")]
            // Safety: SSE2 is part of the x86-64 baseline.
            return unsafe { x86::count_abs_ge_w4(values, th) };
            #[allow(unreachable_code)]
            count_abs_ge_core::<4>(values, th)
        }
        Lanes::W8 => {
            #[cfg(target_arch = "x86_64")]
            if have_avx2() {
                // Safety: AVX2 presence just checked.
                return unsafe { x86::count_abs_ge_w8(values, th) };
            }
            count_abs_ge_core::<8>(values, th)
        }
    }
}

/// Shared block walk of the keep-scan: computes a lane mask per block, skips
/// survivor-free blocks wholesale (the common case at steady-state sparsity),
/// and emits survivors in index order.
#[inline(always)]
fn scan_keep_blocks<F: FnMut(u32, f32)>(dense: &[f32], th: f32, base: u32, width: usize, emit: F) {
    let mut emit = emit;
    debug_assert!(width == 4 || width == 8);
    let main = dense.len() - dense.len() % width;
    let mut off = 0usize;
    while off < main {
        let block = &dense[off..off + width];
        #[allow(unused_mut)]
        let mut mask;
        #[cfg(target_arch = "x86_64")]
        {
            // Safety: the block has `width` readable elements; SSE2 is
            // baseline and the W8 path is only reached when AVX2 is present
            // (checked by the caller choosing the width).
            mask = if width == 8 {
                unsafe { x86::keep_mask_w8(block.as_ptr(), th) }
            } else {
                unsafe { x86::keep_mask_w4(block.as_ptr(), th) }
            };
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            mask = if width == 8 {
                keep_mask_core::<8>(block, th)
            } else {
                keep_mask_core::<4>(block, th)
            };
        }
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            emit(base + (off + j) as u32, block[j]);
            mask &= mask - 1;
        }
        off += width;
    }
    for (j, &v) in dense[main..].iter().enumerate() {
        if keep(v, th) {
            emit(base + (main + j) as u32, v);
        }
    }
}

/// Append `select_ge` survivors of `dense` (indexes offset by `base`) to the
/// output vectors, in index order — the serial selection scan.
pub fn scan_keep_append(dense: &[f32], th: f32, base: u32, idx: &mut Vec<u32>, val: &mut Vec<f32>) {
    scan_keep_append_with_lanes(dense, th, base, idx, val, caps().lanes)
}

/// [`scan_keep_append`] at an explicit lane width.
pub fn scan_keep_append_with_lanes(
    dense: &[f32],
    th: f32,
    base: u32,
    idx: &mut Vec<u32>,
    val: &mut Vec<f32>,
    lanes: Lanes,
) {
    let width = effective_mask_width(lanes);
    if width == 1 {
        for (i, &v) in dense.iter().enumerate() {
            if keep(v, th) {
                idx.push(base + i as u32);
                val.push(v);
            }
        }
        return;
    }
    scan_keep_blocks(dense, th, base, width, |i, v| {
        idx.push(i);
        val.push(v);
    });
}

/// The mask-kernel width a requested lane setting resolves to: W8 drops to 4
/// on x86-64 without AVX2 (the portable mask core is slower than SSE2 there),
/// and stays as requested elsewhere (portable cores).
fn effective_mask_width(lanes: Lanes) -> usize {
    match lanes {
        Lanes::S1 => 1,
        Lanes::W4 => 4,
        Lanes::W8 => {
            #[cfg(target_arch = "x86_64")]
            if !have_avx2() {
                return 4;
            }
            8
        }
    }
}

// ---------------------------------------------------------------------------
// Elementwise kernels: one portable `[f32; EW]` core each.
// ---------------------------------------------------------------------------

/// Lane width of the elementwise cores. The loops are memory-bound, so the
/// width only has to be wide enough for LLVM to emit full vector registers.
const EW: usize = 8;

/// `acc[i] = e[i] + s·g[i]` — the fused residual-accumulate of Algorithm 2
/// line 4. Slices must be equal length.
pub fn fused_scale_add(acc: &mut [f32], e: &[f32], g: &[f32], s: f32) {
    debug_assert_eq!(acc.len(), e.len());
    debug_assert_eq!(acc.len(), g.len());
    let mut a = acc.chunks_exact_mut(EW);
    let mut ei = e.chunks_exact(EW);
    let mut gi = g.chunks_exact(EW);
    for ((ac, ec), gc) in (&mut a).zip(&mut ei).zip(&mut gi) {
        for j in 0..EW {
            ac[j] = ec[j] + s * gc[j];
        }
    }
    for ((av, &ev), &gv) in a.into_remainder().iter_mut().zip(ei.remainder()).zip(gi.remainder()) {
        *av = ev + s * gv;
    }
}

/// `v[i] *= c` in place.
pub fn scale_inplace(values: &mut [f32], c: f32) {
    let mut it = values.chunks_exact_mut(EW);
    for chunk in &mut it {
        for v in chunk {
            *v *= c;
        }
    }
    for v in it.into_remainder() {
        *v *= c;
    }
}

/// `out[j] += a·row[j]` — the elementwise row update of the ikj matmul.
/// `row` must be at least as long as `out`.
pub fn axpy(out: &mut [f32], row: &[f32], a: f32) {
    let row = &row[..out.len()];
    let mut o = out.chunks_exact_mut(EW);
    let mut r = row.chunks_exact(EW);
    for (oc, rc) in (&mut o).zip(&mut r) {
        for j in 0..EW {
            oc[j] += a * rc[j];
        }
    }
    for (ov, rv) in o.into_remainder().iter_mut().zip(r.remainder()) {
        *ov += a * rv;
    }
}

/// Output lanes [`gather_madd`] keeps in registers across its whole sum: 32
/// f32 are eight SSE2 or four AVX2 registers, each an independent chain.
pub const PANEL: usize = 32;

/// `acc[p] += Σ_q coefs[q] · src[offs[q] + p]` for every `p < acc.len()` — the
/// register-panel microkernel of the dnn matmuls. Each lane is its own output
/// and adds its terms in ascending `q`, exactly as a scalar loop over `q`
/// would, so the result is bit-identical to it at any lane width; what the
/// lanes buy is that a panel of `acc` is loaded once, stays in registers for
/// every `q`, and is stored once. `offs` and `coefs` are equal length, and
/// `src[off..off + acc.len()]` must be in bounds for every offset.
pub fn gather_madd(acc: &mut [f32], src: &[f32], offs: &[usize], coefs: &[f32]) {
    assert_eq!(offs.len(), coefs.len(), "one coefficient per gathered row");
    #[cfg(target_arch = "x86_64")]
    if caps().lanes == Lanes::W8 {
        // SAFETY: `caps()` reports 8 lanes on x86-64 only when AVX2 is present.
        return unsafe { x86::gather_madd_avx2(acc, src, offs, coefs) };
    }
    gather_madd_core(acc, src, offs, coefs)
}

#[inline(always)]
fn gather_madd_core(acc: &mut [f32], src: &[f32], offs: &[usize], coefs: &[f32]) {
    let n = acc.len();
    let mut p0 = 0;
    while n - p0 >= PANEL {
        madd_panel::<PANEL>(&mut acc[p0..p0 + PANEL], src, p0, offs, coefs);
        p0 += PANEL;
    }
    while n - p0 >= EW {
        madd_panel::<EW>(&mut acc[p0..p0 + EW], src, p0, offs, coefs);
        p0 += EW;
    }
    while p0 < n {
        madd_panel::<1>(&mut acc[p0..p0 + 1], src, p0, offs, coefs);
        p0 += 1;
    }
}

/// One `W`-lane panel of [`gather_madd`], starting at output lane `p0`.
#[inline(always)]
fn madd_panel<const W: usize>(
    acc: &mut [f32],
    src: &[f32],
    p0: usize,
    offs: &[usize],
    coefs: &[f32],
) {
    let acc: &mut [f32; W] = acc.try_into().expect("panel is W lanes wide");
    let mut a = *acc;
    for (&off, &c) in offs.iter().zip(coefs) {
        let s: &[f32; W] = src[off + p0..off + p0 + W].try_into().expect("W lanes");
        for l in 0..W {
            a[l] += c * s[l];
        }
    }
    *acc = a;
}

/// Elements per tile of [`accumulate_scan_keep_append`]: 8 KiB of residual plus
/// 8 KiB of gradient, so the tile `axpy` just wrote is read back from L1.
const ACCUMULATE_TILE: usize = 2048;

/// Error feedback fused with the keep-scan: `residual[i] += scale·grad[i]` in
/// place, and the `select_ge` survivors of the updated values (`|ε| >= th`,
/// nonzero) appended to `idx`/`val` in index order — one pass over DRAM where
/// [`fused_scale_add`] into a second buffer followed by [`scan_keep_append`]
/// makes two, with bit-identical results. Slices must be equal length.
pub fn accumulate_scan_keep_append(
    residual: &mut [f32],
    grad: &[f32],
    scale: f32,
    th: f32,
    idx: &mut Vec<u32>,
    val: &mut Vec<f32>,
) {
    assert_eq!(residual.len(), grad.len());
    let lanes = caps().lanes;
    let mut base = 0u32;
    for (r, g) in residual.chunks_mut(ACCUMULATE_TILE).zip(grad.chunks(ACCUMULATE_TILE)) {
        axpy(r, g, scale);
        scan_keep_append_with_lanes(r, th, base, idx, val, lanes);
        base += r.len() as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(seed);
                let v = ((h >> 33) % 2001) as f32 / 1000.0 - 1.0;
                if v.abs() < 0.3 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn caps_resolve_and_are_stable() {
        let c1 = caps();
        let c2 = caps();
        assert_eq!(c1.lanes, c2.lanes);
        assert!(c1.lanes.width() >= 1);
    }

    #[test]
    fn counts_match_scalar_at_all_widths() {
        for n in [0usize, 1, 3, 4, 7, 8, 15, 16, 17, 100, 1000, 4097] {
            let v = mixed(n, 42);
            for th in [0.0f32, 0.3, 0.5, 0.95, f32::INFINITY] {
                let want_ge = v.iter().filter(|x| x.abs() >= th).count();
                for l in Lanes::ALL {
                    assert_eq!(count_abs_ge_with_lanes(&v, th, l), want_ge, "n={n} th={th} {l:?}");
                }
            }
        }
    }

    #[test]
    fn scan_append_matches_scalar() {
        for n in [0usize, 1, 5, 8, 9, 63, 64, 65, 1000] {
            let v = mixed(n, 7);
            let th = 0.5f32;
            let mut want_i = Vec::new();
            let mut want_v = Vec::new();
            scan_keep_append_with_lanes(&v, th, 10, &mut want_i, &mut want_v, Lanes::S1);
            for l in [Lanes::W4, Lanes::W8] {
                let (mut gi, mut gv) = (Vec::new(), Vec::new());
                scan_keep_append_with_lanes(&v, th, 10, &mut gi, &mut gv, l);
                assert_eq!(gi, want_i, "append n={n} {l:?}");
                assert_eq!(gv, want_v, "append n={n} {l:?}");
            }
        }
    }

    #[test]
    fn elementwise_kernels_bit_identical() {
        for n in [0usize, 1, 7, 8, 9, 100, 1001] {
            let src = mixed(n, 3);
            let g = mixed(n, 5);
            let a_want: Vec<f32> = src.iter().zip(&g).map(|(&ev, &gv)| ev + 0.37 * gv).collect();
            let mut a = vec![0f32; n];
            fused_scale_add(&mut a, &src, &g, 0.37);
            assert_eq!(a, a_want, "fused_scale_add n={n}");

            let s_want: Vec<f32> = src.iter().map(|&v| v * -1.5).collect();
            let mut s = src.clone();
            scale_inplace(&mut s, -1.5);
            assert_eq!(s, s_want, "scale n={n}");
        }
    }

    #[test]
    fn axpy_kernels_bit_identical() {
        // One lane count per panel path and remainder: scalar, 8-wide, 32-wide.
        for n in [0usize, 1, 7, 8, 9, 31, 32, 33, 47, 133] {
            let src = mixed(5 * n + 3, 20);
            let offs = [2 * n, 0, 3, 4 * n, n + 1];
            let coefs = [0.5f32, -1.25, 0.0, 2.0, -0.0];
            let init = mixed(n, 9);
            // Scalar reference: each lane adds its terms in ascending order.
            let mut want = init.clone();
            for (&off, &c) in offs.iter().zip(&coefs) {
                for (p, o) in want.iter_mut().enumerate() {
                    *o += c * src[off + p];
                }
            }
            let mut got = init.clone();
            gather_madd(&mut got, &src, &offs, &coefs);
            assert_eq!(got, want, "gather_madd n={n}");
            // Lane parity: the portable core against whatever `caps()` picked
            // (the AVX2 build on an AVX2 host).
            let mut core = init.clone();
            gather_madd_core(&mut core, &src, &offs, &coefs);
            assert_eq!(core, want, "gather_madd_core n={n}");

            let mut got1 = init.clone();
            for (&off, &c) in offs.iter().zip(&coefs) {
                axpy(&mut got1, &src[off..], c);
            }
            assert_eq!(got1, want, "axpy chain n={n}");
        }
    }

    #[test]
    fn nan_lanes_do_not_diverge() {
        // NaN never satisfies `|v| >= th`; keep-scan and counts must agree at
        // every width even with NaN payloads present.
        let mut v = mixed(64, 11);
        v[3] = f32::NAN;
        v[40] = -f32::NAN;
        for th in [0.0f32, 0.5] {
            let want = count_abs_ge_with_lanes(&v, th, Lanes::S1);
            let (mut want_i, mut want_v) = (Vec::new(), Vec::new());
            scan_keep_append_with_lanes(&v, th, 0, &mut want_i, &mut want_v, Lanes::S1);
            for l in [Lanes::W4, Lanes::W8] {
                assert_eq!(count_abs_ge_with_lanes(&v, th, l), want);
                let (mut gi, mut gv) = (Vec::new(), Vec::new());
                scan_keep_append_with_lanes(&v, th, 0, &mut gi, &mut gv, l);
                assert_eq!(gi, want_i);
                assert_eq!(gv, want_v);
            }
        }
    }
}
