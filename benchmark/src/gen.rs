//! The one synthetic-input generator: gradients and modeled compute times as
//! pure functions of `(seed, rank, step)`.
//!
//! Values are heavy-tailed (a cubed uniform) under a slowly drifting global
//! amplitude, so reused thresholds go stale the way they do in training. On
//! top sits a spike set of `2k` entries whose support drifts (each spike
//! lives [`SPIKE_LIFE`] steps, staggered so a fixed share moves every step):
//! seven eighths of the spikes are shared by every rank — their reduced
//! regions overlap — and one eighth is private to one rank.

/// Steps a spike keeps its position before it moves.
const SPIKE_LIFE: u64 = 6;
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 output function.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a short key into one well-mixed word.
pub fn key(parts: &[u64]) -> u64 {
    parts.iter().fold(GAMMA, |h, &p| mix(h ^ p.wrapping_add(GAMMA)))
}

/// Uniform in `[0, 1)` from the top 24 bits of a mixed word.
fn u01(z: u64) -> f32 {
    (z >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
}

/// Slow global amplitude drift, so the k-th largest magnitude moves between
/// threshold re-evaluations. The same for every seed: a seed changes where
/// the values fall, not how hard the workload is.
fn amplitude(step: u64) -> f32 {
    1.0 + 0.2 * (step as f32 / 7.0).sin()
}

/// Fill `out` with rank `rank`'s gradient for `step`; `k` sizes the spike set.
pub fn grad(seed: u64, rank: usize, step: u64, k: usize, out: &mut [f32]) {
    let n = out.len() as u64;
    let amp = amplitude(step);
    let base = key(&[seed, rank as u64, step]);
    for (i, v) in out.iter_mut().enumerate() {
        let u = 2.0 * u01(mix(base.wrapping_add((i as u64 + 1).wrapping_mul(GAMMA)))) - 1.0;
        *v = 0.05 * amp * u * u * u;
    }
    // Twice k spikes, so the k-th largest magnitude falls inside the spike
    // distribution, where its density is smooth, and not at its edge.
    let private = (k / 4) as u64;
    let shared = 2 * k as u64 - private;
    for j in 0..shared + private {
        // Staggered lifetimes: 1/SPIKE_LIFE of the spikes move each step.
        let epoch = (step + j) / SPIKE_LIFE;
        let (owner, slot, slots) =
            if j < shared { (u64::MAX, j, shared) } else { (rank as u64, j - shared, private) };
        let at = key(&[seed, 0x5B, j, epoch, owner]);
        // Stratified support: spike `slot` lands somewhere in its own
        // 1/slots-th of the index space, so every region of the space holds
        // about the same number of spikes whatever the seed.
        let lo = slot * n / slots;
        let width = ((slot + 1) * n / slots - lo).max(1);
        // Shared spikes agree on position and sign; every rank draws its own
        // magnitude, which overlaps the top of the dense tail.
        let draw = u01(key(&[at, rank as u64, step]));
        let sign = if at & 1 == 0 { 1.0 } else { -1.0 };
        out[(lo + (at >> 1) % width) as usize] = sign * amp * (0.25 + 1.75 * draw * draw);
    }
}

/// Modeled forward+backward seconds of `rank` at `step`: the nominal time with
/// a small heavy-tailed positive imbalance, so ranks reach the exchange at
/// different virtual times.
pub fn compute_seconds(seed: u64, rank: usize, step: u64, nominal: f64) -> f64 {
    let u = u01(key(&[seed, 0xC7, rank as u64, step])) as f64;
    nominal * (1.0 + 0.1 * u * u)
}
