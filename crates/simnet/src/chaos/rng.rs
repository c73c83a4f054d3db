//! Stateless, platform-independent randomness for jitter draws.
//!
//! A stateful RNG shared across ranks would make draw order depend on the
//! schedule; hashing `(seed, rule, src, dst, sequence)` instead makes
//! every draw a pure function of program-order quantities.

/// One round of the splitmix64 output permutation.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a key tuple into a uniform draw in `[0, 1)` (53-bit mantissa).
pub(crate) fn hash_u01(parts: &[u64]) -> f64 {
    let mut h = 0x243F_6A88_85A3_08D3u64; // π digits: fixed, arbitrary offset
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_uniform_enough_and_in_range() {
        let mut sum = 0.0;
        for i in 0..1000u64 {
            let u = hash_u01(&[7, i]);
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn draws_are_deterministic_and_key_sensitive() {
        assert_eq!(hash_u01(&[1, 2, 3]), hash_u01(&[1, 2, 3]));
        assert_ne!(hash_u01(&[1, 2, 3]), hash_u01(&[1, 2, 4]));
        assert_ne!(hash_u01(&[0, 2, 3]), hash_u01(&[1, 2, 3]));
    }
}
