//! Mapping hashes to the unit interval — the `h : U → [0,1)` of the paper.
//!
//! All sampling logic in `dds-core` compares hash values; none of it does
//! arithmetic on them. We therefore represent a "unit interval value" as a
//! raw `u64` ([`UnitValue`]) whose *order* is the order of the real numbers
//! `v / 2⁶⁴`, and convert to `f64` only for reporting. This keeps the full
//! 64 bits of discrimination (an `f64` mantissa would truncate to 53 bits
//! and create avoidable ties on billion-element streams).

use crate::murmur2::murmur64a_u64;
use crate::murmur3::{fmix64, murmur3_u64};
use crate::sip::siphash13_u64;
use crate::splitmix::splitmix64_keyed;

/// A point in `[0, 1)` with 64-bit resolution: the value is `raw / 2⁶⁴`.
///
/// `Ord` on `UnitValue` is exactly the order of the corresponding reals, so
/// "the `s` smallest hash values" is well-defined with no floating-point
/// subtleties. `UnitValue::ONE` is the supremum used to initialise site
/// thresholds (`uᵢ ← 1` in Algorithm 1); it is encoded as `u64::MAX` which
/// compares greater than every achievable hash output for our purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitValue(pub u64);

impl UnitValue {
    /// The supremum of the interval, playing the role of the initial
    /// threshold `u = 1` in the paper's pseudocode.
    pub const ONE: UnitValue = UnitValue(u64::MAX);
    /// The infimum, `0`.
    pub const ZERO: UnitValue = UnitValue(0);

    /// The value as an `f64` in `[0, 1)` (53-bit precision; reporting only).
    ///
    /// Uses the top 53 bits so the result is always strictly below 1.0
    /// (a naive `raw / 2⁶⁴` would round `u64::MAX` up to exactly 1.0).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        (self.0 >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl std::fmt::Display for UnitValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}", self.as_f64())
    }
}

/// Convert a raw 64-bit hash to an `f64` in `[0, 1)`.
#[must_use]
#[inline]
pub fn unit_f64(hash: u64) -> f64 {
    UnitValue(hash).as_f64()
}

/// A hash function from `u64` element identifiers to the unit interval.
///
/// Implementations must be pure: the same element always maps to the same
/// [`UnitValue`] for the lifetime of the hasher. The distributed protocols
/// additionally require every site and the coordinator to hold *identical*
/// hashers ("Receive hash function h from the coordinator" — Algorithm 1,
/// line 1), which is what [`crate::family::HashFamily`] provides.
pub trait UnitHash {
    /// Hash an element to the unit interval.
    fn unit(&self, element: u64) -> UnitValue;
}

/// Which underlying hash algorithm a [`crate::family::SeededHash`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HashKind {
    /// MurmurHash64A — the paper's choice; the default.
    #[default]
    Murmur2,
    /// MurmurHash3 x64_128 (first lane).
    Murmur3,
    /// SplitMix64 keyed mix — fastest, fine for trusted inputs.
    SplitMix,
    /// SipHash-1-3 — keyed, adversarially robust.
    Sip13,
    /// Raw fmix64 of `element ^ seed` — cheapest possible; test use only.
    Fmix,
}

impl HashKind {
    /// Hash `element` under this algorithm with the given seed.
    #[must_use]
    #[inline]
    pub fn hash_u64(self, element: u64, seed: u64) -> u64 {
        match self {
            HashKind::Murmur2 => murmur64a_u64(element, seed),
            HashKind::Murmur3 => murmur3_u64(element, seed),
            HashKind::SplitMix => splitmix64_keyed(element, seed),
            HashKind::Sip13 => {
                siphash13_u64(element, seed, seed.rotate_left(32) ^ 0xa5a5_a5a5_a5a5_a5a5)
            }
            HashKind::Fmix => fmix64(element ^ seed),
        }
    }

    /// Hash element identifiers into the caller's buffer, one per slot,
    /// stopping at whichever of `elements` and `out` ends first.
    ///
    /// The algorithm dispatch happens once per *batch* instead of once
    /// per element, so each arm's inner loop is a branch-free run of
    /// multiply/xor/rotate over the input — the batch-ingest hot path.
    /// Output is byte-identical to calling [`HashKind::hash_u64`] per
    /// element, in input order.
    pub fn hash_u64_batch_fill(
        self,
        elements: impl IntoIterator<Item = u64>,
        seed: u64,
        out: &mut [u64],
    ) {
        fn fill(out: &mut [u64], elements: impl IntoIterator<Item = u64>, f: impl Fn(u64) -> u64) {
            for (o, x) in out.iter_mut().zip(elements) {
                *o = f(x);
            }
        }
        match self {
            HashKind::Murmur2 => fill(out, elements, |x| murmur64a_u64(x, seed)),
            HashKind::Murmur3 => fill(out, elements, |x| murmur3_u64(x, seed)),
            HashKind::SplitMix => fill(out, elements, |x| splitmix64_keyed(x, seed)),
            HashKind::Sip13 => {
                let k1 = seed.rotate_left(32) ^ 0xa5a5_a5a5_a5a5_a5a5;
                fill(out, elements, |x| siphash13_u64(x, seed, k1));
            }
            HashKind::Fmix => fill(out, elements, |x| fmix64(x ^ seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_value_order_matches_f64_order() {
        let vals = [
            0u64,
            1,
            1 << 20,
            1 << 40,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &a in &vals {
            for &b in &vals {
                let (ua, ub) = (UnitValue(a), UnitValue(b));
                // f64 conversion is lossy, so only the strict orders must
                // agree; equal f64s say nothing about the raw order.
                if ua.as_f64() < ub.as_f64() {
                    assert!(ua < ub, "order mismatch for {a} vs {b}");
                } else if ua.as_f64() > ub.as_f64() {
                    assert!(ua > ub, "order mismatch for {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn as_f64_in_unit_interval() {
        assert_eq!(UnitValue::ZERO.as_f64(), 0.0);
        assert!(UnitValue::ONE.as_f64() < 1.0);
        assert!(UnitValue::ONE.as_f64() > 0.999_999);
    }

    #[test]
    fn all_kinds_deterministic_and_distinct() {
        let kinds = [
            HashKind::Murmur2,
            HashKind::Murmur3,
            HashKind::SplitMix,
            HashKind::Sip13,
            HashKind::Fmix,
        ];
        for kind in kinds {
            assert_eq!(kind.hash_u64(42, 7), kind.hash_u64(42, 7));
            assert_ne!(kind.hash_u64(42, 7), kind.hash_u64(43, 7));
            assert_ne!(kind.hash_u64(42, 7), kind.hash_u64(42, 8));
        }
        // Different algorithms disagree on the same input (sanity check that
        // dispatch actually dispatches).
        let outs: std::collections::HashSet<u64> =
            kinds.iter().map(|k| k.hash_u64(42, 7)).collect();
        assert_eq!(outs.len(), kinds.len());
    }

    #[test]
    fn batch_hashing_matches_per_element_for_every_kind() {
        let elements: Vec<u64> = (0..257u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9) ^ 11)
            .collect();
        let mut out = vec![0xdead]; // must be cleared, not appended to
        for kind in [
            HashKind::Murmur2,
            HashKind::Murmur3,
            HashKind::SplitMix,
            HashKind::Sip13,
            HashKind::Fmix,
        ] {
            // The fixed buffer fills a prefix and leaves the rest.
            let mut chunk = [0xdead_u64; 300];
            kind.hash_u64_batch_fill(elements.iter().copied(), 7, &mut chunk);
            for (&x, &h) in elements.iter().zip(&chunk) {
                assert_eq!(h, kind.hash_u64(x, 7), "batch diverged for {kind:?}");
            }
            assert!(chunk[elements.len()..].iter().all(|&h| h == 0xdead));
            let mut short = [0u64; 5];
            kind.hash_u64_batch_fill(elements.iter().copied(), 7, &mut short);
            assert_eq!(&short[..], &chunk[..5]);
            // The growable-buffer wrapper clears, sizes and fills.
            crate::SeededHash::new(kind, 7).hash_u64_batch_into(elements.iter().copied(), &mut out);
            assert_eq!(
                &out[..],
                &chunk[..elements.len()],
                "into diverged for {kind:?}"
            );
        }
    }

    #[test]
    fn display_formats_as_decimal() {
        let s = format!("{}", UnitValue(u64::MAX / 2));
        assert!(s.starts_with("0.5"), "got {s}");
    }
}
