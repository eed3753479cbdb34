//! Seeded hash families — "s parallel copies, each with a different hash
//! function" (paper, §3, Sampling With Replacement).
//!
//! A [`HashFamily`] deterministically derives any number of mutually
//! independent [`SeededHash`]s from one master seed. Site `i` and the
//! coordinator construct the family from the same master seed and therefore
//! agree on every `h_j`, realising Algorithm 1's "Receive hash function h
//! from the coordinator" initialisation without shipping code.

use crate::splitmix::splitmix64;
use crate::unit::{HashKind, UnitHash, UnitValue};

/// A single hash function `h : u64 → [0,1)` drawn from a [`HashFamily`].
///
/// Copyable and cheap: hashing is a handful of multiply/xor/rotates with no
/// allocation, satisfying the paper's `O(1)` processing-time-per-element
/// bound (Theorem 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeededHash {
    kind: HashKind,
    seed: u64,
}

impl SeededHash {
    /// Construct directly from an algorithm and seed.
    #[must_use]
    pub fn new(kind: HashKind, seed: u64) -> Self {
        Self { kind, seed }
    }

    /// The underlying algorithm.
    #[must_use]
    pub fn kind(&self) -> HashKind {
        self.kind
    }

    /// The seed (for diagnostics / serialization of experiment configs).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Raw 64-bit hash of an element.
    #[must_use]
    #[inline]
    pub fn hash_u64(&self, element: u64) -> u64 {
        self.kind.hash_u64(element, self.seed)
    }

    /// Hash a whole batch of elements in one pass into `out`, which
    /// ends up holding exactly the batch's hashes: one algorithm
    /// dispatch per batch, and a caller-owned scratch buffer reused
    /// across batches. [`SeededHash::hash_u64_batch_fill`] does the
    /// hashing; every slot is overwritten, so a buffer already of the
    /// batch's length is not cleared first.
    pub fn hash_u64_batch_into<I>(&self, elements: I, out: &mut Vec<u64>)
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: ExactSizeIterator,
    {
        let elements = elements.into_iter();
        out.resize(elements.len(), 0);
        self.hash_u64_batch_fill(elements, out);
    }

    /// Hash elements into a caller-owned fixed buffer (a stack chunk),
    /// one per slot, up to whichever ends first: no allocation, one
    /// algorithm dispatch. Byte-identical to per-element hashing.
    pub fn hash_u64_batch_fill(&self, elements: impl IntoIterator<Item = u64>, out: &mut [u64]) {
        self.kind.hash_u64_batch_fill(elements, self.seed, out);
    }
}

impl UnitHash for SeededHash {
    #[inline]
    fn unit(&self, element: u64) -> UnitValue {
        UnitValue(self.hash_u64(element))
    }
}

/// A family of mutually independent unit hashes derived from a master seed.
///
/// Derivation is `seed_j = splitmix64(master ⊕ fingerprint(j))`, giving
/// well-separated seeds for every index without storing state; index `j`
/// can be arbitrarily large.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashFamily {
    kind: HashKind,
    master: u64,
}

impl HashFamily {
    /// A family of the given algorithm, derived from `master`.
    #[must_use]
    pub fn new(kind: HashKind, master: u64) -> Self {
        Self { kind, master }
    }

    /// The paper's default: a MurmurHash64A family.
    #[must_use]
    pub fn murmur2(master: u64) -> Self {
        Self::new(HashKind::Murmur2, master)
    }

    /// The `j`-th member hash of the family.
    #[must_use]
    pub fn member(&self, j: usize) -> SeededHash {
        // Two rounds of mixing decorrelate adjacent indices thoroughly.
        let seed = splitmix64(self.master ^ splitmix64(j as u64));
        SeededHash::new(self.kind, seed)
    }

    /// The first member — the single hash used by without-replacement
    /// bottom-`s` sampling.
    #[must_use]
    pub fn primary(&self) -> SeededHash {
        self.member(0)
    }

    /// Iterator over the first `n` members.
    pub fn members(&self, n: usize) -> impl Iterator<Item = SeededHash> + '_ {
        (0..n).map(move |j| self.member(j))
    }

    /// The underlying algorithm used by every member.
    #[must_use]
    pub fn kind(&self) -> HashKind {
        self.kind
    }

    /// The master seed.
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master
    }
}

impl Default for HashFamily {
    /// Murmur2 family with a fixed, documented seed — deterministic runs
    /// out of the box, matching the reproducibility needs of the benches.
    fn default() -> Self {
        Self::murmur2(0x5eed_0fd1_5a11_c7e5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::UnitHash;

    #[test]
    fn members_are_deterministic() {
        let f = HashFamily::murmur2(42);
        for j in 0..32 {
            assert_eq!(f.member(j), f.member(j));
        }
    }

    #[test]
    fn members_have_distinct_seeds() {
        let f = HashFamily::murmur2(42);
        let seeds: std::collections::HashSet<u64> = f.members(1000).map(|h| h.seed()).collect();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn different_masters_give_different_families() {
        let a = HashFamily::murmur2(1).member(0);
        let b = HashFamily::murmur2(2).member(0);
        assert_ne!(a.seed(), b.seed());
        assert_ne!(a.unit(7), b.unit(7));
    }

    #[test]
    fn members_decorrelated_on_same_input() {
        // The same element hashed by 100 members should give ~uniform
        // values: check the mean is near 1/2 and min/max spread out.
        let f = HashFamily::murmur2(7);
        let vals: Vec<f64> = f.members(100).map(|h| h.unit(123456).as_f64()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        assert!((0.4..=0.6).contains(&mean), "mean {mean}");
        assert!(vals.iter().cloned().fold(f64::MAX, f64::min) < 0.1);
        assert!(vals.iter().cloned().fold(f64::MIN, f64::max) > 0.9);
    }

    #[test]
    fn primary_is_member_zero() {
        let f = HashFamily::default();
        assert_eq!(f.primary(), f.member(0));
    }
}
