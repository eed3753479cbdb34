//! Centralized bottom-`s` distinct sampling — the paper's "basic sampling
//! strategy" (Chapter 3) and the correctness oracle for every distributed
//! protocol in this crate.
//!
//! The distinct sample at time `t` is the set of elements attaining the
//! `s` smallest values of `h(S(t))`. For any size-`s` subset `T` of the
//! distinct elements, `P[T is the sample] = 1/C(d, s)` — a uniform random
//! sample without replacement, independent of element frequencies.
//!
//! [`BottomS`] is the frequency-oblivious bottom-`s` structure (also known
//! as a KMV sketch); [`CentralizedSampler`] binds it to a hash function;
//! [`SlidingOracle`] answers exact sliding-window queries by brute force
//! for differential tests.

use std::collections::BTreeMap;

use dds_hash::{SeededHash, UnitHash, UnitValue};
use dds_sim::{Element, Slot};

/// The `s` smallest `(hash, element)` pairs seen so far, with the
/// threshold `u` = largest retained hash once full (else 1).
///
/// Inserting the same element twice is a no-op (distinctness is what the
/// structure is *for*), making every protocol built on it idempotent
/// against duplicate message delivery.
///
/// # Layout and cost model
///
/// The sample is one `Vec<(UnitValue, Element)>` kept in ascending order,
/// at most `s` entries long; the threshold is its last entry. It grows as
/// entries arrive rather than reserving `s` up front, since a restored
/// spec may carry `s` up to 2^20.
///
/// - An offer at or above the threshold of a full sample is rejected with
///   one compare. On a stream of `d` distinct elements only about
///   `s·(1 + ln(d/s))` offers get past it.
/// - Any other offer binary-searches its key (O(log s)); a hit is the
///   duplicate no-op.
/// - An admission pops the last entry when full and inserts in place: an
///   O(s) memmove of 16-byte entries.
///
/// The memmove is the trade against a tree's O(log s) insert. On
/// `fig52/bottom_s_offer` (100 000 distinct offers with random hashes,
/// warm cache, 2-vCPU VM) an offer costs about 4 ns at `s` = 1–100 and
/// 15 ns at 1 024, against 17–19 and 40 ns for the `BTreeSet` + member
/// `HashMap` this layout replaced; at 16 384 it costs 1.3 µs against
/// 0.2. The crossover lies between `s` = 2 048 (24 against 44 ns) and
/// 4 096 (92 against 64 ns). Every `s` in this repository is at most 512
/// (the paper's figures sweep 1–100). The with-replacement and
/// multi-window kinds already pay O(s) per *element*; this pays O(s) per
/// *admission*.
#[derive(Debug, Clone)]
pub struct BottomS {
    s: usize,
    /// Ascending by `(hash, element)`; `len ≤ s`.
    sorted: Vec<(UnitValue, Element)>,
}

impl BottomS {
    /// An empty bottom-`s` structure.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    #[must_use]
    pub fn new(s: usize) -> Self {
        assert!(s > 0, "sample size must be at least 1");
        Self {
            s,
            sorted: Vec::new(),
        }
    }

    /// Capacity `s`.
    #[must_use]
    pub fn s(&self) -> usize {
        self.s
    }

    /// Current sample size, `min(s, d)`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no elements have been offered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Offer an element with its hash. Returns `true` iff the sample
    /// changed (the element was admitted).
    ///
    /// `hash` must be a function of `element` (every caller passes the
    /// protocol hash of it): a repeat is recognised by its `(hash,
    /// element)` key, so the same element under two hashes would be kept
    /// twice.
    pub fn offer(&mut self, element: Element, hash: UnitValue) -> bool {
        let key = (hash, element);
        let full = self.sorted.len() == self.s;
        if full && self.sorted.last().is_some_and(|&max| key >= max) {
            return false;
        }
        match self.sorted.binary_search(&key) {
            Ok(_) => false,
            Err(at) => {
                if full {
                    // `key` is below the last entry, so `at < s` and the
                    // slot survives the pop.
                    self.sorted.pop();
                }
                self.sorted.insert(at, key);
                true
            }
        }
    }

    /// The threshold `u(t)`: the `s`-th smallest hash seen so far, or 1
    /// while fewer than `s` distinct elements have been seen.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        match self.sorted.last() {
            Some(&(h, _)) if self.sorted.len() == self.s => h,
            _ => UnitValue::ONE,
        }
    }

    /// The sampled elements in ascending hash order.
    #[must_use]
    pub fn elements(&self) -> Vec<Element> {
        self.sorted.iter().map(|&(_, e)| e).collect()
    }

    /// The sample as `(element, hash)` pairs in ascending hash order.
    #[must_use]
    pub fn entries(&self) -> Vec<(Element, UnitValue)> {
        self.sorted.iter().map(|&(h, e)| (e, h)).collect()
    }

    /// Checkpoint encoding: capacity plus the sampled elements in hash
    /// order. Hashes are *not* stored — they are derived state, and the
    /// decoder recomputes them from the protocol hash function.
    pub(crate) fn encode_state(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_len(self.s);
        w.put_len(self.sorted.len());
        for &(_, e) in &self.sorted {
            w.put_element(e);
        }
    }

    /// Rebuild from [`BottomS::encode_state`] output, recomputing hashes
    /// under `hasher`.
    pub(crate) fn decode_state(
        r: &mut crate::checkpoint::StateReader<'_>,
        hasher: &SeededHash,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        // The capacity is a scalar, not a collection length: `s` may far
        // exceed the stored (≤ s) element count and must not be bounds-
        // checked against the remaining payload bytes.
        let s = r.get_u32()? as usize;
        if s == 0 {
            return Err(CheckpointError::Corrupt("bottom-s capacity is zero"));
        }
        let n = r.get_len(8)?;
        if n > s {
            return Err(CheckpointError::Corrupt("bottom-s holds more than s"));
        }
        // The encoder writes ascending keys, so each one is appended in
        // O(1); out-of-order input is refused rather than insertion-sorted
        // in O(n²).
        let mut sorted: Vec<(UnitValue, Element)> = Vec::with_capacity(n);
        for _ in 0..n {
            let e = r.get_element()?;
            let key = (hasher.unit(e.0), e);
            match sorted.last() {
                Some(&last) if key == last => {
                    return Err(CheckpointError::Corrupt("duplicate bottom-s element"));
                }
                Some(&last) if key < last => {
                    return Err(CheckpointError::Corrupt("bottom-s out of hash order"));
                }
                _ => sorted.push(key),
            }
        }
        Ok(Self { s, sorted })
    }
}

/// A single-node distinct sampler: [`BottomS`] + a concrete hash function.
///
/// This is what one would run if the whole stream were visible at one
/// processor; the distributed protocols must agree with it exactly (same
/// hash function ⇒ same sample), which is the crate's central test.
#[derive(Debug, Clone)]
pub struct CentralizedSampler {
    bottom: BottomS,
    hasher: SeededHash,
    distinct_seen: u64,
    total_seen: u64,
    seen: std::collections::HashSet<Element>,
}

impl CentralizedSampler {
    /// A sampler of size `s` using `hasher`.
    #[must_use]
    pub fn new(s: usize, hasher: SeededHash) -> Self {
        Self {
            bottom: BottomS::new(s),
            hasher,
            distinct_seen: 0,
            total_seen: 0,
            seen: std::collections::HashSet::new(),
        }
    }

    /// Observe one element.
    pub fn observe(&mut self, e: Element) {
        self.observe_hashed(e, self.hasher.unit(e.0));
    }

    /// Observe `e` given its hash `h` under [`CentralizedSampler::hasher`].
    pub fn observe_hashed(&mut self, e: Element, h: UnitValue) {
        self.total_seen += 1;
        if self.seen.insert(e) {
            self.distinct_seen += 1;
        }
        self.bottom.offer(e, h);
    }

    /// The hash function the sampler ranks elements by.
    #[must_use]
    pub fn hasher(&self) -> &SeededHash {
        &self.hasher
    }

    /// The current sample, ascending by hash.
    #[must_use]
    pub fn sample(&self) -> Vec<Element> {
        self.bottom.elements()
    }

    /// The current threshold `u(t)`.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.bottom.threshold()
    }

    /// Exact number of distinct elements observed (oracle bookkeeping; a
    /// real deployment would not pay this memory).
    #[must_use]
    pub fn distinct_seen(&self) -> u64 {
        self.distinct_seen
    }

    /// Total elements observed.
    #[must_use]
    pub fn total_seen(&self) -> u64 {
        self.total_seen
    }

    /// Access the underlying bottom-`s` structure.
    #[must_use]
    pub fn bottom(&self) -> &BottomS {
        &self.bottom
    }

    /// Checkpoint encoding: hash function, bottom-`s` sample, counters,
    /// and the (sorted, so encoding is deterministic) exact distinct set
    /// — the O(d) oracle bookkeeping is part of the state by design.
    pub(crate) fn encode_state(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_hasher(self.hasher);
        self.bottom.encode_state(w);
        w.put_u64(self.total_seen);
        let mut seen: Vec<Element> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        w.put_len(seen.len());
        for e in seen {
            w.put_element(e);
        }
    }

    /// Rebuild from [`CentralizedSampler::encode_state`] output.
    pub(crate) fn decode_state(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let hasher = r.get_hasher()?;
        let bottom = BottomS::decode_state(r, &hasher)?;
        let total_seen = r.get_u64()?;
        let n = r.get_len(8)?;
        let mut seen = std::collections::HashSet::with_capacity(n);
        for _ in 0..n {
            if !seen.insert(r.get_element()?) {
                return Err(CheckpointError::Corrupt("duplicate in distinct set"));
            }
        }
        if total_seen < seen.len() as u64 {
            return Err(CheckpointError::Corrupt("total below distinct count"));
        }
        if bottom.len() > seen.len() {
            return Err(CheckpointError::Corrupt("sample larger than distinct set"));
        }
        Ok(Self {
            bottom,
            hasher,
            distinct_seen: seen.len() as u64,
            total_seen,
            seen,
        })
    }
}

/// Exact sliding-window distinct state, by brute force.
///
/// Tracks the latest observation slot of every element; queries scan all
/// live elements. Memory is `O(d_w)` and queries are `O(d_w log d_w)` —
/// the thing the real protocols exist to avoid — which is precisely what
/// makes it a trustworthy oracle.
#[derive(Debug, Clone)]
pub struct SlidingOracle {
    window: u64,
    hasher: SeededHash,
    /// element → expiry slot (last observation + window).
    live: BTreeMap<Element, Slot>,
}

impl SlidingOracle {
    /// An oracle for window size `window ≥ 1`.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    #[must_use]
    pub fn new(window: u64, hasher: SeededHash) -> Self {
        assert!(window >= 1, "window must be at least one slot");
        Self {
            window,
            hasher,
            live: BTreeMap::new(),
        }
    }

    /// Observe `e` at slot `now`.
    pub fn observe(&mut self, e: Element, now: Slot) {
        let expiry = Slot(now.0 + self.window);
        let entry = self.live.entry(e).or_insert(expiry);
        *entry = (*entry).max(expiry);
    }

    /// Drop expired elements (also done lazily by queries).
    pub fn expire(&mut self, now: Slot) {
        self.live.retain(|_, &mut expiry| expiry > now);
    }

    /// Number of distinct elements in the window at `now`.
    #[must_use]
    pub fn distinct_in_window(&self, now: Slot) -> usize {
        self.live.values().filter(|&&t| t > now).count()
    }

    /// The true minimum-hash element of the window at `now`, with its hash
    /// and expiry.
    #[must_use]
    pub fn min_in_window(&self, now: Slot) -> Option<(Element, UnitValue, Slot)> {
        self.live
            .iter()
            .filter(|&(_, &t)| t > now)
            .map(|(&e, &t)| (self.hasher.unit(e.0), e, t))
            .min()
            .map(|(h, e, t)| (e, h, t))
    }

    /// The true bottom-`s` elements of the window at `now`, ascending by
    /// hash.
    #[must_use]
    pub fn bottom_s_in_window(&self, now: Slot, s: usize) -> Vec<Element> {
        let mut v: Vec<(UnitValue, Element)> = self
            .live
            .iter()
            .filter(|&(_, &t)| t > now)
            .map(|(&e, _)| (self.hasher.unit(e.0), e))
            .collect();
        v.sort();
        v.truncate(s);
        v.into_iter().map(|(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{CheckpointError, StateReader, StateWriter};
    use dds_hash::family::HashFamily;

    fn hasher() -> SeededHash {
        HashFamily::default().primary()
    }

    #[test]
    fn bottom_s_keeps_smallest() {
        let mut b = BottomS::new(2);
        assert!(b.offer(Element(1), UnitValue(100)));
        assert!(b.offer(Element(2), UnitValue(50)));
        assert_eq!(b.threshold(), UnitValue(100));
        assert!(b.offer(Element(3), UnitValue(75))); // evicts 100
        assert_eq!(b.elements(), vec![Element(2), Element(3)]);
        assert!(!b.offer(Element(4), UnitValue(80))); // above threshold
        assert_eq!(b.threshold(), UnitValue(75));
    }

    #[test]
    fn bottom_s_duplicate_offers_are_noops() {
        let mut b = BottomS::new(2);
        assert!(b.offer(Element(1), UnitValue(10)));
        assert!(!b.offer(Element(1), UnitValue(10)));
        assert_eq!(b.len(), 1);
        // Idempotent even when full.
        b.offer(Element(2), UnitValue(20));
        assert!(!b.offer(Element(2), UnitValue(20)));
        assert_eq!(b.elements(), vec![Element(1), Element(2)]);
    }

    #[test]
    fn threshold_is_one_until_full() {
        let mut b = BottomS::new(3);
        assert_eq!(b.threshold(), UnitValue::ONE);
        b.offer(Element(1), UnitValue(10));
        b.offer(Element(2), UnitValue(20));
        assert_eq!(b.threshold(), UnitValue::ONE, "not full yet");
        b.offer(Element(3), UnitValue(30));
        assert_eq!(b.threshold(), UnitValue(30));
    }

    #[test]
    fn centralized_sample_is_true_bottom_s() {
        let h = hasher();
        let mut c = CentralizedSampler::new(5, h);
        let elems: Vec<Element> = (0..1000).map(Element).collect();
        for &e in &elems {
            c.observe(e);
            c.observe(e); // repeats must not matter
        }
        let mut expected: Vec<(UnitValue, Element)> =
            elems.iter().map(|&e| (h.unit(e.0), e)).collect();
        expected.sort();
        let expected: Vec<Element> = expected[..5].iter().map(|&(_, e)| e).collect();
        assert_eq!(c.sample(), expected);
        assert_eq!(c.distinct_seen(), 1000);
        assert_eq!(c.total_seen(), 2000);
    }

    #[test]
    fn sample_smaller_than_s_when_d_small() {
        let mut c = CentralizedSampler::new(10, hasher());
        for e in 0..4 {
            c.observe(Element(e));
        }
        assert_eq!(c.sample().len(), 4);
        assert_eq!(c.threshold(), UnitValue::ONE);
    }

    #[test]
    fn sliding_oracle_window_semantics() {
        let h = hasher();
        let mut o = SlidingOracle::new(3, h);
        o.observe(Element(1), Slot(0)); // live 0..=2
        o.observe(Element(2), Slot(1)); // live 1..=3
        assert_eq!(o.distinct_in_window(Slot(1)), 2);
        assert_eq!(o.distinct_in_window(Slot(2)), 2);
        assert_eq!(o.distinct_in_window(Slot(3)), 1);
        assert_eq!(o.distinct_in_window(Slot(4)), 0);
        // Re-observation extends.
        o.observe(Element(1), Slot(2)); // live through 4
        assert_eq!(o.distinct_in_window(Slot(3)), 2);
        let (e, _, expiry) = o.min_in_window(Slot(4)).unwrap();
        assert_eq!(e, Element(1));
        assert_eq!(expiry, Slot(5));
    }

    #[test]
    fn sliding_oracle_bottom_s_sorted_by_hash() {
        let h = hasher();
        let mut o = SlidingOracle::new(10, h);
        for e in 0..50 {
            o.observe(Element(e), Slot(0));
        }
        let bs = o.bottom_s_in_window(Slot(5), 7);
        assert_eq!(bs.len(), 7);
        let hashes: Vec<UnitValue> = bs.iter().map(|&e| h.unit(e.0)).collect();
        for w in hashes.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(o.bottom_s_in_window(Slot(10), 7).is_empty());
    }

    #[test]
    fn expire_frees_oracle_memory() {
        let mut o = SlidingOracle::new(2, hasher());
        for e in 0..100 {
            o.observe(Element(e), Slot(0));
        }
        o.expire(Slot(2));
        assert_eq!(o.distinct_in_window(Slot(2)), 0);
        assert_eq!(o.live.len(), 0);
    }

    #[test]
    #[should_panic(expected = "sample size must be at least 1")]
    fn zero_s_rejected() {
        let _ = BottomS::new(0);
    }

    /// Encode `elements` as a bottom-`s` payload in the given order.
    fn payload(s: usize, elements: &[Element]) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_len(s);
        w.put_len(elements.len());
        for &e in elements {
            w.put_element(e);
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<BottomS, CheckpointError> {
        BottomS::decode_state(&mut StateReader::new(bytes), &hasher())
    }

    #[test]
    fn decode_refuses_duplicates_and_unsorted_input() {
        let h = hasher();
        let (mut lo, mut hi) = (Element(1), Element(2));
        if h.unit(lo.0) > h.unit(hi.0) {
            std::mem::swap(&mut lo, &mut hi);
        }
        assert_eq!(decode(&payload(4, &[lo, hi])).unwrap().elements(), [lo, hi]);
        assert!(matches!(
            decode(&payload(4, &[hi, lo])),
            Err(CheckpointError::Corrupt("bottom-s out of hash order"))
        ));
        assert!(matches!(
            decode(&payload(4, &[lo, lo])),
            Err(CheckpointError::Corrupt("duplicate bottom-s element"))
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// `BottomS` against a naive model: the distinct elements offered
        /// so far, sorted by `(hash, element)` and truncated to `s`. Offers
        /// come from a small pool, so most are repeats; after every offer
        /// the return value, size, threshold and entries must match, and a
        /// checkpoint round trip must give back the same sample.
        #[test]
        fn bottom_s_matches_sort_dedup_truncate_model(
            s_idx in 0usize..5,
            pool in 1u64..200,
            offers in proptest::collection::vec(0u64..1_000, 0..600),
        ) {
            let s = [1, 2, 3, 16, 100][s_idx];
            let h = hasher();
            let mut b = BottomS::new(s);
            let mut seen: Vec<(UnitValue, Element)> = Vec::new();
            let mut model: Vec<(UnitValue, Element)> = Vec::new();
            for e in offers {
                let e = Element(e % pool);
                let key = (h.unit(e.0), e);
                if !seen.contains(&key) {
                    seen.push(key);
                }
                let mut next = seen.clone();
                next.sort_unstable();
                next.truncate(s);
                let changed = next != model;
                model = next;

                proptest::prop_assert_eq!(b.offer(e, key.0), changed);
                proptest::prop_assert_eq!(b.len(), model.len());
                let threshold = if model.len() == s { model[s - 1].0 } else { UnitValue::ONE };
                proptest::prop_assert_eq!(b.threshold(), threshold);
                let entries: Vec<(Element, UnitValue)> =
                    model.iter().map(|&(h, e)| (e, h)).collect();
                proptest::prop_assert_eq!(b.entries(), entries);
            }
            let mut w = StateWriter::new();
            b.encode_state(&mut w);
            let restored = decode(&w.into_bytes()).expect("own encoding decodes");
            proptest::prop_assert_eq!(restored.s(), s);
            proptest::prop_assert_eq!(restored.entries(), b.entries());
            proptest::prop_assert_eq!(restored.threshold(), b.threshold());
        }
    }
}
