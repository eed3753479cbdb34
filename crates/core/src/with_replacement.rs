//! Sampling *with replacement* — §3's closing construction.
//!
//! "One solution to distinct sampling with replacement is to repeat `s`
//! parallel copies of the single element sampling algorithm, each copy
//! using a different hash function." Each copy `j` is an independent
//! `s = 1` instance of Algorithms 1–2 under `h_j`; the coordinator's
//! answer is the vector of the `s` copy-minima — `s` independent uniform
//! draws from the distinct elements (the same element may appear in
//! several copies, hence *with* replacement).
//!
//! Message cost is `s ×` the single-element cost, `O(sk·log(de))` — close
//! to the without-replacement `O(ks·log(de/s))` (compare
//! [`crate::bounds::with_replacement_upper`]). The paper also notes the
//! reduction in the other direction: running with-replacement with
//! slightly more than `s` copies yields a without-replacement sample,
//! transferring the Ω(ks·ln(de/s)) lower bound to both variants.

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitHash, UnitValue};
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};

use crate::centralized::BottomS;
use crate::messages::{CopyDown, CopyUp, DownThreshold, UpElem};

/// Configuration: `s` copies over a hash family.
#[derive(Debug, Clone, Copy)]
pub struct WrConfig {
    /// Number of independent copies (= sample size).
    pub s: usize,
    /// Family supplying `h_0 … h_{s-1}`.
    pub family: HashFamily,
}

impl WrConfig {
    /// Config with an explicit family seed.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    #[must_use]
    pub fn with_seed(s: usize, seed: u64) -> Self {
        assert!(s > 0, "sample size must be at least 1");
        Self {
            s,
            family: HashFamily::murmur2(seed),
        }
    }

    /// Assemble a cluster of `k` sites.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<WrSite, WrCoordinator> {
        let hashers: Vec<SeededHash> = self.family.members(self.s).collect();
        let sites = (0..k).map(|_| WrSite::new(hashers.clone())).collect();
        Cluster::new(sites, WrCoordinator::new(hashers))
    }
}

/// Site: one threshold per copy.
#[derive(Debug, Clone)]
pub struct WrSite {
    copies: Vec<(SeededHash, UnitValue)>,
}

impl WrSite {
    /// A site given the `s` copy hash functions.
    #[must_use]
    pub fn new(hashers: Vec<SeededHash>) -> Self {
        Self {
            copies: hashers.into_iter().map(|h| (h, UnitValue::ONE)).collect(),
        }
    }

    /// Threshold view of copy `j`.
    #[must_use]
    pub fn threshold(&self, j: usize) -> UnitValue {
        self.copies[j].1
    }

    /// Number of copies (`s`).
    #[inline]
    pub(crate) fn copy_count(&self) -> usize {
        self.copies.len()
    }

    /// Copy `j`'s filter: the up-message for `e`, if its copy-`j` hash
    /// beats `uᵢ`. Inline: a fused adapter calls it once per copy per
    /// element, from other crates' generic code.
    #[inline]
    pub(crate) fn observe_copy(&self, j: usize, e: Element) -> Option<CopyUp<UpElem>> {
        let (hasher, u_i) = &self.copies[j];
        (hasher.unit(e.0) < *u_i).then_some(CopyUp {
            copy: j as u32,
            inner: UpElem { element: e },
        })
    }

    /// A copy's reply step, `uᵢ ← u`; never produces an up-message.
    pub(crate) fn refresh(&mut self, msg: CopyDown<DownThreshold>) {
        self.copies[msg.copy as usize].1 = UnitValue(msg.inner.u);
    }

    /// Checkpoint encoding: per copy, the hash function and `uᵢ`.
    pub(crate) fn encode_state(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_len(self.copies.len());
        for &(h, u_i) in &self.copies {
            w.put_hasher(h);
            w.put_u64(u_i.0);
        }
    }

    /// Rebuild from [`WrSite::encode_state`] output.
    pub(crate) fn decode_state(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        let s = r.get_len(17)?;
        if s == 0 {
            return Err(crate::checkpoint::CheckpointError::Corrupt(
                "with-replacement site has zero copies",
            ));
        }
        let mut copies = Vec::with_capacity(s);
        for _ in 0..s {
            let h = r.get_hasher()?;
            copies.push((h, UnitValue(r.get_u64()?)));
        }
        Ok(Self { copies })
    }
}

impl SiteNode for WrSite {
    type Up = CopyUp<UpElem>;
    type Down = CopyDown<DownThreshold>;

    fn observe(&mut self, e: Element, _now: Slot, out: &mut Vec<Self::Up>) {
        out.extend((0..self.copies.len()).filter_map(|j| self.observe_copy(j, e)));
    }

    fn handle(&mut self, msg: Self::Down, _now: Slot, _out: &mut Vec<Self::Up>) {
        self.refresh(msg);
    }

    fn memory_tuples(&self) -> usize {
        self.copies.len() // s thresholds: O(s) per site.
    }
}

/// Coordinator: one single-element bottom structure per copy.
#[derive(Debug, Clone)]
pub struct WrCoordinator {
    copies: Vec<(SeededHash, BottomS)>,
}

impl WrCoordinator {
    /// A coordinator given the `s` copy hash functions.
    #[must_use]
    pub fn new(hashers: Vec<SeededHash>) -> Self {
        Self {
            copies: hashers.into_iter().map(|h| (h, BottomS::new(1))).collect(),
        }
    }

    /// The with-replacement sample: one element per copy (copies that have
    /// seen nothing yield nothing).
    #[must_use]
    pub fn sample_with_replacement(&self) -> Vec<Element> {
        self.copies
            .iter()
            .filter_map(|(_, b)| b.elements().first().copied())
            .collect()
    }

    /// One copy's step: offer the element to its bottom-1 structure,
    /// then answer the reply (always sent) with that copy's threshold.
    pub(crate) fn answer(&mut self, msg: CopyUp<UpElem>) -> CopyDown<DownThreshold> {
        let (hasher, bottom) = &mut self.copies[msg.copy as usize];
        let h = hasher.unit(msg.inner.element.0);
        bottom.offer(msg.inner.element, h);
        CopyDown {
            copy: msg.copy,
            inner: DownThreshold {
                u: bottom.threshold().0,
            },
        }
    }

    /// Checkpoint encoding: per copy, the hash function and its
    /// single-element bottom structure.
    pub(crate) fn encode_state(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_len(self.copies.len());
        for (h, b) in &self.copies {
            w.put_hasher(*h);
            b.encode_state(w);
        }
    }

    /// Rebuild from [`WrCoordinator::encode_state`] output.
    pub(crate) fn decode_state(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        let s = r.get_len(17)?;
        if s == 0 {
            return Err(crate::checkpoint::CheckpointError::Corrupt(
                "with-replacement coordinator has zero copies",
            ));
        }
        let mut copies = Vec::with_capacity(s);
        for _ in 0..s {
            let h = r.get_hasher()?;
            let b = BottomS::decode_state(r, &h)?;
            copies.push((h, b));
        }
        Ok(Self { copies })
    }
}

impl CoordinatorNode for WrCoordinator {
    type Up = CopyUp<UpElem>;
    type Down = CopyDown<DownThreshold>;

    fn handle(
        &mut self,
        from: SiteId,
        msg: Self::Up,
        _now: Slot,
        out: &mut Vec<(Destination, Self::Down)>,
    ) {
        let reply = self.answer(msg);
        out.push((Destination::Site(from), reply));
    }

    fn sample(&self) -> Vec<Element> {
        self.sample_with_replacement()
    }

    fn memory_tuples(&self) -> usize {
        self.copies.iter().map(|(_, b)| b.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_data::{DistinctOnlyStream, RouteTarget, Router, Routing};

    #[test]
    fn each_copy_tracks_its_own_minimum() {
        let config = WrConfig::with_seed(8, 3);
        let mut cluster = config.cluster(4);
        let elems: Vec<Element> = DistinctOnlyStream::new(2_000, 1).collect();
        let mut router = Router::new(Routing::Random, 4, 2);
        for &e in &elems {
            match router.route() {
                RouteTarget::One(site) => cluster.observe(site, e),
                RouteTarget::All => cluster.observe_at_all(e),
            }
        }
        let sample = cluster.sample();
        assert_eq!(sample.len(), 8);
        // Copy j's sample must be the true argmin of h_j over all elements.
        let hashers: Vec<SeededHash> = config.family.members(8).collect();
        for (j, hasher) in hashers.iter().enumerate() {
            let want = elems
                .iter()
                .copied()
                .min_by_key(|&e| hasher.unit(e.0))
                .unwrap();
            assert_eq!(sample[j], want, "copy {j} minimum mismatch");
        }
    }

    #[test]
    fn copies_are_nearly_independent() {
        // With 1000 distinct elements and 16 copies, the probability that
        // two given copies pick the same element is ~1/1000: seeing any
        // large amount of agreement would indicate correlated hashes.
        let config = WrConfig::with_seed(16, 9);
        let mut cluster = config.cluster(2);
        for e in DistinctOnlyStream::new(1_000, 4) {
            cluster.observe(SiteId((e.0 % 2) as usize), e);
        }
        let sample = cluster.sample();
        let unique: std::collections::HashSet<Element> = sample.iter().copied().collect();
        assert!(
            unique.len() >= 14,
            "excessive collisions across copies: {} unique of 16",
            unique.len()
        );
    }

    #[test]
    fn message_cost_scales_with_copies() {
        let run = |s: usize| {
            let config = WrConfig::with_seed(s, 5);
            let mut cluster = config.cluster(3);
            for e in DistinctOnlyStream::new(3_000, 8) {
                cluster.observe(SiteId((e.0 % 3) as usize), e);
            }
            cluster.counters().total_messages() as f64
        };
        let m1 = run(1);
        let m8 = run(8);
        let ratio = m8 / m1;
        assert!(
            (4.0..=16.0).contains(&ratio),
            "8 copies should cost ≈8× one copy, got {ratio:.2}×"
        );
    }

    #[test]
    fn within_theoretical_bound() {
        let (k, s, d) = (3usize, 8usize, 3_000u64);
        let config = WrConfig::with_seed(s, 5);
        let mut cluster = config.cluster(k);
        for e in DistinctOnlyStream::new(d, 8) {
            cluster.observe(SiteId((e.0 % 3) as usize), e);
        }
        let measured = cluster.counters().total_messages() as f64;
        let bound = crate::bounds::with_replacement_upper(k, s, d);
        assert!(measured <= bound, "measured {measured} > bound {bound}");
    }

    #[test]
    #[should_panic(expected = "sample size must be at least 1")]
    fn zero_copies_rejected() {
        let _ = WrConfig::with_seed(0, 1);
    }
}
