//! Algorithms 3 & 4 — distinct sampling over time-based sliding windows
//! (`s = 1`).
//!
//! Each site keeps the candidate set `Tᵢ` (a [`CandidateSet`], by default
//! the paper's treap) plus its view `(eᵢ, uᵢ, tᵢ)` of the global sample.
//! A site contacts the coordinator when (a) a new element beats `uᵢ`, or
//! (b) its sample view expires, in which case it falls back to its local
//! minimum and announces it. The coordinator keeps the winning tuple
//! `(e*, u*, t*)` and replies to every sender with it — the lazy feedback
//! that replaces the expensive broadcast-on-increase alternative (§4.1).
//!
//! ## A correctness gap in the published pseudocode — found by this
//! reproduction's differential tests
//!
//! Mostly, the protocol self-stabilises through its replies: every reply
//! carries the coordinator's current sample tuple, so recent contacts
//! hold its exact expiry and *wake* (fall back and re-announce) in the
//! very slot the global minimum dies. But the chain has a hole, hit
//! reliably by randomized differential tests against the brute-force
//! window oracle:
//!
//! 1. the coordinator holds `(v, t_v)`; other sites hold views of it;
//! 2. site `j`'s view expires; its *fallback announcement* carries an
//!    older local element `y` with `h(y) < h(v)` but `t_y < t_v` (it
//!    entered `Tⱼ` before `v` was sampled, so it expires earlier);
//!    Algorithm 4 adopts it — smaller hash wins;
//! 3. at `t_y` the coordinator's sample dies, but the sites holding
//!    `(v, t_v)` views — including `v`'s actual holder — sleep until
//!    `t_v`. If `j`'s window is now empty (or holds only large hashes),
//!    nobody announces `v`, and for the interval `[t_y, t_v)` the
//!    coordinator serves an element that may have left the window —
//!    while `v` is live and should be the answer.
//!
//! [`CoordinatorMode::Registry`] (the default) closes the hole with
//! `O(k)` coordinator memory and **zero extra messages**: the coordinator
//! remembers each site's last announcement and, when `(e*, t*)` expires,
//! falls back to the minimum live remembered tuple — mirroring the sites'
//! own treap fallback. Every differential test passes in this mode.
//! [`CoordinatorMode::Faithful`] keeps the published behaviour; the test
//! `faithful_mode_diverges_from_oracle` pins the gap so the finding
//! stays reproducible. Message *counts* are essentially unchanged between
//! modes (the registry never transmits), so the figure benches reflect
//! the paper's protocol either way.

use dds_hash::family::HashFamily;
use dds_hash::{SeededHash, UnitHash, UnitValue};
use dds_sim::model::is_expired;
use dds_sim::{Cluster, CoordinatorNode, Destination, Element, SiteId, SiteNode, Slot};
use dds_treap::{CandidateSet, Treap};

use crate::messages::{SwDown, SwUp};

/// A sample tuple as tracked by sites and coordinator: element, its hash,
/// and its expiry slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleTuple {
    /// The element.
    pub element: Element,
    /// `h(element)`.
    pub hash: UnitValue,
    /// First slot at which the element is out of the window.
    pub expiry: Slot,
}

impl SampleTuple {
    /// Checkpoint encoding: element and expiry only — the hash is derived
    /// state, recomputed on decode under the protocol hash function.
    pub(crate) fn encode_state(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_element(self.element);
        w.put_slot(self.expiry);
    }

    /// Rebuild from [`SampleTuple::encode_state`] output.
    pub(crate) fn decode_state(
        r: &mut crate::checkpoint::StateReader<'_>,
        hasher: &SeededHash,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        let element = r.get_element()?;
        let expiry = r.get_slot()?;
        Ok(Self {
            element,
            hash: hasher.unit(element.0),
            expiry,
        })
    }
}

/// Encode an `Option<SampleTuple>` as a presence byte plus the tuple.
fn encode_opt_tuple(view: Option<&SampleTuple>, w: &mut crate::checkpoint::StateWriter) {
    w.put_bool(view.is_some());
    if let Some(t) = view {
        t.encode_state(w);
    }
}

fn decode_opt_tuple(
    r: &mut crate::checkpoint::StateReader<'_>,
    hasher: &SeededHash,
) -> Result<Option<SampleTuple>, crate::checkpoint::CheckpointError> {
    if r.get_bool()? {
        Ok(Some(SampleTuple::decode_state(r, hasher)?))
    } else {
        Ok(None)
    }
}

/// Coordinator fallback behaviour at sample expiry (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordinatorMode {
    /// Corrected protocol (default): remember per-site last announcements
    /// and fall back to their live minimum when `(e*, t*)` expires.
    /// `O(k)` coordinator memory, zero extra messages.
    #[default]
    Registry,
    /// Algorithm 4 verbatim (plus an expiry check at query time): can
    /// serve expired samples — see the module docs. Kept to document the
    /// published pseudocode's behaviour.
    Faithful,
}

/// Protocol parameters shared by every node.
#[derive(Debug, Clone, Copy)]
pub struct SlidingConfig {
    /// Window length in slots (`w ≥ 1`).
    pub window: u64,
    /// Shared hash family.
    pub family: HashFamily,
    /// Coordinator expiry behaviour.
    pub mode: CoordinatorMode,
}

impl SlidingConfig {
    /// Config with the default family and the corrected coordinator.
    #[must_use]
    pub fn new(window: u64) -> Self {
        Self {
            window,
            family: HashFamily::default(),
            mode: CoordinatorMode::Registry,
        }
    }

    /// Config with an explicit hash seed.
    #[must_use]
    pub fn with_seed(window: u64, seed: u64) -> Self {
        Self {
            window,
            family: HashFamily::murmur2(seed),
            mode: CoordinatorMode::Registry,
        }
    }

    /// Switch coordinator mode.
    #[must_use]
    pub fn mode(mut self, mode: CoordinatorMode) -> Self {
        self.mode = mode;
        self
    }

    /// The shared hash function.
    #[must_use]
    pub fn hasher(&self) -> SeededHash {
        self.family.primary()
    }

    /// Assemble a cluster using the paper's treap candidate sets.
    #[must_use]
    pub fn cluster(&self, k: usize) -> Cluster<SwSite<Treap>, SwCoordinator> {
        self.cluster_with::<Treap>(k)
    }

    /// Assemble a cluster with a chosen candidate-set implementation.
    #[must_use]
    pub fn cluster_with<T: CandidateSet + Default>(
        &self,
        k: usize,
    ) -> Cluster<SwSite<T>, SwCoordinator> {
        let sites = (0..k)
            .map(|_| SwSite::new(self.window, self.hasher()))
            .collect();
        Cluster::new(sites, SwCoordinator::new(self.hasher(), k, self.mode))
    }
}

/// Algorithm 3 — the per-site state machine, generic over the candidate
/// set (`Tᵢ`) implementation.
#[derive(Debug, Clone)]
pub struct SwSite<T: CandidateSet = Treap> {
    hasher: SeededHash,
    window: u64,
    candidates: T,
    /// `(eᵢ, uᵢ, tᵢ)`; `None` encodes "no sample known" (`uᵢ = 1`).
    view: Option<SampleTuple>,
}

impl<T: CandidateSet + Default> SwSite<T> {
    /// A site with window `w` sharing the protocol hash function.
    #[must_use]
    pub fn new(window: u64, hasher: SeededHash) -> Self {
        assert!(window >= 1, "window must be at least one slot");
        Self {
            hasher,
            window,
            candidates: T::default(),
            view: None,
        }
    }

    /// The site's current threshold `uᵢ`.
    #[must_use]
    pub fn threshold(&self) -> UnitValue {
        self.view.map_or(UnitValue::ONE, |v| v.hash)
    }

    /// The protocol hash function (for batch pre-hashing by fused
    /// adapters).
    pub(crate) fn hasher(&self) -> &SeededHash {
        &self.hasher
    }

    /// Algorithm 3's observation step with the hash supplied by the
    /// caller — the batch hot path, where a fused adapter hashes a whole
    /// batch in one pass and feeds the results back in. `h` must equal
    /// `hasher.unit(e.0)`. Returns the up-message, if the element beats
    /// the threshold; a sliding observation never produces more than one.
    pub(crate) fn observe_hashed(&mut self, e: Element, h: UnitValue, now: Slot) -> Option<SwUp> {
        debug_assert_eq!(h, self.hasher.unit(e.0), "caller-supplied hash mismatch");
        let expiry = Slot(now.0 + self.window);
        // Algorithm 3 lines 4–11: insert or refresh; expiry and dominance
        // maintenance live inside the candidate set.
        self.candidates.insert_or_refresh(e, h.0, expiry);
        // Line 12: compare against the threshold view.
        (h < self.threshold()).then_some(SwUp { element: e, expiry })
    }

    /// Algorithm 3's reply step (lines 17–19): adopt the coordinator's
    /// sample and remember the tuple as a candidate too. A reply never
    /// produces an up-message.
    pub(crate) fn adopt(&mut self, msg: SwDown) {
        let h = self.hasher.unit(msg.element.0);
        self.view = Some(SampleTuple {
            element: msg.element,
            hash: h,
            expiry: msg.expiry,
        });
        self.candidates
            .insert_or_refresh(msg.element, h.0, msg.expiry);
    }

    /// Algorithm 3's slot boundary: purge expired candidates (line 10
    /// / 22) and, when the sample view has expired, fall back to the
    /// local minimum (lines 21–25). Returns the fallback's announcement,
    /// if any; at most one per boundary.
    pub(crate) fn slot_start(&mut self, now: Slot) -> Option<SwUp> {
        self.candidates.expire(now);
        if !self.view.is_some_and(|v| is_expired(v.expiry, now)) {
            return None;
        }
        match self.candidates.min_entry() {
            Some(m) => {
                self.view = Some(SampleTuple {
                    element: m.element,
                    hash: UnitValue(m.hash),
                    expiry: m.expiry,
                });
                Some(SwUp {
                    element: m.element,
                    expiry: m.expiry,
                })
            }
            None => {
                self.view = None;
                None
            }
        }
    }

    /// The candidate set `Tᵢ` (for memory probes and tests).
    #[must_use]
    pub fn candidates(&self) -> &T {
        &self.candidates
    }

    /// The site's sample view.
    #[must_use]
    pub fn view(&self) -> Option<SampleTuple> {
        self.view
    }

    /// True when the site holds no state at all (no candidates, no
    /// view): advancing time can produce no message and no state change,
    /// which lets a fused adapter fast-forward its clock.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.view.is_none() && self.candidates.is_empty()
    }

    /// Checkpoint encoding: hash function, window, sample view, and the
    /// candidate staircase (sorted entries; elements + expiries only —
    /// hashes and tree shape are rebuilt on decode).
    pub(crate) fn encode_state(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_hasher(self.hasher);
        w.put_u64(self.window);
        encode_opt_tuple(self.view.as_ref(), w);
        let entries = self.candidates.entries_sorted();
        w.put_len(entries.len());
        for e in entries {
            w.put_element(e.element);
            w.put_slot(e.expiry);
        }
    }

    /// Rebuild from [`SwSite::encode_state`] output. The candidate set is
    /// reconstructed through the ordinary insertion path, which restores
    /// every structural invariant; a serialized entry list that is not a
    /// valid staircase (some entry dominates another) is corrupt.
    pub(crate) fn decode_state(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let hasher = r.get_hasher()?;
        let window = r.get_u64()?;
        if window == 0 {
            return Err(CheckpointError::Corrupt("sliding window of zero slots"));
        }
        let view = decode_opt_tuple(r, &hasher)?;
        let n = r.get_len(16)?;
        let mut candidates = T::default();
        for _ in 0..n {
            let e = r.get_element()?;
            let expiry = r.get_slot()?;
            candidates.insert_or_refresh(e, hasher.unit(e.0).0, expiry);
        }
        if candidates.len() != n {
            return Err(CheckpointError::Corrupt("candidate list not a staircase"));
        }
        Ok(Self {
            hasher,
            window,
            candidates,
            view,
        })
    }
}

impl<T: CandidateSet + Default> SiteNode for SwSite<T> {
    type Up = SwUp;
    type Down = SwDown;

    fn observe(&mut self, e: Element, now: Slot, out: &mut Vec<SwUp>) {
        let h = self.hasher.unit(e.0);
        if let Some(up) = self.observe_hashed(e, h, now) {
            out.push(up);
        }
    }

    fn handle(&mut self, msg: SwDown, _now: Slot, _out: &mut Vec<SwUp>) {
        self.adopt(msg);
    }

    fn on_slot_start(&mut self, now: Slot, out: &mut Vec<SwUp>) {
        out.extend(self.slot_start(now));
    }

    fn memory_tuples(&self) -> usize {
        self.candidates.len()
    }
}

/// Algorithm 4 — the coordinator (with the optional registry extension).
#[derive(Debug, Clone)]
pub struct SwCoordinator {
    hasher: SeededHash,
    sample: Option<SampleTuple>,
    now: Slot,
    mode: CoordinatorMode,
    /// Last announcement per site (Registry mode only).
    registry: Vec<Option<SampleTuple>>,
}

impl SwCoordinator {
    /// A coordinator for `k` sites.
    #[must_use]
    pub fn new(hasher: SeededHash, k: usize, mode: CoordinatorMode) -> Self {
        Self {
            hasher,
            sample: None,
            now: Slot(0),
            mode,
            registry: vec![None; k],
        }
    }

    /// The current sample tuple (if live).
    #[must_use]
    pub fn current(&self) -> Option<SampleTuple> {
        self.sample.filter(|t| !is_expired(t.expiry, self.now))
    }

    /// Algorithm 4 for one announcement from site `from`: update the
    /// sample, then answer the reply, which goes to the sender always.
    pub(crate) fn answer(&mut self, from: SiteId, msg: SwUp, now: Slot) -> SwDown {
        self.now = self.now.max(now);
        let h = self.hasher.unit(msg.element.0);
        let incoming = SampleTuple {
            element: msg.element,
            hash: h,
            expiry: msg.expiry,
        };
        if self.mode == CoordinatorMode::Registry {
            self.registry[from.0] = Some(incoming);
        }
        // Algorithm 4 line 3: (u* > h(e')) or (t* < t) — plus the refresh
        // case e' == e* with a later expiry, which re-announcement of the
        // same element after a fallback makes routine.
        let replace = match self.sample {
            None => true,
            Some(cur) => {
                cur.hash > h
                    || is_expired(cur.expiry, self.now)
                    || (cur.element == incoming.element && incoming.expiry > cur.expiry)
            }
        };
        if replace {
            self.sample = Some(incoming);
        }
        let reply = self.sample.expect("sample set on this path");
        SwDown {
            element: reply.element,
            expiry: reply.expiry,
        }
    }

    /// Algorithm 4's slot boundary: in registry mode, fall back when
    /// the sample expires and drop expired announcements. It never
    /// sends a message.
    pub(crate) fn slot_start(&mut self, now: Slot) {
        self.now = self.now.max(now);
        if self.mode == CoordinatorMode::Registry {
            if let Some(cur) = self.sample {
                if is_expired(cur.expiry, now) {
                    self.registry_fallback();
                }
            }
            // Expired remembered announcements can never win a fallback;
            // dropping them keeps `memory_tuples` equal to *live* state,
            // so a drained coordinator reports zero.
            for slot_entry in &mut self.registry {
                if slot_entry.is_some_and(|t| is_expired(t.expiry, self.now)) {
                    *slot_entry = None;
                }
            }
        }
    }

    /// Re-derive the sample from the live registry minimum.
    fn registry_fallback(&mut self) {
        self.sample = self
            .registry
            .iter()
            .flatten()
            .filter(|t| !is_expired(t.expiry, self.now))
            .min_by_key(|t| (t.hash, t.element))
            .copied();
    }

    /// True when the coordinator holds no *live* state at `now`: the
    /// sample is absent or expired and every remembered announcement is
    /// expired. Stepping an inert coordinator can emit no message and
    /// can only perform dead-state bookkeeping (fallback-to-`None`,
    /// registry cleanup), which one `on_slot_start` call replays — the
    /// licence a fused adapter needs to fast-forward across idle gaps.
    /// Covers `Faithful` mode too, where an expired `sample` lingers
    /// forever by design.
    pub(crate) fn is_inert_at(&self, now: Slot) -> bool {
        self.sample.map_or(true, |t| is_expired(t.expiry, now))
            && self
                .registry
                .iter()
                .flatten()
                .all(|t| is_expired(t.expiry, now))
    }

    /// Checkpoint encoding: hash function, mode, clock, sample tuple, and
    /// the per-site announcement registry.
    pub(crate) fn encode_state(&self, w: &mut crate::checkpoint::StateWriter) {
        w.put_hasher(self.hasher);
        w.put_u8(match self.mode {
            CoordinatorMode::Registry => 0,
            CoordinatorMode::Faithful => 1,
        });
        w.put_slot(self.now);
        encode_opt_tuple(self.sample.as_ref(), w);
        w.put_len(self.registry.len());
        for entry in &self.registry {
            encode_opt_tuple(entry.as_ref(), w);
        }
    }

    /// Rebuild from [`SwCoordinator::encode_state`] output.
    pub(crate) fn decode_state(
        r: &mut crate::checkpoint::StateReader<'_>,
    ) -> Result<Self, crate::checkpoint::CheckpointError> {
        use crate::checkpoint::CheckpointError;
        let hasher = r.get_hasher()?;
        let mode = match r.get_u8()? {
            0 => CoordinatorMode::Registry,
            1 => CoordinatorMode::Faithful,
            _ => return Err(CheckpointError::Corrupt("unknown coordinator mode")),
        };
        let now = r.get_slot()?;
        let sample = decode_opt_tuple(r, &hasher)?;
        let k = r.get_len(1)?;
        let mut registry = Vec::with_capacity(k);
        for _ in 0..k {
            registry.push(decode_opt_tuple(r, &hasher)?);
        }
        Ok(Self {
            hasher,
            sample,
            now,
            mode,
            registry,
        })
    }
}

impl CoordinatorNode for SwCoordinator {
    type Up = SwUp;
    type Down = SwDown;

    fn handle(&mut self, from: SiteId, msg: SwUp, now: Slot, out: &mut Vec<(Destination, SwDown)>) {
        let reply = self.answer(from, msg, now);
        out.push((Destination::Site(from), reply));
    }

    fn on_slot_start(&mut self, now: Slot, _out: &mut Vec<(Destination, SwDown)>) {
        self.slot_start(now);
    }

    fn sample(&self) -> Vec<Element> {
        // `t*` is "the time at which this sample expires": an expired
        // tuple means the window has drained and there is no sample.
        self.current().map(|t| t.element).into_iter().collect()
    }

    fn memory_tuples(&self) -> usize {
        match self.mode {
            CoordinatorMode::Faithful => usize::from(self.sample.is_some()),
            CoordinatorMode::Registry => self.registry.iter().flatten().count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::SlidingOracle;
    use dds_data::{DistinctOnlyStream, SlottedInput, TraceLikeStream, TraceProfile};
    use dds_treap::StaircaseSet;

    /// Drive a cluster + oracle over a slotted input; check the
    /// coordinator's answer against the true window minimum after every
    /// completed slot.
    fn run_against_oracle<T: CandidateSet + Default>(
        mode: CoordinatorMode,
        window: u64,
        k: usize,
        slots: u64,
        seed: u64,
    ) {
        let config = SlidingConfig::with_seed(window, 7_000 + seed).mode(mode);
        let mut cluster = config.cluster_with::<T>(k);
        let mut oracle = SlidingOracle::new(window, config.hasher());
        let profile = TraceProfile {
            name: "t",
            total: slots * 5,
            distinct: (slots * 2).max(1),
        };
        let input = SlottedInput::new(TraceLikeStream::new(profile, seed), k, 5, seed ^ 9);
        for (slot, batch) in input {
            while cluster.now() < slot {
                cluster.advance_slot();
                oracle.expire(cluster.now());
                // Check *between* arrivals too: expiry slots with no
                // arrivals are where stale answers would hide.
                let got = cluster.sample();
                let want = oracle.min_in_window(cluster.now()).map(|(e, _, _)| e);
                assert_eq!(got, want.into_iter().collect::<Vec<_>>());
            }
            for (site, e) in batch {
                oracle.observe(e, slot);
                cluster.observe(site, e);
            }
            let got = cluster.sample();
            let want = oracle.min_in_window(slot).map(|(e, _, _)| e);
            assert_eq!(
                got,
                want.into_iter().collect::<Vec<_>>(),
                "window sample mismatch at slot {slot} (k={k}, w={window})"
            );
        }
        // Drain: after the last arrivals expire, the sample must vanish.
        for _ in 0..=window {
            cluster.advance_slot();
        }
        assert!(
            cluster.sample().is_empty(),
            "sample must expire with the window"
        );
    }

    #[test]
    fn matches_oracle_small_window() {
        run_against_oracle::<Treap>(CoordinatorMode::Registry, 4, 3, 300, 1);
    }

    #[test]
    fn matches_oracle_medium_window() {
        run_against_oracle::<Treap>(CoordinatorMode::Registry, 25, 5, 400, 2);
    }

    #[test]
    fn matches_oracle_large_window() {
        run_against_oracle::<Treap>(CoordinatorMode::Registry, 100, 10, 300, 3);
    }

    #[test]
    fn matches_oracle_staircase_backend() {
        run_against_oracle::<StaircaseSet>(CoordinatorMode::Registry, 25, 5, 400, 6);
    }

    #[test]
    fn matches_oracle_flat_backend() {
        run_against_oracle::<dds_treap::FlatStaircase>(CoordinatorMode::Registry, 25, 5, 400, 6);
    }

    #[test]
    fn matches_oracle_flat_backend_small_window() {
        run_against_oracle::<dds_treap::FlatStaircase>(CoordinatorMode::Registry, 4, 3, 300, 1);
    }

    #[test]
    fn matches_oracle_single_site_even_faithful() {
        // With one site, every reply syncs the lone site to the
        // coordinator exactly, so even the published pseudocode is
        // airtight.
        run_against_oracle::<Treap>(CoordinatorMode::Faithful, 10, 1, 300, 4);
    }

    #[test]
    fn matches_oracle_window_one() {
        run_against_oracle::<Treap>(CoordinatorMode::Registry, 1, 4, 200, 5);
    }

    /// The published pseudocode's gap (see module docs): on multi-site
    /// runs with repeats, the Faithful coordinator eventually serves an
    /// answer differing from the true window minimum, while the Registry
    /// coordinator never does. This pins the finding.
    #[test]
    fn faithful_mode_diverges_from_oracle() {
        let window = 4;
        let k = 3;
        let seed = 1; // same workload that trips the differential test
        let config = SlidingConfig::with_seed(window, 7_001).mode(CoordinatorMode::Faithful);
        let mut cluster = config.cluster(k);
        let mut oracle = SlidingOracle::new(window, config.hasher());
        let profile = TraceProfile {
            name: "t",
            total: 1_500,
            distinct: 600,
        };
        let input = SlottedInput::new(TraceLikeStream::new(profile, seed), k, 5, seed ^ 9);
        let mut divergences = 0u32;
        for (slot, batch) in input {
            while cluster.now() < slot {
                cluster.advance_slot();
                oracle.expire(cluster.now());
                let want: Vec<Element> = oracle
                    .min_in_window(cluster.now())
                    .map(|(e, _, _)| e)
                    .into_iter()
                    .collect();
                if cluster.sample() != want {
                    divergences += 1;
                }
            }
            for (site, e) in batch {
                oracle.observe(e, slot);
                cluster.observe(site, e);
            }
        }
        assert!(
            divergences > 0,
            "expected the pseudocode-faithful coordinator to diverge; \
             if this fails the gap analysis in the module docs is wrong"
        );
    }

    #[test]
    fn faithful_and_registry_agree_with_one_site() {
        let run = |mode: CoordinatorMode| {
            let config = SlidingConfig::with_seed(20, 77).mode(mode);
            let mut c = config.cluster(1);
            let profile = TraceProfile {
                name: "t",
                total: 2_000,
                distinct: 800,
            };
            let input = SlottedInput::new(TraceLikeStream::new(profile, 3), 1, 5, 11);
            let mut samples = Vec::new();
            for (slot, batch) in input {
                while c.now() < slot {
                    c.advance_slot();
                    samples.push(c.sample());
                }
                for (site, e) in batch {
                    c.observe(site, e);
                }
                samples.push(c.sample());
            }
            (samples, c.counters().total_messages())
        };
        assert_eq!(
            run(CoordinatorMode::Faithful),
            run(CoordinatorMode::Registry)
        );
    }

    #[test]
    fn treap_and_staircase_agree_on_messages() {
        let run = |use_staircase: bool| {
            let config = SlidingConfig::with_seed(20, 77);
            let profile = TraceProfile {
                name: "t",
                total: 2_000,
                distinct: 800,
            };
            let input = SlottedInput::new(TraceLikeStream::new(profile, 3), 4, 5, 11);
            if use_staircase {
                let mut c = config.cluster_with::<StaircaseSet>(4);
                for (slot, batch) in input {
                    while c.now() < slot {
                        c.advance_slot();
                    }
                    for (site, e) in batch {
                        c.observe(site, e);
                    }
                }
                (c.counters().clone(), c.sample())
            } else {
                let mut c = config.cluster_with::<Treap>(4);
                for (slot, batch) in input {
                    while c.now() < slot {
                        c.advance_slot();
                    }
                    for (site, e) in batch {
                        c.observe(site, e);
                    }
                }
                (c.counters().clone(), c.sample())
            }
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn wake_chain_recovers_after_min_expiry() {
        // x (larger hash) at site 0, refreshed so it outlives y (smaller
        // hash) at site 1. When y leaves the window, the coordinator must
        // recover x through site announcements — the wake-chain.
        let config = SlidingConfig::with_seed(10, 123);
        let hasher = config.hasher();
        let mut elems = DistinctOnlyStream::new(64, 5);
        let x = elems.next().unwrap();
        let y = elems
            .find(|&e| hasher.unit(e.0) < hasher.unit(x.0))
            .expect("some element hashes below x");

        let mut c = config.cluster(2);
        c.observe(SiteId(0), x); // slot 0: x → expiry 10, becomes sample
        c.advance_slots(2); // slot 2
        c.observe(SiteId(1), y); // y → expiry 12, smaller hash: new sample
        assert_eq!(c.sample(), vec![y]);
        c.advance_slots(3); // slot 5
        c.observe(SiteId(0), x); // silent refresh: x → expiry 15
        c.advance_slots(7); // slot 12: y just left the window
        assert_eq!(
            c.sample(),
            vec![x],
            "coordinator must recover the surviving element at y's expiry"
        );
        c.advance_slots(3); // slot 15: x gone too
        assert!(c.sample().is_empty());
    }

    #[test]
    fn per_site_memory_is_logarithmic_in_window() {
        // Lemma 10: E[|Tᵢ|] ≤ H_M. One site, all-distinct stream, window
        // 512: steady-state memory ~H_512 ≈ 6.8; assert well below 6×.
        let config = SlidingConfig::with_seed(512, 9);
        let mut cluster = config.cluster(1);
        let mut peak = 0usize;
        for (i, e) in DistinctOnlyStream::new(4_000, 2).enumerate() {
            cluster.observe(SiteId(0), e);
            cluster.advance_slot();
            if i > 1_000 {
                peak = peak.max(cluster.site_memory_tuples()[0]);
            }
        }
        let h_m: f64 = (1..=512u64).map(|i| 1.0 / i as f64).sum();
        assert!(
            (peak as f64) < 6.0 * h_m,
            "peak per-site memory {peak} far above H_512 = {h_m:.1}"
        );
    }

    #[test]
    fn message_rate_decreases_with_window_size() {
        // Figure 5.8's shape: larger windows ⇒ fewer messages.
        let messages_for = |window: u64| {
            let config = SlidingConfig::with_seed(window, 31);
            let mut cluster = config.cluster(5);
            let profile = TraceProfile {
                name: "t",
                total: 5_000,
                distinct: 2_500,
            };
            let input = SlottedInput::new(TraceLikeStream::new(profile, 7), 5, 5, 13);
            for (slot, batch) in input {
                while cluster.now() < slot {
                    cluster.advance_slot();
                }
                for (site, e) in batch {
                    cluster.observe(site, e);
                }
            }
            cluster.counters().total_messages()
        };
        let small = messages_for(5);
        let large = messages_for(200);
        assert!(
            large < small,
            "messages must fall as the window grows: w=5 → {small}, w=200 → {large}"
        );
    }

    #[test]
    fn empty_window_has_empty_sample_and_silent_sites() {
        let config = SlidingConfig::with_seed(3, 17);
        let mut cluster = config.cluster(3);
        cluster.observe(SiteId(1), Element(42));
        assert_eq!(cluster.sample(), vec![Element(42)]);
        cluster.advance_slots(3);
        assert!(cluster.sample().is_empty());
        let quiet_before = cluster.counters().total_messages();
        cluster.advance_slots(50);
        assert_eq!(
            cluster.counters().total_messages(),
            quiet_before,
            "an empty system must stay silent"
        );
    }

    #[test]
    fn deterministic_under_seeds() {
        let run = || {
            let config = SlidingConfig::with_seed(25, 3);
            let mut cluster = config.cluster(4);
            let input = SlottedInput::new(DistinctOnlyStream::new(3_000, 1), 4, 5, 2);
            for (slot, batch) in input {
                while cluster.now() < slot {
                    cluster.advance_slot();
                }
                for (site, e) in batch {
                    cluster.observe(site, e);
                }
            }
            (
                cluster.sample(),
                cluster.counters().total_messages(),
                cluster.site_memory_tuples(),
            )
        };
        assert_eq!(run(), run());
    }
}
