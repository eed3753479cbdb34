//! Seeded inputs, built before any timing starts, and the oracle
//! answers they must produce.

use std::collections::{HashMap, HashSet};

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{TraceLikeStream, TraceProfile, Zipf};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_hash::splitmix::SplitMix64;
use dds_sim::{Element, Slot};

/// One ingest frame's worth of observations.
pub type Batch = Vec<(TenantId, Element)>;

/// Engine shards everywhere (the 2-vCPU reference box has 2 cores).
pub const SHARDS: usize = 2;
/// Sites in the cluster workload and the cluster rung.
pub const SITES: usize = 4;

/// Input sizes. `Tiny` is the smoke-test scale; its numbers are never
/// comparable with `Full` ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's reference sizes.
    Full,
    /// Seconds-long end-to-end check of every path.
    Tiny,
}

/// Every size the workloads and the ladder use.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub bulk_tenants: u64,
    pub bulk_batch: usize,
    pub bulk_batches: usize,
    pub bulk_probes: u64,
    pub win_tenants: u64,
    pub win_window: u64,
    pub win_batch: usize,
    pub win_rate_eps: f64,
    pub win_query_hz: f64,
    pub win_prefix_slots: u64,
    pub win_pool_batches: usize,
    pub win_warmup_s: f64,
    pub cluster_elems: u64,
    pub cluster_distinct: u64,
    /// `sample()` reads timed after each cluster repetition's stream.
    pub cluster_reads: usize,
    /// Inputs (each its own stream and hash seed) the cluster
    /// repetitions cycle through. The message count is their median:
    /// one input's count swings by up to 70 %, and much of that comes
    /// from the stream, so more hash seeds on one stream do not steady it.
    pub cluster_inputs: u64,
    /// Elements the ladder's cluster rung replays (per-element round
    /// trips are slow, so it takes a prefix).
    pub ladder_cluster_elems: usize,
    /// Times each set-up is repeated per run (median reported).
    pub setups: usize,
}

impl Scale {
    /// The sizes for this scale.
    pub fn sizes(self) -> Sizes {
        let full = Sizes {
            bulk_tenants: 10_000,
            bulk_batch: 1024,
            bulk_batches: 2_000,
            bulk_probes: 256,
            win_tenants: 1_000,
            win_window: 64,
            win_batch: 256,
            win_rate_eps: 4e5,
            win_query_hz: 1_000.0,
            win_prefix_slots: 128,
            win_pool_batches: 3_125,
            win_warmup_s: 1.0,
            cluster_elems: 100_000,
            cluster_distinct: 25_000,
            cluster_reads: 256,
            cluster_inputs: 12,
            ladder_cluster_elems: 20_000,
            setups: 7,
        };
        match self {
            Scale::Full => full,
            Scale::Tiny => Sizes {
                bulk_tenants: 200,
                bulk_batches: 20,
                bulk_probes: 32,
                win_tenants: 100,
                win_window: 16,
                win_batch: 64,
                win_rate_eps: 5e4,
                win_query_hz: 200.0,
                win_prefix_slots: 8,
                win_pool_batches: 100,
                win_warmup_s: 0.1,
                cluster_elems: 4_000,
                cluster_distinct: 1_000,
                cluster_reads: 32,
                cluster_inputs: 2,
                ladder_cluster_elems: 1_000,
                setups: 2,
                ..full
            },
        }
    }
}

/// `bulk_ingest`: uniform tenants, untimed batches, the oracle answer
/// for a probe subset of tenants.
pub struct Bulk {
    pub spec: SamplerSpec,
    pub batches: Vec<Batch>,
    /// Probe tenants with their expected samples.
    pub probes: Vec<(TenantId, Vec<Element>)>,
}

/// Build `bulk_ingest`'s inputs.
pub fn bulk(seed: u64, z: &Sizes) -> Bulk {
    let spec = SamplerSpec::new(SamplerKind::Infinite, 16, seed);
    let mut rng = SplitMix64::new(seed ^ 0xb01c_1a6e);
    let batches: Vec<Batch> = (0..z.bulk_batches)
        .map(|_| {
            (0..z.bulk_batch)
                .map(|_| {
                    let t = TenantId(rng.next_below(z.bulk_tenants));
                    (t, Element(rng.next_u64() >> 24))
                })
                .collect()
        })
        .collect();
    let step = z.bulk_tenants / z.bulk_probes;
    let mut oracles: HashMap<u64, dds_core::CentralizedSampler> = (0..z.bulk_probes)
        .map(|i| (i * step, spec.oracle()))
        .collect();
    for &(t, e) in batches.iter().flatten() {
        if let Some(o) = oracles.get_mut(&t.0) {
            o.observe(e);
        }
    }
    let mut probes: Vec<(TenantId, Vec<Element>)> = oracles
        .into_iter()
        .map(|(t, o)| (TenantId(t), o.sample()))
        .collect();
    probes.sort_by_key(|(t, _)| t.0);
    Bulk {
        spec,
        batches,
        probes,
    }
}

/// `windowed_mixed`: a checkpoint to start from, a pool of one-slot
/// batches replayed cyclically at a fixed rate, and the Zipf-chosen
/// tenants to query.
pub struct Windowed {
    pub spec: SamplerSpec,
    /// The checkpoint's own feed, slot by slot (slots `1..=prefix`).
    pub prefix: Vec<(Slot, Batch)>,
    /// `Engine::checkpoint` of an engine fed `prefix`.
    pub checkpoint: Vec<u8>,
    /// Batch `i` of the run is `pool[i % pool.len()]`, stamped at slot
    /// `first_slot + i`.
    pub pool: Vec<Batch>,
    pub first_slot: u64,
    pub queries: Vec<TenantId>,
}

impl Windowed {
    /// Batch `i` of the run with its slot.
    pub fn run_batch(&self, i: u64) -> (Slot, &Batch) {
        (
            Slot(self.first_slot + i),
            &self.pool[(i % self.pool.len() as u64) as usize],
        )
    }

    /// The expected final samples at slot `now` after `sent` run
    /// batches: per-copy sliding oracles fed every batch still inside
    /// the window.
    pub fn expected_at(&self, now: Slot, sent: u64) -> Vec<(TenantId, Vec<Element>)> {
        let window = self.spec.window().expect("windowed spec");
        let from = now.0.saturating_sub(window + 1);
        let mut oracles: HashMap<u64, Vec<dds_core::SlidingOracle>> = HashMap::new();
        let mut feed = |slot: Slot, batch: &Batch| {
            if slot.0 >= from && slot <= now {
                for &(t, e) in batch {
                    for o in oracles
                        .entry(t.0)
                        .or_insert_with(|| self.spec.sliding_oracles())
                    {
                        o.observe(e, slot);
                    }
                }
            }
        };
        for (slot, batch) in &self.prefix {
            feed(*slot, batch);
        }
        for i in sent.saturating_sub(window + 2)..sent {
            let (slot, batch) = self.run_batch(i);
            feed(slot, batch);
        }
        let tenants: HashSet<u64> = self
            .prefix
            .iter()
            .flat_map(|(_, b)| b)
            .map(|(t, _)| t.0)
            .collect();
        let mut out: Vec<(TenantId, Vec<Element>)> = tenants
            .into_iter()
            .map(|t| {
                let sample = oracles.get_mut(&t).map_or_else(Vec::new, |copies| {
                    copies
                        .iter_mut()
                        .filter_map(|o| {
                            o.expire(now);
                            o.min_in_window(now).map(|(e, _, _)| e)
                        })
                        .collect()
                });
                (TenantId(t), sample)
            })
            .collect();
        out.sort_by_key(|(t, _)| t.0);
        out
    }
}

/// Build `windowed_mixed`'s inputs, including the checkpoint.
pub fn windowed(seed: u64, z: &Sizes) -> Windowed {
    let spec = SamplerSpec::new(
        SamplerKind::SlidingMulti {
            window: z.win_window,
        },
        8,
        seed,
    );
    let mut rng = SplitMix64::new(seed ^ 0x51d1_0a7e);
    let zipf = Zipf::new(z.win_tenants, 1.0);
    let draw = |rng: &mut SplitMix64| {
        let t = TenantId(zipf.sample(rng) - 1);
        (t, Element(rng.next_below(1 << 20)))
    };
    // The first prefix slots visit every tenant once, so every query
    // names a hosted tenant.
    let mut cover = (0..z.win_tenants).map(TenantId);
    let prefix: Vec<(Slot, Batch)> = (1..=z.win_prefix_slots)
        .map(|slot| {
            let batch = (0..z.win_batch)
                .map(|_| match cover.next() {
                    Some(t) => (t, Element(rng.next_below(1 << 20))),
                    None => draw(&mut rng),
                })
                .collect();
            (Slot(slot), batch)
        })
        .collect();
    assert!(
        cover.next().is_none(),
        "prefix too short to cover every tenant"
    );
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(SHARDS));
    for (slot, batch) in &prefix {
        engine.observe_batch_at(*slot, batch.iter().copied());
    }
    engine.flush();
    let checkpoint = engine.checkpoint();
    let _ = engine.shutdown();
    let pool = (0..z.win_pool_batches)
        .map(|_| (0..z.win_batch).map(|_| draw(&mut rng)).collect())
        .collect();
    let queries = (0..4_096).map(|_| draw(&mut rng).0).collect();
    Windowed {
        spec,
        prefix,
        checkpoint,
        pool,
        first_slot: z.win_prefix_slots + 1,
        queries,
    }
}

/// `cluster_k4`: repeat-heavy logical streams, each with its own hash
/// seed, and the centralized bottom-s sample of each.
pub struct ClusterInput {
    pub specs: Vec<SamplerSpec>,
    /// `streams[i]` runs under `specs[i]`.
    pub streams: Vec<Vec<Element>>,
    /// `expected[i]` is the answer for `streams[i]` under `specs[i]`.
    pub expected: Vec<Vec<Element>>,
}

/// Build `cluster_k4`'s inputs.
pub fn cluster(seed: u64, z: &Sizes) -> ClusterInput {
    let profile = TraceProfile {
        name: "cluster_k4",
        total: z.cluster_elems,
        distinct: z.cluster_distinct,
    };
    let mut input = ClusterInput {
        specs: Vec::new(),
        streams: Vec::new(),
        expected: Vec::new(),
    };
    for i in 0..z.cluster_inputs {
        let sub = seed.wrapping_mul(1_000).wrapping_add(i);
        let spec = SamplerSpec::new(SamplerKind::Infinite, 16, sub);
        let stream: Vec<Element> = TraceLikeStream::new(profile, sub ^ 0xc105_7e40).collect();
        let mut oracle = spec.oracle();
        for &e in &stream {
            oracle.observe(e);
        }
        input.specs.push(spec);
        input.streams.push(stream);
        input.expected.push(oracle.sample());
    }
    input
}

/// Number of distinct elements in `xs`.
pub fn distinct(xs: impl IntoIterator<Item = Element>) -> u64 {
    xs.into_iter().collect::<HashSet<_>>().len() as u64
}
