//! # dds-engine — a sharded, multi-tenant sampling service layer
//!
//! The paper's protocols maintain **one** distinct sample over one
//! logical stream. A serving deployment (the ROADMAP's north star) hosts
//! *many* independent sampling instances — one per tenant, user, or query
//! key — behind a single ingest path, where per-instance state is tiny
//! (O(s) for the fused infinite-window sampler) and throughput lives or
//! dies on batching and merge structure.
//!
//! [`Engine`] is that layer:
//!
//! * **Sharding.** `shards` worker threads each own a disjoint set of
//!   tenants (`tenant → shard` by seeded hash), so a tenant's stream is
//!   processed by exactly one thread and needs no locking at all — the
//!   shard's tenant table is plain owned state, and cross-tenant
//!   isolation is structural rather than synchronized. The table maps a
//!   tenant id to one entry: its dirty stamp and its live sampler or
//!   parked blob.
//! * **Batched ingest.** [`Engine::observe_batch`] partitions a batch by
//!   shard and forwards one message per shard over a *bounded* crossbeam
//!   channel. A full queue exerts backpressure: the send blocks until the
//!   worker catches up, and the event is counted per shard
//!   ([`ShardMetricsSnapshot::backpressure`]) so operators can see which
//!   shards are hot. The worker applies the batch in arrival order: it
//!   hashes the whole batch once (for samplers that take a precomputed
//!   hash), then probes the table once per run of same-tenant elements,
//!   so per-tenant order holds without a sort.
//! * **Consistent snapshots.** Queries travel the same FIFO queue as
//!   ingest (the in-band analogue of `dds-runtime`'s flush-token
//!   barrier): by the time a [`Engine::snapshot`] is answered, every
//!   batch whose `observe_batch` call returned before the snapshot call
//!   began is reflected in the sample. [`Engine::flush`] is the explicit
//!   all-shards barrier.
//! * **Protocol-generic, dispatched once.** Tenant instances are built
//!   from a [`SamplerSpec`] — centralized, fused infinite-window
//!   (Algorithms 1 & 2), with-replacement, *and* sliding-window
//!   (Algorithms 3 & 4, single- and multi-copy) samplers all serve
//!   unchanged. [`Engine::spawn`] and [`Engine::restore`] dispatch on
//!   the spec's kind once
//!   ([`SamplerKind::with_type`](dds_core::sampler::SamplerKind::with_type))
//!   and start shard workers generic over that kind's concrete
//!   [`SpecSampler`] type, so each tenant's sampler lives inline in its
//!   shard's table and every per-element call is a static one.
//! * **Time.** Ingest may be timestamped ([`Engine::observe_at`],
//!   [`Engine::observe_batch_at`]): each shard tracks a **watermark** —
//!   the highest slot it has seen — and [`Engine::advance`] pushes the
//!   watermark forward explicitly, driving
//!   [`DistinctSampler::advance`](dds_core::sampler::DistinctSampler::advance)
//!   across *every* hosted tenant so that a
//!   tenant whose stream has gone idle still expires its window
//!   candidates (and frees their memory). Snapshots are
//!   window-parameterized: every query first advances the queried
//!   instance to the shard watermark (or to an explicit
//!   [`Engine::snapshot_at`] slot), so answers are always "the sample as
//!   of now", never a stale pre-expiry view. Untimed ingest on the same
//!   engine keeps working — infinite-window tenants simply ignore the
//!   clock.
//!
//! The correctness contract is inherited from the paper: for
//! `Centralized` and `Infinite` specs, every tenant's snapshot equals a
//! single-threaded [`CentralizedSampler`](dds_core::CentralizedSampler)
//! oracle fed that tenant's stream in the same order — regardless of
//! interleaving with other tenants, shard count, or batch boundaries.
//! For `Sliding` specs the same holds against a per-tenant
//! [`SlidingOracle`](dds_core::SlidingOracle) at every watermark. The
//! integration tests drive both equalities across 1 000+ tenants.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
mod error;
mod metrics;

pub use error::EngineError;
pub use metrics::{EngineMetrics, ShardMetricsSnapshot};

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};

use dds_core::checkpoint::restore_as;
use dds_core::sampler::{KindVisitor, SamplerSpec, SpecSampler};
use dds_hash::splitmix::splitmix64_keyed;
use dds_hash::SeededHash;
use dds_obs::{Registry, TelemetrySnapshot};
use dds_sim::{Element, Slot};

use metrics::ShardMetrics;

/// Identifies one tenant (one independent sampling instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u64);

/// Salt for the tenant → shard hash, fixed so placement is stable across
/// engine restarts with the same shard count.
const SHARD_SALT: u64 = 0x7e6a_5ce3_9d1b_42f1;

/// [`Engine::shard_of`] for an engine of `shards` shards.
fn shard_index(tenant: TenantId, shards: usize) -> usize {
    let h = splitmix64_keyed(tenant.0, SHARD_SALT);
    ((u128::from(h) * shards as u128) >> 64) as usize
}

/// Engine deployment parameters.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads / tenant partitions (`≥ 1`).
    pub shards: usize,
    /// Per-shard command-queue capacity (`≥ 1`); smaller values trade
    /// ingest throughput for tighter memory and faster backpressure.
    pub queue_capacity: usize,
    /// How to build each tenant's sampler instance.
    pub spec: SamplerSpec,
    /// Lateness horizon, in slots.
    ///
    /// `None` (the default) is the legacy contract: timestamped ingest
    /// applies immediately at its own slot, and an observation stamped
    /// below its tenant's clock is **counted and dropped**
    /// (`engine_late_dropped_total`) rather than silently re-stamped.
    ///
    /// `Some(L)` turns on horizon mode: each shard keeps a bounded
    /// reorder buffer, replaying timestamped ingest in slot order once
    /// the watermark has passed `slot + L`; data older than
    /// `watermark - L` is refused with [`EngineError::LateData`] on the
    /// `try_*` path (and counted), and shard-local expiry sweeps advance
    /// idle tenants from ingest timestamps alone — no caller
    /// [`Engine::advance`] needed to bound their memory.
    pub lateness: Option<u64>,
}

impl EngineConfig {
    /// Defaults: 4 shards, 128-command queues, legacy time handling
    /// (no lateness horizon).
    #[must_use]
    pub fn new(spec: SamplerSpec) -> Self {
        Self {
            shards: 4,
            queue_capacity: 128,
            spec,
            lateness: None,
        }
    }

    /// Set the shard count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Set the per-shard queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = cap;
        self
    }

    /// Enable horizon mode with a lateness of `slots` (see
    /// [`EngineConfig::lateness`]).
    #[must_use]
    pub fn with_lateness(mut self, slots: u64) -> Self {
        self.lateness = Some(slots);
        self
    }
}

/// One tenant's state as answered by a snapshot query: the sample plus
/// the operational facts a serving layer wants alongside it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantView {
    /// The current distinct sample (window samplers answer as of the
    /// shard watermark / requested slot).
    pub sample: Vec<Element>,
    /// Stored tuples across the instance's fused halves — the number a
    /// memory-based eviction or rebalancing policy would act on.
    pub memory_tuples: usize,
    /// Site ↔ coordinator messages a distributed deployment of this
    /// instance would have exchanged.
    pub protocol_messages: u64,
}

/// Everything a shard worker can receive. Batches, clock advances, and
/// queries share one FIFO queue — that ordering *is* the
/// snapshot-consistency mechanism.
enum ShardCmd {
    /// Observe a single element (the allocation-free fast path for
    /// unbatched ingest) at the tenant's current clock, or stamped at
    /// the given slot.
    One(TenantId, Element, Option<Slot>),
    /// Observe a batch of (tenant, element) pairs owned by this shard —
    /// all stamped at one slot if given, which raises the shard
    /// watermark to it.
    Batch(Option<Slot>, Vec<(TenantId, Element)>),
    /// Raise the shard watermark and advance every hosted tenant's clock
    /// to it, expiring window candidates of idle tenants.
    Advance(Slot),
    /// Answer one tenant's current view (`None` if never observed),
    /// first advancing it to the shard watermark — raised to `at` if
    /// given. `enqueued` lets the worker account queue-wait + service
    /// time as the shard's snapshot latency.
    Query {
        tenant: TenantId,
        at: Option<Slot>,
        reply: Sender<Option<TenantView>>,
        enqueued: Instant,
    },
    /// Answer every hosted tenant's sample at the shard watermark —
    /// raised to `at` if given — (unordered; the engine sorts the
    /// merged result).
    QueryAll {
        at: Option<Slot>,
        reply: Sender<Vec<(TenantId, Vec<Element>)>>,
        enqueued: Instant,
    },
    /// Serialize the shard's full tenant population (live instances and
    /// parked blobs alike) behind the FIFO barrier — the per-shard half
    /// of [`Engine::checkpoint`].
    Checkpoint { reply: Sender<ShardState> },
    /// Serialize only the tenants mutated since sequence number `since`
    /// — the per-shard half of [`Engine::checkpoint_delta`].
    CheckpointDelta {
        since: u64,
        reply: Sender<ShardState>,
    },
    /// Acknowledge once every previously enqueued command is processed.
    Flush { reply: Sender<()> },
    /// Stop the worker.
    Shutdown,
}

/// One shard's serialized population, as answered by
/// [`ShardCmd::Checkpoint`]: the watermark plus every tenant as a
/// self-describing sampler envelope (see `dds_core::checkpoint`),
/// sorted by tenant id so shard snapshots are byte-deterministic.
pub(crate) struct ShardState {
    pub(crate) watermark: Slot,
    /// The shard's mutation sequence number: bumped once per state-
    /// changing command, and the reference point for delta checkpoints.
    pub(crate) seq: u64,
    /// `(tenant, parked, stamp, envelope)` — `parked` tenants are stored
    /// as their eviction blob and rehydrate lazily after a restore,
    /// exactly as they would have in the original engine; `stamp` is the
    /// shard sequence number of the tenant's last mutation.
    pub(crate) tenants: Vec<(u64, bool, u64, Vec<u8>)>,
    /// The reorder buffer, ascending by slot: `(slot, [(tenant,
    /// element)])` — buffered-but-unapplied late data a checkpoint must
    /// carry so crash recovery loses nothing.
    pub(crate) buffer: Vec<(u64, Vec<(u64, u64)>)>,
}

struct Shard {
    tx: Sender<ShardCmd>,
    metrics: Arc<ShardMetrics>,
    /// The worker's watermark, published after every raise (Relaxed) —
    /// a monotone lower bound producers consult to refuse
    /// beyond-horizon ingest *before* queueing it.
    watermark_pub: Arc<AtomicU64>,
    /// Taken (and joined) exactly once, by [`Engine::begin_shutdown`].
    handle: Mutex<Option<JoinHandle<usize>>>,
}

/// Final accounting returned by [`Engine::shutdown`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Per-shard metrics at shutdown.
    pub metrics: EngineMetrics,
    /// Tenants hosted per shard at shutdown.
    pub tenants_per_shard: Vec<usize>,
}

/// Reuse statistics of the engine's shared ingest-buffer pool (see
/// [`Engine::batch_pool_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPoolStats {
    /// Batch buffers served from the freelist (no allocation).
    pub hits: u64,
    /// Batch buffers allocated fresh because the freelist was empty.
    pub misses: u64,
}

/// A bounded freelist of ingest batch buffers shared by producers and
/// shard workers: [`Engine::try_observe_batch`] pulls per-shard buffers
/// here instead of allocating, and each worker returns its batch after
/// processing — so steady-state batched ingest recycles a fixed set of
/// `Vec`s instead of allocating one per shard per call.
struct BatchPool {
    free: Mutex<Vec<Vec<(TenantId, Element)>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Freelist cap (~4× shards): enough for every shard to have one
    /// batch in flight plus one being filled, without hoarding memory
    /// from a burst.
    cap: usize,
}

impl BatchPool {
    fn new(cap: usize) -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cap,
        }
    }

    /// An empty buffer: recycled if one is free, freshly allocated
    /// otherwise.
    fn get(&self) -> Vec<(TenantId, Element)> {
        let recycled = self.free.lock().expect("pool not poisoned").pop();
        match recycled {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Return a buffer for reuse; buffers beyond the cap (or with no
    /// backing allocation worth keeping) are simply dropped.
    fn put(&self, mut buf: Vec<(TenantId, Element)>) {
        if buf.capacity() == 0 {
            return;
        }
        buf.clear();
        let mut free = self.free.lock().expect("pool not poisoned");
        if free.len() < self.cap {
            free.push(buf);
        }
    }

    fn stats(&self) -> BatchPoolStats {
        BatchPoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// A running sharded multi-tenant sampling service.
///
/// All methods take `&self`: wrap the engine in an [`Arc`] to ingest from
/// many producer threads while others snapshot.
pub struct Engine {
    shards: Vec<Shard>,
    spec: SamplerSpec,
    queue_capacity: usize,
    /// Lateness horizon (see [`EngineConfig::lateness`]).
    lateness: Option<u64>,
    /// The engine-owned metric registry every shard records into.
    registry: Arc<Registry>,
    /// Shared freelist of batch buffers, recycled between the batched
    /// ingest paths and the shard workers.
    pool: Arc<BatchPool>,
    /// Set (once) by [`Engine::begin_shutdown`]; afterwards every
    /// fallible method answers [`EngineError::ShutDown`].
    down: AtomicBool,
}

impl Engine {
    /// Spawn the shard workers, each generic over the concrete sampler
    /// type of `config.spec`'s kind.
    ///
    /// # Panics
    /// Panics if `config.shards == 0` or `config.queue_capacity == 0`.
    #[must_use]
    pub fn spawn(config: EngineConfig) -> Self {
        struct Spawn(EngineConfig);
        impl KindVisitor for Spawn {
            type Output = Engine;
            fn visit<S: SpecSampler>(self) -> Engine {
                Engine::launch::<S>(self.0, Vec::new())
            }
        }
        config.spec.kind.with_type(Spawn(config))
    }

    /// Spawn the shard workers for `S`, the concrete sampler type of
    /// `config.spec`: shard `i` starts from `init[i]`, or empty where
    /// `init` has no entry.
    fn launch<S: SpecSampler>(config: EngineConfig, init: Vec<ShardInit<S>>) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(config.queue_capacity >= 1, "queue capacity must be ≥ 1");
        let registry = Arc::new(Registry::new());
        let pool = Arc::new(BatchPool::new(config.shards * 4));
        let mut init = init.into_iter();
        let shards = (0..config.shards)
            .map(|i| {
                let (tx, rx) = bounded::<ShardCmd>(config.queue_capacity);
                let metrics = Arc::new(ShardMetrics::register(&registry, i));
                let watermark_pub = Arc::new(AtomicU64::new(0));
                let worker_metrics = Arc::clone(&metrics);
                let worker_pool = Arc::clone(&pool);
                let worker_watermark = Arc::clone(&watermark_pub);
                let start = init.next().unwrap_or_else(ShardInit::empty);
                let (spec, lateness) = (config.spec, config.lateness);
                let handle = std::thread::spawn(move || {
                    let worker = ShardWorker::<S>::new(
                        spec,
                        lateness,
                        start,
                        &worker_metrics,
                        &worker_watermark,
                    );
                    shard_loop(&rx, &worker_pool, worker)
                });
                Shard {
                    tx,
                    metrics,
                    watermark_pub,
                    handle: Mutex::new(Some(handle)),
                }
            })
            .collect();
        Self {
            shards,
            spec: config.spec,
            queue_capacity: config.queue_capacity,
            lateness: config.lateness,
            registry,
            pool,
            down: AtomicBool::new(false),
        }
    }

    /// Number of shard workers.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The spec every tenant instance is built from.
    #[must_use]
    pub fn spec(&self) -> SamplerSpec {
        self.spec
    }

    /// The lateness horizon this engine was spawned with (see
    /// [`EngineConfig::lateness`]).
    #[must_use]
    pub fn lateness(&self) -> Option<u64> {
        self.lateness
    }

    /// Producer-side lateness gate (horizon mode only): refuse `now`
    /// when it is already beyond the shard's published watermark minus
    /// the horizon. The published watermark is a monotone lower bound of
    /// the worker's, so a refusal here is something the worker would
    /// also have dropped; anything that races past lands in the
    /// worker-side counted drop instead of an error.
    fn late_gate(&self, idx: usize, now: Slot, elements: u64) -> Result<(), EngineError> {
        let Some(l) = self.lateness else {
            return Ok(());
        };
        let w = self.shards[idx].watermark_pub.load(Ordering::Relaxed);
        if now.0.saturating_add(l) < w {
            let metrics = &self.shards[idx].metrics;
            metrics.late_dropped.add(elements);
            metrics.events.note(
                "late_drop",
                format!(
                    "refused {elements} element(s) at slot {} beyond horizon (watermark {w})",
                    now.0
                ),
            );
            return Err(EngineError::LateData {
                slot: now,
                watermark: Slot(w),
            });
        }
        Ok(())
    }

    /// Which shard hosts `tenant` (stable for a fixed shard count).
    ///
    /// Multiply-high range reduction of the salted hash: the high word
    /// of `hash × shards` is uniform on `0..shards`, with no 64-bit
    /// division on the per-element routing path.
    #[must_use]
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        shard_index(tenant, self.shards.len())
    }

    /// The error a failed send or receive on shard `idx` means: the
    /// whole engine being down outranks one missing worker.
    fn down_error(&self, idx: usize) -> EngineError {
        if self.down.load(Ordering::SeqCst) {
            EngineError::ShutDown
        } else {
            EngineError::ShardDown(idx)
        }
    }

    /// Reject requests that arrive after [`Engine::begin_shutdown`].
    fn guard(&self) -> Result<(), EngineError> {
        if self.down.load(Ordering::SeqCst) {
            Err(EngineError::ShutDown)
        } else {
            Ok(())
        }
    }

    /// Producer-side enqueue (ingest and clock advances): try the
    /// non-blocking fast path first; on a full queue, count the
    /// backpressure event and fall back to the blocking send. (Queries
    /// and flushes use [`Engine::plain_send`] — the backpressure metric
    /// means *producer* pressure, the signal a rebalancer would act on.)
    fn send_with_backpressure(&self, idx: usize, cmd: ShardCmd) -> Result<(), EngineError> {
        let shard = &self.shards[idx];
        match shard.tx.try_send(cmd) {
            Ok(()) => Ok(()),
            Err(TrySendError::Full(cmd)) => {
                shard.metrics.backpressure.inc();
                shard.tx.send(cmd).map_err(|_| self.down_error(idx))
            }
            Err(TrySendError::Disconnected(_)) => Err(self.down_error(idx)),
        }
    }

    /// Non-backpressure-counted enqueue (queries, flushes, barriers).
    fn plain_send(&self, idx: usize, cmd: ShardCmd) -> Result<(), EngineError> {
        self.shards[idx]
            .tx
            .send(cmd)
            .map_err(|_| self.down_error(idx))
    }

    /// Ingest one observation at the tenant's current clock.
    ///
    /// This is the allocation-free single-element path (one enum send,
    /// no per-element `Vec`); prefer [`Engine::try_observe_batch`] when
    /// the caller can amortize channel traffic over many elements.
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] after [`Engine::begin_shutdown`];
    /// [`EngineError::ShardDown`] if the owning worker is gone.
    pub fn try_observe(&self, tenant: TenantId, e: Element) -> Result<(), EngineError> {
        self.guard()?;
        self.send_with_backpressure(self.shard_of(tenant), ShardCmd::One(tenant, e, None))
    }

    /// Ingest one observation stamped at slot `now`, raising the owning
    /// shard's watermark to `now`.
    ///
    /// # Errors
    /// As [`Engine::try_observe`]; additionally
    /// [`EngineError::LateData`] in horizon mode when `now` is already
    /// beyond the lateness horizon (the element is counted in
    /// `engine_late_dropped_total` and dropped, never re-stamped).
    pub fn try_observe_at(
        &self,
        tenant: TenantId,
        e: Element,
        now: Slot,
    ) -> Result<(), EngineError> {
        self.guard()?;
        let idx = self.shard_of(tenant);
        self.late_gate(idx, now, 1)?;
        self.send_with_backpressure(idx, ShardCmd::One(tenant, e, Some(now)))
    }

    /// Ingest a batch of observations, preserving per-tenant order.
    ///
    /// The batch is partitioned by owning shard and forwarded as one
    /// message per shard; a full shard queue blocks (and is counted as a
    /// backpressure event) rather than dropping or buffering unboundedly.
    ///
    /// # Errors
    /// As [`Engine::try_observe`]. A mid-batch failure may leave the
    /// already-forwarded per-shard parts applied.
    pub fn try_observe_batch(
        &self,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Result<(), EngineError> {
        self.guard()?;
        for (i, part) in self.partition_pooled(batch).into_iter().enumerate() {
            if !part.is_empty() {
                self.send_with_backpressure(i, ShardCmd::Batch(None, part))?;
            }
        }
        Ok(())
    }

    /// Partition a batch into per-shard parts, drawing the non-empty
    /// parts from the shared buffer pool (the worker returns them once
    /// processed).
    fn partition_pooled(
        &self,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Vec<Vec<(TenantId, Element)>> {
        let shards = self.shards.len();
        let mut per_shard: Vec<Vec<(TenantId, Element)>> = Vec::new();
        per_shard.resize_with(shards, Vec::new);
        let batch = batch.into_iter();
        // A part's expected share of the batch, plus an eighth for the
        // spread across shards. Grown by push-doubling instead, about
        // half of all queued parts would hold twice the memory they use.
        let n = batch.size_hint().0;
        let share = if shards == 1 {
            n
        } else {
            n / shards + n / shards / 8
        };
        for (tenant, e) in batch {
            let part = &mut per_shard[self.shard_of(tenant)];
            if part.capacity() == 0 {
                // First element for this shard: swap in a pooled buffer,
                // sized for its share.
                *part = self.pool.get();
                part.reserve(share);
            }
            part.push((tenant, e));
        }
        per_shard
    }

    /// Ingest a batch of observations all stamped at slot `now` — one
    /// slot's worth of a timestamped feed.
    ///
    /// Raises the watermark of every shard that receives elements; a
    /// shard with no elements in the batch keeps its old watermark until
    /// the next [`Engine::advance`] (the global clock signal).
    ///
    /// # Errors
    /// As [`Engine::try_observe_batch`]; additionally
    /// [`EngineError::LateData`] in horizon mode when `now` is beyond a
    /// receiving shard's lateness horizon. The refusal is
    /// all-or-nothing: every receiving shard is gated (one atomic read
    /// each) *before* anything is sent, so on `LateData` no part of the
    /// batch was ingested and retrying the survivors cannot
    /// double-apply. Only the late shards' elements count as drops;
    /// concurrent producers can still move a watermark between the gate
    /// and the worker, in which case the worker counts and drops the
    /// stragglers as usual.
    pub fn try_observe_batch_at(
        &self,
        now: Slot,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Result<(), EngineError> {
        self.guard()?;
        let parts = self.partition_pooled(batch);
        let mut late: Option<EngineError> = None;
        for (i, part) in parts.iter().enumerate() {
            if !part.is_empty() {
                if let Err(e) = self.late_gate(i, now, part.len() as u64) {
                    late.get_or_insert(e);
                }
            }
        }
        if let Some(e) = late {
            for part in parts {
                if !part.is_empty() {
                    self.pool.put(part);
                }
            }
            return Err(e);
        }
        for (i, part) in parts.into_iter().enumerate() {
            if !part.is_empty() {
                self.send_with_backpressure(i, ShardCmd::Batch(Some(now), part))?;
            }
        }
        Ok(())
    }

    /// Advance the global clock: every shard's watermark rises to `now`
    /// and every hosted tenant's sampler is advanced to it, so tenants
    /// whose streams have gone idle still expire (and free) their window
    /// candidates.
    ///
    /// Asynchronous like ingest — follow with [`Engine::flush`] to wait
    /// for the expiry work to land.
    ///
    /// # Errors
    /// As [`Engine::try_observe`].
    pub fn try_advance(&self, now: Slot) -> Result<(), EngineError> {
        self.guard()?;
        // Producer-side like ingest: a clock driver stalling on a full
        // queue is backpressure an operator should see.
        for i in 0..self.shards.len() {
            self.send_with_backpressure(i, ShardCmd::Advance(now))?;
        }
        Ok(())
    }

    /// One tenant's current sample. Window samplers answer as of the
    /// shard watermark.
    ///
    /// Consistency: reflects every batch whose `observe_batch` call
    /// returned before this call began (FIFO queue barrier), and possibly
    /// later ones still in flight from concurrent producers.
    ///
    /// # Errors
    /// [`EngineError::UnknownTenant`] if the tenant has never been
    /// observed; [`EngineError::ShutDown`] / [`EngineError::ShardDown`]
    /// as for ingest.
    pub fn try_snapshot(&self, tenant: TenantId) -> Result<Vec<Element>, EngineError> {
        self.try_snapshot_view(tenant, None).map(|v| v.sample)
    }

    /// One tenant's sample as of slot `now`: the shard watermark is
    /// raised to `now` and the tenant advanced to it before sampling —
    /// the window-parameterized query.
    ///
    /// # Errors
    /// As [`Engine::try_snapshot`].
    pub fn try_snapshot_at(
        &self,
        tenant: TenantId,
        now: Slot,
    ) -> Result<Vec<Element>, EngineError> {
        self.try_snapshot_view(tenant, Some(now)).map(|v| v.sample)
    }

    /// One tenant's full [`TenantView`] (sample + stored tuples +
    /// would-be wire traffic), optionally as of an explicit slot.
    ///
    /// # Errors
    /// As [`Engine::try_snapshot`].
    pub fn try_snapshot_view(
        &self,
        tenant: TenantId,
        at: Option<Slot>,
    ) -> Result<TenantView, EngineError> {
        self.guard()?;
        let idx = self.shard_of(tenant);
        let (reply_tx, reply_rx) = unbounded();
        self.plain_send(
            idx,
            ShardCmd::Query {
                tenant,
                at,
                reply: reply_tx,
                enqueued: Instant::now(),
            },
        )?;
        reply_rx
            .recv()
            .map_err(|_| self.down_error(idx))?
            .ok_or(EngineError::UnknownTenant(tenant))
    }

    /// Every hosted tenant's sample, ascending by tenant id — optionally
    /// as of an explicit slot (a consistent windowed census: every
    /// shard's watermark is raised to `at` before answering).
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] / [`EngineError::ShardDown`] as for
    /// ingest. An empty engine answers an empty census, not an error.
    pub fn try_snapshot_all(
        &self,
        at: Option<Slot>,
    ) -> Result<Vec<(TenantId, Vec<Element>)>, EngineError> {
        self.guard()?;
        let replies: Vec<Receiver<Vec<(TenantId, Vec<Element>)>>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let (reply_tx, reply_rx) = unbounded();
                self.plain_send(
                    i,
                    ShardCmd::QueryAll {
                        at,
                        reply: reply_tx,
                        enqueued: Instant::now(),
                    },
                )
                .map(|()| reply_rx)
            })
            .collect::<Result<_, _>>()?;
        let mut all = Vec::new();
        for (i, rx) in replies.into_iter().enumerate() {
            all.extend(rx.recv().map_err(|_| self.down_error(i))?);
        }
        all.sort_by_key(|&(t, _)| t);
        Ok(all)
    }

    /// Block until every shard has processed all previously enqueued
    /// commands — the explicit all-shards barrier.
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] / [`EngineError::ShardDown`] as for
    /// ingest.
    pub fn try_flush(&self) -> Result<(), EngineError> {
        self.guard()?;
        let replies: Vec<Receiver<()>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let (reply_tx, reply_rx) = unbounded();
                self.plain_send(i, ShardCmd::Flush { reply: reply_tx })
                    .map(|()| reply_rx)
            })
            .collect::<Result<_, _>>()?;
        for (i, rx) in replies.into_iter().enumerate() {
            rx.recv().map_err(|_| self.down_error(i))?;
        }
        Ok(())
    }

    /// Stop all workers *in place* and return the final accounting —
    /// the `&self` half of [`Engine::shutdown`], usable behind an
    /// [`Arc`] (and by the wire server, whose clients may keep sending:
    /// every later request answers [`EngineError::ShutDown`]).
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] if the engine was already shut down.
    ///
    /// # Panics
    /// Panics if a shard worker itself panicked.
    pub fn begin_shutdown(&self) -> Result<EngineReport, EngineError> {
        if self.down.swap(true, Ordering::SeqCst) {
            return Err(EngineError::ShutDown);
        }
        for shard in &self.shards {
            let _ = shard.tx.send(ShardCmd::Shutdown);
        }
        // Join *before* reading metrics: Shutdown queues behind any
        // still-unprocessed commands, so the counters are final only once
        // the worker has exited.
        let mut tenants_per_shard = Vec::with_capacity(self.shards.len());
        let mut snapshots = Vec::with_capacity(self.shards.len());
        for (i, shard) in self.shards.iter().enumerate() {
            let handle = shard
                .handle
                .lock()
                .expect("shutdown joiner not poisoned")
                .take()
                .expect("joined exactly once");
            tenants_per_shard.push(handle.join().expect("shard worker exits cleanly"));
            snapshots.push(shard.metrics.snapshot(i, 0));
        }
        Ok(EngineReport {
            metrics: EngineMetrics { shards: snapshots },
            tenants_per_shard,
        })
    }

    // ------------------------------------------------------------------
    // Source-compatible wrappers over the fallible core. Ingest panics
    // only if the engine was shut down under the caller (previously a
    // type-system impossibility, now a typed error on the `try_` path);
    // snapshots keep their historical `Option` shape.
    // ------------------------------------------------------------------

    /// Infallible wrapper over [`Engine::try_observe`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or the owning worker is gone.
    pub fn observe(&self, tenant: TenantId, e: Element) {
        self.try_observe(tenant, e).expect("engine accepts ingest");
    }

    /// Infallible wrapper over [`Engine::try_observe_at`]. Beyond-horizon
    /// data is a counted drop here, not a panic — callers that need the
    /// refusal as a value use the `try_` path.
    ///
    /// # Panics
    /// Panics if the engine is shut down or the owning worker is gone.
    pub fn observe_at(&self, tenant: TenantId, e: Element, now: Slot) {
        match self.try_observe_at(tenant, e, now) {
            Ok(()) | Err(EngineError::LateData { .. }) => {}
            Err(e) => panic!("engine accepts ingest: {e}"),
        }
    }

    /// Infallible wrapper over [`Engine::try_observe_batch`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    pub fn observe_batch(&self, batch: impl IntoIterator<Item = (TenantId, Element)>) {
        self.try_observe_batch(batch)
            .expect("engine accepts ingest");
    }

    /// Infallible flavor of the timestamped batch path. As with
    /// [`Engine::observe_at`], beyond-horizon data is a counted drop,
    /// not a panic — and unlike [`Engine::try_observe_batch_at`]'s
    /// all-or-nothing refusal, this is best-effort per shard: a late
    /// shard's part is counted and dropped while fresh shards' parts
    /// still apply, so no element is lost to a refusal this wrapper
    /// would have swallowed anyway.
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    pub fn observe_batch_at(
        &self,
        now: Slot,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) {
        self.guard()
            .unwrap_or_else(|e| panic!("engine accepts ingest: {e}"));
        for (i, part) in self.partition_pooled(batch).into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            if self.late_gate(i, now, part.len() as u64).is_err() {
                // Counted and noted by the gate.
                self.pool.put(part);
                continue;
            }
            self.send_with_backpressure(i, ShardCmd::Batch(Some(now), part))
                .unwrap_or_else(|e| panic!("engine accepts ingest: {e}"));
        }
    }

    /// Infallible wrapper over [`Engine::try_advance`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    pub fn advance(&self, now: Slot) {
        self.try_advance(now)
            .expect("engine accepts clock advances");
    }

    /// One tenant's current sample, or `None` if the tenant has never
    /// been observed (or the engine is shut down) — the historical
    /// `Option` shape of [`Engine::try_snapshot`].
    #[must_use]
    pub fn snapshot(&self, tenant: TenantId) -> Option<Vec<Element>> {
        self.try_snapshot(tenant).ok()
    }

    /// `Option` wrapper over [`Engine::try_snapshot_at`].
    #[must_use]
    pub fn snapshot_at(&self, tenant: TenantId, now: Slot) -> Option<Vec<Element>> {
        self.try_snapshot_at(tenant, now).ok()
    }

    /// `Option` wrapper over [`Engine::try_snapshot_view`].
    #[must_use]
    pub fn snapshot_view(&self, tenant: TenantId, at: Option<Slot>) -> Option<TenantView> {
        self.try_snapshot_view(tenant, at).ok()
    }

    /// Every hosted tenant's sample, ascending by tenant id.
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    #[must_use]
    pub fn snapshot_all(&self) -> Vec<(TenantId, Vec<Element>)> {
        self.try_snapshot_all(None).expect("engine answers queries")
    }

    /// Every hosted tenant's sample as of slot `at` — the consistent
    /// windowed census, in one request.
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    #[must_use]
    pub fn snapshot_all_at(&self, at: Slot) -> Vec<(TenantId, Vec<Element>)> {
        self.try_snapshot_all(Some(at))
            .expect("engine answers queries")
    }

    /// Infallible wrapper over [`Engine::try_flush`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    pub fn flush(&self) {
        self.try_flush().expect("engine reaches the flush barrier");
    }

    /// Current per-shard metrics (counters may lag in-flight traffic;
    /// exact right after [`Engine::flush`]). Readable even after
    /// shutdown — the final counters remain.
    #[must_use]
    pub fn metrics(&self) -> EngineMetrics {
        EngineMetrics {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, shard)| shard.metrics.snapshot(i, shard.tx.len()))
                .collect(),
        }
    }

    /// Reuse statistics of the shared ingest-buffer pool: in steady
    /// state, batched ingest should be nearly all hits — each miss is
    /// one `Vec` allocation on the hot path.
    #[must_use]
    pub fn batch_pool_stats(&self) -> BatchPoolStats {
        self.pool.stats()
    }

    /// The engine's metric registry — every shard's counters, gauges,
    /// histograms, and the slow-op event ring live here, readable (or
    /// further instrumented) by embedding layers.
    #[must_use]
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// A point-in-time telemetry snapshot of the whole registry —
    /// queue-depth gauges are refreshed first, so the export is as
    /// current as [`Engine::metrics`]. This is the payload behind the
    /// wire protocol's `Telemetry` request. Readable even after
    /// shutdown.
    #[must_use]
    pub fn telemetry(&self) -> TelemetrySnapshot {
        for shard in &self.shards {
            shard.metrics.queue_depth.set(shard.tx.len() as u64);
        }
        self.registry.snapshot()
    }

    /// Stop all workers and return the final accounting (the consuming
    /// wrapper over [`Engine::begin_shutdown`]).
    ///
    /// # Panics
    /// Panics if the engine was already shut down in place.
    #[must_use]
    pub fn shutdown(self) -> EngineReport {
        self.begin_shutdown()
            .expect("engine shut down exactly once")
    }
}

/// Queue-wait + service time of one snapshot query, recorded by the
/// worker as it answers (so a slow sibling shard cannot skew another
/// shard's numbers).
fn record_snapshot_latency(metrics: &ShardMetrics, enqueued: Instant) {
    let nanos = enqueued.elapsed().as_nanos() as u64;
    metrics.snapshots.inc();
    metrics.snapshot_nanos.add(nanos);
    metrics.snapshot_latency.observe(nanos);
    metrics.events.record_slow("slow_snapshot", nanos, || {
        format!("snapshot query took {nanos} ns (queue wait + service)")
    });
}

/// Rehydrate a parked tenant: rebuild the sampler from its eviction
/// blob and fast-forward it to `target` — a parked window is drained,
/// so the advance is the O(1) quiescent jump and the result is
/// observationally identical to a tenant that was never evicted. A
/// `target` below the blob's own clock leaves the clock where it was
/// (sampler advances are monotonic).
fn rehydrate<S: SpecSampler>(blob: &[u8], target: Slot) -> S {
    let mut sampler: S =
        restore_as(blob).expect("eviction blob was produced by this engine and must restore");
    sampler.advance(target);
    sampler
}

/// One hosted tenant: its sampler (live or parked) and the shard
/// sequence number of its last mutation — the dirty stamp a delta
/// checkpoint filters on. `S` is the spec's concrete sampler type, held
/// inline: one table probe reaches the sampler's state with no further
/// pointer and no vtable.
pub(crate) struct Tenant<S> {
    pub(crate) stamp: u64,
    pub(crate) state: TenantState<S>,
}

pub(crate) enum TenantState<S> {
    Live(S),
    /// Evicted once its window drained: the final-state checkpoint
    /// blob. A later observe or query rehydrates from it, so eviction
    /// frees memory without forgetting the tenant's clock or message
    /// counter.
    Parked(Vec<u8>),
}

impl<S: SpecSampler> Tenant<S> {
    /// The live sampler, rehydrating a parked one to `target` first.
    /// Ingest passes the *event's* slot as the target (so a resurrected
    /// tenant's clock never jumps past data it is about to receive);
    /// queries pass the shard watermark.
    fn live(&mut self, target: Slot) -> &mut S {
        if let TenantState::Parked(blob) = &self.state {
            self.state = TenantState::Live(rehydrate(blob, target));
        }
        match &mut self.state {
            TenantState::Live(sampler) => sampler,
            TenantState::Parked(_) => unreachable!("rehydrated above"),
        }
    }
}

/// A shard's starting state: empty for a fresh engine; for a restored
/// one, its checkpoint section with every tenant already decoded into
/// the shard's sampler type.
pub(crate) struct ShardInit<S> {
    pub(crate) watermark: Slot,
    pub(crate) seq: u64,
    /// Tenant entries keep their dirty stamps, so delta chains span a
    /// restore.
    pub(crate) tenants: Vec<(u64, Tenant<S>)>,
    /// The reorder buffer: late elements checkpointed between arrival
    /// and replay.
    pub(crate) buffer: BTreeMap<u64, Vec<(TenantId, Element)>>,
}

impl<S> ShardInit<S> {
    pub(crate) fn empty() -> Self {
        Self {
            watermark: Slot(0),
            seq: 0,
            tenants: Vec::new(),
            buffer: BTreeMap::new(),
        }
    }
}

/// The shard's tenant table hasher: one folded 64×64→128-bit multiply
/// of the `u64` key. SipHash, the std default, costs more than the
/// sampler's own step for an element that does not beat the threshold.
/// The key is xored with a per-table random seed first, so tenant ids
/// chosen by a remote client cannot be aimed at one bucket.
#[derive(Clone, Copy)]
struct TenantHash(u64);

impl TenantHash {
    fn new() -> Self {
        Self(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for TenantHash {
    type Hasher = TenantHash;

    fn build_hasher(&self) -> TenantHash {
        *self
    }
}

impl Hasher for TenantHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the tenant table's keys are u64s, which hash via write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        let m = u128::from(key ^ self.0) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One shard worker's owned state plus the handles it records into —
/// factored into a struct because the apply loop, the reorder-buffer
/// drain and the self-driven expiry sweep are shared by several command
/// handlers. Generic over `S`, the concrete sampler type of the
/// engine's spec: every kind is served by this one worker, and each
/// sampler call in it is static.
struct ShardWorker<'a, S> {
    spec: SamplerSpec,
    /// `None`: legacy immediate-apply; `Some(L)`: horizon mode with a
    /// reorder buffer and producer-visible refusals.
    lateness: Option<u64>,
    metrics: &'a ShardMetrics,
    watermark_pub: &'a AtomicU64,
    /// Every tenant the shard hosts, live or parked, with its dirty
    /// stamp: one probe answers all three.
    tenants: HashMap<u64, Tenant<S>, TenantHash>,
    /// Highest slot this shard has seen (timestamped ingest, Advance,
    /// or snapshot_at). Monotonic; queries answer as of this watermark.
    watermark: Slot,
    /// Mutation sequence number: bumped once per state-changing
    /// command. Each touched tenant is stamped with it, so a delta
    /// checkpoint can emit exactly the tenants mutated since a base
    /// document's `seq`.
    seq: u64,
    /// The hash every tenant's sampler takes precomputed
    /// ([`DistinctSampler::hasher`](dds_core::sampler::DistinctSampler::hasher));
    /// `None` for kinds that hash each element themselves, whose
    /// batches `apply` does not hash.
    batch_hash: Option<SeededHash>,
    /// Persistent scratch for `apply`: the batch's hashes, and one
    /// run's elements for the fused batch path.
    hash_scratch: Vec<u64>,
    elem_scratch: Vec<Element>,
    /// The reorder buffer (horizon mode): slot → elements stamped at
    /// that slot, awaiting replay. Ordered so the drain replays in slot
    /// order; entries within a slot keep arrival order. Bounded by the
    /// horizon: every key lies in `[watermark - lateness, watermark]`.
    buffer: BTreeMap<u64, Vec<(TenantId, Element)>>,
    /// Elements currently held in `buffer`.
    buffered: usize,
    /// `cut / window` stride index at the last self-driven expiry
    /// sweep (or caller advance), where `cut = watermark - lateness`.
    sweep_stride: u64,
}

impl<'a, S: SpecSampler> ShardWorker<'a, S> {
    /// A worker starting from `start` (see [`ShardInit`]).
    fn new(
        spec: SamplerSpec,
        lateness: Option<u64>,
        start: ShardInit<S>,
        metrics: &'a ShardMetrics,
        watermark_pub: &'a AtomicU64,
    ) -> Self {
        let mut w = Self {
            spec,
            lateness,
            metrics,
            watermark_pub,
            tenants: HashMap::with_hasher(TenantHash::new()),
            watermark: Slot(0),
            seq: start.seq,
            batch_hash: S::from_spec(&spec).hasher(),
            hash_scratch: Vec::new(),
            elem_scratch: Vec::new(),
            buffered: start.buffer.values().map(Vec::len).sum(),
            buffer: start.buffer,
            sweep_stride: 0,
        };
        w.raise_watermark(start.watermark);
        w.tenants.extend(start.tenants);
        metrics.reorder_buffered.set(w.buffered as u64);
        if let (Some(window), Some(_)) = (spec.window(), lateness) {
            // Derived, not persisted: a restored watermark seeds the
            // sweep stride so the next ingest doesn't re-sweep a
            // boundary the old engine already crossed.
            w.sweep_stride = w.cut().0 / window;
        }
        w.set_tenant_gauge();
        w
    }

    /// The replay frontier: slots at or below it can no longer receive
    /// data (arrivals below it are refused), so buffered slots `≤ cut`
    /// are safe to replay and tenant clocks may advance to it.
    fn cut(&self) -> Slot {
        Slot(self.watermark.0.saturating_sub(self.lateness.unwrap_or(0)))
    }

    fn raise_watermark(&mut self, now: Slot) {
        if now > self.watermark {
            self.watermark = now;
            self.metrics.watermark.set(now.0);
            self.watermark_pub.store(now.0, Ordering::Relaxed);
        }
    }

    fn set_tenant_gauge(&self) {
        self.metrics.tenants.set(self.tenants.len() as u64);
    }

    /// One event-ring note per command that dropped late data — the
    /// counter carries the exact count; the ring carries the story.
    fn note_dropped(&self, dropped: u64) {
        if dropped > 0 {
            self.metrics.events.note(
                "late_drop",
                format!(
                    "dropped {dropped} late element(s) beyond the lateness horizon \
                     (watermark {})",
                    self.watermark.0
                ),
            );
        }
    }

    /// The tenant's live sampler — built on first sight, rehydrated to
    /// `target` if parked — stamped dirty at the current seq.
    fn touch(&mut self, tenant: TenantId, target: Slot) -> &mut S {
        let spec = self.spec;
        let entry = self.tenants.entry(tenant.0).or_insert_with(|| Tenant {
            stamp: 0,
            state: TenantState::Live(S::from_spec(&spec)),
        });
        entry.stamp = self.seq;
        entry.live(target)
    }

    /// Apply `batch` in arrival order: at slot `now` if given, else at
    /// each tenant's own clock. Where the samplers take a precomputed
    /// hash, the whole batch is hashed in one pass (every tenant of one
    /// spec shares its hash). Then each run of consecutive same-tenant
    /// elements costs one table probe, a run of one goes to `observe`
    /// (`observe_hashed`) and a longer run to the fused batch path.
    /// Per-tenant order (the correctness contract) holds without
    /// sorting, and cross-tenant order is unobservable: tenants are
    /// independent samplers. A timestamped run whose tenant clock has
    /// already passed `now` is counted and dropped, never silently
    /// re-stamped. Returns drops.
    fn apply(&mut self, now: Option<Slot>, batch: &[(TenantId, Element)]) -> u64 {
        let metrics = self.metrics;
        let target = now.unwrap_or(self.watermark);
        let mut hashes = std::mem::take(&mut self.hash_scratch);
        let mut elems = std::mem::take(&mut self.elem_scratch);
        if let Some(hash) = self.batch_hash {
            hash.hash_u64_batch_into(batch.iter().map(|&(_, e)| e.0), &mut hashes);
        }
        let mut dropped = 0;
        let mut at = 0;
        while let Some(&(tenant, e)) = batch.get(at) {
            let len = 1 + batch[at + 1..]
                .iter()
                .take_while(|&&(t, _)| t == tenant)
                .count();
            let run = at..at + len;
            at += len;
            let s = self.touch(tenant, target);
            if let Some(now) = now {
                if now < s.clock() {
                    metrics.late_dropped.add(len as u64);
                    dropped += len as u64;
                    continue;
                }
                s.advance(now);
            }
            if len == 1 {
                match hashes.get(run.start) {
                    Some(&h) => s.observe_hashed(e, h),
                    None => s.observe(e),
                }
            } else {
                elems.clear();
                elems.extend(batch[run.clone()].iter().map(|&(_, e)| e));
                match hashes.get(run) {
                    Some(h) => s.observe_batch_hashed(&elems, h),
                    None => s.observe_batch(&elems),
                }
            }
        }
        self.hash_scratch = hashes;
        self.elem_scratch = elems;
        dropped
    }

    /// Replay buffered slots `≤ through` in ascending slot order — the
    /// reorder buffer's single exit. Returns drops (possible only for
    /// tenants whose clock a query already sealed past a buffered slot).
    fn drain_through(&mut self, through: Slot) -> u64 {
        // Replay needs a seq of its own: when the elements were merely
        // *buffered*, the command-level bump stamped no tenant, so a
        // base checkpoint may already be sealed at that seq. A fresh
        // bump keeps the replayed tenants inside the next delta's
        // `stamp > since` filter — otherwise the delta's now-empty
        // buffer would replace the base's copy while the replayed
        // elements appear in neither.
        if self
            .buffer
            .iter()
            .next()
            .is_some_and(|(&slot, _)| slot <= through.0)
        {
            self.seq += 1;
        }
        let mut dropped = 0;
        while let Some((&slot, _)) = self.buffer.iter().next() {
            if slot > through.0 {
                break;
            }
            let entries = self.buffer.remove(&slot).expect("first key exists");
            self.buffered -= entries.len();
            dropped += self.apply(Some(Slot(slot)), &entries);
        }
        self.metrics.reorder_buffered.set(self.buffered as u64);
        dropped
    }

    /// Advance every live tenant's clock to `to` under a fresh seq.
    /// Each one is (conservatively) stamped dirty: an advance can move
    /// any lagging tenant clock even when the watermark did not change.
    fn advance_live(&mut self, to: Slot) {
        self.seq += 1;
        for t in self.tenants.values_mut() {
            if let TenantState::Live(s) = &mut t.state {
                s.advance(to);
                t.stamp = self.seq;
            }
        }
    }

    /// Self-driven expiry (horizon mode, windowed specs): when the cut
    /// crosses a window-stride boundary, advance every live tenant to
    /// the cut and park the drained ones — idle tenants' memory stays
    /// bounded from ingest timestamps alone, with no caller
    /// [`Engine::advance`]. Safe at the cut: arrivals below it are
    /// refused and buffered slots `≤ cut` were drained first, so no
    /// acceptable event can land behind a swept clock.
    fn maybe_sweep(&mut self) {
        let (Some(window), Some(_)) = (self.spec.window(), self.lateness) else {
            return;
        };
        let cut = self.cut();
        let stride = cut.0 / window;
        if stride <= self.sweep_stride {
            return;
        }
        self.sweep_stride = stride;
        self.advance_live(cut);
        self.park_drained();
        self.metrics.sweeps.inc();
        self.set_tenant_gauge();
    }

    /// Park window-bounded tenants whose state has fully drained: the
    /// instance (treap arenas, buffers) is freed, but its final state —
    /// clock, message counter — is kept as a blob so a later observe
    /// *resumes* the tenant instead of resetting it.
    fn park_drained(&mut self) {
        for t in self.tenants.values_mut() {
            let TenantState::Live(s) = &t.state else {
                continue;
            };
            if s.memory_tuples() == 0 && s.sample().is_empty() {
                let mut blob = Vec::new();
                s.checkpoint(&mut blob);
                t.state = TenantState::Parked(blob);
                self.metrics.evictions.inc();
            }
        }
    }

    /// Ingest `batch`, every element stamped `at` if given, else at its
    /// tenant's own clock. Returns drops.
    fn ingest(&mut self, at: Option<Slot>, batch: &[(TenantId, Element)]) -> u64 {
        let (Some(now), Some(lateness)) = (at, self.lateness) else {
            // Untimed, or legacy: apply immediately at the event's own
            // slot; the per-tenant clock check in `apply` is the bugfix
            // for the silent re-stamp.
            if let Some(now) = at {
                self.raise_watermark(now);
            }
            return self.apply(at, batch);
        };
        self.metrics
            .lateness_slots
            .observe(self.watermark.0.saturating_sub(now.0));
        if now < self.cut() {
            let n = batch.len() as u64;
            self.metrics.late_dropped.add(n);
            return n;
        }
        if lateness == 0 {
            // In-order fast path: `now ≥ cut = watermark`, so the
            // buffer is provably empty and the batch applies directly.
            self.raise_watermark(now);
            let dropped = self.apply(at, batch);
            self.maybe_sweep();
            return dropped;
        }
        self.buffered += batch.len();
        self.buffer
            .entry(now.0)
            .or_default()
            .extend_from_slice(batch);
        self.raise_watermark(now);
        let dropped = self.drain_through(self.cut());
        self.maybe_sweep();
        dropped
    }

    /// The shard's serialized population — every tenant, or with
    /// `since` only those stamped after it (a delta) — sorted by tenant
    /// id so shard snapshots are byte-deterministic, plus the reorder
    /// buffer ascending by slot, so buffered-but-unapplied data
    /// survives a crash.
    fn shard_state(&self, since: Option<u64>) -> ShardState {
        let mut tenants: Vec<(u64, bool, u64, Vec<u8>)> = self
            .tenants
            .iter()
            .filter(|(_, t)| since.map_or(true, |since| t.stamp > since))
            .map(|(&id, t)| match &t.state {
                TenantState::Live(s) => {
                    let mut blob = Vec::new();
                    s.checkpoint(&mut blob);
                    (id, false, t.stamp, blob)
                }
                TenantState::Parked(blob) => (id, true, t.stamp, blob.clone()),
            })
            .collect();
        tenants.sort_unstable_by_key(|&(id, ..)| id);
        ShardState {
            watermark: self.watermark,
            seq: self.seq,
            tenants,
            buffer: self
                .buffer
                .iter()
                .map(|(&slot, entries)| (slot, entries.iter().map(|&(t, e)| (t.0, e.0)).collect()))
                .collect(),
        }
    }
}

/// The shard worker's command loop: `w` owns its tenant table (live
/// samplers and parked blobs), its reorder buffer, and the shard
/// watermark outright; returns the final tenant count on shutdown.
fn shard_loop<S: SpecSampler>(
    rx: &Receiver<ShardCmd>,
    pool: &BatchPool,
    mut w: ShardWorker<'_, S>,
) -> usize {
    let (spec, metrics) = (w.spec, w.metrics);
    while let Ok(cmd) = rx.recv() {
        match cmd {
            ShardCmd::One(tenant, e, at) => {
                // The allocation-free fast path stays clock-free: two
                // counter bumps, no histogram, no Instant reads.
                metrics.batches.inc();
                metrics.elements.inc();
                w.seq += 1;
                let dropped = w.ingest(at, &[(tenant, e)]);
                w.note_dropped(dropped);
                w.set_tenant_gauge();
            }
            ShardCmd::Batch(at, batch) => {
                let start = dds_obs::maybe_now();
                metrics.batches.inc();
                metrics.elements.add(batch.len() as u64);
                metrics.batch_elements.observe(batch.len() as u64);
                w.seq += 1;
                let dropped = w.ingest(at, &batch);
                w.note_dropped(dropped);
                pool.put(batch);
                w.set_tenant_gauge();
                let nanos = dds_obs::nanos_since(start);
                metrics.batch_nanos.observe(nanos);
                metrics.events.record_slow("slow_batch", nanos, || {
                    format!("ingest batch took {nanos} ns")
                });
            }
            ShardCmd::Advance(now) => {
                let start = dds_obs::maybe_now();
                if now < w.watermark {
                    // Stale: an explicit no-op — a lagging clock driver
                    // must never interleave with (or rewind under)
                    // in-flight timestamped ingest.
                    metrics.stale_advances.inc();
                    metrics.events.note(
                        "stale_advance",
                        format!(
                            "advance to slot {} refused below watermark {}",
                            now.0, w.watermark.0
                        ),
                    );
                } else {
                    // The caller's clock signal outranks the horizon:
                    // replay the whole buffer (every buffered slot is
                    // ≤ watermark ≤ now) before expiring anything.
                    let dropped = w.drain_through(w.watermark);
                    w.note_dropped(dropped);
                    w.raise_watermark(now);
                    // Eager: idle tenants expire their candidates *now*,
                    // not at their next query — this is the memory-
                    // reclaim path.
                    w.advance_live(w.watermark);
                    if spec.window().is_some() {
                        w.park_drained();
                    }
                    if let (Some(window), Some(_)) = (spec.window(), w.lateness) {
                        w.sweep_stride = w.sweep_stride.max(w.cut().0 / window);
                    }
                    metrics.advances.inc();
                    w.set_tenant_gauge();
                }
                let nanos = dds_obs::nanos_since(start);
                metrics.advance_nanos.observe(nanos);
                metrics.events.record_slow("slow_advance", nanos, || {
                    format!("clock advance to slot {} took {nanos} ns", w.watermark.0)
                });
            }
            ShardCmd::Query {
                tenant,
                at,
                reply,
                enqueued,
            } => {
                if let Some(now) = at {
                    w.raise_watermark(now);
                }
                // Queries answer "as of the watermark": replay the
                // whole buffer first so the answer reflects every
                // arrived element, then seal the queried tenant's clock
                // at the watermark.
                if w.lateness.is_some() {
                    let dropped = w.drain_through(w.watermark);
                    w.note_dropped(dropped);
                    w.maybe_sweep();
                }
                let target = w.watermark;
                let view = w.tenants.get_mut(&tenant.0).map(|t| {
                    // Answering mutates: a parked tenant rehydrates, and
                    // the advance-to-watermark can move the clock.
                    w.seq += 1;
                    t.stamp = w.seq;
                    let s = t.live(target);
                    s.advance(target);
                    TenantView {
                        sample: s.sample(),
                        memory_tuples: s.memory_tuples(),
                        protocol_messages: s.protocol_messages(),
                    }
                });
                let _ = reply.send(view);
                record_snapshot_latency(metrics, enqueued);
            }
            ShardCmd::QueryAll {
                at,
                reply,
                enqueued,
            } => {
                if let Some(now) = at {
                    w.raise_watermark(now);
                }
                if w.lateness.is_some() {
                    let dropped = w.drain_through(w.watermark);
                    w.note_dropped(dropped);
                    w.maybe_sweep();
                }
                w.seq += 1;
                let (watermark, stamp) = (w.watermark, w.seq);
                // Unordered: the engine sorts the merged result once.
                // Parked tenants answer without rehydrating — a drained
                // window's sample is empty by construction.
                let all: Vec<(TenantId, Vec<Element>)> = w
                    .tenants
                    .iter_mut()
                    .map(|(&id, t)| {
                        let sample = match &mut t.state {
                            TenantState::Live(s) => {
                                s.advance(watermark);
                                t.stamp = stamp;
                                s.sample()
                            }
                            TenantState::Parked(_) => Vec::new(),
                        };
                        (TenantId(id), sample)
                    })
                    .collect();
                let _ = reply.send(all);
                record_snapshot_latency(metrics, enqueued);
            }
            ShardCmd::Checkpoint { reply } => {
                let _ = reply.send(w.shard_state(None));
            }
            ShardCmd::CheckpointDelta { since, reply } => {
                // Only the tenants stamped after the base document's
                // sequence number — at 1 % churn this is ~1 % of the
                // tenants, so the delta is a few percent of a full
                // checkpoint's bytes. The reorder buffer is tiny (≤ one
                // horizon's worth of late data), so the delta carries it
                // whole and `apply_delta` replaces the base's copy.
                let _ = reply.send(w.shard_state(Some(since)));
            }
            ShardCmd::Flush { reply } => {
                // Flush is a pure barrier, not a sealing operation: it
                // drains only what the lateness cut has already sealed,
                // so within-horizon data can still arrive and replay in
                // slot order afterwards. Advance and the query paths
                // are the operations that seal time at the watermark.
                if w.lateness.is_some() {
                    let dropped = w.drain_through(w.cut());
                    w.note_dropped(dropped);
                }
                let _ = reply.send(());
            }
            ShardCmd::Shutdown => break,
        }
    }
    w.tenants.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::sampler::SamplerKind;
    use dds_core::CentralizedSampler;

    fn spec() -> SamplerSpec {
        SamplerSpec::new(SamplerKind::Infinite, 8, 1234)
    }

    #[test]
    fn shard_assignment_is_stable_and_covers_all_shards() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(8));
        let mut seen = vec![false; 8];
        for t in 0..1_000 {
            let shard = engine.shard_of(TenantId(t));
            assert_eq!(shard, engine.shard_of(TenantId(t)), "placement not stable");
            seen[shard] = true;
        }
        assert!(seen.iter().all(|&s| s), "some shard hosts no tenants");
        let _ = engine.shutdown();
    }

    #[test]
    fn single_tenant_matches_oracle() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(3));
        let mut oracle = spec().oracle();
        let t = TenantId(42);
        for i in 0..5_000u64 {
            let e = Element((i * 31) % 800);
            engine.observe(t, e);
            oracle.observe(e);
        }
        assert_eq!(engine.snapshot(t), Some(oracle.sample()));
        let report = engine.shutdown();
        assert_eq!(report.metrics.total_elements(), 5_000);
        assert_eq!(report.metrics.tenants(), 1);
    }

    #[test]
    fn batched_multi_tenant_matches_per_tenant_oracles() {
        let tenants = 64u64;
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(4));
        let mut oracles: HashMap<u64, CentralizedSampler> = HashMap::new();
        let mut batch = Vec::new();
        for i in 0..40_000u64 {
            let t = i % tenants; // interleave all tenants
            let e = Element((i * 17) % 500); // element ids collide across tenants
            oracles
                .entry(t)
                .or_insert_with(|| spec().oracle())
                .observe(e);
            batch.push((TenantId(t), e));
            if batch.len() == 256 {
                engine.observe_batch(batch.drain(..).collect::<Vec<_>>());
            }
        }
        engine.observe_batch(batch);
        for (&t, oracle) in &oracles {
            assert_eq!(
                engine.snapshot(TenantId(t)),
                Some(oracle.sample()),
                "tenant {t} diverged"
            );
        }
        let all = engine.snapshot_all();
        assert_eq!(all.len(), tenants as usize);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "not sorted");
        let _ = engine.shutdown();
    }

    #[test]
    fn snapshot_of_unknown_tenant_is_none() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        engine.observe(TenantId(1), Element(9));
        assert_eq!(engine.snapshot(TenantId(999)), None);
        assert!(engine.snapshot(TenantId(1)).is_some());
        let _ = engine.shutdown();
    }

    #[test]
    fn flush_makes_metrics_exact() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(4));
        let batch: Vec<(TenantId, Element)> =
            (0..1_000).map(|i| (TenantId(i % 10), Element(i))).collect();
        engine.observe_batch(batch);
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_elements(), 1_000);
        assert_eq!(m.tenants(), 10);
        assert_eq!(m.max_queue_depth(), 0, "flush leaves queues drained");
        let _ = engine.shutdown();
    }

    #[test]
    fn steady_state_batches_reuse_pooled_buffers() {
        // The alloc-count pin for batched ingest: after the first round
        // warms the pool, every per-shard part must come off the
        // freelist — misses stay at one per shard while hits grow with
        // every subsequent batch.
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        let rounds = 50u64;
        for round in 0..rounds {
            let batch: Vec<(TenantId, Element)> = (0..256)
                .map(|i| (TenantId(i % 8), Element(round * 256 + i)))
                .collect();
            engine.observe_batch(batch);
            // The barrier guarantees the workers returned their buffers
            // before the next round draws from the pool.
            engine.flush();
        }
        let stats = engine.batch_pool_stats();
        assert!(
            stats.misses <= 2,
            "steady-state batches allocated: {stats:?}"
        );
        assert!(stats.hits >= (rounds - 1) * 2, "pool not reused: {stats:?}");
        let _ = engine.shutdown();
    }

    #[test]
    fn batch_parts_are_sized_for_their_share() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        let batch: Vec<(TenantId, Element)> = (0..1024)
            .map(|i| (TenantId(i * 0x9E37_79B9), Element(i)))
            .collect();
        let parts = engine.partition_pooled(batch.iter().copied());
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 1024);
        for part in &parts {
            assert!(part.len() > 448, "uneven split: {}", part.len());
            // 512 + 64, not the 1024 push-doubling reaches past 512.
            assert!(part.capacity() <= 576, "capacity {}", part.capacity());
        }
        let one = Engine::spawn(EngineConfig::new(spec()).with_shards(1));
        let parts = one.partition_pooled(batch.iter().copied());
        assert_eq!(
            parts[0].capacity(),
            1024,
            "one shard takes the batch exactly"
        );
        let _ = engine.shutdown();
        let _ = one.shutdown();
    }

    #[test]
    fn tiny_queue_exerts_and_counts_backpressure() {
        let engine = Engine::spawn(
            EngineConfig::new(spec())
                .with_shards(1)
                .with_queue_capacity(1),
        );
        // Each batch takes the worker far longer to process than the
        // sender needs to enqueue the next one, so with a one-slot queue
        // the try_send fast path must fail (and block) repeatedly.
        for round in 0..50u64 {
            let batch: Vec<(TenantId, Element)> = (0..1_000)
                .map(|i| (TenantId(i % 20), Element(round * 1_000 + i)))
                .collect();
            engine.observe_batch(batch);
        }
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_elements(), 50_000);
        assert!(
            m.total_backpressure() > 0,
            "50 batches through a 1-slot queue never blocked"
        );
        let _ = engine.shutdown();
    }

    #[test]
    fn with_replacement_tenants_serve_too() {
        let wr = SamplerSpec::new(SamplerKind::WithReplacement, 4, 7);
        let engine = Engine::spawn(EngineConfig::new(wr).with_shards(2));
        for i in 0..2_000u64 {
            engine.observe(TenantId(i % 3), Element(i % 100));
        }
        for t in 0..3 {
            let sample = engine.snapshot(TenantId(t)).expect("tenant exists");
            assert_eq!(sample.len(), 4, "one entry per WR copy");
        }
        let _ = engine.shutdown();
    }

    #[test]
    fn concurrent_producers_and_snapshots_do_not_deadlock() {
        let engine = Arc::new(Engine::spawn(
            EngineConfig::new(spec())
                .with_shards(4)
                .with_queue_capacity(4),
        ));
        let producers: Vec<_> = (0..4u64)
            .map(|p| {
                let engine = Arc::clone(&engine);
                std::thread::spawn(move || {
                    for round in 0..50u64 {
                        let batch: Vec<(TenantId, Element)> = (0..200)
                            .map(|i| (TenantId(p * 100 + i % 25), Element(round * 200 + i)))
                            .collect();
                        engine.observe_batch(batch);
                    }
                })
            })
            .collect();
        for _ in 0..20 {
            let _ = engine.snapshot(TenantId(0));
            let _ = engine.snapshot_all();
        }
        for h in producers {
            h.join().unwrap();
        }
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_elements(), 4 * 50 * 200);
        let engine = Arc::into_inner(engine).expect("sole owner after joins");
        let _ = engine.shutdown();
    }

    #[test]
    fn shutdown_report_counts_all_queued_work() {
        // Regression: shutdown must join workers *before* reading
        // metrics — Shutdown queues behind unprocessed batches, so a
        // premature read under-counts.
        let engine = Engine::spawn(
            EngineConfig::new(spec())
                .with_shards(2)
                .with_queue_capacity(2),
        );
        for _ in 0..20u64 {
            let batch: Vec<(TenantId, Element)> =
                (0..2_500).map(|i| (TenantId(i % 50), Element(i))).collect();
            engine.observe_batch(batch);
        }
        // Deliberately no flush before shutdown.
        let report = engine.shutdown();
        assert_eq!(report.metrics.total_elements(), 50_000);
        assert_eq!(report.metrics.tenants(), 50);
    }

    #[test]
    fn snapshot_latency_is_recorded_by_the_worker() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(1));
        engine.observe(TenantId(0), Element(1));
        let _ = engine.snapshot(TenantId(0));
        let _ = engine.snapshot_all();
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_snapshots(), 2);
        assert!(m.shards[0].mean_snapshot_latency_ns() > 0.0);
        let _ = engine.shutdown();
    }

    #[test]
    fn sliding_tenants_serve_and_expire() {
        let sliding = SamplerSpec::new(SamplerKind::Sliding { window: 10 }, 1, 42);
        let engine = Engine::spawn(EngineConfig::new(sliding).with_shards(2));
        engine.observe_at(TenantId(0), Element(7), Slot(0));
        engine.observe_at(TenantId(1), Element(7), Slot(5));
        assert_eq!(engine.snapshot(TenantId(0)), Some(vec![Element(7)]));
        // Tenant 0's element dies at slot 10; tenant 1's lives to 15.
        assert_eq!(engine.snapshot_at(TenantId(0), Slot(10)), Some(vec![]));
        assert_eq!(
            engine.snapshot_at(TenantId(1), Slot(12)),
            Some(vec![Element(7)])
        );
        assert_eq!(engine.snapshot_at(TenantId(1), Slot(15)), Some(vec![]));
        let _ = engine.shutdown();
    }

    #[test]
    fn advance_drives_idle_tenant_expiry_and_metrics() {
        let sliding = SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, 9);
        let engine = Engine::spawn(EngineConfig::new(sliding).with_shards(3));
        for t in 0..30u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        engine.advance(Slot(100));
        engine.flush();
        let m = engine.metrics();
        assert_eq!(m.total_advances(), 3, "one advance per shard");
        assert_eq!(m.watermark(), 100);
        for t in 0..30u64 {
            let view = engine.snapshot_view(TenantId(t), None).expect("hosted");
            assert!(view.sample.is_empty(), "tenant {t} survived the window");
            assert_eq!(view.memory_tuples, 0, "tenant {t} kept expired state");
        }
        let _ = engine.shutdown();
    }

    #[test]
    fn untimed_engine_is_unaffected_by_time_api() {
        // Infinite-window tenants ignore the clock entirely: advancing
        // far ahead must not change any sample.
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        let mut oracle = spec().oracle();
        for i in 0..3_000u64 {
            let e = Element((i * 13) % 400);
            engine.observe(TenantId(5), e);
            oracle.observe(e);
        }
        engine.advance(Slot(1_000_000));
        assert_eq!(engine.snapshot(TenantId(5)), Some(oracle.sample()));
        assert_eq!(
            engine.snapshot_at(TenantId(5), Slot(2_000_000)),
            Some(oracle.sample())
        );
        let _ = engine.shutdown();
    }

    #[test]
    fn snapshot_view_reports_memory_and_messages() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(1));
        for i in 0..500u64 {
            engine.observe(TenantId(0), Element(i));
        }
        let view = engine.snapshot_view(TenantId(0), None).expect("hosted");
        assert_eq!(view.sample.len(), 8);
        assert!(view.memory_tuples > 0);
        assert!(view.protocol_messages > 0);
        assert_eq!(engine.snapshot_view(TenantId(404), None), None);
        let _ = engine.shutdown();
    }

    /// The bulk-ingest hot table holds Infinite tenants inline: one
    /// probe reaches the sampler. A new field on the entry or on
    /// `FusedInfinite` must not silently bloat every bucket again.
    #[test]
    fn inline_infinite_tenant_entry_stays_small() {
        let entry = std::mem::size_of::<Tenant<dds_core::FusedInfinite>>();
        assert!(entry <= 128, "Tenant<FusedInfinite> is {entry} B");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = Engine::spawn(EngineConfig::new(spec()).with_shards(0));
    }

    #[test]
    fn unknown_tenant_is_a_typed_error() {
        let engine = Engine::spawn(EngineConfig::new(spec()).with_shards(2));
        engine.observe(TenantId(1), Element(9));
        assert_eq!(
            engine.try_snapshot(TenantId(999)),
            Err(EngineError::UnknownTenant(TenantId(999)))
        );
        assert_eq!(
            engine.try_snapshot_view(TenantId(999), None),
            Err(EngineError::UnknownTenant(TenantId(999)))
        );
        assert!(engine.try_snapshot(TenantId(1)).is_ok());
        let _ = engine.shutdown();
    }

    #[test]
    fn requests_after_begin_shutdown_are_typed_errors() {
        let engine = Arc::new(Engine::spawn(EngineConfig::new(spec()).with_shards(2)));
        engine.observe(TenantId(3), Element(1));
        let report = engine.begin_shutdown().expect("first shutdown succeeds");
        assert_eq!(report.metrics.total_elements(), 1);
        // Every fallible entry point now answers ShutDown instead of
        // panicking — including from other Arc holders.
        let holder = Arc::clone(&engine);
        assert_eq!(
            holder.try_observe(TenantId(3), Element(2)),
            Err(EngineError::ShutDown)
        );
        assert_eq!(
            holder.try_observe_batch([(TenantId(3), Element(2))]),
            Err(EngineError::ShutDown)
        );
        assert_eq!(holder.try_advance(Slot(9)), Err(EngineError::ShutDown));
        assert_eq!(holder.try_snapshot(TenantId(3)), Err(EngineError::ShutDown));
        assert_eq!(holder.try_snapshot_all(None), Err(EngineError::ShutDown));
        assert_eq!(holder.try_flush(), Err(EngineError::ShutDown));
        assert_eq!(holder.try_checkpoint(), Err(EngineError::ShutDown));
        assert_eq!(holder.begin_shutdown(), Err(EngineError::ShutDown));
        // Metrics stay readable — the final counters remain.
        assert_eq!(holder.metrics().total_elements(), 1);
    }

    #[test]
    fn snapshot_all_at_is_a_consistent_windowed_census() {
        let sliding = SamplerSpec::new(SamplerKind::Sliding { window: 10 }, 1, 13);
        let engine = Engine::spawn(EngineConfig::new(sliding).with_shards(3));
        for t in 0..40u64 {
            // Even tenants observed at slot 0, odd at slot 6.
            engine.observe_at(TenantId(t), Element(t), Slot((t % 2) * 6));
        }
        // At slot 12, the slot-0 observations (expiry 10) are gone and
        // the slot-6 ones (expiry 16) remain — in one request.
        let census = engine.snapshot_all_at(Slot(12));
        assert_eq!(census.len(), 40);
        for (t, sample) in census {
            if t.0 % 2 == 0 {
                assert!(sample.is_empty(), "tenant {} survived its window", t.0);
            } else {
                assert_eq!(sample, vec![Element(t.0)], "tenant {} lost its window", t.0);
            }
        }
        // The census raised every shard's watermark.
        engine.flush();
        assert_eq!(engine.metrics().watermark(), 12);
        let _ = engine.shutdown();
    }
}
