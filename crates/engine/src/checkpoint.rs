//! Engine-level checkpoint & restore — durable snapshots of the whole
//! multi-tenant serving layer.
//!
//! [`Engine::checkpoint`] drives a checkpoint command through each
//! shard's FIFO queue: by the time a shard answers, every batch, clock
//! advance, and query enqueued before the checkpoint call is reflected
//! in its state — the same in-band barrier that makes snapshots
//! consistent makes checkpoints consistent, with no stop-the-world
//! pause and no locks. The result is a single self-describing byte
//! document; [`Engine::restore`] rebuilds a fully equivalent engine from
//! it: same spec, same shard layout, same per-shard watermarks, same
//! tenants (live instances *and* eviction-parked blobs), and the same
//! operational counters.
//!
//! ## Container format (version 3)
//!
//! All integers little-endian, stacked on the primitive codec of
//! [`dds_core::checkpoint`]:
//!
//! ```text
//! magic          u32   0x4553_4444  ("DDSE")
//! version        u16   3
//! shards         u32
//! queue_capacity u32
//! spec           kind u8 ‖ window u64 ‖ s u32 ‖ seed u64
//! lateness       present u8 ‖ slots u64   (EngineConfig::lateness)
//! per shard:
//!   watermark    u64
//!   seq          u64   mutation sequence number (delta reference point)
//!   counters     elements ‖ batches ‖ advances ‖ evictions ‖
//!                snapshots ‖ snapshot_nanos ‖ backpressure ‖
//!                late_dropped ‖ stale_advances ‖ sweeps      (u64 each)
//!   tenants      count u32, then per tenant:
//!                id u64 ‖ parked u8 ‖ stamp u64 ‖ blob_len u32 ‖ blob
//!   buffer       slot count u32, then per slot ascending:
//!                slot u64 ‖ entry count u32 ‖ entries (tenant u64 ‖
//!                element u64) — the reorder buffer, so a checkpoint
//!                taken between a late element's arrival and its replay
//!                loses nothing
//! check          u64   FNV-1a 64 over every preceding byte
//! ```
//!
//! ## Incremental checkpoints
//!
//! Each shard bumps a **mutation sequence number** once per state-
//! changing command and stamps every touched tenant with it. A full
//! document records both, so [`Engine::checkpoint_delta`] can ask each
//! shard for exactly the tenants stamped after the base document's
//! `seq` — at low churn the delta is a few percent of the full
//! document's bytes. Deltas are their own container (`"DDSD"`,
//! version 2): the same header, then per shard
//! `base_seq ‖ new_seq ‖ watermark ‖ counters ‖ changed tenants ‖
//! buffer` (the buffer is tiny — at most one horizon's worth of late
//! data — so deltas carry it whole and application replaces the base's
//! copy).
//! [`compact`] folds a base plus an in-order delta chain back into a
//! full current-version document — byte-identical to the full checkpoint the
//! engine would have produced at the last delta — and
//! [`Engine::restore_with_deltas`] restores straight from the chain.
//!
//! Each tenant `blob` is the sampler's own versioned, checksummed
//! envelope (see `dds_core::checkpoint`), so tenant state is doubly
//! protected: the outer checksum catches container corruption, the
//! inner one catches blob corruption, and every decode path returns a
//! clean [`CheckpointError`] instead of panicking. Restore re-routes
//! tenants through the engine's own `tenant → shard` hash rather than
//! trusting the file's grouping, so a checkpoint remains valid even if
//! its shard sections are reordered by hand.
//!
//! The recovery contract — checkpoint → drop → restore → replay the
//! suffix produces byte-exact samples, memory, and message counts
//! against an engine that never crashed — is pinned by
//! `crates/engine/tests/recovery.rs` for all five sampler kinds.

use std::collections::BTreeMap;
use std::io;

use crossbeam::channel::{unbounded, Receiver};

use dds_core::checkpoint::{kind, restore_as, CheckpointError, StateReader, StateWriter};
use dds_core::sampler::{KindVisitor, SamplerKind, SamplerSpec, SpecSampler};
use dds_hash::fnv::fnv1a_64;
use dds_sim::{Element, Slot};

use crate::{
    shard_index, Engine, EngineConfig, EngineError, ShardCmd, ShardInit, ShardState, Tenant,
    TenantId, TenantState,
};

/// Container magic: `b"DDSE"` read as a little-endian `u32`.
pub const MAGIC: u32 = u32::from_le_bytes(*b"DDSE");

/// Current container format version.
pub const VERSION: u16 = 3;

/// Delta-container magic: `b"DDSD"` read as a little-endian `u32`.
pub const DELTA_MAGIC: u32 = u32::from_le_bytes(*b"DDSD");

/// Current delta-container format version.
pub const DELTA_VERSION: u16 = 2;

/// Per-shard counters carried by the container, in encode order.
const COUNTERS: usize = 10;

/// Minimum encoded size of a full-document shard section (watermark,
/// seq, counters, tenant count, buffer slot count) — the per-item floor
/// for the shard-count length check.
const SHARD_SECTION_MIN: usize = 8 + 8 + COUNTERS * 8 + 4 + 4;

/// Minimum encoded size of a delta-document shard section (base_seq,
/// new_seq, watermark, counters, changed-tenant count, buffer slot
/// count).
const DELTA_SHARD_SECTION_MIN: usize = 8 + 8 + 8 + COUNTERS * 8 + 4 + 4;

/// Minimum encoded size of one tenant record (id, parked flag, stamp,
/// blob length; the blob itself may not be empty but is bounded by its
/// own length check).
const TENANT_RECORD_MIN: usize = 8 + 1 + 8 + 4;

/// Minimum encoded size of one reorder-buffer slot record (slot, entry
/// count).
const BUFFER_SLOT_MIN: usize = 8 + 4;

/// Encoded size of one reorder-buffer entry (tenant, element).
const BUFFER_ENTRY_BYTES: usize = 8 + 8;

/// Why an engine checkpoint could not be restored: a format error
/// ([`CheckpointError`]) or, for the reader-based API, an I/O error.
#[derive(Debug)]
pub enum RestoreError {
    /// The bytes do not form a valid engine checkpoint.
    Format(CheckpointError),
    /// Reading the checkpoint source failed.
    Io(io::Error),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Format(e) => write!(f, "restore failed: {e}"),
            RestoreError::Io(e) => write!(f, "restore failed: {e}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<CheckpointError> for RestoreError {
    fn from(e: CheckpointError) -> Self {
        RestoreError::Format(e)
    }
}

impl From<io::Error> for RestoreError {
    fn from(e: io::Error) -> Self {
        RestoreError::Io(e)
    }
}

fn spec_kind_tag(kind_of: SamplerKind) -> u8 {
    match kind_of {
        SamplerKind::Centralized => kind::CENTRALIZED,
        SamplerKind::Infinite => kind::INFINITE,
        SamplerKind::WithReplacement => kind::WITH_REPLACEMENT,
        SamplerKind::Sliding { .. } => kind::SLIDING,
        SamplerKind::SlidingMulti { .. } => kind::SLIDING_MULTI,
    }
}

fn encode_spec(spec: &SamplerSpec, w: &mut StateWriter) {
    w.put_u8(spec_kind_tag(spec.kind));
    w.put_u64(spec.window().unwrap_or(0));
    w.put_len(spec.s);
    w.put_u64(spec.seed);
}

fn encode_lateness(lateness: Option<u64>, w: &mut StateWriter) {
    w.put_bool(lateness.is_some());
    w.put_u64(lateness.unwrap_or(0));
}

fn decode_lateness(r: &mut StateReader<'_>) -> Result<Option<u64>, CheckpointError> {
    let present = r.get_bool()?;
    let slots = r.get_u64()?;
    Ok(present.then_some(slots))
}

/// Encode one shard's reorder buffer (ascending by slot; entries keep
/// arrival order).
fn encode_buffer(buffer: &[(u64, Vec<(u64, u64)>)], w: &mut StateWriter) {
    w.put_len(buffer.len());
    for (slot, entries) in buffer {
        w.put_u64(*slot);
        w.put_len(entries.len());
        for (tenant, element) in entries {
            w.put_u64(*tenant);
            w.put_u64(*element);
        }
    }
}

/// Decode one shard's reorder buffer into its overlay form.
fn decode_buffer(
    r: &mut StateReader<'_>,
) -> Result<BTreeMap<u64, Vec<(u64, u64)>>, CheckpointError> {
    let slots = r.get_len(BUFFER_SLOT_MIN)?;
    let mut buffer = BTreeMap::new();
    for _ in 0..slots {
        let slot = r.get_u64()?;
        let count = r.get_len(BUFFER_ENTRY_BYTES)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let tenant = r.get_u64()?;
            let element = r.get_u64()?;
            entries.push((tenant, element));
        }
        if buffer.insert(slot, entries).is_some() {
            return Err(CheckpointError::Corrupt("duplicate reorder-buffer slot"));
        }
    }
    Ok(buffer)
}

/// [`encode_buffer`] for the overlay form — iterates the map ascending
/// by slot, the same order a live shard's buffer section emits.
fn encode_buffer_map(buffer: &BTreeMap<u64, Vec<(u64, u64)>>, w: &mut StateWriter) {
    w.put_len(buffer.len());
    for (slot, entries) in buffer {
        w.put_u64(*slot);
        w.put_len(entries.len());
        for (tenant, element) in entries {
            w.put_u64(*tenant);
            w.put_u64(*element);
        }
    }
}

/// Upper bound on the spec sample size accepted from a checkpoint: `s`
/// drives per-tenant allocations when new tenants are built, so a
/// crafted (but correctly checksummed) document must not be able to
/// request an absurd one.
const MAX_SPEC_S: usize = 1 << 20;

fn decode_spec(r: &mut StateReader<'_>) -> Result<SamplerSpec, CheckpointError> {
    let tag = r.get_u8()?;
    let window = r.get_u64()?;
    // A scalar, not a collection length — it must not be bounds-checked
    // against the remaining document bytes.
    let s = r.get_u32()? as usize;
    let seed = r.get_u64()?;
    if s == 0 {
        return Err(CheckpointError::Corrupt("spec sample size is zero"));
    }
    if s > MAX_SPEC_S {
        return Err(CheckpointError::Corrupt(
            "spec sample size implausibly large",
        ));
    }
    let kind_of = match tag {
        kind::CENTRALIZED => SamplerKind::Centralized,
        kind::INFINITE => SamplerKind::Infinite,
        kind::WITH_REPLACEMENT => SamplerKind::WithReplacement,
        kind::SLIDING => SamplerKind::Sliding { window },
        kind::SLIDING_MULTI => SamplerKind::SlidingMulti { window },
        other => return Err(CheckpointError::UnknownKind(other)),
    };
    if kind_of.window() == Some(0) {
        return Err(CheckpointError::Corrupt("spec window is zero"));
    }
    if matches!(kind_of, SamplerKind::Sliding { .. }) && s != 1 {
        return Err(CheckpointError::Corrupt("sliding spec with s above one"));
    }
    Ok(SamplerSpec::new(kind_of, s, seed))
}

impl Engine {
    /// Serialize the entire engine — spec, shard layout, per-shard
    /// watermarks and counters, and every tenant's full sampler state —
    /// into one self-describing, checksummed byte document.
    ///
    /// Consistency: the checkpoint request travels each shard's FIFO
    /// command queue, so the snapshot reflects every ingest batch, clock
    /// advance, and query whose call returned before this call began.
    /// Concurrent producers may land traffic after the barrier; like
    /// [`Engine::flush`], call sites that need a quiescent image should
    /// stop producers first.
    ///
    /// # Errors
    /// [`EngineError::ShutDown`] after [`Engine::begin_shutdown`];
    /// [`EngineError::ShardDown`] if a worker is gone.
    pub fn try_checkpoint(&self) -> Result<Vec<u8>, EngineError> {
        self.guard()?;
        // Fan the barrier out to all shards first, then collect — the
        // shards serialize their tenant maps concurrently.
        let replies: Vec<Receiver<ShardState>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (reply_tx, reply_rx) = unbounded();
                shard
                    .tx
                    .send(ShardCmd::Checkpoint { reply: reply_tx })
                    .map_err(|_| self.down_error(i))
                    .map(|()| reply_rx)
            })
            .collect::<Result<_, _>>()?;

        let mut w = StateWriter::new();
        w.put_u32(MAGIC);
        w.put_u16(VERSION);
        w.put_len(self.shards.len());
        w.put_len(self.queue_capacity);
        encode_spec(&self.spec, &mut w);
        encode_lateness(self.lateness, &mut w);
        for (i, (shard, rx)) in self.shards.iter().zip(replies).enumerate() {
            let state = rx.recv().map_err(|_| self.down_error(i))?;
            let m = shard.metrics.snapshot(0, 0);
            w.put_slot(state.watermark);
            w.put_u64(state.seq);
            for counter in [
                m.elements,
                m.batches,
                m.advances,
                m.evictions,
                m.snapshots,
                m.snapshot_nanos,
                m.backpressure,
                m.late_dropped,
                m.stale_advances,
                m.sweeps,
            ] {
                w.put_u64(counter);
            }
            w.put_len(state.tenants.len());
            for (tenant, parked, stamp, blob) in state.tenants {
                w.put_u64(tenant);
                w.put_bool(parked);
                w.put_u64(stamp);
                w.put_len(blob.len());
                w.put_bytes(&blob);
            }
            encode_buffer(&state.buffer, &mut w);
        }
        let mut out = w.into_bytes();
        let check = fnv1a_64(&out);
        out.extend_from_slice(&check.to_le_bytes());
        Ok(out)
    }

    /// Infallible wrapper over [`Engine::try_checkpoint`].
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone.
    #[must_use]
    pub fn checkpoint(&self) -> Vec<u8> {
        self.try_checkpoint().expect("engine checkpoints")
    }

    /// Stream [`Engine::checkpoint`] to a writer (a file, a socket, …).
    ///
    /// # Errors
    /// Propagates the writer's I/O errors.
    pub fn checkpoint_to<W: io::Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.checkpoint())
    }

    /// Serialize only what changed since `base` (a full document from
    /// [`Engine::checkpoint`] or [`compact`] of this same deployment):
    /// each shard answers with the tenants whose dirty stamp postdates
    /// the base's sequence number, plus its current watermark, sequence
    /// number, and counters. At low churn the delta is a few percent of
    /// a full document. Fold deltas back into a full document with
    /// [`compact`], or restore directly with
    /// [`Engine::restore_with_deltas`].
    ///
    /// Consistency is the same FIFO barrier as [`Engine::checkpoint`].
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] if `base` is not a valid full
    /// document, describes a different deployment shape (shards,
    /// queue capacity, or spec), or files any tenant under a section
    /// other than [`Engine::shard_of`]'s (a base written before a
    /// placement change: take a fresh full checkpoint after restoring
    /// it).
    ///
    /// # Panics
    /// Panics if the engine is shut down or a worker is gone (like
    /// [`Engine::checkpoint`]).
    pub fn checkpoint_delta(&self, base: &[u8]) -> Result<Vec<u8>, CheckpointError> {
        let doc = parse_full(base)?;
        if doc.shards != self.shards.len()
            || doc.queue_capacity != self.queue_capacity
            || doc.spec != self.spec
            || doc.lateness != self.lateness
        {
            return Err(CheckpointError::Corrupt(
                "base checkpoint is from a different deployment shape",
            ));
        }
        // A delta's sections are this engine's shards, and `apply_delta`
        // overlays them section by section. A base that files a tenant
        // under another section (one written by a build that placed
        // tenants by another rule; restore re-routes them) would keep
        // its stale copy there beside the delta's fresh one.
        if doc.per_shard.iter().enumerate().any(|(i, shard)| {
            shard
                .tenants
                .keys()
                .any(|&t| self.shard_of(TenantId(t)) != i)
        }) {
            return Err(CheckpointError::Corrupt(
                "base checkpoint places tenants unlike this engine",
            ));
        }
        self.guard().expect("engine checkpoints");
        let replies: Vec<Receiver<ShardState>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let (reply_tx, reply_rx) = unbounded();
                shard
                    .tx
                    .send(ShardCmd::CheckpointDelta {
                        since: doc.per_shard[i].seq,
                        reply: reply_tx,
                    })
                    .expect("shard worker alive");
                reply_rx
            })
            .collect();

        let mut w = StateWriter::new();
        w.put_u32(DELTA_MAGIC);
        w.put_u16(DELTA_VERSION);
        w.put_len(self.shards.len());
        w.put_len(self.queue_capacity);
        encode_spec(&self.spec, &mut w);
        encode_lateness(self.lateness, &mut w);
        for (i, (shard, rx)) in self.shards.iter().zip(replies).enumerate() {
            let state = rx.recv().expect("shard worker answers");
            let m = shard.metrics.snapshot(0, 0);
            w.put_u64(doc.per_shard[i].seq);
            w.put_u64(state.seq);
            w.put_slot(state.watermark);
            for counter in [
                m.elements,
                m.batches,
                m.advances,
                m.evictions,
                m.snapshots,
                m.snapshot_nanos,
                m.backpressure,
                m.late_dropped,
                m.stale_advances,
                m.sweeps,
            ] {
                w.put_u64(counter);
            }
            w.put_len(state.tenants.len());
            for (tenant, parked, stamp, blob) in state.tenants {
                w.put_u64(tenant);
                w.put_bool(parked);
                w.put_u64(stamp);
                w.put_len(blob.len());
                w.put_bytes(&blob);
            }
            encode_buffer(&state.buffer, &mut w);
        }
        let mut out = w.into_bytes();
        let check = fnv1a_64(&out);
        out.extend_from_slice(&check.to_le_bytes());
        Ok(out)
    }

    /// Rebuild an engine from a base document plus an in-order chain of
    /// [`Engine::checkpoint_delta`] documents — equivalent to restoring
    /// [`compact`]`(base, deltas)`.
    ///
    /// # Errors
    /// As [`Engine::restore`], plus the chain-validation errors of
    /// [`compact`].
    pub fn restore_with_deltas(base: &[u8], deltas: &[Vec<u8>]) -> Result<Engine, CheckpointError> {
        Engine::restore(&compact(base, deltas)?)
    }

    /// Rebuild an engine from [`Engine::checkpoint`] output: respawn the
    /// shard workers, reinstall every tenant (live instances rebuilt
    /// from their envelopes; eviction-parked tenants kept parked), and
    /// restore watermarks and operational counters. The returned engine
    /// is ready for traffic and behaves byte-exactly like the original
    /// would have on any suffix of ingest and queries.
    ///
    /// Tenants are re-routed through the engine's own `tenant → shard`
    /// hash, so a hostable checkpoint never places a tenant on a shard
    /// that queries would not reach.
    ///
    /// # Errors
    /// Returns a [`CheckpointError`] on truncated, corrupted, or
    /// semantically invalid input; never panics on untrusted bytes.
    pub fn restore(bytes: &[u8]) -> Result<Engine, CheckpointError> {
        if bytes.len() < 8 {
            return Err(CheckpointError::Truncated);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let check = u64::from_le_bytes(trailer.try_into().expect("len 8"));
        if check != fnv1a_64(body) {
            return Err(CheckpointError::ChecksumMismatch);
        }
        let mut r = StateReader::new(body);
        let magic = r.get_u32()?;
        if magic != MAGIC {
            return Err(CheckpointError::BadMagic(magic));
        }
        let version = r.get_u16()?;
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        // `shards` counts the shard records that follow (each at least
        // `SHARD_SECTION_MIN` bytes), so the collection-length bound
        // applies and caps it against the document size — no thread is
        // spawned for a count the document cannot actually contain.
        let shards = r.get_len(SHARD_SECTION_MIN)?;
        // The queue capacity is a scalar; bound it explicitly, since
        // bounded channels allocate their capacity up front.
        let queue_capacity = r.get_u32()? as usize;
        if shards == 0 || queue_capacity == 0 {
            return Err(CheckpointError::Corrupt("zero shards or queue capacity"));
        }
        if queue_capacity > 1 << 20 {
            return Err(CheckpointError::Corrupt("queue capacity implausibly large"));
        }
        let spec = decode_spec(&mut r)?;
        let lateness = decode_lateness(&mut r)?;
        let config = EngineConfig {
            shards,
            queue_capacity,
            spec,
            lateness,
        };
        struct RestoreShards<'a>(StateReader<'a>, EngineConfig);
        impl KindVisitor for RestoreShards<'_> {
            type Output = Result<Engine, CheckpointError>;
            fn visit<S: SpecSampler>(self) -> Self::Output {
                restore_shards::<S>(self.0, self.1)
            }
        }
        spec.kind.with_type(RestoreShards(r, config))
    }

    /// Read a checkpoint to its end from `r` and [`Engine::restore`] it.
    ///
    /// # Errors
    /// Returns [`RestoreError::Io`] if reading fails, or
    /// [`RestoreError::Format`] if the bytes do not restore.
    pub fn restore_from<R: io::Read>(r: &mut R) -> Result<Engine, RestoreError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        Ok(Engine::restore(&bytes)?)
    }
}

/// The shard sections of a full document (read from `r`, positioned
/// after the header) restored into a running engine for `config`: each
/// tenant decodes straight into `S`, the spec's sampler type, and the
/// workers start from their sections, with no second decode.
fn restore_shards<S: SpecSampler>(
    mut r: StateReader<'_>,
    config: EngineConfig,
) -> Result<Engine, CheckpointError> {
    let shards = config.shards;
    let spec_hash = config.spec.hasher();
    // Watermark and seq belong to section `i`; tenants (and buffered
    // late elements) are re-routed by the engine's own placement hash.
    let mut init: Vec<ShardInit<S>> = (0..shards).map(|_| ShardInit::empty()).collect();
    let mut counters = Vec::with_capacity(shards);
    for i in 0..shards {
        init[i].watermark = r.get_slot()?;
        init[i].seq = r.get_u64()?;
        let mut c = [0u64; COUNTERS];
        for v in &mut c {
            *v = r.get_u64()?;
        }
        counters.push(c);
        let tenant_count = r.get_len(TENANT_RECORD_MIN)?;
        for _ in 0..tenant_count {
            let tenant = r.get_u64()?;
            let is_parked = r.get_bool()?;
            let stamp = r.get_u64()?;
            let blob_len = r.get_len(1)?;
            let blob = r.get_bytes(blob_len)?;
            // Parked blobs decode now too, so a corrupt one fails the
            // restore, not a later rehydration inside a worker. Shards
            // hash each batch once under the spec's hash, so a tenant
            // must use that hash if it uses one at all.
            let sampler: S = restore_as(blob)?;
            if sampler.hasher().is_some_and(|h| h != spec_hash) {
                return Err(CheckpointError::Corrupt(
                    "tenant sampler hashes unlike the document's spec",
                ));
            }
            let state = if is_parked {
                TenantState::Parked(blob.to_vec())
            } else {
                TenantState::Live(sampler)
            };
            init[shard_index(TenantId(tenant), shards)]
                .tenants
                .push((tenant, Tenant { stamp, state }));
        }
        for (slot, entries) in decode_buffer(&mut r)? {
            for (tenant, element) in entries {
                init[shard_index(TenantId(tenant), shards)]
                    .buffer
                    .entry(slot)
                    .or_default()
                    .push((TenantId(tenant), Element(element)));
            }
        }
    }
    r.expect_end()?;

    let engine = Engine::launch(config, init);
    for (shard, counters) in engine.shards.iter().zip(counters) {
        let [elements, batches, advances, evictions, snapshots, snapshot_nanos, backpressure, late_dropped, stale_advances, sweeps] =
            counters;
        shard.metrics.elements.set(elements);
        shard.metrics.batches.set(batches);
        shard.metrics.advances.set(advances);
        shard.metrics.evictions.set(evictions);
        shard.metrics.snapshots.set(snapshots);
        shard.metrics.snapshot_nanos.set(snapshot_nanos);
        shard.metrics.backpressure.set(backpressure);
        shard.metrics.late_dropped.set(late_dropped);
        shard.metrics.stale_advances.set(stale_advances);
        shard.metrics.sweeps.set(sweeps);
    }
    // Barrier: every worker has started (and set its tenant, watermark
    // and buffer gauges) before the engine is handed to the caller.
    engine.flush();
    Ok(engine)
}

/// One shard's section of a parsed full document.
struct DocShard {
    watermark: Slot,
    seq: u64,
    counters: [u64; COUNTERS],
    /// tenant id → (parked, stamp, sampler envelope). A `BTreeMap` so
    /// re-encoding iterates ascending by tenant id — byte-identical to
    /// the order a live engine's [`ShardCmd::Checkpoint`] emits.
    tenants: BTreeMap<u64, (bool, u64, Vec<u8>)>,
    /// The shard's reorder buffer: slot → buffered `(tenant, element)`
    /// pairs, in arrival order within a slot. Ascending by slot so
    /// re-encoding matches a live checkpoint byte for byte.
    buffer: BTreeMap<u64, Vec<(u64, u64)>>,
}

/// A fully parsed engine checkpoint (the in-memory form [`compact`]
/// overlays deltas onto).
struct Doc {
    shards: usize,
    queue_capacity: usize,
    spec: SamplerSpec,
    lateness: Option<u64>,
    per_shard: Vec<DocShard>,
}

/// Split off and verify the FNV trailer, returning the body.
fn checked_body(bytes: &[u8]) -> Result<&[u8], CheckpointError> {
    if bytes.len() < 8 {
        return Err(CheckpointError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let check = u64::from_le_bytes(trailer.try_into().expect("len 8"));
    if check != fnv1a_64(body) {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok(body)
}

/// Decode the shared deployment-shape header (shard count, queue
/// capacity, spec, lateness); `min_shard_bytes` is the per-shard-section
/// floor that bounds the shard count against the document size.
#[allow(clippy::type_complexity)]
fn parse_shape(
    r: &mut StateReader<'_>,
    min_shard_bytes: usize,
) -> Result<(usize, usize, SamplerSpec, Option<u64>), CheckpointError> {
    let shards = r.get_len(min_shard_bytes)?;
    let queue_capacity = r.get_u32()? as usize;
    if shards == 0 || queue_capacity == 0 {
        return Err(CheckpointError::Corrupt("zero shards or queue capacity"));
    }
    if queue_capacity > 1 << 20 {
        return Err(CheckpointError::Corrupt("queue capacity implausibly large"));
    }
    let spec = decode_spec(r)?;
    let lateness = decode_lateness(r)?;
    Ok((shards, queue_capacity, spec, lateness))
}

/// Decode one tenant record (shared by full and delta sections).
fn parse_tenant(r: &mut StateReader<'_>) -> Result<(u64, (bool, u64, Vec<u8>)), CheckpointError> {
    let tenant = r.get_u64()?;
    let parked = r.get_bool()?;
    let stamp = r.get_u64()?;
    let blob_len = r.get_len(1)?;
    let blob = r.get_bytes(blob_len)?.to_vec();
    Ok((tenant, (parked, stamp, blob)))
}

/// Parse a full current-version document into its overlay form. Validates the
/// checksum and structure but not the tenant blobs (restore does that).
fn parse_full(bytes: &[u8]) -> Result<Doc, CheckpointError> {
    let mut r = StateReader::new(checked_body(bytes)?);
    let magic = r.get_u32()?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.get_u16()?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let (shards, queue_capacity, spec, lateness) = parse_shape(&mut r, SHARD_SECTION_MIN)?;
    let mut per_shard = Vec::with_capacity(shards);
    for _ in 0..shards {
        let watermark = r.get_slot()?;
        let seq = r.get_u64()?;
        let mut counters = [0u64; COUNTERS];
        for c in &mut counters {
            *c = r.get_u64()?;
        }
        let tenant_count = r.get_len(TENANT_RECORD_MIN)?;
        let mut tenants = BTreeMap::new();
        for _ in 0..tenant_count {
            let (tenant, record) = parse_tenant(&mut r)?;
            tenants.insert(tenant, record);
        }
        let buffer = decode_buffer(&mut r)?;
        per_shard.push(DocShard {
            watermark,
            seq,
            counters,
            tenants,
            buffer,
        });
    }
    r.expect_end()?;
    Ok(Doc {
        shards,
        queue_capacity,
        spec,
        lateness,
        per_shard,
    })
}

/// Re-encode an overlay as a full current-version document — the exact byte
/// layout [`Engine::try_checkpoint`] produces for the same state.
fn encode_full(doc: &Doc) -> Vec<u8> {
    let mut w = StateWriter::new();
    w.put_u32(MAGIC);
    w.put_u16(VERSION);
    w.put_len(doc.shards);
    w.put_len(doc.queue_capacity);
    encode_spec(&doc.spec, &mut w);
    encode_lateness(doc.lateness, &mut w);
    for shard in &doc.per_shard {
        w.put_slot(shard.watermark);
        w.put_u64(shard.seq);
        for c in shard.counters {
            w.put_u64(c);
        }
        w.put_len(shard.tenants.len());
        for (&tenant, (parked, stamp, blob)) in &shard.tenants {
            w.put_u64(tenant);
            w.put_bool(*parked);
            w.put_u64(*stamp);
            w.put_len(blob.len());
            w.put_bytes(blob);
        }
        encode_buffer_map(&shard.buffer, &mut w);
    }
    let mut out = w.into_bytes();
    let check = fnv1a_64(&out);
    out.extend_from_slice(&check.to_le_bytes());
    out
}

/// Overlay one delta document onto a parsed base. Rejects deltas for a
/// different deployment shape and chains applied out of order: a
/// delta's `base_seq` must not postdate the overlay's current sequence
/// number (a predecessor is missing), and its `new_seq` must not
/// predate it (the delta is stale).
fn apply_delta(doc: &mut Doc, delta: &[u8]) -> Result<(), CheckpointError> {
    let mut r = StateReader::new(checked_body(delta)?);
    let magic = r.get_u32()?;
    if magic != DELTA_MAGIC {
        return Err(CheckpointError::BadMagic(magic));
    }
    let version = r.get_u16()?;
    if version != DELTA_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let (shards, queue_capacity, spec, lateness) = parse_shape(&mut r, DELTA_SHARD_SECTION_MIN)?;
    if shards != doc.shards
        || queue_capacity != doc.queue_capacity
        || spec != doc.spec
        || lateness != doc.lateness
    {
        return Err(CheckpointError::Corrupt(
            "delta is for a different deployment shape",
        ));
    }
    for shard in &mut doc.per_shard {
        let base_seq = r.get_u64()?;
        let new_seq = r.get_u64()?;
        if base_seq > shard.seq {
            return Err(CheckpointError::Corrupt(
                "delta applied out of order: its base postdates the chain",
            ));
        }
        if new_seq < shard.seq {
            return Err(CheckpointError::Corrupt(
                "delta predates the state it is applied to",
            ));
        }
        shard.watermark = r.get_slot()?;
        shard.seq = new_seq;
        for c in &mut shard.counters {
            *c = r.get_u64()?;
        }
        let changed = r.get_len(TENANT_RECORD_MIN)?;
        for _ in 0..changed {
            let (tenant, record) = parse_tenant(&mut r)?;
            shard.tenants.insert(tenant, record);
        }
        // The buffer is tiny and carried whole in every delta, so it
        // replaces rather than merges.
        shard.buffer = decode_buffer(&mut r)?;
    }
    r.expect_end()?;
    Ok(())
}

/// Fold a base document and an in-order chain of
/// [`Engine::checkpoint_delta`] documents into one full document —
/// byte-identical to the full checkpoint the engine would have produced
/// at the moment the last delta was taken. The building block for
/// checkpoint retention: keep one periodic full document, stream cheap
/// deltas between, and compact when the chain grows long.
///
/// # Errors
/// Returns a [`CheckpointError`] if the base or any delta is invalid,
/// shapes mismatch, or the chain is out of order.
pub fn compact(base: &[u8], deltas: &[Vec<u8>]) -> Result<Vec<u8>, CheckpointError> {
    let mut doc = parse_full(base)?;
    for delta in deltas {
        apply_delta(&mut doc, delta)?;
    }
    Ok(encode_full(&doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_sim::Element;

    fn sliding_spec() -> SamplerSpec {
        SamplerSpec::new(SamplerKind::Sliding { window: 8 }, 1, 77)
    }

    #[test]
    fn empty_engine_roundtrips() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(3));
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();
        let restored = Engine::restore(&bytes).expect("empty checkpoint restores");
        assert_eq!(restored.shards(), 3);
        assert_eq!(restored.spec(), sliding_spec());
        assert_eq!(restored.snapshot(TenantId(1)), None);
        let _ = restored.shutdown();
    }

    #[test]
    fn tenants_watermark_and_metrics_survive() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..20u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(5));
        }
        engine.advance(Slot(6));
        let _ = engine.snapshot(TenantId(0));
        engine.flush();
        let before = engine.metrics();
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();

        let restored = Engine::restore(&bytes).expect("restores");
        let after = restored.metrics();
        assert_eq!(after.total_elements(), before.total_elements());
        assert_eq!(after.total_batches(), before.total_batches());
        assert_eq!(after.total_advances(), before.total_advances());
        assert_eq!(after.total_snapshots(), before.total_snapshots());
        assert_eq!(after.watermark(), before.watermark());
        assert_eq!(after.tenants(), 20);
        for t in 0..20u64 {
            assert_eq!(
                restored.snapshot(TenantId(t)),
                Some(vec![Element(t)]),
                "tenant {t} lost its window sample"
            );
        }
        let _ = restored.shutdown();
    }

    #[test]
    fn checkpoints_are_deterministic_given_quiescence() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..10u64 {
            engine.observe_at(TenantId(t), Element(t * 3), Slot(2));
        }
        engine.flush();
        let a = engine.checkpoint();
        let b = engine.checkpoint();
        assert_eq!(a, b, "same state produced different checkpoints");
        let _ = engine.shutdown();
    }

    #[test]
    fn default_queue_capacity_and_large_scalars_restore() {
        // Regression: queue_capacity and spec.s are scalars, not
        // collection lengths — a checkpoint whose byte length is smaller
        // than either value must still restore. The original decoder
        // rejected every default-config (capacity 128) empty-engine
        // checkpoint as truncated.
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()));
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();
        let restored = Engine::restore(&bytes).expect("default-config empty engine restores");
        let _ = restored.shutdown();

        let spec = SamplerSpec::new(SamplerKind::Infinite, 512, 3);
        let engine = Engine::spawn(
            EngineConfig::new(spec)
                .with_shards(1)
                .with_queue_capacity(4_096),
        );
        engine.observe(TenantId(1), Element(5));
        engine.flush();
        let want = engine.snapshot(TenantId(1));
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();
        let restored = Engine::restore(&bytes).expect("large s + queue capacity restores");
        assert_eq!(restored.snapshot(TenantId(1)), want);
        let _ = restored.shutdown();
    }

    #[test]
    fn truncations_and_corruptions_fail_cleanly() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..6u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        engine.flush();
        let bytes = engine.checkpoint();
        let _ = engine.shutdown();
        assert!(Engine::restore(&bytes).is_ok());
        for cut in 0..bytes.len() {
            assert!(
                Engine::restore(&bytes[..cut]).is_err(),
                "truncation at {cut} restored"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(Engine::restore(&bad).is_err(), "flip at {i} restored");
        }
    }

    #[test]
    fn empty_delta_compacts_to_the_identical_document() {
        // No mutations between base and delta: the delta carries zero
        // tenant records, and compaction reproduces the base (and the
        // live engine's current full checkpoint) byte for byte.
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..30u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(3));
        }
        engine.flush();
        let base = engine.checkpoint();
        let delta = engine.checkpoint_delta(&base).expect("delta");
        assert!(
            delta.len() * 4 < base.len(),
            "empty delta ({}) not much smaller than base ({})",
            delta.len(),
            base.len()
        );
        let compacted = compact(&base, &[delta]).expect("compacts");
        assert_eq!(compacted, base, "no-change delta altered the document");
        assert_eq!(
            compacted,
            engine.checkpoint(),
            "compaction diverged from live"
        );
        let _ = engine.shutdown();
    }

    /// A delta's per-shard `(base_seq, new_seq)` and its tenant
    /// records as `(shard, tenant, parked, stamp)`.
    #[allow(clippy::type_complexity)]
    fn delta_records(delta: &[u8]) -> (Vec<(u64, u64)>, Vec<(usize, u64, bool, u64)>) {
        let mut r = StateReader::new(checked_body(delta).expect("checksum"));
        assert_eq!(r.get_u32().expect("magic"), DELTA_MAGIC);
        assert_eq!(r.get_u16().expect("version"), DELTA_VERSION);
        let (shards, ..) = parse_shape(&mut r, DELTA_SHARD_SECTION_MIN).expect("shape");
        let (mut seqs, mut records) = (Vec::new(), Vec::new());
        for shard in 0..shards {
            let base_seq = r.get_u64().expect("base seq");
            let new_seq = r.get_u64().expect("new seq");
            seqs.push((base_seq, new_seq));
            r.get_slot().expect("watermark");
            for _ in 0..COUNTERS {
                r.get_u64().expect("counter");
            }
            for _ in 0..r.get_len(TENANT_RECORD_MIN).expect("count") {
                let (tenant, (parked, stamp, _)) = parse_tenant(&mut r).expect("tenant");
                records.push((shard, tenant, parked, stamp));
            }
            decode_buffer(&mut r).expect("buffer");
        }
        r.expect_end().expect("no trailing bytes");
        (seqs, records)
    }

    #[test]
    fn parked_tenant_rejoins_deltas_once_touched() {
        // The dirty stamp lives in the tenant's table entry, parked or
        // live alike.
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..12u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        // Window 8: by slot 20 every window has drained, so the advance
        // parks every tenant.
        engine.advance(Slot(20));
        engine.flush();
        assert_eq!(engine.metrics().total_evictions(), 12);
        let base = engine.checkpoint();

        // Untouched, the parked tenants stay out of the next delta.
        engine.observe_at(TenantId(100), Element(1), Slot(21));
        engine.flush();
        let d1 = engine.checkpoint_delta(&base).expect("delta");
        let (_, records) = delta_records(&d1);
        let tenants: Vec<u64> = records.iter().map(|r| r.1).collect();
        assert_eq!(tenants, [100], "an untouched parked tenant entered a delta");
        let durable = compact(&base, std::slice::from_ref(&d1)).expect("compacts");

        // Re-observed, tenant 3 rehydrates and enters the next delta
        // live, stamped after the delta's base.
        engine.observe_at(TenantId(3), Element(9), Slot(22));
        engine.flush();
        let d2 = engine.checkpoint_delta(&durable).expect("delta");
        let (seqs, records) = delta_records(&d2);
        let [(shard, 3, false, stamp)] = records[..] else {
            panic!("expected only tenant 3, live: {records:?}");
        };
        let (base_seq, new_seq) = seqs[shard];
        assert!(
            base_seq < stamp && stamp <= new_seq,
            "stamp {stamp} outside ({base_seq}, {new_seq}]"
        );

        // The chain restores to the full checkpoint byte for byte.
        let deltas = [d1, d2];
        let full = engine.checkpoint();
        assert_eq!(compact(&base, &deltas).expect("folds"), full);
        let restored = Engine::restore_with_deltas(&base, &deltas).expect("restores");
        assert_eq!(restored.checkpoint(), full);
        let _ = engine.shutdown();
        let _ = restored.shutdown();
    }

    #[test]
    fn checkpoint_restores_at_a_different_shard_count() {
        // Restore places tenants by the engine's own `shard_of`, not by
        // the document's grouping: a checkpoint taken at 4 shards and
        // regrouped into 3 sections by another rule (`id % 3`) restores
        // as a 3-shard engine that answers exactly like the original.
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(4));
        for t in 0..40u64 {
            engine.observe_at(TenantId(t), Element(t % 7), Slot(t % 5));
        }
        engine.advance(Slot(6));
        engine.flush();
        let mut doc = parse_full(&engine.checkpoint()).expect("parses");
        let mut sections: Vec<DocShard> = (0..3)
            .map(|_| DocShard {
                watermark: Slot(6),
                seq: doc.per_shard.iter().map(|s| s.seq).max().unwrap_or(0),
                counters: [0; COUNTERS],
                tenants: BTreeMap::new(),
                buffer: BTreeMap::new(),
            })
            .collect();
        for shard in doc.per_shard.drain(..) {
            for (tenant, record) in shard.tenants {
                sections[(tenant % 3) as usize]
                    .tenants
                    .insert(tenant, record);
            }
        }
        doc.shards = 3;
        doc.per_shard = sections;
        let restored = Engine::restore(&encode_full(&doc)).expect("restores");
        assert_eq!(restored.shards(), 3);
        assert_eq!(restored.metrics().tenants(), 40);
        for t in 0..40u64 {
            assert_eq!(
                restored.snapshot_view(TenantId(t), None),
                engine.snapshot_view(TenantId(t), None),
                "tenant {t} diverged"
            );
        }
        // Later ingest lands on the restored tenants, not fresh ones.
        for t in 0..40u64 {
            engine.observe_at(TenantId(t), Element(100 + t), Slot(7));
            restored.observe_at(TenantId(t), Element(100 + t), Slot(7));
        }
        assert_eq!(restored.snapshot_all(), engine.snapshot_all());
        let _ = engine.shutdown();
        let _ = restored.shutdown();
    }

    #[test]
    fn delta_against_a_base_placed_by_another_rule_is_refused() {
        // A base whose sections group tenants by another rule (`id % 2`,
        // each section keeping its own seq) restores fine, but a delta
        // against it would file moved tenants under their new section
        // while `compact` kept the stale copy under the old one.
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..40u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1 + t % 3));
        }
        engine.flush();
        let mut doc = parse_full(&engine.checkpoint()).expect("parses");
        let _ = engine.shutdown();
        let mut regrouped = [BTreeMap::new(), BTreeMap::new()];
        for shard in &mut doc.per_shard {
            for (tenant, record) in std::mem::take(&mut shard.tenants) {
                regrouped[(tenant % 2) as usize].insert(tenant, record);
            }
        }
        for (shard, tenants) in doc.per_shard.iter_mut().zip(regrouped) {
            shard.tenants = tenants;
        }
        let old_base = encode_full(&doc);
        let restored = Engine::restore(&old_base).expect("restores");
        assert!(
            (0..40u64).any(|t| restored.shard_of(TenantId(t)) != (t % 2) as usize),
            "no tenant moved; the test proves nothing"
        );
        for t in 0..40u64 {
            restored.observe_at(TenantId(t), Element(100 + t), Slot(4));
        }
        restored.flush();
        assert_eq!(
            restored.checkpoint_delta(&old_base).err(),
            Some(CheckpointError::Corrupt(
                "base checkpoint places tenants unlike this engine"
            ))
        );

        // A fresh full checkpoint starts a chain that folds exactly.
        let base = restored.checkpoint();
        for t in 0..40u64 {
            restored.observe_at(TenantId(t), Element(200 + t), Slot(5));
        }
        restored.flush();
        let deltas = [restored.checkpoint_delta(&base).expect("delta")];
        let full = restored.checkpoint();
        assert_eq!(compact(&base, &deltas).expect("folds"), full);
        let again = Engine::restore_with_deltas(&base, &deltas).expect("restores");
        assert_eq!(again.checkpoint(), full);
        let _ = restored.shutdown();
        let _ = again.shutdown();
    }

    #[test]
    fn tenant_hashing_unlike_the_spec_is_refused() {
        // Same kind, another seed: the tenant's blob is sound on its
        // own, but batches hashed under the document's spec would feed
        // it the wrong hashes.
        let other = SamplerSpec::new(SamplerKind::Sliding { window: 8 }, 1, 78);
        let engine = Engine::spawn(EngineConfig::new(other).with_shards(2));
        engine.observe_at(TenantId(1), Element(1), Slot(1));
        let mut doc = parse_full(&engine.checkpoint()).expect("parses");
        let _ = engine.shutdown();
        doc.spec = sliding_spec();
        assert_eq!(
            Engine::restore(&encode_full(&doc)).err(),
            Some(CheckpointError::Corrupt(
                "tenant sampler hashes unlike the document's spec"
            ))
        );
    }

    #[test]
    fn tenant_of_another_kind_is_refused() {
        // Same seed and s, so the hashes agree: only the kind differs.
        // Each shard holds one concrete sampler type, so a tenant whose
        // envelope is of another kind has no place in it.
        let infinite = SamplerSpec::new(SamplerKind::Infinite, 4, 31);
        let engine = Engine::spawn(EngineConfig::new(infinite).with_shards(2));
        engine.observe(TenantId(1), Element(1));
        let mut doc = parse_full(&engine.checkpoint()).expect("parses");
        let _ = engine.shutdown();
        doc.spec = SamplerSpec::new(SamplerKind::Centralized, 4, 31);
        assert_eq!(
            Engine::restore(&encode_full(&doc)).err(),
            Some(CheckpointError::Corrupt(
                "sampler kind unlike the expected type"
            ))
        );
    }

    #[test]
    fn delta_chain_compacts_byte_exactly() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(3));
        for t in 0..40u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        engine.flush();
        let base = engine.checkpoint();

        // Two churn rounds, each sealed by a chained delta.
        let mut durable = base.clone();
        let mut deltas = Vec::new();
        for round in 1..=2u64 {
            for t in 0..5u64 {
                engine.observe_at(TenantId(t), Element(100 * round + t), Slot(round + 1));
            }
            engine.flush();
            let d = engine.checkpoint_delta(&durable).expect("delta");
            durable = compact(&durable, std::slice::from_ref(&d)).expect("chain compacts");
            deltas.push(d);
        }

        // The whole chain folded over the original base equals the
        // incremental compaction *and* a fresh full checkpoint.
        let folded = compact(&base, &deltas).expect("folds");
        assert_eq!(folded, durable);
        assert_eq!(folded, engine.checkpoint());

        // And it restores to an engine that answers identically.
        let restored = Engine::restore_with_deltas(&base, &deltas).expect("restores");
        for t in 0..40u64 {
            assert_eq!(
                restored.snapshot(TenantId(t)),
                engine.snapshot(TenantId(t)),
                "tenant {t} diverged after delta restore"
            );
        }
        let _ = engine.shutdown();
        let _ = restored.shutdown();
    }

    #[test]
    fn delta_against_foreign_base_is_rejected() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        let other = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(3));
        let foreign = other.checkpoint();
        assert!(
            engine.checkpoint_delta(&foreign).is_err(),
            "delta accepted a base with a different shard count"
        );
        assert!(engine.checkpoint_delta(b"junk").is_err());
        let _ = engine.shutdown();
        let _ = other.shutdown();
    }

    #[test]
    fn out_of_order_and_corrupt_deltas_fail_cleanly() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        for t in 0..10u64 {
            engine.observe_at(TenantId(t), Element(t), Slot(1));
        }
        engine.flush();
        let base = engine.checkpoint();
        engine.observe_at(TenantId(0), Element(50), Slot(2));
        engine.flush();
        let d1 = engine.checkpoint_delta(&base).expect("first delta");
        let mid = compact(&base, &[d1.clone()]).expect("compacts");
        engine.observe_at(TenantId(1), Element(51), Slot(3));
        engine.flush();
        let d2 = engine.checkpoint_delta(&mid).expect("second delta");

        // In order: fine. d2 before d1: its base postdates the chain.
        assert!(compact(&base, &[d1.clone(), d2.clone()]).is_ok());
        assert!(
            compact(&base, &[d2.clone()]).is_err(),
            "chain with a missing predecessor compacted"
        );
        // Re-applying the same delta is an idempotent no-op…
        assert_eq!(
            compact(&mid, &[d1.clone()]).expect("idempotent re-apply"),
            mid
        );
        // …but a delta older than the state it lands on is stale.
        let newer = compact(&mid, &[d2.clone()]).expect("compacts");
        assert!(
            compact(&newer, &[d1.clone()]).is_err(),
            "stale delta re-applied over newer state"
        );

        // Any corruption of a delta fails the checksum or the decode.
        for i in 0..d1.len() {
            let mut bad = d1.clone();
            bad[i] ^= 0x40;
            assert!(
                compact(&base, &[bad]).is_err(),
                "bit flip at {i} still compacted"
            );
        }
        for cut in 0..d2.len() {
            assert!(
                compact(&mid, &[d2[..cut].to_vec()]).is_err(),
                "truncation at {cut} still compacted"
            );
        }
        let _ = engine.shutdown();
    }

    #[test]
    fn restore_from_reader_works_and_reports_io() {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(1));
        engine.observe_at(TenantId(3), Element(9), Slot(1));
        let mut buf = Vec::new();
        engine.checkpoint_to(&mut buf).unwrap();
        let _ = engine.shutdown();
        let restored = Engine::restore_from(&mut buf.as_slice()).expect("reader restore");
        assert_eq!(restored.snapshot(TenantId(3)), Some(vec![Element(9)]));
        let _ = restored.shutdown();

        let Err(err) = Engine::restore_from(&mut io::empty()) else {
            panic!("empty reader restored an engine");
        };
        assert!(matches!(err, RestoreError::Format(_)));
        assert!(!err.to_string().is_empty());
    }
}
