//! Crash-recovery determinism: checkpoint → drop → restore → replay the
//! suffix must be *indistinguishable* from never having crashed.
//!
//! Every test drives two engines through byte-identical command
//! sequences: an uninterrupted **twin**, and a **primary** that is
//! checkpointed mid-stream, shut down (the crash), restored from the
//! checkpoint bytes, and fed the remaining suffix. At every snapshot
//! point the restored engine must agree with the twin *byte-exactly* —
//! samples, memory tuples, protocol message counts, watermarks, and the
//! operational counters — for all five sampler kinds, under both
//! [`Engine::snapshot`] and [`Engine::snapshot_at`]. Replays come from a
//! [`ReplayLog`], so prefix and suffix are guaranteed to partition the
//! exact same feed.

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, ReplayLog, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_sim::{Element, Slot};

/// Feed one recorded slot batch to an engine.
fn feed(engine: &Engine, slot: Slot, batch: &[(u64, Element)]) {
    engine.observe_batch_at(slot, batch.iter().map(|&(t, e)| (TenantId(t), e)));
}

/// Assert complete observable agreement between two engines at `now`.
///
/// Both engines receive the identical command sequence (advance, full
/// snapshot, per-tenant views, explicit-slot snapshots), so the probe
/// itself keeps them in lockstep.
fn assert_engines_agree(a: &Engine, b: &Engine, now: Slot, ctx: &str) {
    a.advance(now);
    b.advance(now);
    let all_a = a.snapshot_all();
    let all_b = b.snapshot_all();
    assert_eq!(
        all_a.len(),
        all_b.len(),
        "{ctx}: tenant counts diverged at {now}"
    );
    assert_eq!(all_a, all_b, "{ctx}: samples diverged at {now}");
    // Full views — memory and would-be wire traffic — for a spread of
    // tenants, under both the watermark query and the explicit-slot one.
    for (i, &(tenant, _)) in all_a.iter().enumerate() {
        if i % 7 != 0 {
            continue;
        }
        let va = a.snapshot_view(tenant, None);
        let vb = b.snapshot_view(tenant, None);
        assert_eq!(va, vb, "{ctx}: view of tenant {} at {now}", tenant.0);
        assert_eq!(
            a.snapshot_at(tenant, now),
            b.snapshot_at(tenant, now),
            "{ctx}: snapshot_at of tenant {} at {now}",
            tenant.0
        );
    }
    a.flush();
    b.flush();
    let ma = a.metrics();
    let mb = b.metrics();
    assert_eq!(
        ma.watermark(),
        mb.watermark(),
        "{ctx}: watermarks diverged at {now}"
    );
    assert_eq!(
        ma.tenants(),
        mb.tenants(),
        "{ctx}: hosted tenant counts diverged at {now}"
    );
}

/// The core scenario: record a feed, run the twin uninterrupted, crash
/// the primary at `cut`, restore, replay the suffix, and compare at
/// every suffix slot (stride 1 = literally every snapshot point).
fn recovery_is_exact(spec: SamplerSpec, tenants: u64, per_tenant_total: u64, stride: u64) {
    let per_tenant = TraceProfile {
        name: "recovery",
        total: per_tenant_total,
        distinct: (per_tenant_total / 2).max(1),
    };
    let log = ReplayLog::record(
        MultiTenantStream::new(tenants, per_tenant, spec.seed ^ 0xfeed)
            .with_shared_ids(200)
            .slotted(256),
    );
    let cut = log.slot_at_fraction(0.5);
    let config = EngineConfig::new(spec)
        .with_shards(4)
        .with_queue_capacity(16);

    let twin = Engine::spawn(config);
    let primary = Engine::spawn(config);
    for (slot, batch) in log.prefix(cut) {
        feed(&twin, slot, batch);
        feed(&primary, slot, batch);
    }

    // Crash: checkpoint, then throw the primary away entirely.
    let bytes = primary.checkpoint();
    let _ = primary.shutdown();
    let restored = Engine::restore(&bytes).expect("mid-stream checkpoint restores");

    // Agreement immediately at the restore point…
    let mut now = Slot(cut.0.saturating_sub(1));
    assert_engines_agree(&twin, &restored, now, "restore point");

    // …and at every probed slot of the replayed suffix.
    for (slot, batch) in log.suffix(cut) {
        feed(&twin, slot, batch);
        feed(&restored, slot, batch);
        now = slot;
        if slot.0 % stride == 0 {
            assert_engines_agree(&twin, &restored, now, "suffix");
        }
    }
    assert_engines_agree(&twin, &restored, now, "end of stream");

    // Drain far past any window: expiry, eviction, and the final counter
    // totals must all agree — the restored engine "was" the original.
    let drained = Slot(now.0 + spec.window().unwrap_or(0) + 2);
    assert_engines_agree(&twin, &restored, drained, "drained");
    let mt = twin.metrics();
    let mr = restored.metrics();
    assert_eq!(mt.total_elements(), mr.total_elements(), "element counts");
    assert_eq!(mt.total_batches(), mr.total_batches(), "batch counts");
    assert_eq!(mt.total_advances(), mr.total_advances(), "advance counts");
    assert_eq!(
        mt.total_evictions(),
        mr.total_evictions(),
        "eviction counts"
    );
    assert_eq!(mt.total_elements(), log.elements());
    let _ = twin.shutdown();
    let _ = restored.shutdown();
}

#[test]
fn infinite_recovery_is_exact_at_every_snapshot_point() {
    let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 41_001);
    recovery_is_exact(spec, 150, 120, 1);
}

#[test]
fn centralized_recovery_is_exact_at_every_snapshot_point() {
    let spec = SamplerSpec::new(SamplerKind::Centralized, 8, 41_005);
    recovery_is_exact(spec, 150, 120, 1);
}

#[test]
fn with_replacement_recovery_is_exact_at_every_snapshot_point() {
    let spec = SamplerSpec::new(SamplerKind::WithReplacement, 4, 41_002);
    recovery_is_exact(spec, 150, 120, 1);
}

#[test]
fn sliding_recovery_is_exact_at_every_snapshot_point() {
    let spec = SamplerSpec::new(SamplerKind::Sliding { window: 12 }, 1, 41_003);
    recovery_is_exact(spec, 150, 120, 1);
}

#[test]
fn sliding_multi_recovery_is_exact_at_every_snapshot_point() {
    let spec = SamplerSpec::new(SamplerKind::SlidingMulti { window: 12 }, 3, 41_004);
    recovery_is_exact(spec, 150, 120, 1);
}

/// The headline stress: a 1 200-tenant mixed workload — every even
/// tenant in an infinite-window engine, every odd tenant in a
/// sliding-window engine, both fed from one interleaved recorded stream
/// — checkpointed mid-flight, dropped, restored, and replayed, with
/// byte-exact agreement against uninterrupted twins at each of the
/// probed watermarks and at the drain.
#[test]
fn mixed_1200_tenant_workload_recovers_exactly() {
    const TENANTS: u64 = 1_200;
    let per_tenant = TraceProfile {
        name: "recovery-stress",
        total: 100,
        distinct: 40,
    };
    let log = ReplayLog::record(
        MultiTenantStream::new(TENANTS, per_tenant, 2026)
            .with_shared_ids(300)
            .slotted(600),
    );
    let cut = log.slot_at_fraction(0.5);
    let infinite = SamplerSpec::new(SamplerKind::Infinite, 8, 90_001);
    let sliding = SamplerSpec::new(SamplerKind::Sliding { window: 24 }, 1, 90_002);
    let spawn = |spec| {
        Engine::spawn(
            EngineConfig::new(spec)
                .with_shards(4)
                .with_queue_capacity(16),
        )
    };

    // (twin, primary) per family; tenants split by parity.
    let twin_inf = spawn(infinite);
    let twin_sw = spawn(sliding);
    let primary_inf = spawn(infinite);
    let primary_sw = spawn(sliding);
    let route =
        |engine_pair: (&Engine, &Engine), slot: Slot, batch: &[(u64, Element)], even: bool| {
            let part: Vec<(u64, Element)> = batch
                .iter()
                .copied()
                .filter(|&(t, _)| (t % 2 == 0) == even)
                .collect();
            feed(engine_pair.0, slot, &part);
            feed(engine_pair.1, slot, &part);
        };

    for (slot, batch) in log.prefix(cut) {
        route((&twin_inf, &primary_inf), slot, batch, true);
        route((&twin_sw, &primary_sw), slot, batch, false);
    }

    let bytes_inf = primary_inf.checkpoint();
    let bytes_sw = primary_sw.checkpoint();
    let _ = primary_inf.shutdown();
    let _ = primary_sw.shutdown();
    let restored_inf = Engine::restore(&bytes_inf).expect("infinite checkpoint restores");
    let restored_sw = Engine::restore(&bytes_sw).expect("sliding checkpoint restores");

    let probe_every = (log.slots() as u64 / 8).max(1);
    let mut now = Slot(cut.0.saturating_sub(1));
    assert_engines_agree(&twin_inf, &restored_inf, now, "mixed/infinite restore");
    assert_engines_agree(&twin_sw, &restored_sw, now, "mixed/sliding restore");
    for (slot, batch) in log.suffix(cut) {
        route((&twin_inf, &restored_inf), slot, batch, true);
        route((&twin_sw, &restored_sw), slot, batch, false);
        now = slot;
        if slot.0 % probe_every == 0 {
            assert_engines_agree(&twin_inf, &restored_inf, now, "mixed/infinite");
            assert_engines_agree(&twin_sw, &restored_sw, now, "mixed/sliding");
        }
    }
    assert_engines_agree(&twin_inf, &restored_inf, now, "mixed/infinite end");
    assert_engines_agree(&twin_sw, &restored_sw, now, "mixed/sliding end");

    // Drain the windowed family; both sides must park the same tenants.
    let drained = Slot(now.0 + 24 + 2);
    assert_engines_agree(&twin_sw, &restored_sw, drained, "mixed/sliding drained");
    twin_sw.flush();
    restored_sw.flush();
    assert_eq!(
        twin_sw.metrics().total_evictions(),
        restored_sw.metrics().total_evictions(),
        "restored engine parked a different tenant set"
    );
    assert!(
        twin_sw.metrics().total_evictions() > 0,
        "drain should have parked windowed tenants"
    );
    // Both families together must still host all 1 200 tenants.
    assert_eq!(
        twin_inf.metrics().tenants() + twin_sw.metrics().tenants(),
        TENANTS as usize
    );
    for engine in [twin_inf, twin_sw, restored_inf, restored_sw] {
        let _ = engine.shutdown();
    }
}

/// Incremental-checkpoint crash recovery: a full base document, then a
/// chain of [`Engine::checkpoint_delta`] documents sealed mid-stream,
/// then a crash. Restoring from base + deltas must be byte-exact — the
/// compaction equals the full checkpoint the primary would have written
/// at the last delta, and the restored engine replays the suffix in
/// lockstep with an uninterrupted twin.
fn delta_recovery_is_exact(spec: SamplerSpec, tenants: u64, per_tenant_total: u64) {
    let per_tenant = TraceProfile {
        name: "delta-recovery",
        total: per_tenant_total,
        distinct: (per_tenant_total / 2).max(1),
    };
    let log = ReplayLog::record(
        MultiTenantStream::new(tenants, per_tenant, spec.seed ^ 0xd317)
            .with_shared_ids(200)
            .slotted(256),
    );
    let config = EngineConfig::new(spec)
        .with_shards(4)
        .with_queue_capacity(16);
    let twin = Engine::spawn(config);
    let primary = Engine::spawn(config);

    // Base at 40 %, deltas sealed at 60 % and 80 %, crash at 80 %.
    let base_cut = log.slot_at_fraction(0.4);
    let delta_cuts = [log.slot_at_fraction(0.6), log.slot_at_fraction(0.8)];
    let crash = delta_cuts[1];

    for (slot, batch) in log.prefix(base_cut) {
        feed(&twin, slot, batch);
        feed(&primary, slot, batch);
    }
    primary.flush();
    let base = primary.checkpoint();

    let mut durable = base.clone();
    let mut deltas: Vec<Vec<u8>> = Vec::new();
    let mut cuts = delta_cuts.iter().peekable();
    for (slot, batch) in log.suffix(base_cut) {
        if slot >= crash {
            break;
        }
        if let Some(&&cut) = cuts.peek() {
            if slot >= cut {
                cuts.next();
                primary.flush();
                let d = primary.checkpoint_delta(&durable).expect("delta seals");
                durable = dds_engine::checkpoint::compact(&durable, std::slice::from_ref(&d))
                    .expect("chain compacts");
                deltas.push(d);
            }
        }
        feed(&twin, slot, batch);
        feed(&primary, slot, batch);
    }
    // Seal the final delta at the crash point, then verify the chain
    // compaction equals a full checkpoint of the same moment, byte for
    // byte, before throwing the primary away.
    primary.flush();
    let d = primary
        .checkpoint_delta(&durable)
        .expect("final delta seals");
    deltas.push(d);
    let folded = dds_engine::checkpoint::compact(&base, &deltas).expect("full chain compacts");
    assert_eq!(
        folded,
        primary.checkpoint(),
        "base + delta chain is not byte-identical to a full checkpoint"
    );
    let _ = primary.shutdown();

    // Crash recovery from the chain: replay the suffix in lockstep.
    let restored = Engine::restore_with_deltas(&base, &deltas).expect("chain restores");
    let mut now = Slot(crash.0.saturating_sub(1));
    assert_engines_agree(&twin, &restored, now, "delta restore point");
    for (slot, batch) in log.suffix(crash) {
        feed(&twin, slot, batch);
        feed(&restored, slot, batch);
        now = slot;
    }
    assert_engines_agree(&twin, &restored, now, "delta suffix end");
    let drained = Slot(now.0 + spec.window().unwrap_or(0) + 2);
    assert_engines_agree(&twin, &restored, drained, "delta drained");
    let mt = twin.metrics();
    let mr = restored.metrics();
    assert_eq!(mt.total_elements(), mr.total_elements(), "element counts");
    assert_eq!(
        mt.total_evictions(),
        mr.total_evictions(),
        "eviction counts"
    );
    let _ = twin.shutdown();
    let _ = restored.shutdown();
}

#[test]
fn infinite_delta_chain_recovery_is_exact() {
    let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 42_001);
    delta_recovery_is_exact(spec, 150, 120);
}

#[test]
fn centralized_delta_chain_recovery_is_exact() {
    let spec = SamplerSpec::new(SamplerKind::Centralized, 8, 42_004);
    delta_recovery_is_exact(spec, 150, 120);
}

#[test]
fn with_replacement_delta_chain_recovery_is_exact() {
    let spec = SamplerSpec::new(SamplerKind::WithReplacement, 4, 42_005);
    delta_recovery_is_exact(spec, 150, 120);
}

#[test]
fn sliding_delta_chain_recovery_is_exact() {
    let spec = SamplerSpec::new(SamplerKind::Sliding { window: 12 }, 1, 42_002);
    delta_recovery_is_exact(spec, 150, 120);
}

#[test]
fn sliding_multi_delta_chain_recovery_is_exact() {
    let spec = SamplerSpec::new(SamplerKind::SlidingMulti { window: 12 }, 3, 42_003);
    delta_recovery_is_exact(spec, 100, 100);
}

/// Restore then checkpoint is the identity on bytes, for every kind:
/// each tenant decodes into its kind's concrete sampler type and
/// re-encodes to the same envelope, parked tenants stay parked, and
/// stamps, watermarks, sequence numbers and counters carry over.
#[test]
fn restore_then_checkpoint_is_byte_identical_for_every_kind() {
    let kinds = [
        (SamplerKind::Centralized, 4),
        (SamplerKind::Infinite, 8),
        (SamplerKind::WithReplacement, 4),
        (SamplerKind::Sliding { window: 6 }, 1),
        (SamplerKind::SlidingMulti { window: 6 }, 3),
    ];
    for (i, (kind, s)) in kinds.into_iter().enumerate() {
        let spec = SamplerSpec::new(kind, s, 44_000 + i as u64);
        let engine = Engine::spawn(
            EngineConfig::new(spec)
                .with_shards(3)
                .with_queue_capacity(8),
        );
        // Tenants below 40 go quiet after slot 1, so a windowed engine
        // parks them at the slot-12 advance; the rest keep arriving.
        for slot in 0..20u64 {
            engine.observe_batch_at(
                Slot(slot),
                (0..80u64)
                    .filter(|&t| t >= 40 || slot < 2)
                    .map(|t| (TenantId(t), Element((t * 31 + slot * 7) % 97))),
            );
            if slot == 12 {
                engine.advance(Slot(slot));
            }
        }
        engine.flush();
        if kind.window().is_some() {
            assert!(
                engine.metrics().total_evictions() > 0,
                "{kind:?}: no tenant was parked"
            );
        }
        let bytes = engine.checkpoint();
        let restored = Engine::restore(&bytes).expect("checkpoint restores");
        assert_eq!(
            restored.checkpoint(),
            bytes,
            "{kind:?}: the restored engine checkpoints other bytes"
        );
        let _ = engine.shutdown();
        let _ = restored.shutdown();
    }
}

/// The incremental-checkpoint acceptance bound: a 1 200-tenant engine
/// at ~1 % churn emits a delta no larger than 5 % of the full document,
/// and base + delta restores byte-exactly.
#[test]
fn delta_checkpoint_at_one_percent_churn_stays_under_five_percent() {
    const TENANTS: u64 = 1_200;
    let spec = SamplerSpec::new(SamplerKind::Infinite, 8, 43_001);
    let engine = Engine::spawn(
        EngineConfig::new(spec)
            .with_shards(4)
            .with_queue_capacity(64),
    );
    // Seed every tenant with enough traffic that blobs carry real state.
    let mut batch = Vec::new();
    for t in 0..TENANTS {
        for k in 0..20u64 {
            batch.push((TenantId(t), Element(t * 100 + k * 7)));
        }
    }
    engine.observe_batch(batch);
    engine.flush();
    let base = engine.checkpoint();

    // 1 % churn: 12 tenants take new observations.
    let churn: Vec<(TenantId, Element)> = (0..TENANTS / 100)
        .map(|t| (TenantId(t * 97 % TENANTS), Element(900_000 + t)))
        .collect();
    engine.observe_batch(churn);
    engine.flush();
    let delta = engine.checkpoint_delta(&base).expect("delta seals");
    assert!(
        delta.len() * 20 <= base.len(),
        "delta is {} bytes, more than 5% of the {}-byte base",
        delta.len(),
        base.len()
    );

    // Byte-exact: compaction equals the live engine's full checkpoint,
    // and the chain restore answers like the original.
    let folded =
        dds_engine::checkpoint::compact(&base, std::slice::from_ref(&delta)).expect("compacts");
    assert_eq!(folded, engine.checkpoint());
    let restored =
        Engine::restore_with_deltas(&base, std::slice::from_ref(&delta)).expect("restores");
    assert_eq!(restored.snapshot_all(), engine.snapshot_all());
    let _ = engine.shutdown();
    let _ = restored.shutdown();
}

/// Regression for the eviction bugfix: an `Engine::advance`-driven
/// eviction must *record* the tenant's final state, so a later observe
/// resumes the tenant (clock and message counter intact) instead of
/// resetting it to a fresh instance.
#[test]
fn evicted_tenant_resumes_rather_than_resets() {
    let spec = SamplerSpec::new(SamplerKind::Sliding { window: 8 }, 1, 55);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(1));
    let t = TenantId(3);
    engine.observe_at(t, Element(5), Slot(1));
    let before = engine.snapshot_view(t, None).expect("hosted");
    assert!(before.protocol_messages > 0);

    // Idle far past the window: the tenant drains and is evicted.
    engine.advance(Slot(50));
    engine.flush();
    assert_eq!(engine.metrics().total_evictions(), 1, "tenant not parked");
    assert_eq!(engine.metrics().tenants(), 1, "parked tenant forgotten");

    // A parked tenant still answers queries (empty window, zero memory,
    // message history intact).
    let parked = engine
        .snapshot_view(t, None)
        .expect("parked tenant answers");
    assert!(parked.sample.is_empty());
    assert_eq!(parked.memory_tuples, 0);
    assert_eq!(parked.protocol_messages, before.protocol_messages);

    // New traffic resumes the tenant. A twin sampler that was never
    // evicted defines what "resumes" means, exactly.
    engine.observe_at(t, Element(6), Slot(51));
    let resumed = engine.snapshot_view(t, None).expect("hosted again");
    let mut twin = spec.build();
    twin.observe_at(Element(5), Slot(1));
    twin.advance(Slot(50));
    twin.observe_at(Element(6), Slot(51));
    assert_eq!(resumed.sample, twin.sample());
    assert_eq!(resumed.memory_tuples, twin.memory_tuples());
    assert_eq!(resumed.protocol_messages, twin.protocol_messages());
    assert!(
        resumed.protocol_messages > before.protocol_messages,
        "message counter reset: eviction discarded the tenant's state"
    );
    let _ = engine.shutdown();
}

/// Checkpoints taken *between* an eviction and the tenant's next
/// observation must carry the parked tenant through restore: it stays
/// parked (no memory cost), still answers, and still resumes.
#[test]
fn parked_tenants_survive_checkpoint_restore() {
    let spec = SamplerSpec::new(SamplerKind::Sliding { window: 4 }, 1, 77);
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(2));
    for t in 0..10u64 {
        engine.observe_at(TenantId(t), Element(t), Slot(1));
    }
    engine.advance(Slot(40));
    engine.flush();
    assert_eq!(engine.metrics().total_evictions(), 10);

    let bytes = engine.checkpoint();
    let _ = engine.shutdown();
    let restored = Engine::restore(&bytes).expect("restores");
    assert_eq!(restored.metrics().tenants(), 10);
    assert_eq!(restored.metrics().total_evictions(), 10);

    // Parked tenants answer and resume exactly as in the original.
    let view = restored.snapshot_view(TenantId(7), None).expect("parked");
    assert!(view.sample.is_empty());
    assert!(view.protocol_messages > 0);
    restored.observe_at(TenantId(7), Element(99), Slot(41));
    let mut twin = spec.build();
    twin.observe_at(Element(7), Slot(1));
    twin.advance(Slot(40));
    twin.observe_at(Element(99), Slot(41));
    let resumed = restored.snapshot_view(TenantId(7), None).expect("hosted");
    assert_eq!(resumed.sample, twin.sample());
    assert_eq!(resumed.protocol_messages, twin.protocol_messages());
    let _ = restored.shutdown();
}
