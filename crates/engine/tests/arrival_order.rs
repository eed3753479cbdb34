//! Twin property: shards apply batches in arrival order, with no sort.
//!
//! A shard walks each batch as it arrived. A run of consecutive
//! same-tenant elements costs one table probe: a run of one takes the
//! single-element hashed path, a longer run the fused batch path. The
//! batches here mix single-element tenants with long same-tenant runs
//! and go through every ingest call (`observe_batch`,
//! `observe_batch_at`, `observe`, `observe_at`) at 1, 2 and 4 shards.
//! Every tenant must end bit-identical to its own `spec.build()` twin
//! fed only that tenant's subsequence, one element at a time: the same
//! sample, protocol message count and stored tuples.

use std::collections::BTreeMap;

use dds_core::sampler::{DistinctSampler, SamplerKind, SamplerSpec};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_sim::{Element, Slot};
use proptest::prelude::*;

/// Every sampler kind the engine serves.
fn spec(kind: usize) -> SamplerSpec {
    match kind {
        0 => SamplerSpec::new(SamplerKind::Centralized, 3, 41),
        1 => SamplerSpec::new(SamplerKind::Infinite, 3, 41),
        2 => SamplerSpec::new(SamplerKind::WithReplacement, 3, 41),
        3 => SamplerSpec::new(SamplerKind::Sliding { window: 6 }, 1, 41),
        _ => SamplerSpec::new(SamplerKind::SlidingMulti { window: 6 }, 3, 41),
    }
}

/// The ingest call a case drives.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Batch,
    BatchAt,
    One,
    OneAt,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn arrival_order_apply_matches_per_tenant_twins(
        // (tenant, run length): mostly runs of one, some short runs,
        // some long ones.
        runs in prop::collection::vec(
            (0u64..6, prop_oneof![3 => Just(1usize), 1 => 2usize..5, 1 => 16usize..64]),
            1..40,
        ),
        salt in 0u64..1_000,
        batch in 1usize..300,
        mode in prop_oneof![
            Just(Mode::Batch),
            Just(Mode::BatchAt),
            Just(Mode::One),
            Just(Mode::OneAt),
        ],
        shards in prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        kind in 0usize..5,
    ) {
        let spec = spec(kind);
        // Element ids repeat and collide across tenants.
        let feed: Vec<(TenantId, Element)> = runs
            .iter()
            .flat_map(|&(t, len)| std::iter::repeat(t).take(len))
            .enumerate()
            .map(|(i, t)| (TenantId(t), Element((i as u64 * 0x9e37 + salt) % 29)))
            .collect();
        let engine = Engine::spawn(
            EngineConfig::new(spec)
                .with_shards(shards)
                .with_queue_capacity(2),
        );
        let mut twins: BTreeMap<u64, Box<dyn DistinctSampler>> = BTreeMap::new();
        let timed = matches!(mode, Mode::BatchAt | Mode::OneAt);
        // One slot per chunk, so windows expire as the feed goes on.
        let mut last = Slot(0);
        for (slot, chunk) in feed.chunks(batch).enumerate() {
            let slot = Slot(slot as u64);
            match mode {
                Mode::Batch => engine.observe_batch(chunk.iter().copied()),
                Mode::BatchAt => engine.observe_batch_at(slot, chunk.iter().copied()),
                Mode::One => chunk.iter().for_each(|&(t, e)| engine.observe(t, e)),
                Mode::OneAt => chunk.iter().for_each(|&(t, e)| engine.observe_at(t, e, slot)),
            }
            for &(t, e) in chunk {
                let twin = twins.entry(t.0).or_insert_with(|| spec.build());
                if timed {
                    twin.observe_at(e, slot);
                } else {
                    twin.observe(e);
                }
            }
            if timed {
                last = slot;
            }
        }
        for (&t, twin) in &mut twins {
            twin.advance(last);
            let view = engine
                .snapshot_view(TenantId(t), Some(last))
                .expect("observed tenant is hosted");
            prop_assert_eq!(&view.sample, &twin.sample(), "tenant {} sample ({:?})", t, mode);
            prop_assert_eq!(
                view.protocol_messages,
                twin.protocol_messages(),
                "tenant {} messages ({:?})",
                t,
                mode
            );
            prop_assert_eq!(
                view.memory_tuples,
                twin.memory_tuples(),
                "tenant {} memory ({:?})",
                t,
                mode
            );
        }
        let report = engine.shutdown();
        prop_assert_eq!(report.metrics.total_elements(), feed.len() as u64);
        prop_assert_eq!(report.metrics.tenants(), twins.len());
    }
}
