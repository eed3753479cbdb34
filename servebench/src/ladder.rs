//! The layer ladder: one workload's seeded inputs replayed one rung at
//! a time — hash kernel, per-tenant samplers, `Engine` with 1 then 2
//! shards, the codec without a socket, the served engine over loopback,
//! and `LocalCluster`. A layer's self time is its rung minus the rung
//! below it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use dds_cluster::{ClusterSpec, LocalCluster};
use dds_core::sampler::SamplerSpec;
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_proto::Request;
use dds_sim::{Element, Slot};

use crate::affinity::on_one_cpu;
use crate::gen::{self, Sizes, SHARDS, SITES};
use crate::report::{median, metric, Metric, Tally};
use crate::trace::span;
use crate::workloads::{advance_to, cluster_layers, queue_depth, scrape, serve};

/// One frame of observations, stamped with a slot on timed workloads.
pub type Frame<'a> = (Option<Slot>, &'a [(TenantId, Element)]);

/// A workload's inputs as the ladder sees them.
pub struct Input<'a> {
    pub spec: SamplerSpec,
    pub batches: Vec<Frame<'a>>,
}

impl Input<'_> {
    fn elems(&self) -> usize {
        self.batches.iter().map(|(_, b)| b.len()).sum()
    }

    fn requests(&self) -> Vec<Request> {
        self.batches
            .iter()
            .map(|&(slot, b)| match slot {
                Some(now) => Request::ObserveBatchAt {
                    now,
                    batch: b.to_vec(),
                },
                None => Request::ObserveBatch { batch: b.to_vec() },
            })
            .collect()
    }
}

/// Every rung's ns/element, in ladder order, for the self-time table.
pub struct Rungs(pub Vec<(&'static str, f64)>);

/// Replay `input` down the ladder. A workload that ran the served
/// engine itself (`workload_served`) already reported its counters, so
/// the ladder reports the cluster rung's; otherwise the served rung's.
/// Every rung is timed either way.
pub fn run(
    input: &Input<'_>,
    z: &Sizes,
    reps: usize,
    workload_served: bool,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Rungs), String> {
    let n = input.elems() as f64;
    let per_elem = |f: &mut dyn FnMut() -> f64| -> f64 {
        let times: Vec<f64> = (0..reps).map(|_| f()).collect();
        median(&times) * 1e9 / n
    };
    let mut out = Vec::new();
    let mut rungs = Vec::new();

    // 1. Hash kernel.
    let hasher = input.spec.hasher();
    let mut hashes = Vec::new();
    let hash_ns = per_elem(&mut || {
        let _s = span("ladder.hash");
        let t = Instant::now();
        for (_, b) in &input.batches {
            hasher.hash_u64_batch_into(b.iter().map(|(_, e)| e.0), &mut hashes);
            black_box(&hashes);
        }
        t.elapsed().as_secs_f64()
    });
    out.push(metric("hash.ns_per_elem", hash_ns, "ns"));
    rungs.push(("hash", hash_ns));

    // 2. Per-tenant samplers, each fed its own stream slot by slot.
    type Runs = Vec<(Option<Slot>, Vec<Element>)>;
    let mut per_tenant: HashMap<u64, Runs> = HashMap::new();
    for &(slot, b) in &input.batches {
        for &(t, e) in b {
            let runs = per_tenant.entry(t.0).or_default();
            match runs.last_mut() {
                Some((s, es)) if *s == slot => es.push(e),
                _ => runs.push((slot, vec![e])),
            }
        }
    }
    let sampler_ns = per_elem(&mut || {
        let _s = span("ladder.samplers");
        let t = Instant::now();
        for runs in per_tenant.values() {
            let mut sampler = input.spec.build();
            for (slot, es) in runs {
                match slot {
                    Some(now) => sampler.observe_batch_at(*now, es),
                    None => sampler.observe_batch(es),
                }
            }
            black_box(sampler.sample());
        }
        t.elapsed().as_secs_f64()
    });
    out.push(metric("core.sampler_ns_per_elem", sampler_ns, "ns"));
    rungs.push(("samplers", sampler_ns));

    // 3. In-process engine, 1 then 2 shards, ending at a flush barrier.
    let mut checkpoint = (Vec::new(), Vec::new());
    for (shards, name) in [
        (1, "engine.ns_per_elem.shards1"),
        (SHARDS, "engine.ns_per_elem.shards2"),
    ] {
        let ns = per_elem(&mut || {
            let engine = Engine::spawn(EngineConfig::new(input.spec).with_shards(shards));
            let _s = span("ladder.engine");
            let t = Instant::now();
            for &(slot, b) in &input.batches {
                let _c = span("Engine::observe_batch");
                let r = match slot {
                    Some(now) => engine.try_observe_batch_at(now, b.iter().copied()),
                    None => engine.try_observe_batch(b.iter().copied()),
                };
                tally.check("Engine::observe_batch", r);
            }
            {
                let _c = span("Engine::flush");
                tally.check("Engine::flush", engine.try_flush());
            }
            let dt = t.elapsed().as_secs_f64();
            if shards == SHARDS {
                let c = Instant::now();
                let bytes = {
                    let _c = span("Engine::checkpoint");
                    engine.checkpoint()
                };
                checkpoint.0.push(c.elapsed().as_secs_f64() * 1e3);
                checkpoint
                    .1
                    .push(bytes.len() as f64 / engine.metrics().tenants().max(1) as f64);
            }
            tally.check("Engine::shutdown", engine.begin_shutdown());
            dt
        });
        out.push(metric(name, ns, "ns"));
        rungs.push((
            if shards == 1 {
                "engine x1"
            } else {
                "engine x2"
            },
            ns,
        ));
    }
    out.push(metric("engine.checkpoint_ms", median(&checkpoint.0), "ms"));
    out.push(metric(
        "engine.state_bytes_per_tenant",
        median(&checkpoint.1),
        "B",
    ));

    // 4. Codec without a socket; every frame must decode to its request.
    let requests = input.requests();
    let mut frames = Vec::new();
    let encode_ns = per_elem(&mut || {
        let _s = span("ladder.encode");
        let t = Instant::now();
        frames = requests.iter().map(Request::encode).collect();
        t.elapsed().as_secs_f64()
    });
    let mut decoded = Vec::new();
    let decode_ns = per_elem(&mut || {
        let _s = span("ladder.decode");
        let t = Instant::now();
        decoded = frames.iter().map(|f| Request::decode_frame(f)).collect();
        t.elapsed().as_secs_f64()
    });
    for (d, r) in decoded.into_iter().zip(&requests) {
        if let Some(d) = tally.check("Request::decode_frame", d) {
            tally.expect_eq("decoded frame", &d, r);
        }
    }
    let frame_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / n;
    out.push(metric("proto.encode_ns_per_elem", encode_ns, "ns"));
    out.push(metric("proto.decode_ns_per_elem", decode_ns, "ns"));
    out.push(metric("proto.frame_bytes_per_elem", frame_bytes, "B/elem"));
    rungs.push(("codec", encode_ns + decode_ns));

    // 5. The served engine over loopback, then a read of a few tenants.
    let mut served_layers = Vec::new();
    let mut err = None;
    let server_ns = per_elem(&mut || {
        let served = match serve(Engine::spawn(
            EngineConfig::new(input.spec).with_shards(SHARDS),
        )) {
            Ok(s) => s,
            Err(e) => {
                err = Some(e);
                return f64::NAN;
            }
        };
        let _s = span("ladder.server");
        let mut depth = 0;
        let t = Instant::now();
        for (i, &(slot, b)) in input.batches.iter().enumerate() {
            let _c = span("Client::observe_batch");
            let r = match slot {
                Some(now) => served.client.observe_batch_at(now, b.iter().copied()),
                None => served.client.observe_batch(b.iter().copied()),
            };
            tally.check("Client::observe_batch", r);
            if i % 64 == 63 {
                depth = depth.max(queue_depth(&served.client, tally));
            }
        }
        {
            let _c = span("Client::flush");
            tally.check("Client::flush", served.client.flush());
        }
        let dt = t.elapsed().as_secs_f64();
        for &(t, _) in input.batches.iter().flat_map(|(_, b)| b.iter()).take(64) {
            let _c = span("Client::snapshot");
            tally.check("Client::snapshot", served.client.snapshot(t));
        }
        if !workload_served {
            let sent = served.client.stats().requests_sent;
            served_layers = scrape(&served, tally, depth, sent, &crate::trace::spans());
        }
        served.close(tally);
        dt
    });
    if let Some(e) = err {
        return Err(e);
    }
    out.push(metric("server.ns_per_elem", server_ns, "ns"));
    out.extend(served_layers);
    rungs.push(("server", server_ns));

    // 6. LocalCluster on a prefix: per-element round trips are slow.
    let prefix: Vec<(Option<Slot>, Element)> = input
        .batches
        .iter()
        .flat_map(|&(slot, b)| b.iter().map(move |&(_, e)| (slot, e)))
        .take(z.ladder_cluster_elems)
        .collect();
    // On one CPU, as the cluster_k4 workload runs it.
    let (eps, stats) = on_one_cpu(|| {
        let mut cluster = LocalCluster::spawn(ClusterSpec::new(input.spec, SITES))
            .map_err(|e| format!("cluster spawn: {e:?}"))?;
        let handle = cluster.handle();
        let _s = span("ladder.cluster");
        let t = Instant::now();
        for &(slot, e) in &prefix {
            if let Some(slot) = slot {
                advance_to(handle, slot, tally);
            }
            let _c = span("ClusterHandle::observe_routed");
            tally.check("ClusterHandle::observe_routed", handle.observe_routed(e));
        }
        let eps = prefix.len() as f64 / t.elapsed().as_secs_f64();
        let stats = tally.check("ClusterHandle::stats", handle.stats());
        tally.check("LocalCluster::shutdown", cluster.shutdown());
        Ok::<_, String>((eps, stats))
    })?;
    rungs.push(("cluster", 1e9 / eps));
    if workload_served {
        let d = gen::distinct(prefix.iter().map(|&(_, e)| e));
        out.extend(cluster_layers(
            stats.as_ref(),
            &crate::trace::spans(),
            eps,
            input.spec.s,
            d,
        ));
    }
    Ok((out, Rungs(rungs)))
}
