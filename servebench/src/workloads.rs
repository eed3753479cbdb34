//! The end-to-end workloads, driven through the public API from the
//! outside, each checked against its oracle.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dds_cluster::{ClusterHandle, ClusterSpec, LocalCluster};
use dds_engine::{Engine, EngineConfig};
use dds_obs::TelemetrySnapshot;
use dds_proto::cluster::ClusterRequest;
use dds_proto::{EngineHost, EngineService};
use dds_server::{Client, Server, ServerConfig};
use dds_sim::Slot;

use crate::clock::RunClock;
use crate::gen::{self, Sizes, SHARDS, SITES};
use crate::report::{floats, median, metric, peak_rss_mb, quantile, Metric, Tally};
use crate::trace::{self, span};

/// What one workload run measured.
pub struct Outcome {
    pub tally: Tally,
    /// End-to-end metrics, from untraced work only.
    pub e2e: Vec<Metric>,
    /// Layer metrics this workload yields itself when traced (the
    /// served engine's telemetry, or the cluster's counters).
    pub layers: Vec<Metric>,
    /// `throughput_eps` with spans on (traced runs only).
    pub traced_eps: Option<f64>,
    /// Sample counts behind each percentile, for the record.
    pub samples: Vec<(&'static str, usize)>,
    /// Per-repetition (or per-second) readings behind the medians, for
    /// the record.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// An engine behind the evented server, and a client on loopback.
pub struct Served {
    pub server: Server,
    pub client: Client,
}

/// Host `engine` on `ServerConfig::Evented { workers: 1 }` and connect.
pub fn serve(engine: Engine) -> Result<Served, String> {
    let host: Arc<dyn EngineService> = Arc::new(EngineHost::new(engine));
    let server = Server::bind_tcp_with("127.0.0.1:0", host, ServerConfig::Evented { workers: 1 })
        .map_err(|e| format!("server bind: {e}"))?;
    let client = connect(&server)?;
    Ok(Served { server, client })
}

/// One more client of `server`.
pub fn connect(server: &Server) -> Result<Client, String> {
    let addr = server.local_addr().ok_or("server has no TCP address")?;
    Client::connect_tcp(addr).map_err(|e| format!("client connect: {e:?}"))
}

impl Served {
    /// Stop the served engine, close the client, join the server.
    pub fn close(self, tally: &mut Tally) {
        tally.check("Client::shutdown_engine", self.client.shutdown_engine());
        drop(self.client);
        self.server.shutdown();
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The served engine's and server's layer metrics, read over the wire
/// at the end of a traced phase. `spans` are the phase's client spans.
pub fn scrape(
    served: &Served,
    tally: &mut Tally,
    queue_depth_max: usize,
    requests_sent: u64,
    spans: &[trace::Span],
) -> Vec<Metric> {
    let client = &served.client;
    let mut scrape_us = Vec::new();
    let mut telemetry = TelemetrySnapshot::new();
    for _ in 0..5 {
        let t = Instant::now();
        if let Some(snap) = tally.check("Client::telemetry", client.telemetry()) {
            telemetry = snap;
        }
        scrape_us.push(us(t.elapsed()));
    }
    let metrics = tally.check("Client::metrics", client.metrics());
    let (batches, backpressure, skew) = metrics.map_or((0.0, 0.0, 0.0), |m| {
        let per: Vec<f64> = m.shards.iter().map(|s| s.elements as f64).collect();
        let mean = per.iter().sum::<f64>() / per.len().max(1) as f64;
        let max = per.iter().copied().fold(0.0, f64::max);
        (
            m.total_batches() as f64,
            m.total_backpressure() as f64,
            if mean > 0.0 { max / mean } else { 0.0 },
        )
    });
    let p50 = |name: &str| {
        let mut merged = dds_obs::HistogramSnapshot::default();
        for h in telemetry.histograms.iter().filter(|h| h.name == name) {
            merged.merge(&h.hist);
        }
        merged.quantile(0.5) as f64
    };
    let calls = floats(&trace::durations(spans, "Client::"));
    vec![
        metric("engine.batches", batches, "count"),
        metric("engine.backpressure", backpressure, "count"),
        metric("engine.shard_skew", skew, "ratio"),
        metric("engine.snapshot_ns_p50", p50("engine_snapshot_nanos"), "ns"),
        metric("engine.queue_depth_max", queue_depth_max as f64, "count"),
        metric("server.decode_ns_p50", p50("server_decode_nanos"), "ns"),
        metric("server.handle_ns_p50", p50("server_handle_nanos"), "ns"),
        metric("server.respond_ns_p50", p50("server_respond_nanos"), "ns"),
        metric(
            "server.poll_wakeups",
            telemetry.counter_total("server_poll_wakeups_total") as f64,
            "count",
        ),
        metric(
            "server.requests",
            served.server.stats().requests as f64,
            "count",
        ),
        metric("client.call_us_p50", median(&calls) / 1e3, "us"),
        metric("client.requests_sent", requests_sent as f64, "count"),
        metric("obs.scrape_us", median(&scrape_us), "us"),
    ]
}

/// Highest queue depth any shard reports right now.
pub fn queue_depth(client: &Client, tally: &mut Tally) -> usize {
    tally
        .check("Client::metrics", client.metrics())
        .map_or(0, |m| m.max_queue_depth())
}

/// `bulk_ingest`: a fresh served engine per repetition, the same
/// pre-built batches, a flush barrier, then every probe tenant read back
/// and compared with its oracle. The first repetition is a warm-up;
/// traced runs alternate untraced and traced repetitions.
pub fn bulk(input: &gen::Bulk, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let elems = input.batches.iter().map(Vec::len).sum::<usize>() as f64;
    let (mut setups, mut plain, mut with_spans, mut reads) = (vec![], vec![], vec![], vec![]);
    let mut steals = Vec::new();
    let (mut wire, mut msgs) = (0.0, 0.0);
    let mut layers = Vec::new();
    let started = Instant::now();
    for rep in 0usize.. {
        let traced_rep = traced && rep % 2 == 0 && rep > 0;
        let t0 = Instant::now();
        let served = serve(Engine::spawn(
            EngineConfig::new(input.spec).with_shards(SHARDS),
        ))?;
        let setup = t0.elapsed().as_secs_f64();
        trace::set_enabled(traced_rep);
        let mut depth = 0;
        let t1 = RunClock::start();
        for (i, batch) in input.batches.iter().enumerate() {
            let _s = span("Client::observe_batch");
            tally.check(
                "Client::observe_batch",
                served.client.observe_batch(batch.iter().copied()),
            );
            if traced_rep && i % 64 == 63 {
                depth = depth.max(queue_depth(&served.client, &mut tally));
            }
        }
        {
            let _s = span("Client::flush");
            tally.check("Client::flush", served.client.flush());
        }
        let (secs, steal) = t1.read();
        let eps = elems / secs;
        let stats = served.client.stats();
        let mut rep_reads = Vec::with_capacity(input.probes.len());
        for (tenant, want) in &input.probes {
            let q = Instant::now();
            let got = {
                let _s = span("Client::snapshot");
                served.client.snapshot(*tenant)
            };
            rep_reads.push(us(q.elapsed()));
            if let Some(got) = tally.check("Client::snapshot", got) {
                tally.expect_eq(&format!("bulk tenant {}", tenant.0), &got, want);
            }
        }
        trace::set_enabled(false);
        if traced_rep {
            layers = scrape(
                &served,
                &mut tally,
                depth,
                stats.requests_sent,
                &trace::spans(),
            );
        }
        served.close(&mut tally);
        if rep > 0 {
            if traced_rep {
                with_spans.push(eps);
            } else {
                plain.push(eps);
                steals.push(steal);
                setups.push(setup);
                reads.extend(rep_reads);
                wire = stats.bytes_sent as f64 / elems;
                msgs = stats.requests_sent as f64 * 1e3 / elems;
            }
        }
        let enough = plain.len() >= 3 && (!traced || with_spans.len() >= 3);
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(Outcome {
        tally,
        e2e: e2e(median(&plain), &reads, &setups, wire, msgs),
        layers,
        traced_eps: traced.then(|| median(&with_spans)),
        samples: vec![
            ("throughput_eps", plain.len()),
            ("query_us", reads.len()),
            ("setup_s", setups.len()),
        ],
        series: vec![
            ("throughput_eps", plain),
            ("steal_share", steals),
            ("setup_s", setups),
        ],
    })
}

/// The end-to-end metric set, in `BENCHMARK.json` order.
fn e2e(eps: f64, reads_us: &[f64], setups: &[f64], wire: f64, msgs: f64) -> Vec<Metric> {
    vec![
        metric("throughput_eps", eps, "1/s"),
        metric("query_p50_us", quantile(reads_us, 0.5), "us"),
        metric("query_p99_us", quantile(reads_us, 0.99), "us"),
        metric("setup_s", median(setups), "s"),
        metric("wire_bytes_per_elem", wire, "B/elem"),
        metric("msgs_per_kelem", msgs, "msg/kelem"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// `windowed_mixed`: restore the checkpoint (timed, repeated), then an
/// open loop — connection A ingests one-slot batches at a fixed rate,
/// connection B reads Zipf-chosen tenants at a fixed rate. After a
/// warm-up the measured phase runs for `seconds`; a traced run splits it
/// into an untraced and a traced half. Ends with a flush barrier and
/// every tenant's window sample compared with the sliding oracles at the
/// final watermark.
pub fn windowed(
    input: &gen::Windowed,
    z: &Sizes,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut current: Option<(Served, Client)> = None;
    for _ in 0..z.setups {
        if let Some((served, reader)) = current.take() {
            drop(reader);
            served.close(&mut tally);
        }
        let t0 = Instant::now();
        let engine = Engine::restore(&input.checkpoint).map_err(|e| format!("restore: {e:?}"))?;
        let served = serve(engine)?;
        let reader = connect(&served.server)?;
        setups.push(t0.elapsed().as_secs_f64());
        current = Some((served, reader));
    }
    let (served, reader) = current.ok_or("no set-up ran")?;

    let warm = z.win_warmup_s;
    let total = warm + seconds;
    let traced_from = if traced {
        warm + seconds / 2.0
    } else {
        f64::INFINITY
    };
    let period = Duration::from_secs_f64(z.win_batch as f64 / z.win_rate_eps);
    let n_batches = (total * z.win_rate_eps / z.win_batch as f64).ceil() as u64;
    let qperiod = Duration::from_secs_f64(1.0 / z.win_query_hz);
    let n_queries = (total * z.win_query_hz).ceil() as u64;
    let elems = (n_batches * z.win_batch as u64) as f64;

    let start = Instant::now() + Duration::from_millis(5);
    let writer = &served.client;
    let (ingest, reads, depth) = std::thread::scope(|s| {
        let a = s.spawn(move || {
            let mut log = IngestLog {
                tally: Tally::default(),
                lag_max: Duration::ZERO,
                done: Vec::with_capacity(n_batches as usize),
                last_send: start,
                flushed: start,
            };
            for i in 0..n_batches {
                let due = start + period * i as u32;
                sleep_until(due);
                log.lag_max = log
                    .lag_max
                    .max(Instant::now().saturating_duration_since(due));
                let (slot, batch) = input.run_batch(i);
                let _s = span("Client::observe_batch_at");
                log.tally.check(
                    "Client::observe_batch_at",
                    writer.observe_batch_at(slot, batch.iter().copied()),
                );
                log.done.push((Instant::now() - start).as_secs_f64());
            }
            log.last_send = Instant::now();
            {
                let _s = span("Client::flush");
                log.tally.check("Client::flush", writer.flush());
            }
            log.flushed = Instant::now();
            log
        });
        let mut reads: Vec<(f64, f64)> = Vec::with_capacity(n_queries as usize);
        let (mut depth, mut lag_max, mut free_at) = (0, Duration::ZERO, start);
        for j in 0..n_queries {
            let due = start + qperiod * j as u32;
            let at = (due - start).as_secs_f64();
            trace::set_enabled(at >= traced_from);
            sleep_until(due);
            // A read held up by a slow predecessor is timed from its due
            // time, so a stall counts against every read behind it. One
            // sent on schedule is timed from its send: the generator's
            // own wake-up lag on a shared box is not the system's, and is
            // reported as gen.lag_max_ms instead.
            let sent = Instant::now();
            let from = if free_at > due { due } else { sent };
            lag_max = lag_max.max(sent.saturating_duration_since(due.max(free_at)));
            let tenant = input.queries[j as usize % input.queries.len()];
            let got = {
                let _s = span("Client::snapshot");
                reader.snapshot(tenant)
            };
            free_at = Instant::now();
            reads.push((at, us(free_at - from)));
            if let Some(sample) = tally.check("Client::snapshot", got) {
                tally.expect_eq(
                    &format!("sample size of tenant {}", tenant.0),
                    &(sample.len() <= input.spec.s),
                    &true,
                );
            }
            if at >= traced_from && j % 100 == 0 {
                depth = depth.max(queue_depth(&reader, &mut tally));
            }
        }
        let mut ingest = a.join().expect("ingest thread panicked");
        ingest.lag_max = ingest.lag_max.max(lag_max);
        trace::set_enabled(false);
        (ingest, reads, depth)
    });
    tally.add(ingest.tally);

    // The final answer: every tenant's window sample at the last slot.
    let now = Slot(input.first_slot + n_batches - 1);
    if let Some(mut got) = tally.check("Client::snapshot_all_at", reader.snapshot_all_at(now)) {
        got.sort_by_key(|(t, _)| t.0);
        let want = input.expected_at(now, n_batches);
        tally.expect_eq("windowed tenant count", &got.len(), &want.len());
        for (g, w) in got.iter().zip(&want) {
            tally.expect_eq(&format!("windowed tenant {} at {now}", w.0 .0), g, w);
        }
    }

    let rate_in = |from: f64, to: f64| {
        let n = ingest.done.iter().filter(|&&t| t >= from && t < to).count();
        (n * z.win_batch) as f64 / (to - from)
    };
    let measured: Vec<f64> = reads
        .iter()
        .filter(|&&(at, _)| at >= warm && at < traced_from.min(total))
        .map(|&(_, l)| l)
        .collect();
    let stats = writer.stats();
    let mut layers = Vec::new();
    if traced {
        let requests = stats.requests_sent + reader.stats().requests_sent;
        layers = scrape(&served, &mut tally, depth, requests, &trace::spans());
        layers.push(metric(
            "gen.lag_max_ms",
            ingest.lag_max.as_secs_f64() * 1e3,
            "ms",
        ));
        layers.push(metric(
            "gen.offered_eps",
            elems / (ingest.last_send - start).as_secs_f64(),
            "1/s",
        ));
    }
    drop(reader);
    served.close(&mut tally);
    let eps = elems / (ingest.flushed - start).as_secs_f64();
    Ok(Outcome {
        tally,
        e2e: e2e(
            eps,
            &measured,
            &setups,
            stats.bytes_sent as f64 / elems,
            stats.requests_sent as f64 * 1e3 / elems,
        ),
        layers,
        traced_eps: traced.then(|| rate_in(traced_from, total) / rate_in(warm, traced_from) * eps),
        samples: vec![("query_us", measured.len()), ("setup_s", setups.len())],
        series: vec![
            ("query_p50_us_per_s", per_second(&reads, 0.5)),
            ("query_p99_us_per_s", per_second(&reads, 0.99)),
            ("setup_s", setups),
        ],
    })
}

/// The `q`-quantile of the read latencies due in each whole second.
fn per_second(reads: &[(f64, f64)], q: f64) -> Vec<f64> {
    let secs = reads.last().map_or(0, |r| r.0 as usize + 1);
    (0..secs)
        .map(|sec| {
            let xs: Vec<f64> = reads
                .iter()
                .filter(|r| r.0 as usize == sec)
                .map(|r| r.1)
                .collect();
            quantile(&xs, q)
        })
        .collect()
}

/// What connection A's open loop recorded.
struct IngestLog {
    tally: Tally,
    lag_max: Duration,
    /// When each batch's send returned, in seconds from the start.
    done: Vec<f64>,
    last_send: Instant,
    flushed: Instant,
}

/// `cluster_k4`: `LocalCluster` with k = 4 per repetition, the stream
/// routed round-robin one element at a time, then the coordinator's
/// sample, which must equal the centralized bottom-s of the whole
/// stream. Read latency is timed after that, outside the throughput
/// window, over `cluster_reads` further `sample()` calls, each checked
/// too. Repetitions cycle through the inputs (each its own stream and
/// hash seed), and the message count is their median. A short warm-up
/// precedes the measured repetitions; traced runs alternate untraced
/// and traced repetitions, each pair on one input.
pub fn cluster(
    input: &gen::ClusterInput,
    z: &Sizes,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let (mut setups, mut plain, mut with_spans, mut reads) = (vec![], vec![], vec![], vec![]);
    let mut steals = Vec::new();
    let mut msgs = vec![None; input.specs.len()];
    let mut layers = Vec::new();
    let started = Instant::now();
    for rep in 0usize.. {
        let warmup = rep == 0;
        let traced_rep = traced && rep % 2 == 0 && rep > 0;
        let pair = if traced {
            rep.saturating_sub(1) / 2
        } else {
            rep.saturating_sub(1)
        };
        let which = pair % input.specs.len();
        let stream = &input.streams[which];
        let stream = if warmup {
            &stream[..stream.len() / 10]
        } else {
            &stream[..]
        };
        let t0 = Instant::now();
        let spec = ClusterSpec::new(input.specs[which], SITES);
        let mut cluster = LocalCluster::spawn(spec).map_err(|e| format!("cluster spawn: {e:?}"))?;
        let setup = t0.elapsed().as_secs_f64();
        if traced_rep {
            trace::clear();
        }
        trace::set_enabled(traced_rep);
        let handle: &mut ClusterHandle = cluster.handle();
        let t1 = RunClock::start();
        for &e in stream {
            let _s = span("ClusterHandle::observe_routed");
            tally.check("ClusterHandle::observe_routed", handle.observe_routed(e));
        }
        let last = {
            let _s = span("ClusterHandle::sample");
            tally.check("ClusterHandle::sample", handle.sample())
        };
        let (secs, steal) = t1.read();
        let eps = stream.len() as f64 / secs;
        let stats = tally.check("ClusterHandle::stats", handle.stats());
        let mut rep_reads = Vec::with_capacity(z.cluster_reads);
        if !warmup {
            let want = &input.expected[which];
            if let Some(sample) = last {
                tally.expect_eq("cluster_k4 final sample", &sample, want);
            }
            if let Some(stats) = &stats {
                msgs[which] =
                    Some(stats.counters.total_messages() as f64 * 1e3 / stream.len() as f64);
            }
            for _ in 0..z.cluster_reads {
                let q = Instant::now();
                let got = {
                    let _s = span("ClusterHandle::sample");
                    handle.sample()
                };
                rep_reads.push(us(q.elapsed()));
                if let Some(sample) = tally.check("ClusterHandle::sample", got) {
                    tally.expect_eq("cluster_k4 read", &sample, want);
                }
            }
        }
        trace::set_enabled(false);
        if traced_rep {
            let d = gen::distinct(stream.iter().copied());
            layers = cluster_layers(
                stats.as_ref(),
                &trace::spans(),
                eps,
                input.specs[which].s,
                d,
            );
        }
        tally.check("LocalCluster::shutdown", cluster.shutdown());
        if !warmup {
            if traced_rep {
                with_spans.push(eps);
            } else {
                plain.push(eps);
                steals.push(steal);
                setups.push(setup);
                reads.extend(rep_reads);
            }
        }
        // A traced run reports no message count, so it need not visit
        // every input.
        let enough = plain.len() >= 3
            && if traced {
                with_spans.len() >= 2
            } else {
                msgs.iter().all(Option::is_some)
            };
        if enough && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let msgs: Vec<f64> = msgs.into_iter().flatten().collect();
    // The workload's own frames: one per observation and the final read
    // of each stream (the latency reads after it are the benchmark's,
    // not the workload's).
    let observe_bytes: usize = input
        .streams
        .iter()
        .flatten()
        .map(|&element| ClusterRequest::SiteObserve { element }.encode().len())
        .sum();
    let sample_bytes = input.streams.len() * ClusterRequest::Sample.encode().len();
    let elems = input.streams.iter().map(Vec::len).sum::<usize>();
    let wire = (observe_bytes + sample_bytes) as f64 / elems as f64;
    Ok(Outcome {
        tally,
        e2e: e2e(median(&plain), &reads, &setups, wire, median(&msgs)),
        layers,
        traced_eps: traced.then(|| median(&with_spans)),
        samples: vec![
            ("throughput_eps", plain.len()),
            ("query_us", reads.len()),
            ("setup_s", setups.len()),
        ],
        series: vec![
            ("throughput_eps", plain),
            ("steal_share", steals),
            ("msgs_per_kelem", msgs),
            ("setup_s", setups),
        ],
    })
}

/// The cluster layer's metrics from its stats and observe spans.
pub fn cluster_layers(
    stats: Option<&dds_cluster::ClusterStats>,
    spans: &[trace::Span],
    eps: f64,
    s: usize,
    distinct: u64,
) -> Vec<Metric> {
    let (up, down, up_bytes) = stats.map_or((0, 0, 0), |st| {
        let c = &st.counters;
        let up_bytes = (0..c.sites())
            .map(|i| c.up_bytes_for(dds_sim::SiteId(i)))
            .sum::<u64>();
        (c.up_messages(), c.down_messages(), up_bytes)
    });
    let bound = dds_core::bounds::lemma4_upper(SITES, s, distinct);
    let rtt = floats(&trace::durations(spans, "ClusterHandle::observe_routed"));
    vec![
        metric("cluster.observe_rtt_us_p50", median(&rtt) / 1e3, "us"),
        metric("cluster.ns_per_elem", 1e9 / eps, "ns"),
        metric("cluster.up_msgs", up as f64, "count"),
        metric("cluster.down_msgs", down as f64, "count"),
        metric("cluster.up_bytes", up_bytes as f64, "B"),
        metric("cluster.lemma4_ratio", (up + down) as f64 / bound, "ratio"),
    ]
}

/// Advance `handle` to `slot` if it is behind.
pub fn advance_to(handle: &mut ClusterHandle, slot: Slot, tally: &mut Tally) {
    if handle.now() < slot {
        let _s = span("ClusterHandle::advance_to");
        tally.check("ClusterHandle::advance_to", handle.advance_to(slot));
    }
}
