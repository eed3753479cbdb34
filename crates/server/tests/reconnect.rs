//! Reconnect/replay contract: a client configured with
//! `ClientConfig { reconnect: true, .. }` survives a server death by
//! redialing and replaying exactly the pipelined ingest frames whose
//! acks it never read — so a replacement server restored from a
//! flush-barrier checkpoint ends byte-identical to an uninterrupted
//! in-process twin: nothing lost, nothing applied twice. `ShutDown`
//! stays final: an engine that said goodbye is an answer, not an
//! outage, and must never trigger a redial.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_engine::{Engine, EngineConfig, EngineError, TenantId};
use dds_proto::EngineHost;
use dds_server::{Client, ClientConfig, Server, ServerConfig};
use dds_sim::Element;

fn spec() -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, 8, 40_404)
}

fn sock_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dds-reconnect-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{tag}.sock"))
}

fn retrying() -> ClientConfig {
    ClientConfig {
        reconnect: true,
        max_retries: 10,
        backoff: Duration::from_millis(20),
    }
}

#[test]
fn killed_server_restarted_from_checkpoint_resumes_with_no_double_apply() {
    const TENANTS: u64 = 12;
    let path = sock_path("checkpointed");

    let first = Server::bind_unix_with(
        &path,
        Arc::new(EngineHost::new(Engine::spawn(
            EngineConfig::new(spec()).with_shards(2),
        ))),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind first server");
    let client = Client::connect_unix(&path)
        .expect("connect")
        .with_batch_capacity(8)
        .with_config(retrying());
    // The twin sees the whole stream uninterrupted; at the end the
    // served engine must match it element for element.
    let twin = Engine::spawn(EngineConfig::new(spec()).with_shards(2));

    // Phase 1: ingest, then checkpoint at a flush barrier — the barrier
    // drains every pipelined ack, so the replay window is empty and the
    // checkpoint covers exactly what was sent.
    for x in 0..400u64 {
        let t = TenantId(x % TENANTS);
        client.observe(t, Element(x)).expect("phase-1 ingest");
        twin.observe(t, Element(x));
    }
    client.flush().expect("phase-1 barrier");
    let document = client.checkpoint().expect("checkpoint at the barrier");
    assert_eq!(client.stats().acks_pending, 0, "barrier left acks behind");

    // Phase 2: keep ingesting past the checkpoint *without* a barrier —
    // these frames sit in the replay window, acks unread.
    for x in 400..720u64 {
        let t = TenantId(x % TENANTS);
        client.observe(t, Element(x)).expect("phase-2 ingest");
        twin.observe(t, Element(x));
    }

    // Kill the server mid-ingest, losing everything after the
    // checkpoint, and bring up a replacement restored from it on the
    // same path.
    let _ = first.shutdown();
    let restored = Engine::restore(&document).expect("restore from checkpoint");
    let second = Server::bind_unix_with(
        &path,
        Arc::new(EngineHost::new(restored)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind replacement server");

    // Phase 3: the next calls hit the dead socket, redial, replay the
    // phase-2 window against the restored engine, and keep going.
    for x in 720..900u64 {
        let t = TenantId(x % TENANTS);
        client.observe(t, Element(x)).expect("phase-3 ingest");
        twin.observe(t, Element(x));
    }
    client.flush().expect("post-recovery barrier");
    twin.flush();

    assert_eq!(client.stats().reconnects, 1, "exactly one redial");

    // Nothing lost, nothing doubled: the recovered server matches the
    // uninterrupted twin exactly — samples, views, and element counts.
    for t in 0..TENANTS {
        let tenant = TenantId(t);
        assert_eq!(
            client.snapshot(tenant).expect("recovered snapshot"),
            twin.snapshot(tenant).expect("twin snapshot"),
            "tenant {t} diverged after recovery"
        );
        assert_eq!(
            client.snapshot_view(tenant, None).expect("recovered view"),
            twin.snapshot_view(tenant, None).expect("twin view"),
            "tenant {t} view diverged after recovery"
        );
    }
    let remote = client.metrics().expect("metrics");
    assert_eq!(remote.total_elements(), twin.metrics().total_elements());

    let _ = twin.shutdown();
    let _ = second.shutdown();
}

#[test]
fn shutdown_stays_final_and_is_never_retried() {
    let path = sock_path("final");
    let server = Server::bind_unix_with(
        &path,
        Arc::new(EngineHost::new(Engine::spawn(EngineConfig::new(spec())))),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let client = Client::connect_unix(&path)
        .expect("connect")
        .with_config(retrying());

    client.observe(TenantId(1), Element(1)).expect("ingest");
    client.flush().expect("barrier");
    client.shutdown_engine().expect("goodbye");

    // The engine is gone but the server is not: every later call gets
    // the typed ShutDown answer — no redial, no replay.
    let err = client.snapshot(TenantId(1)).expect_err("engine is down");
    assert!(matches!(err, EngineError::ShutDown), "got {err:?}");
    assert_eq!(client.stats().reconnects, 0, "ShutDown must not redial");

    let _ = server.shutdown();
}

#[test]
fn reconnect_off_surfaces_the_transport_error() {
    let path = sock_path("off");
    let server = Server::bind_unix_with(
        &path,
        Arc::new(EngineHost::new(Engine::spawn(EngineConfig::new(spec())))),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let client = Client::connect_unix(&path).expect("connect");
    client.observe(TenantId(1), Element(1)).expect("ingest");
    client.flush().expect("barrier");

    let _ = server.shutdown();
    let err = client.flush().expect_err("server is gone");
    assert!(matches!(err, EngineError::Transport(_)), "got {err:?}");
}

#[test]
fn a_batch_shipped_after_a_failed_buffer_flush_is_not_lost() {
    let path = sock_path("batch-after-flush");
    let serve = |engine: Engine| {
        Server::bind_unix_with(
            &path,
            Arc::new(EngineHost::new(engine)),
            ServerConfig::Evented { workers: 1 },
        )
        .expect("bind")
    };
    let first = serve(Engine::spawn(EngineConfig::new(spec())));
    let client = Client::connect_unix(&path)
        .expect("connect")
        .with_batch_capacity(1024)
        .with_config(retrying());
    let twin = Engine::spawn(EngineConfig::new(spec()));
    client.flush().expect("barrier");
    let document = client.checkpoint().expect("checkpoint at the barrier");

    // 600 observations wait in the client's local buffer: a frame too
    // big for the write buffer, so shipping it hits the dead socket at
    // once.
    for x in 0..600u64 {
        client
            .observe(TenantId(x % 5), Element(x))
            .expect("buffered");
        twin.observe(TenantId(x % 5), Element(x));
    }
    let _ = first.shutdown();
    let second = serve(Engine::restore(&document).expect("restore"));

    // The buffer flush fails, recovery replays it, and the batch itself
    // must still be sent.
    let batch: Vec<(TenantId, Element)> = (600..800u64)
        .map(|x| (TenantId(x % 5), Element(x)))
        .collect();
    client.observe_batch(batch.iter().copied()).expect("batch");
    twin.observe_batch(batch);
    client.flush().expect("post-recovery barrier");
    twin.flush();

    assert_eq!(client.stats().reconnects, 1, "exactly one redial");
    assert_eq!(
        client.metrics().expect("metrics").total_elements(),
        twin.metrics().total_elements(),
        "the batch after the failed flush was dropped"
    );
    for t in 0..5 {
        assert_eq!(
            client.snapshot(TenantId(t)).expect("recovered snapshot"),
            twin.snapshot(TenantId(t)).expect("twin snapshot"),
        );
    }
    let _ = twin.shutdown();
    let _ = second.shutdown();
}
