//! The evented server's own contract suite: byte-exactness with an
//! in-process twin, twin-exactness with the threaded server on the
//! same workload, pipelining through the event loop, many idle
//! connections on one listener, malformed-frame handling, and the
//! loop's reactor telemetry.

use std::sync::Arc;

use dds_core::sampler::{SamplerKind, SamplerSpec};
use dds_data::{MultiTenantStream, TraceProfile};
use dds_engine::{Engine, EngineConfig, TenantId};
use dds_proto::EngineHost;
use dds_server::{Client, Server, ServerConfig};
use dds_sim::Element;

fn infinite_spec() -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Infinite, 8, 20_260_728)
}

fn sliding_spec() -> SamplerSpec {
    SamplerSpec::new(SamplerKind::Sliding { window: 16 }, 1, 515)
}

fn serve_evented(spec: SamplerSpec, shards: usize) -> (Server, Client) {
    let engine = Engine::spawn(EngineConfig::new(spec).with_shards(shards));
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 2 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("tcp endpoint");
    let client = Client::connect_tcp(addr).expect("connect");
    (server, client)
}

fn feed(tenants: u64, seed: u64) -> Vec<(TenantId, Element)> {
    let per_tenant = TraceProfile {
        name: "evented-loopback",
        total: 60,
        distinct: 25,
    };
    MultiTenantStream::new(tenants, per_tenant, seed)
        .with_shared_ids(200)
        .map(|(t, e)| (TenantId(t), e))
        .collect()
}

#[test]
fn evented_server_is_byte_exact_with_in_process_twin() {
    const TENANTS: u64 = 120;
    let (server, client) = serve_evented(infinite_spec(), 4);
    let client = client.with_batch_capacity(64);
    let twin = Engine::spawn(EngineConfig::new(infinite_spec()).with_shards(4));

    for (t, e) in feed(TENANTS, 9) {
        client.observe(t, e).expect("wire ingest");
        twin.observe(t, e);
    }
    client.flush().expect("wire barrier");
    twin.flush();

    for t in 0..TENANTS {
        let remote = client.snapshot(TenantId(t)).expect("tenant hosted");
        assert_eq!(remote, twin.snapshot(TenantId(t)).expect("twin hosts"));
        let rv = client.snapshot_view(TenantId(t), None).expect("view");
        let tv = twin.snapshot_view(TenantId(t), None).expect("twin view");
        assert_eq!(rv, tv, "tenant {t} views diverged");
    }
    assert_eq!(client.snapshot_all().expect("census"), twin.snapshot_all());

    let remote_metrics = client.metrics().expect("metrics");
    let twin_metrics = twin.metrics();
    assert_eq!(
        remote_metrics.total_elements(),
        twin_metrics.total_elements()
    );
    assert_eq!(remote_metrics.tenants(), twin_metrics.tenants());

    // Byte accounting holds through the event loop: client and server
    // counted the same frames.
    let cs = client.stats();
    let ss = server.stats();
    assert_eq!(cs.bytes_sent, ss.bytes_received, "request bytes disagree");
    assert_eq!(cs.bytes_received, ss.bytes_sent, "response bytes disagree");
    assert_eq!(cs.elements_observed, TENANTS * 60);

    let _ = twin.shutdown();
    let _ = client.shutdown_engine().expect("served engine stops");
    let _ = server.shutdown();
}

#[test]
fn evented_and_threaded_servers_are_twins_on_the_same_workload() {
    const TENANTS: u64 = 40;
    let trace = feed(TENANTS, 31);

    let run = |config: ServerConfig| {
        let engine = Engine::spawn(EngineConfig::new(sliding_spec()).with_shards(2));
        let server =
            Server::bind_tcp_with("127.0.0.1:0", Arc::new(EngineHost::new(engine)), config)
                .expect("bind");
        let client = Client::connect_tcp(server.local_addr().expect("addr"))
            .expect("connect")
            .with_batch_capacity(32);
        for &(t, e) in &trace {
            client.observe(t, e).expect("ingest");
        }
        client.flush().expect("barrier");
        let samples: Vec<_> = (0..TENANTS)
            .map(|t| client.snapshot(TenantId(t)).expect("snapshot"))
            .collect();
        let stats = client.stats();
        let server_stats = server.shutdown();
        (samples, stats, server_stats)
    };

    let (threaded_samples, threaded_client, threaded_server) = run(ServerConfig::Threaded);
    let (evented_samples, evented_client, evented_server) =
        run(ServerConfig::Evented { workers: 2 });

    // Same workload, same responses — the servers are byte-twins.
    assert_eq!(threaded_samples, evented_samples);
    assert_eq!(threaded_client.bytes_sent, evented_client.bytes_sent);
    assert_eq!(
        threaded_client.bytes_received,
        evented_client.bytes_received
    );
    assert_eq!(threaded_server.requests, evented_server.requests);
    assert_eq!(
        threaded_server.bytes_received,
        evented_server.bytes_received
    );
    assert_eq!(threaded_server.bytes_sent, evented_server.bytes_sent);
}

#[test]
fn many_idle_connections_stay_live_on_one_listener() {
    let engine = Engine::spawn(EngineConfig::new(infinite_spec()));
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    // A crowd of idle clients, then one active client doing real work
    // through the same loop.
    let idle: Vec<Client> = (0..256)
        .map(|_| Client::connect_tcp(addr).expect("idle connect"))
        .collect();
    let active = Client::connect_tcp(addr).expect("active connect");
    for x in 0..500u64 {
        active.observe(TenantId(x % 7), Element(x)).expect("ingest");
    }
    active.flush().expect("barrier");
    assert_eq!(active.snapshot(TenantId(3)).expect("snapshot").len(), 8);

    // Every idle connection still answers a request.
    for (i, c) in idle.iter().enumerate() {
        assert!(
            c.metrics().is_ok(),
            "idle connection {i} died while another was served"
        );
    }

    // The loop's gauge sees the whole crowd.
    let page = server.telemetry().render_text();
    let gauge_line = page
        .lines()
        .find(|l| l.starts_with("server_loop_connections"))
        .expect("loop connection gauge exported");
    let count: u64 = gauge_line
        .rsplit(' ')
        .next()
        .expect("gauge value")
        .parse()
        .expect("numeric gauge");
    assert!(count >= 257, "gauge shows {count}, expected >= 257");

    drop(idle);
    drop(active);
    let _ = server.shutdown();
}

#[test]
fn malformed_frame_gets_typed_error_then_close() {
    use std::io::{Read, Write};

    let engine = Engine::spawn(EngineConfig::new(infinite_spec()));
    let server = Server::bind_tcp_with(
        "127.0.0.1:0",
        Arc::new(EngineHost::new(engine)),
        ServerConfig::Evented { workers: 1 },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");

    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write junk");
    // The server answers exactly one typed error frame, then closes.
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read until close");
    let (op, _payload) = dds_proto::frame::decode_frame(&reply).expect("one well-formed frame");
    assert_eq!(op, dds_proto::opcode::ERROR);

    // The loop is unharmed: a real client still gets served.
    let client = Client::connect_tcp(addr).expect("connect");
    client.metrics().expect("server alive after garbage peer");
    let _ = server.shutdown();
}

#[test]
fn a_version_2_peer_is_refused_and_the_server_keeps_serving() {
    use std::io::{Read, Write};

    use dds_engine::EngineError;
    use dds_hash::fnv::{fnv1a_64_update, FNV1A_64_OFFSET};
    use dds_proto::{decode_outcome, opcode, Request};

    let (server, client) = serve_evented(infinite_spec(), 2);
    let addr = server.local_addr().expect("addr");
    client
        .observe_batch((0..100).map(|x| (TenantId(1), Element(x))))
        .expect("v3 ingest");
    client.flush().expect("barrier");

    // An ObserveBatch frame as a version-2 peer writes it: the same
    // layout, version 2, and an FNV-1a 64 trailer.
    let payload = Request::ObserveBatch {
        batch: vec![(TenantId(2), Element(7))],
    }
    .payload();
    let mut v2 = b"DDSP".to_vec();
    v2.extend_from_slice(&2u16.to_le_bytes());
    v2.push(opcode::OBSERVE_BATCH);
    v2.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    v2.extend_from_slice(&payload);
    let check = fnv1a_64_update(
        fnv1a_64_update(FNV1A_64_OFFSET, &[opcode::OBSERVE_BATCH]),
        &payload,
    );
    v2.extend_from_slice(&check.to_le_bytes());

    // The v2 connection gets one typed error frame, then is closed.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(&v2).expect("write v2 frame");
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).expect("read until close");
    let (op, body) = dds_proto::frame::decode_frame(&reply).expect("one v3 error frame");
    match decode_outcome(op, body).expect("well-formed outcome") {
        Err(EngineError::Format(msg)) => assert!(msg.contains("version 2"), "{msg}"),
        other => panic!("v2 peer answered {other:?}"),
    }

    // Nothing of the v2 frame was applied, and the live v3 connection
    // keeps being served.
    client
        .observe_batch((100..200).map(|x| (TenantId(1), Element(x))))
        .expect("v3 ingest after the v2 peer");
    client.flush().expect("barrier");
    assert_eq!(client.metrics().expect("metrics").total_elements(), 200);
    assert_eq!(
        client.snapshot(TenantId(2)),
        Err(EngineError::UnknownTenant(TenantId(2)))
    );
    let _ = server.shutdown();
}

#[test]
fn reactor_telemetry_is_exported_and_merged_over_the_wire() {
    let (server, client) = serve_evented(infinite_spec(), 1);
    for x in 0..200u64 {
        client.observe(TenantId(0), Element(x)).expect("ingest");
    }
    client.flush().expect("barrier");

    // Local scrape: the loop's own instruments are registered.
    let page = server.telemetry().render_text();
    for name in [
        "server_poll_wakeups_total",
        "server_poll_ready_events",
        "server_loop_connections",
        "server_write_buffer_high_water_bytes",
    ] {
        assert!(page.contains(name), "missing {name} in:\n{page}");
    }

    // Remote scrape: a Telemetry request merges the same registry into
    // its reply, so the wire view includes the reactor metrics too.
    let snapshot = client.telemetry().expect("telemetry over the wire");
    let wire_page = snapshot.render_text();
    assert!(wire_page.contains("server_poll_wakeups_total"));
    assert!(wire_page.contains("server_loop_connections"));

    let _ = server.shutdown();
}
