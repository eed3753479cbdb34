//! The typed wire client: the engine's API at the end of a socket.
//!
//! [`Client`] speaks the `dds-proto` dialect over TCP or a Unix socket
//! and exposes the same surface as the in-process engine — `observe*`,
//! `advance`, `snapshot*`, `flush`, `metrics`, `checkpoint`, `restore`,
//! `shutdown_engine` — with the same [`EngineError`] taxonomy, so a
//! caller generic over [`EngineService`] cannot tell which side of the
//! wire it is on.
//!
//! Two mechanisms keep the per-observation wire cost competitive with
//! in-process ingest:
//!
//! * **Client-side batching.** `observe`/`observe_at` buffer locally
//!   and ship one `ObserveBatch{,At}` frame per
//!   [`Client::with_batch_capacity`] elements (a slot change or any
//!   query flushes first, preserving per-tenant order and clock
//!   monotonicity). Frame overhead amortizes: 35 bytes per element at
//!   capacity 1 versus ~16 at capacity 256 — `ext_engine_wire` sweeps
//!   exactly this.
//! * **Pipelining.** Ingest frames are fired without waiting for their
//!   acks; the server answers strictly in order, so the client counts
//!   outstanding acks and drains them before the next query reply. An
//!   error that comes back for a pipelined frame is *deferred* and
//!   surfaced by the next synchronous call.
//!
//! Every frame in either direction is counted in [`ClientStats`]
//! (`bytes_sent` / `bytes_received` include frame overhead), making the
//! served system byte-accountable end to end, like the paper's message
//! counters.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use dds_engine::{EngineError, EngineMetrics, EngineReport, TenantId, TenantView};
use dds_obs::TelemetrySnapshot;
use dds_proto::frame::{read_frame_into, HEADER_BYTES, OVERHEAD_BYTES};
use dds_proto::message::{decode_outcome, encode_batch_request, Request, Response};
use dds_proto::EngineService;
use dds_sim::{Element, Slot};

/// Reconnect policy for a [`Client`], set with
/// [`Client::with_config`]. Off by default: a transport failure is
/// surfaced to the caller as [`EngineError::Transport`].
///
/// With `reconnect` on, a transport failure triggers up to
/// `max_retries` redials of the original endpoint (sleeping `backoff`
/// before each), and on success the client **replays every pipelined
/// ingest frame whose ack it has not yet read** (the retained window is
/// the ack-pipelining window, 512 frames) before retrying the
/// interrupted call. Replay gives at-least-once ingest against a
/// server that kept its state; paired with the checkpoint discipline —
/// checkpoint at a flush barrier, restore the replacement server from
/// it — it gives exactly-once, because every replayed frame postdates
/// the checkpoint. [`EngineError::ShutDown`] is final and is never
/// retried: a served engine that said goodbye stays gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Redial and replay on transport failure.
    pub reconnect: bool,
    /// Redial attempts per failure before giving up.
    pub max_retries: u32,
    /// Sleep before each redial attempt.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            reconnect: false,
            max_retries: 5,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Traffic accounting for one client connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Request frames sent (batched observes count once per frame).
    pub requests_sent: u64,
    /// Response frames received (including pipelined ingest acks).
    pub responses_received: u64,
    /// Bytes written to the wire, frame overhead included.
    pub bytes_sent: u64,
    /// Bytes read off the wire, frame overhead included.
    pub bytes_received: u64,
    /// Ingest frames currently awaiting their pipelined ack.
    pub acks_pending: u64,
    /// Elements handed to `observe*` since connect (the denominator of
    /// bytes-per-observation).
    pub elements_observed: u64,
    /// Successful redials (replayed frames count again in `bytes_sent`
    /// and `requests_sent` — they did hit the wire again).
    pub reconnects: u64,
}

/// The buffered (not yet sent) ingest, tagged by clock mode: untimed
/// and timed batches cannot share a frame, and two slots cannot share a
/// timed frame.
enum PendingBatch {
    Empty,
    Untimed(Vec<(TenantId, Element)>),
    At(Slot, Vec<(TenantId, Element)>),
}

struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: BufWriter<Box<dyn Write + Send>>,
    pending: PendingBatch,
    /// Error that came back for a pipelined ingest frame; surfaced by
    /// the next synchronous call.
    deferred: Option<EngineError>,
    /// Reusable response-payload buffer: every inbound frame is read
    /// into this one allocation (acks are empty; query replies reuse
    /// whatever it has grown to).
    read_buf: Vec<u8>,
    /// Reusable outbound frame buffer: every request is encoded in place
    /// here and sent with one `write_all`.
    frame: Vec<u8>,
    /// Encoded pipelined ingest frames whose acks have not been read
    /// yet — the replay window. Populated only when reconnect is on: a
    /// sent frame buffer moves in here and is dropped once its ack is
    /// read. Bounded by the ack-pipelining window (512 frames).
    unacked: VecDeque<Vec<u8>>,
    stats: ClientStats,
}

/// How to re-reach the server after a broken connection.
enum Redial {
    Tcp(SocketAddr),
    #[cfg(unix)]
    Unix(PathBuf),
}

/// A typed connection to a [`crate::Server`].
///
/// All methods take `&self` (a mutex serializes the connection), so a
/// client can be shared across threads like the engine itself.
pub struct Client {
    conn: Mutex<Conn>,
    redial: Redial,
    config: ClientConfig,
    batch_capacity: usize,
}

impl Client {
    fn from_halves(
        reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
        redial: Redial,
    ) -> Client {
        Client {
            conn: Mutex::new(Conn {
                reader: BufReader::new(reader),
                writer: BufWriter::new(writer),
                pending: PendingBatch::Empty,
                deferred: None,
                read_buf: Vec::new(),
                frame: Vec::new(),
                unacked: VecDeque::new(),
                stats: ClientStats::default(),
            }),
            redial,
            config: ClientConfig::default(),
            batch_capacity: 1,
        }
    }

    /// Connect over TCP.
    ///
    /// # Errors
    /// [`EngineError::Transport`] on connect failure.
    pub fn connect_tcp(addr: impl std::net::ToSocketAddrs) -> Result<Client, EngineError> {
        let stream = TcpStream::connect(addr)?;
        // Small frames back-to-back are the common case; don't let
        // Nagle hold acks hostage.
        let _ = stream.set_nodelay(true);
        let redial = Redial::Tcp(stream.peer_addr()?);
        let read_half = stream.try_clone()?;
        Ok(Client::from_halves(
            Box::new(read_half),
            Box::new(stream),
            redial,
        ))
    }

    /// Connect over a Unix-domain socket.
    ///
    /// # Errors
    /// [`EngineError::Transport`] on connect failure.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Client, EngineError> {
        let stream = UnixStream::connect(&path)?;
        let read_half = stream.try_clone()?;
        Ok(Client::from_halves(
            Box::new(read_half),
            Box::new(stream),
            Redial::Unix(path.as_ref().to_path_buf()),
        ))
    }

    /// Buffer up to `capacity` observations per ingest frame
    /// (default 1 = one frame per observation). Larger capacities
    /// amortize the 19-byte frame overhead and the per-frame dispatch.
    #[must_use]
    pub fn with_batch_capacity(mut self, capacity: usize) -> Self {
        self.batch_capacity = capacity.max(1);
        self
    }

    /// Set the reconnect policy (see [`ClientConfig`]).
    #[must_use]
    pub fn with_config(mut self, config: ClientConfig) -> Self {
        self.config = config;
        self
    }

    /// Traffic counters so far (includes not-yet-flushed buffering in
    /// `elements_observed` but not in `bytes_sent`).
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.conn.lock().expect("client connection lock").stats
    }

    /// A tenant-bound convenience view.
    #[must_use]
    pub fn tenant(&self, tenant: TenantId) -> TenantHandle<'_> {
        TenantHandle {
            client: self,
            tenant,
        }
    }

    // -- ingest (buffered + pipelined) --------------------------------

    /// Observe one element at the tenant's current clock.
    ///
    /// # Errors
    /// Transport failures, or a deferred error from an earlier
    /// pipelined frame.
    pub fn observe(&self, tenant: TenantId, element: Element) -> Result<(), EngineError> {
        let mut conn = self.conn.lock().expect("client connection lock");
        conn.stats.elements_observed += 1;
        if matches!(conn.pending, PendingBatch::At(..)) {
            let sent = flush_pending(&mut conn, self.config.reconnect);
            self.ship(&mut conn, sent)?;
        }
        match &mut conn.pending {
            PendingBatch::Untimed(batch) => batch.push((tenant, element)),
            pending => *pending = PendingBatch::Untimed(vec![(tenant, element)]),
        }
        let sent = self.flush_if_full(&mut conn);
        self.ship(&mut conn, sent)
    }

    /// Observe one element stamped at slot `now`.
    ///
    /// # Errors
    /// As [`Client::observe`].
    pub fn observe_at(
        &self,
        tenant: TenantId,
        element: Element,
        now: Slot,
    ) -> Result<(), EngineError> {
        let mut conn = self.conn.lock().expect("client connection lock");
        conn.stats.elements_observed += 1;
        let same_slot = matches!(&conn.pending, PendingBatch::At(slot, _) if *slot == now);
        if !same_slot && !matches!(conn.pending, PendingBatch::Empty) {
            let sent = flush_pending(&mut conn, self.config.reconnect);
            self.ship(&mut conn, sent)?;
        }
        match &mut conn.pending {
            PendingBatch::At(_, batch) => batch.push((tenant, element)),
            pending => *pending = PendingBatch::At(now, vec![(tenant, element)]),
        }
        let sent = self.flush_if_full(&mut conn);
        self.ship(&mut conn, sent)
    }

    /// Ship a prepared batch as one frame (after flushing any buffer).
    /// The frame is encoded straight from the iterator into the
    /// connection's reusable frame buffer: no batch or payload copy.
    ///
    /// # Errors
    /// As [`Client::observe`].
    pub fn observe_batch(
        &self,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Result<(), EngineError> {
        self.send_batch(None, batch)
    }

    /// Ship a prepared single-slot batch as one frame, like
    /// [`Client::observe_batch`].
    ///
    /// # Errors
    /// As [`Client::observe`].
    pub fn observe_batch_at(
        &self,
        now: Slot,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Result<(), EngineError> {
        self.send_batch(Some(now), batch)
    }

    fn send_batch(
        &self,
        now: Option<Slot>,
        batch: impl IntoIterator<Item = (TenantId, Element)>,
    ) -> Result<(), EngineError> {
        let mut batch = batch.into_iter().peekable();
        if batch.peek().is_none() {
            return Ok(());
        }
        let mut conn = self.conn.lock().expect("client connection lock");
        let flushed = flush_pending(&mut conn, self.config.reconnect);
        self.ship(&mut conn, flushed)?;
        let sent = match encode_batch_request(&mut conn.frame, now, batch) {
            Ok(n) => {
                conn.stats.elements_observed += n as u64;
                pipeline_frame(&mut conn, self.config.reconnect)
            }
            Err(_) => Err(oversized(&mut conn)),
        };
        self.ship(&mut conn, sent)
    }

    /// Raise the served engine's global clock to `now` (pipelined, like
    /// ingest).
    ///
    /// # Errors
    /// As [`Client::observe`].
    pub fn advance(&self, now: Slot) -> Result<(), EngineError> {
        let mut conn = self.conn.lock().expect("client connection lock");
        let flushed = flush_pending(&mut conn, self.config.reconnect);
        self.ship(&mut conn, flushed)?;
        let sent = send_pipelined(&mut conn, &Request::Advance { now }, self.config.reconnect);
        self.ship(&mut conn, sent)
    }

    fn flush_if_full(&self, conn: &mut Conn) -> Result<(), EngineError> {
        let len = match &conn.pending {
            PendingBatch::Empty => 0,
            PendingBatch::Untimed(b) | PendingBatch::At(_, b) => b.len(),
        };
        if len >= self.batch_capacity {
            flush_pending(conn, self.config.reconnect)?;
        }
        Ok(())
    }

    // -- reconnect ----------------------------------------------------

    /// Settle an ingest step: a transport failure recovers the
    /// connection, and because the failed frame is already in the
    /// replay window, the recovery *is* the retry.
    fn ship(&self, conn: &mut Conn, sent: Result<(), EngineError>) -> Result<(), EngineError> {
        match sent {
            Err(e) if self.recoverable(&e) => self.recover(conn, e),
            other => other,
        }
    }

    /// Only transport failures are worth redialing for. Engine errors —
    /// [`EngineError::ShutDown`] above all — are answers, not outages.
    fn recoverable(&self, err: &EngineError) -> bool {
        self.config.reconnect && matches!(err, EngineError::Transport(_))
    }

    /// Redial the original endpoint (bounded attempts with backoff),
    /// swap the new socket in, and replay the unacked window in order.
    fn recover(&self, conn: &mut Conn, cause: EngineError) -> Result<(), EngineError> {
        let mut last = cause;
        for _ in 0..self.config.max_retries {
            std::thread::sleep(self.config.backoff);
            let (reader, writer) = match dial(&self.redial) {
                Ok(halves) => halves,
                Err(e) => {
                    last = EngineError::from(e);
                    continue;
                }
            };
            conn.reader = BufReader::new(reader);
            conn.writer = BufWriter::new(writer);
            conn.stats.acks_pending = 0;
            // Replay what was sent but never acknowledged. Frames whose
            // acks were read are gone from the window — they are never
            // sent twice.
            let replayed = {
                let Conn {
                    unacked, writer, ..
                } = &mut *conn;
                unacked
                    .iter()
                    .try_fold(0u64, |n, frame| {
                        writer.write_all(frame)?;
                        Ok::<u64, std::io::Error>(n + frame.len() as u64)
                    })
                    .and_then(|n| writer.flush().map(|()| n))
            };
            match replayed {
                Ok(bytes) => {
                    conn.stats.reconnects += 1;
                    conn.stats.bytes_sent += bytes;
                    conn.stats.requests_sent += conn.unacked.len() as u64;
                    conn.stats.acks_pending = conn.unacked.len() as u64;
                    return Ok(());
                }
                Err(e) => last = EngineError::from(e),
            }
        }
        Err(last)
    }

    // -- synchronous requests -----------------------------------------

    /// Send one request and wait for its response, draining pipelined
    /// acks first — the raw request/response primitive every typed
    /// method builds on.
    ///
    /// # Errors
    /// The served engine's own error, a deferred pipelined error, or a
    /// transport/format failure.
    pub fn call_remote(&self, request: &Request) -> Result<Response, EngineError> {
        let mut conn = self.conn.lock().expect("client connection lock");
        let first = match flush_pending(&mut conn, self.config.reconnect) {
            Ok(()) => roundtrip(&mut conn, request),
            Err(e) => Err(e),
        };
        match first {
            Err(e) if self.recoverable(&e) => {
                // Recovery replayed the unacked ingest; the synchronous
                // request itself is re-sent by the retried roundtrip.
                // Queries are read-only, so the retry is idempotent; a
                // re-sent `Shutdown` answers `ShutDown`, which is final.
                self.recover(&mut conn, e)?;
                roundtrip(&mut conn, request)
            }
            other => other,
        }
    }

    /// Flush client buffers and run the engine's all-shards barrier:
    /// when this returns, every previously sent observation is applied.
    ///
    /// # Errors
    /// As [`Client::call_remote`].
    pub fn flush(&self) -> Result<(), EngineError> {
        expect_ack(self.call_remote(&Request::Flush)?)
    }

    /// One tenant's sample at the served watermark.
    ///
    /// # Errors
    /// [`EngineError::UnknownTenant`] if never observed; transport
    /// failures as [`Client::call_remote`].
    pub fn snapshot(&self, tenant: TenantId) -> Result<Vec<Element>, EngineError> {
        expect_sample(self.call_remote(&Request::Snapshot { tenant })?)
    }

    /// One tenant's sample as of slot `now`.
    ///
    /// # Errors
    /// As [`Client::snapshot`].
    pub fn snapshot_at(&self, tenant: TenantId, now: Slot) -> Result<Vec<Element>, EngineError> {
        expect_sample(self.call_remote(&Request::SnapshotAt { tenant, now })?)
    }

    /// One tenant's full [`TenantView`], optionally as of a slot.
    ///
    /// # Errors
    /// As [`Client::snapshot`].
    pub fn snapshot_view(
        &self,
        tenant: TenantId,
        at: Option<Slot>,
    ) -> Result<TenantView, EngineError> {
        match self.call_remote(&Request::SnapshotView { tenant, at })? {
            Response::View { view } => Ok(view),
            other => Err(unexpected(&other)),
        }
    }

    /// Every hosted tenant's sample, ascending by tenant id.
    ///
    /// # Errors
    /// As [`Client::call_remote`].
    pub fn snapshot_all(&self) -> Result<Vec<(TenantId, Vec<Element>)>, EngineError> {
        self.census(None)
    }

    /// Every hosted tenant's sample as of slot `at` — the consistent
    /// windowed census in one request.
    ///
    /// # Errors
    /// As [`Client::call_remote`].
    pub fn snapshot_all_at(&self, at: Slot) -> Result<Vec<(TenantId, Vec<Element>)>, EngineError> {
        self.census(Some(at))
    }

    fn census(&self, at: Option<Slot>) -> Result<Vec<(TenantId, Vec<Element>)>, EngineError> {
        match self.call_remote(&Request::SnapshotAll { at })? {
            Response::Census { tenants } => Ok(tenants),
            other => Err(unexpected(&other)),
        }
    }

    /// The served engine's per-shard metrics.
    ///
    /// # Errors
    /// As [`Client::call_remote`].
    pub fn metrics(&self) -> Result<EngineMetrics, EngineError> {
        match self.call_remote(&Request::Metrics)? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(unexpected(&other)),
        }
    }

    /// The full served telemetry snapshot: the engine registry's
    /// counters, gauges, histograms, and events, with the server's
    /// transport metrics merged in by the wire layer.
    ///
    /// # Errors
    /// As [`Client::call_remote`].
    pub fn telemetry(&self) -> Result<TelemetrySnapshot, EngineError> {
        match self.call_remote(&Request::Telemetry)? {
            Response::Telemetry { snapshot } => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// [`Client::telemetry`] rendered as Prometheus-style text
    /// exposition — scrape-shaped, one line per reading.
    ///
    /// # Errors
    /// As [`Client::call_remote`].
    pub fn telemetry_text(&self) -> Result<String, EngineError> {
        Ok(self.telemetry()?.render_text())
    }

    /// Fetch a whole-engine checkpoint document.
    ///
    /// # Errors
    /// As [`Client::call_remote`].
    pub fn checkpoint(&self) -> Result<Vec<u8>, EngineError> {
        match self.call_remote(&Request::Checkpoint)? {
            Response::CheckpointDocument { document } => Ok(document),
            other => Err(unexpected(&other)),
        }
    }

    /// Replace the served engine with one restored from `document`
    /// (requires the server to host an `EngineHost`).
    ///
    /// # Errors
    /// [`EngineError::Format`] if the document does not restore;
    /// [`EngineError::Unsupported`] if the server hosts a bare engine.
    pub fn restore(&self, document: &[u8]) -> Result<(), EngineError> {
        expect_ack(self.call_remote(&Request::Restore {
            document: document.to_vec(),
        })?)
    }

    /// Stop the served engine and fetch its final accounting. The
    /// connection stays open; later requests answer
    /// [`EngineError::ShutDown`].
    ///
    /// # Errors
    /// As [`Client::call_remote`].
    pub fn shutdown_engine(&self) -> Result<EngineReport, EngineError> {
        match self.call_remote(&Request::Shutdown)? {
            Response::Goodbye { report } => Ok(report),
            other => Err(unexpected(&other)),
        }
    }
}

impl Drop for Client {
    /// Best-effort: ship any locally buffered observations before the
    /// connection closes, so a dropped batching client does not
    /// silently discard data it accepted. Errors (and the unread acks)
    /// are ignored — call [`Client::flush`] when delivery must be
    /// confirmed.
    fn drop(&mut self) {
        if let Ok(conn) = self.conn.get_mut() {
            let _ = flush_pending(conn, false);
            let _ = conn.writer.flush();
        }
    }
}

impl EngineService for Client {
    /// A remote engine *is* an engine service: one synchronous
    /// request/response per call (typed methods add batching and
    /// pipelining on top).
    fn call(&self, request: Request) -> Result<Response, EngineError> {
        self.call_remote(&request)
    }
}

/// A client bound to one tenant — ergonomic for per-user call sites.
pub struct TenantHandle<'a> {
    client: &'a Client,
    tenant: TenantId,
}

impl TenantHandle<'_> {
    /// The bound tenant.
    #[must_use]
    pub fn id(&self) -> TenantId {
        self.tenant
    }

    /// Observe one element at the tenant's current clock.
    ///
    /// # Errors
    /// As [`Client::observe`].
    pub fn observe(&self, element: Element) -> Result<(), EngineError> {
        self.client.observe(self.tenant, element)
    }

    /// Observe one element stamped at slot `now`.
    ///
    /// # Errors
    /// As [`Client::observe_at`].
    pub fn observe_at(&self, element: Element, now: Slot) -> Result<(), EngineError> {
        self.client.observe_at(self.tenant, element, now)
    }

    /// This tenant's sample at the served watermark.
    ///
    /// # Errors
    /// As [`Client::snapshot`].
    pub fn snapshot(&self) -> Result<Vec<Element>, EngineError> {
        self.client.snapshot(self.tenant)
    }

    /// This tenant's sample as of slot `now`.
    ///
    /// # Errors
    /// As [`Client::snapshot_at`].
    pub fn snapshot_at(&self, now: Slot) -> Result<Vec<Element>, EngineError> {
        self.client.snapshot_at(self.tenant, now)
    }

    /// This tenant's full view, optionally as of a slot.
    ///
    /// # Errors
    /// As [`Client::snapshot_view`].
    pub fn view(&self, at: Option<Slot>) -> Result<TenantView, EngineError> {
        self.client.snapshot_view(self.tenant, at)
    }
}

// ---------------------------------------------------------------------
// Connection internals (free functions over `Conn` so methods holding
// the lock can call them without re-borrowing `self`).
// ---------------------------------------------------------------------

/// Dial the redial target afresh, returning boxed read/write halves.
fn dial(redial: &Redial) -> std::io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
    match redial {
        Redial::Tcp(addr) => {
            let stream = TcpStream::connect(addr)?;
            let _ = stream.set_nodelay(true);
            let read_half = stream.try_clone()?;
            Ok((Box::new(read_half), Box::new(stream)))
        }
        #[cfg(unix)]
        Redial::Unix(path) => {
            let stream = UnixStream::connect(path)?;
            let read_half = stream.try_clone()?;
            Ok((Box::new(read_half), Box::new(stream)))
        }
    }
}

/// Ship the buffered ingest, if any, as one pipelined frame. A
/// single-element untimed buffer uses the cheaper `Observe` shape.
fn flush_pending(conn: &mut Conn, retain: bool) -> Result<(), EngineError> {
    let request = match std::mem::replace(&mut conn.pending, PendingBatch::Empty) {
        PendingBatch::Empty => return Ok(()),
        PendingBatch::Untimed(batch) => match batch.as_slice() {
            [(tenant, element)] => Request::Observe {
                tenant: *tenant,
                element: *element,
            },
            _ => Request::ObserveBatch { batch },
        },
        PendingBatch::At(now, batch) => match batch.as_slice() {
            [(tenant, element)] => Request::ObserveAt {
                tenant: *tenant,
                element: *element,
                now,
            },
            _ => Request::ObserveBatchAt { now, batch },
        },
    };
    send_pipelined(conn, &request, retain)
}

/// Upper bound on outstanding pipelined acks. Without a cap, a caller
/// that only ever ingests would never read: the server's tiny ack
/// frames eventually fill its send buffer, it stops reading, both
/// sides' buffers fill, and the connection deadlocks. At the cap the
/// client flushes and drains down to half the window, keeping the ack
/// backlog bounded (~10 KiB) while still amortizing reads.
const MAX_ACKS_PENDING: u64 = 512;

/// Encode `request` and write it without waiting for its ack (up to
/// the pipelining window), like [`pipeline_frame`].
fn send_pipelined(conn: &mut Conn, request: &Request, retain: bool) -> Result<(), EngineError> {
    encode_request(conn, request)?;
    pipeline_frame(conn, retain)
}

/// Write the frame in `conn.frame` without waiting for its ack (up to
/// the pipelining window). With `retain`, the frame stays in the replay
/// window until its ack is read, so a reconnect can resend it.
fn pipeline_frame(conn: &mut Conn, retain: bool) -> Result<(), EngineError> {
    send_frame(conn, retain)?;
    conn.stats.acks_pending += 1;
    if conn.stats.acks_pending >= MAX_ACKS_PENDING {
        conn.writer.flush().map_err(EngineError::from)?;
        while conn.stats.acks_pending >= MAX_ACKS_PENDING / 2 {
            let outcome = read_outcome(conn)?;
            settle_ack(conn, outcome);
        }
    }
    Ok(())
}

/// Account one pipelined ack: its frame leaves the replay window and
/// an error it carries is deferred to the next synchronous call.
fn settle_ack(conn: &mut Conn, outcome: Result<Response, EngineError>) {
    conn.stats.acks_pending -= 1;
    conn.unacked.pop_front();
    if let Err(e) = outcome {
        conn.deferred.get_or_insert(e);
    }
}

/// Encode `request` into the connection's frame buffer.
fn encode_request(conn: &mut Conn, request: &Request) -> Result<(), EngineError> {
    match request.encode_into(&mut conn.frame) {
        Ok(_) => Ok(()),
        Err(_) => Err(oversized(conn)),
    }
}

/// Typed error instead of the frame layer's refusal: a caller handing
/// us an over-limit document (or a gigantic prepared batch) gets a
/// clean refusal and a still-usable connection. The unsealed frame's
/// allocation is released rather than kept as the frame buffer.
fn oversized(conn: &mut Conn) -> EngineError {
    let len = std::mem::take(&mut conn.frame).len() - HEADER_BYTES;
    EngineError::Unsupported(format!(
        "request payload of {len} bytes exceeds the {} byte frame limit",
        dds_proto::MAX_PAYLOAD
    ))
}

/// Frame buffers above this capacity (a restored checkpoint document)
/// are released after sending rather than kept for the next request.
const KEEP_FRAME_BYTES: usize = 1 << 20;

/// Write the frame in `conn.frame` with one `write_all` and count it.
/// With `retain`, the buffer moves into the replay window and is
/// written from there.
fn send_frame(conn: &mut Conn, retain: bool) -> Result<(), EngineError> {
    let frame = if retain {
        conn.unacked.push_back(std::mem::take(&mut conn.frame));
        conn.unacked.back().expect("frame just retained")
    } else {
        &conn.frame
    };
    conn.writer.write_all(frame).map_err(EngineError::from)?;
    conn.stats.requests_sent += 1;
    conn.stats.bytes_sent += frame.len() as u64;
    if conn.frame.capacity() > KEEP_FRAME_BYTES {
        conn.frame = Vec::new();
    }
    Ok(())
}

/// Read one outcome frame (response or typed error) into the
/// connection's reusable payload buffer.
fn read_outcome(conn: &mut Conn) -> Result<Result<Response, EngineError>, EngineError> {
    let op = read_frame_into(&mut conn.reader, &mut conn.read_buf)
        .map_err(EngineError::from)?
        .ok_or_else(|| EngineError::Transport("connection closed by server".into()))?;
    conn.stats.responses_received += 1;
    conn.stats.bytes_received += (OVERHEAD_BYTES + conn.read_buf.len()) as u64;
    decode_outcome(op, &conn.read_buf).map_err(EngineError::from)
}

/// Send `request` synchronously: flush the writer, drain outstanding
/// pipelined acks (deferring any error they carry), then read this
/// request's own response. A deferred error outranks the response — the
/// caller's earlier ingest already failed.
fn roundtrip(conn: &mut Conn, request: &Request) -> Result<Response, EngineError> {
    encode_request(conn, request)?;
    send_frame(conn, false)?;
    conn.writer.flush().map_err(EngineError::from)?;
    while conn.stats.acks_pending > 0 {
        let outcome = read_outcome(conn)?;
        settle_ack(conn, outcome);
    }
    let outcome = read_outcome(conn)?;
    if let Some(deferred) = conn.deferred.take() {
        return Err(deferred);
    }
    outcome
}

fn expect_ack(response: Response) -> Result<(), EngineError> {
    match response {
        Response::Ack => Ok(()),
        other => Err(unexpected(&other)),
    }
}

fn expect_sample(response: Response) -> Result<Vec<Element>, EngineError> {
    match response {
        Response::Sample { sample } => Ok(sample),
        other => Err(unexpected(&other)),
    }
}

fn unexpected(response: &Response) -> EngineError {
    EngineError::Format(format!(
        "protocol violation: unexpected response opcode {:#04x}",
        response.opcode()
    ))
}
