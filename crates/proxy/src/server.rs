//! The base-station gateway daemon: a thread-pool TCP server.
//!
//! The paper's deployment model puts the document transmitter at a
//! proxy on the base station, mediating between web servers and
//! weakly-connected mobile clients. This module is that daemon:
//!
//! * a listener thread **admits** connections — a session slot counter
//!   enforces `max_sessions`, and a bounded accept queue provides
//!   backpressure; refusals are *told* to the client with a typed
//!   [`ErrorCode::Busy`] rather than a silent close;
//! * a fixed **worker pool** serves admitted sessions: HELLO →
//!   [`Gateway::prepare`] → HEADER → rounds of frames, with
//!   retransmission driven by client REQUEST messages exactly like the
//!   in-process [`mrtweb_transport::live`] protocol;
//! * per-session **budgets** (frame count, round count) and read/write
//!   **timeouts** bound every resource a slow, hostile, or vanished
//!   client can hold; idle sessions are reaped by the read timeout;
//! * optional **fault injection** mangles the transport frames inside
//!   the (reliable) proxy envelope, so the PR 2 fault scenarios run
//!   over real sockets: the TCP hop plays the wired backbone, the
//!   injected faults play the wireless last hop;
//! * shutdown is **clean**: a flag plus a listener self-connect wakeup,
//!   then queue close and worker joins — no thread is ever detached.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::fault::{FaultConfig, FaultyLink};
use mrtweb_channel::link::Link;
use mrtweb_obs::clock::now_nanos;
use mrtweb_obs::{emit, emit_at, EventKind, RegistrySnapshot};
use mrtweb_store::gateway::{Gateway, GatewayError, Request};
use mrtweb_transport::error::Error as TransportError;
use mrtweb_transport::live::LiveServer;

use crate::stats::ProxyStats;
use crate::wire::{ErrorCode, Hello, Message, WireError, PROTOCOL_VERSION};

/// Tunable knobs of the daemon. All bounds are per the admission-control
/// design in DESIGN.md §12.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission limit: sessions admitted (queued + active) at once.
    pub max_sessions: usize,
    /// Worker threads actively serving sessions.
    pub workers: usize,
    /// Bounded accept queue between listener and workers; a full queue
    /// rejects further connections even under `max_sessions`.
    pub accept_backlog: usize,
    /// Per-session cap on frames served; exceeding it ends the session
    /// with [`ErrorCode::BudgetExceeded`].
    pub frame_budget: u64,
    /// Per-session cap on serving rounds (initial push + retransmission
    /// rounds); exceeding it sends [`Message::GaveUp`].
    pub max_rounds: usize,
    /// Socket read timeout: an idle client is reaped after this long.
    pub read_timeout: Duration,
    /// Socket write timeout: a stalled client is reaped after this long.
    pub write_timeout: Duration,
    /// Optional fault schedule mangling the transport frames on the
    /// write path (the simulated wireless hop).
    pub fault: Option<FaultConfig>,
    /// Base seed for per-session fault schedules.
    pub fault_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            workers: 8,
            accept_backlog: 64,
            frame_budget: 1 << 20,
            max_rounds: 256,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            fault: None,
            fault_seed: 0,
        }
    }
}

/// Bounded hand-off queue between the listener and the worker pool
/// (dependency-free: `Mutex` + `Condvar`).
struct SessionQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

struct QueueInner {
    items: VecDeque<(TcpStream, u64)>,
    closed: bool,
}

impl SessionQueue {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(SessionQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        })
    }

    /// Enqueues unless full or closed; returns the connection back on
    /// refusal so the caller can tell the client why.
    fn try_push(&self, item: (TcpStream, u64)) -> Result<(), (TcpStream, u64)> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next session; `None` once closed and drained.
    fn pop(&self) -> Option<(TcpStream, u64)> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }
}

/// A running proxy daemon. Dropping without [`Server::shutdown`] leaks
/// the listener thread until process exit; always shut down.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the listener and worker threads.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: &str, gateway: Gateway, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::new());
        let queue = SessionQueue::new(config.accept_backlog);
        let gateway = Arc::new(gateway);
        let admitted = Arc::new(AtomicU64::new(0));
        let config = Arc::new(config);

        let mut workers = Vec::with_capacity(config.workers.max(1));
        for _ in 0..config.workers.max(1) {
            let queue = Arc::clone(&queue);
            let gateway = Arc::clone(&gateway);
            let stats = Arc::clone(&stats);
            let admitted = Arc::clone(&admitted);
            let config = Arc::clone(&config);
            workers.push(std::thread::spawn(move || {
                while let Some((stream, session_id)) = queue.pop() {
                    stats.active.inc();
                    serve_session(stream, session_id, &gateway, &config, &stats);
                    stats.active.dec();
                    // ORDERING: admission-slot release; the counter only
                    // bounds concurrent sessions (acceptor re-checks it
                    // every accept) and publishes no session state — the
                    // work queue is the handoff.
                    admitted.fetch_sub(1, Ordering::Relaxed);
                }
            }));
        }

        let accept_handle = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let queue = Arc::clone(&queue);
            let admitted = Arc::clone(&admitted);
            let max_sessions = config.max_sessions.max(1) as u64;
            let write_timeout = config.write_timeout;
            std::thread::spawn(move || {
                accept_loop(
                    &listener,
                    &shutdown,
                    &stats,
                    &queue,
                    &admitted,
                    max_sessions,
                    write_timeout,
                );
                queue.close();
            })
        };

        Ok(Server {
            local_addr,
            shutdown,
            stats,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live stats snapshot.
    pub fn stats(&self) -> RegistrySnapshot {
        self.stats.snapshot()
    }

    /// Stops accepting, drains the queue, joins every thread, and
    /// returns the final stats. In-flight sessions run to completion
    /// (bounded by their timeouts and budgets).
    pub fn shutdown(mut self) -> RegistrySnapshot {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the listener out of accept(): connect to ourselves. The
        // accept loop sees the flag and exits before serving it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.stats.snapshot()
    }
}

/// Object-safe face shared by both serving engines, so callers (CLI,
/// load generator, tests, CI) switch engines with a flag instead of a
/// type.
pub trait ProxyServer: Send {
    /// The bound address (resolves ephemeral ports).
    fn local_addr(&self) -> SocketAddr;
    /// A live stats snapshot.
    fn stats(&self) -> RegistrySnapshot;
    /// Stops the daemon and returns the final stats.
    fn shutdown(self: Box<Self>) -> RegistrySnapshot;
}

impl ProxyServer for Server {
    fn local_addr(&self) -> SocketAddr {
        Server::local_addr(self)
    }

    fn stats(&self) -> RegistrySnapshot {
        Server::stats(self)
    }

    fn shutdown(self: Box<Self>) -> RegistrySnapshot {
        Server::shutdown(*self)
    }
}

#[cfg(all(target_os = "linux", feature = "event"))]
impl ProxyServer for crate::event::EventServer {
    fn local_addr(&self) -> SocketAddr {
        crate::event::EventServer::local_addr(self)
    }

    fn stats(&self) -> RegistrySnapshot {
        crate::event::EventServer::stats(self)
    }

    fn shutdown(self: Box<Self>) -> RegistrySnapshot {
        crate::event::EventServer::shutdown(*self)
    }
}

/// Which serving engine [`bind_engine`] starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The event engine where the build supports it, else blocking.
    #[default]
    Auto,
    /// The epoll readiness-loop engine (Linux, feature `event`);
    /// binding fails elsewhere.
    Event,
    /// The thread-pool engine, available on every build.
    Blocking,
}

impl Engine {
    /// Parses a CLI engine name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "auto" => Some(Engine::Auto),
            "event" => Some(Engine::Event),
            "blocking" => Some(Engine::Blocking),
            _ => None,
        }
    }

    /// The engine that actually runs on this build (resolves `Auto`).
    #[must_use]
    pub fn resolved(self) -> &'static str {
        match self {
            Engine::Blocking => "blocking",
            Engine::Event => "event",
            Engine::Auto => {
                if cfg!(all(target_os = "linux", feature = "event")) {
                    "event"
                } else {
                    "blocking"
                }
            }
        }
    }
}

/// Binds the chosen engine behind the [`ProxyServer`] face.
///
/// # Errors
///
/// Socket/epoll setup failures, and `Unsupported` when [`Engine::Event`]
/// is demanded on a build without the event engine.
pub fn bind_engine(
    addr: &str,
    gateway: Gateway,
    config: ServerConfig,
    engine: Engine,
) -> std::io::Result<Box<dyn ProxyServer>> {
    match engine {
        Engine::Blocking => Ok(Box::new(Server::bind(addr, gateway, config)?)),
        #[cfg(all(target_os = "linux", feature = "event"))]
        Engine::Auto | Engine::Event => Ok(Box::new(crate::event::EventServer::bind(
            addr, gateway, config,
        )?)),
        #[cfg(not(all(target_os = "linux", feature = "event")))]
        Engine::Auto => Ok(Box::new(Server::bind(addr, gateway, config)?)),
        #[cfg(not(all(target_os = "linux", feature = "event")))]
        Engine::Event => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "event engine requires Linux and the `event` feature",
        )),
    }
}

/// Accepts until shut down, applying admission control.
fn accept_loop(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    stats: &ProxyStats,
    queue: &SessionQueue,
    admitted: &AtomicU64,
    max_sessions: u64,
    write_timeout: Duration,
) {
    let mut next_session_id = 0u64;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shutdown.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        stats.accepted.inc();
        let session_id = next_session_id;
        next_session_id += 1;

        // Admission: reserve a session slot, or refuse loudly.
        let prior = admitted.fetch_add(1, Ordering::SeqCst);
        if prior >= max_sessions {
            admitted.fetch_sub(1, Ordering::SeqCst);
            reject(
                stream,
                write_timeout,
                stats,
                session_id,
                0,
                "session limit reached",
            );
            continue;
        }
        stats.note_in_flight(prior + 1);
        if let Err((stream, _)) = queue.try_push((stream, session_id)) {
            admitted.fetch_sub(1, Ordering::SeqCst);
            reject(
                stream,
                write_timeout,
                stats,
                session_id,
                1,
                "accept queue full",
            );
        }
    }
}

/// Tells a refused client why, then hangs up. `reason` follows the
/// [`EventKind::AdmissionReject`] schema (0 = session slots full,
/// 1 = accept queue full). Shared with the event engine, which applies
/// identical admission semantics.
pub(crate) fn reject(
    mut stream: TcpStream,
    write_timeout: Duration,
    stats: &ProxyStats,
    session_id: u64,
    reason: u64,
    why: &str,
) {
    stats.rejected.inc();
    emit(EventKind::AdmissionReject, session_id, reason);
    let _ = stream.set_write_timeout(Some(write_timeout));
    let msg = Message::Error {
        code: ErrorCode::Busy,
        detail: why.to_owned(),
    };
    let _ = msg.write_to(&mut stream);
}

/// How one session ended, for counter bookkeeping. Both engines map
/// ends to identical counters and trace codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SessionEnd {
    /// Client sent DONE (or the metrics exchange finished).
    Completed,
    /// The peer violated the protocol (bad HELLO, unknown control,
    /// out-of-range frame index).
    ProtocolError,
    /// A read or write timed out (idle or stalled client).
    TimedOut,
    /// A garbled control envelope failed the CRC check.
    CrcReject,
    /// The socket died or a budget ran out; nothing to count beyond
    /// what the handler already recorded.
    Closed,
}

/// Serves one admitted session to completion.
fn serve_session(
    mut stream: TcpStream,
    session_id: u64,
    gateway: &Gateway,
    config: &ServerConfig,
    stats: &ProxyStats,
) {
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let _ = stream.set_nodelay(true);
    emit(EventKind::SessionStart, session_id, 0);
    let start = now_nanos();
    let end = session_body(&mut stream, session_id, gateway, config, stats);
    let elapsed = now_nanos().saturating_sub(start);
    stats.request_latency.record(elapsed);
    emit_at(start, EventKind::RequestSpan, elapsed, session_id);
    let end_code = match end {
        SessionEnd::Completed => {
            stats.completed.inc();
            0
        }
        SessionEnd::ProtocolError => {
            stats.protocol_errors.inc();
            1
        }
        SessionEnd::TimedOut => {
            stats.timeouts.inc();
            2
        }
        SessionEnd::CrcReject => {
            stats.crc_rejects.inc();
            3
        }
        SessionEnd::Closed => 4,
    };
    emit(EventKind::SessionEnd, session_id, end_code);
}

/// Sends `msg`, booking the bytes; `false` if the socket failed.
fn send(stream: &mut TcpStream, stats: &ProxyStats, msg: &Message) -> Result<(), SessionEnd> {
    let wire = msg.encode();
    match stream.write_all(&wire).and_then(|()| stream.flush()) {
        Ok(()) => {
            stats.bytes_sent.add(wire.len() as u64);
            Ok(())
        }
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            Err(SessionEnd::TimedOut)
        }
        Err(_) => Err(SessionEnd::Closed),
    }
}

/// Sends a typed error and reports how the session should be counted.
fn fail(
    stream: &mut TcpStream,
    stats: &ProxyStats,
    code: ErrorCode,
    detail: String,
    end: SessionEnd,
) -> SessionEnd {
    let _ = send(stream, stats, &Message::Error { code, detail });
    end
}

fn session_body(
    stream: &mut TcpStream,
    session_id: u64,
    gateway: &Gateway,
    config: &ServerConfig,
    stats: &ProxyStats,
) -> SessionEnd {
    // ── handshake ───────────────────────────────────────────────────
    let hello = match Message::read_from(stream) {
        Ok(Message::Hello(h)) => h,
        Ok(Message::StatsRequest) => {
            let reply = Message::StatsReply(stats.snapshot());
            return match send(stream, stats, &reply) {
                Ok(()) => SessionEnd::Completed,
                Err(end) => end,
            };
        }
        Ok(_) => {
            return fail(
                stream,
                stats,
                ErrorCode::BadRequest,
                "expected HELLO".to_owned(),
                SessionEnd::ProtocolError,
            )
        }
        Err(e) if e.is_timeout() => return SessionEnd::TimedOut,
        Err(WireError::CrcMismatch) => {
            emit(EventKind::CrcReject, session_id, 0);
            return fail(
                stream,
                stats,
                ErrorCode::BadRequest,
                "corrupted HELLO envelope".to_owned(),
                SessionEnd::CrcReject,
            );
        }
        Err(WireError::Io(_)) => return SessionEnd::Closed,
        Err(e) => {
            return fail(
                stream,
                stats,
                ErrorCode::BadRequest,
                format!("{e}"),
                SessionEnd::ProtocolError,
            )
        }
    };

    if hello.version != PROTOCOL_VERSION {
        return fail(
            stream,
            stats,
            ErrorCode::BadRequest,
            format!(
                "protocol version {} unsupported (want {PROTOCOL_VERSION})",
                hello.version
            ),
            SessionEnd::ProtocolError,
        );
    }

    let server = match prepare(gateway, &hello) {
        Ok(server) => server,
        // An unknown URL or unencodable request is a well-formed ask
        // that the server refuses — typed, but not a protocol error.
        Err((code, detail)) => return fail(stream, stats, code, detail, SessionEnd::Closed),
    };
    let header = server.header().clone();
    let n = header.n;
    if let Err(end) = send(stream, stats, &Message::Header(header)) {
        return end;
    }

    // The wireless-hop simulator, when configured: mangles transport
    // frames *inside* intact proxy envelopes, per-session seeded so
    // concurrent sessions draw independent deterministic schedules.
    let mut faulty = config.fault.clone().map(|cfg| {
        let seed = config.fault_seed ^ session_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        FaultyLink::new(
            Link::new(
                Bandwidth::from_kbps(19.2),
                BernoulliChannel::new(0.0, seed),
                seed,
            ),
            cfg,
            seed,
        )
    });

    // ── serving rounds ──────────────────────────────────────────────
    let mut to_send: Vec<usize> = (0..n).collect();
    let mut frames_served = 0u64;
    let mut faults_seen = 0usize;
    for round in 0..config.max_rounds {
        let round_span = mrtweb_obs::Span::start(EventKind::RoundSpan);
        for &idx in &to_send {
            // The round's indices came off the wire: an out-of-range
            // request is a typed protocol error, never a panic. An
            // in-range packet this server does not hold (a trimmed or
            // rotted edge-cache entry) is skipped — the client
            // reconstructs from any M of the rest.
            let bytes = match server.frame_checked(idx) {
                Ok(bytes) => bytes,
                Err(TransportError::FrameNotHeld { .. }) => continue,
                Err(e @ TransportError::FrameOutOfRange { .. }) => {
                    return fail(
                        stream,
                        stats,
                        ErrorCode::BadRequest,
                        format!("{e}"),
                        SessionEnd::ProtocolError,
                    );
                }
                Err(e) => {
                    return fail(
                        stream,
                        stats,
                        ErrorCode::Internal,
                        format!("{e}"),
                        SessionEnd::Closed,
                    );
                }
            };
            if frames_served >= config.frame_budget {
                emit(EventKind::BudgetExhausted, session_id, config.frame_budget);
                return fail(
                    stream,
                    stats,
                    ErrorCode::BudgetExceeded,
                    format!("session frame budget {} exhausted", config.frame_budget),
                    SessionEnd::Closed,
                );
            }
            frames_served += 1;
            stats.frames_sent.inc();
            emit(EventKind::FrameSent, session_id, idx as u64);
            if let Some(faulty) = faulty.as_mut() {
                for delivery in faulty.transmit(bytes) {
                    if let Err(end) = send(stream, stats, &Message::Frame(delivery.bytes)) {
                        return end;
                    }
                }
                faults_seen = book_faults(faulty, faults_seen, stats);
            } else if let Err(end) = send(stream, stats, &Message::Frame(bytes.to_vec())) {
                return end;
            }
        }
        if let Some(faulty) = faulty.as_mut() {
            // End of round: held (reordered) frames can no longer be
            // overtaken.
            for delivery in faulty.flush() {
                if let Err(end) = send(stream, stats, &Message::Frame(delivery.bytes)) {
                    return end;
                }
            }
        }
        if let Err(end) = send(stream, stats, &Message::RoundEnd) {
            return end;
        }
        round_span.end(round as u64);

        // ── control ─────────────────────────────────────────────────
        match Message::read_from(stream) {
            Ok(Message::Done) => return SessionEnd::Completed,
            Ok(Message::Request(ids)) => {
                stats.retransmit_requests.inc();
                emit(EventKind::RetransmitRequest, session_id, ids.len() as u64);
                to_send = ids.into_iter().map(usize::from).collect();
            }
            Ok(_) => {
                return fail(
                    stream,
                    stats,
                    ErrorCode::BadRequest,
                    "expected REQUEST or DONE".to_owned(),
                    SessionEnd::ProtocolError,
                )
            }
            Err(e) if e.is_timeout() => return SessionEnd::TimedOut,
            Err(WireError::CrcMismatch) => {
                emit(EventKind::CrcReject, session_id, 0);
                return fail(
                    stream,
                    stats,
                    ErrorCode::BadRequest,
                    "corrupted control envelope".to_owned(),
                    SessionEnd::CrcReject,
                );
            }
            Err(WireError::Io(_)) => return SessionEnd::Closed,
            Err(e) => {
                return fail(
                    stream,
                    stats,
                    ErrorCode::BadRequest,
                    format!("{e}"),
                    SessionEnd::ProtocolError,
                )
            }
        }
    }
    let _ = send(stream, stats, &Message::GaveUp);
    SessionEnd::Closed
}

/// Re-emits newly scheduled wireless-hop faults as trace events and
/// books the counter; returns the new watermark. The channel layer
/// stays deterministic and obs-free — the proxy polls its replay trace
/// instead.
pub(crate) fn book_faults<L: mrtweb_channel::loss::LossModel>(
    faulty: &FaultyLink<L>,
    seen: usize,
    stats: &ProxyStats,
) -> usize {
    let trace = faulty.scheduler().trace();
    for event in &trace[seen..] {
        stats.faults_injected.inc();
        emit(
            EventKind::FaultInjected,
            event.packet,
            u64::from(event.kind.code()),
        );
    }
    trace.len()
}

/// HELLO → prepared [`LiveServer`], with gateway failures mapped to
/// wire error codes. Served through the gateway's edge cache when the
/// base station has one attached (a hit shares the frames built when
/// the blob was admitted, with zero codec work), and through the shared
/// prepared-transmission cache otherwise: concurrent and repeat
/// sessions for one request shape replay a single encode either way.
pub(crate) fn prepare(
    gateway: &Gateway,
    hello: &Hello,
) -> Result<Arc<LiveServer>, (ErrorCode, String)> {
    let request = Request::from_options(
        &hello.url,
        &hello.query,
        &hello.lod,
        &hello.measure,
        hello.packet_size as usize,
        hello.gamma,
    )
    .map_err(|e| (ErrorCode::BadRequest, format!("{e}")))?;
    gateway
        .prepare_edge(&request)
        .map(|(server, _hit)| server)
        .map_err(|e| match e {
            GatewayError::NotFound(_) => (ErrorCode::NotFound, format!("{e}")),
            GatewayError::BadRequest(_) | GatewayError::Encoding(_) => {
                (ErrorCode::BadRequest, format!("{e}"))
            }
            GatewayError::Edge(_) => (ErrorCode::Internal, format!("{e}")),
        })
}
