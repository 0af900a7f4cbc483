//! A live client/server prototype exchanging real bytes.
//!
//! The paper demonstrates feasibility with a Java/CORBA prototype
//! (Figure 1): a *document transmitter* behind the web server pushes
//! organizational units to a browser-side *sequence manager* and
//! *rendering manager*, which paints each unit "incrementally at the
//! proper position in the browsing window when the unit is received".
//!
//! This module is the Rust analogue: a server thread packetizes, frames
//! (CRC + sequence number) and pushes a document through a corrupting
//! [`Link`]; the client verifies CRCs, discards corrupted frames,
//! paints each clear-text packet at its offset and emits progressive
//! [`ClientEvent::SliceProgress`] rendering events as it lands, requests
//! retransmission of what it lacks, and, once any `M` cooked packets are
//! intact, rebuilds in place only the clear packets that were lost.

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use std::thread;

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::fault::{FaultConfig, FaultEvent, FaultyLink};
use mrtweb_channel::link::Link;
use mrtweb_content::sc::{Measure, StructuralCharacteristic};
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::lod::Lod;
use mrtweb_erasure::crc::crc16;
use mrtweb_erasure::ida::Codec;
use mrtweb_erasure::packet::{Frame, FRAME_OVERHEAD};
use mrtweb_erasure::par::{default_threads, encode_into_parallel};
use mrtweb_erasure::Error;
use mrtweb_obs::{emit, EventKind, Span};

use crate::error::Error as TransportError;
use crate::plan::{plan_document, TransmissionPlan};
use crate::receiver::ReceiverState;
use crate::session::CacheMode;

/// Reliable control-channel metadata describing a transmission — the
/// structural characteristic the server ships ahead of the data.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentHeader {
    /// Payload length in bytes (pre-padding).
    pub doc_len: usize,
    /// Raw packets `M`.
    pub m: usize,
    /// Cooked packets `N`.
    pub n: usize,
    /// Raw bytes per packet.
    pub packet_size: usize,
    /// The transmission plan (slice order, sizes, contents).
    pub plan: TransmissionPlan,
}

/// Progressive events the rendering manager consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// More of a slice became renderable: `fraction` of its bytes are in.
    SliceProgress {
        /// The slice's label (unit path).
        label: String,
        /// Fraction of the slice's bytes now available, in `[0, 1]`.
        fraction: f64,
    },
    /// `M` intact packets arrived; the whole document reconstructs.
    Reconstructed,
}

/// Frames `payload` as cooked packet `sequence` in one allocation:
/// `seq (2B BE) | payload | crc16 (2B BE)`, byte-identical to
/// [`Frame::to_wire`] without its intermediate buffers.
#[must_use]
pub fn frame_wire(sequence: u16, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    wire.extend_from_slice(&sequence.to_be_bytes());
    wire.extend_from_slice(payload);
    let crc = crc16(&wire);
    wire.extend_from_slice(&crc.to_be_bytes());
    wire
}

/// The server side: owns the encoded document.
///
/// All `N` cooked packets are encoded once at construction (redundancy
/// rows fanned across threads) and framed once, so retransmission
/// rounds replay cached wire bytes instead of redoing GF(2⁸) math and
/// CRCs per request. The frames never change after construction, so
/// one server behind an `Arc` serves any number of sessions.
#[derive(Debug)]
pub struct LiveServer {
    header: DocumentHeader,
    /// Pre-framed wire bytes per cooked packet, index = sequence.
    /// `None` marks a packet this server cannot serve (an edge cache
    /// that trimmed parity, or a blob record that rotted at rest);
    /// serving routes skip it and any `M` of the rest still suffice.
    wire_frames: Vec<Option<Vec<u8>>>,
    /// How many `wire_frames` are present.
    held: usize,
}

impl LiveServer {
    /// Prepares a document for transmission at `lod` ordered by
    /// `measure`, with `gamma` redundancy.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if the document needs more than 256
    /// cooked packets at this packet size (use a larger packet size or a
    /// chunking layer).
    pub fn new(
        doc: &Document,
        sc: &StructuralCharacteristic,
        lod: Lod,
        measure: Measure,
        packet_size: usize,
        gamma: f64,
    ) -> Result<Self, Error> {
        let (plan, payload) = plan_document(doc, sc, lod, measure);
        let m = plan.raw_packets(packet_size);
        let n = ((m as f64 * gamma).round() as usize).max(m);
        // Shared substrate: concurrent sessions serving the same (M, N)
        // shape reuse one systematic generator instead of re-deriving
        // it per session.
        let codec = Codec::shared(m, n, packet_size)?;
        let mut cooked = Vec::new();
        encode_into_parallel(&codec, &payload, &mut cooked, default_threads());
        let header = DocumentHeader {
            doc_len: payload.len(),
            m,
            n,
            packet_size,
            plan,
        };
        LiveServer::from_payloads(header, cooked.chunks_exact(packet_size).map(Some))
    }

    /// Like [`LiveServer::new`], but grows the packet size (from
    /// `min_packet_size`, doubling) until the document fits the 256
    /// cooked-packet limit of one GF(2⁸) dispersal group — how a server
    /// would serve documents of any size without a chunking layer.
    ///
    /// # Errors
    ///
    /// Propagates codec errors only for pathological `gamma` (the search
    /// always finds a fitting packet size otherwise).
    pub fn new_auto(
        doc: &Document,
        sc: &StructuralCharacteristic,
        lod: Lod,
        measure: Measure,
        min_packet_size: usize,
        gamma: f64,
    ) -> Result<Self, Error> {
        let (plan, _) = plan_document(doc, sc, lod, measure);
        let total = plan.total_bytes().max(1);
        let mut packet_size = min_packet_size.max(1);
        loop {
            let m = total.div_ceil(packet_size).max(1);
            let n = ((m as f64 * gamma).round() as usize).max(m);
            if n <= 256 {
                return LiveServer::new(doc, sc, lod, measure, packet_size, gamma);
            }
            packet_size *= 2;
        }
    }

    /// Builds a server directly from already-cooked packets — an edge
    /// cache serving the at-rest dispersed blob. No codec is
    /// constructed and no [`EventKind::EncodeSpan`] is emitted: the
    /// packets were encoded exactly once when the blob was cooked, and
    /// this path only frames them for the wire. `None` entries mark
    /// packets the cache no longer holds intact (trimmed parity, at-rest
    /// rot); the server skips those sequences and the client
    /// reconstructs from any `M` of the rest.
    ///
    /// # Errors
    ///
    /// Same as [`LiveServer::from_payloads`].
    // The owned packets are this constructor's long-standing contract;
    // framing only reads them.
    #[allow(clippy::needless_pass_by_value)]
    pub fn from_cooked(
        header: DocumentHeader,
        cooked: Vec<Option<Vec<u8>>>,
    ) -> Result<Self, Error> {
        LiveServer::from_payloads(header, cooked.iter().map(Option::as_deref))
    }

    /// Like [`LiveServer::from_cooked`], but frames borrowed payloads
    /// (cooked packet `i` is the `i`-th item), so a caller holding the
    /// packets in a larger buffer — a dispersed blob — copies each one
    /// exactly once, into its wire frame.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameters`] if there are not exactly `header.n`
    /// items or any present payload is not exactly `header.packet_size`
    /// bytes; [`Error::NotEnoughPackets`] if fewer than `header.m` are
    /// present.
    pub fn from_payloads<'a>(
        header: DocumentHeader,
        payloads: impl IntoIterator<Item = Option<&'a [u8]>>,
    ) -> Result<Self, Error> {
        let invalid = Error::InvalidParameters {
            raw: header.m,
            cooked: header.n,
        };
        if header.packet_size == 0 {
            return Err(invalid);
        }
        let mut wire_frames = Vec::with_capacity(header.n);
        for (i, payload) in payloads.into_iter().enumerate() {
            if i >= header.n || payload.is_some_and(|p| p.len() != header.packet_size) {
                return Err(invalid);
            }
            wire_frames.push(payload.map(|p| frame_wire(i as u16, p)));
        }
        if wire_frames.len() != header.n {
            return Err(invalid);
        }
        let held = wire_frames.iter().flatten().count();
        if held < header.m {
            return Err(Error::NotEnoughPackets {
                have: held,
                need: header.m,
            });
        }
        Ok(LiveServer {
            header,
            wire_frames,
            held,
        })
    }

    /// How many cooked packets this server holds and can serve.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Drops every held frame whose index fails `keep` and returns how
    /// many were dropped — how an edge cache trims parity under budget
    /// pressure. Sessions already serving from `this` keep the frames
    /// they hold: a shared server is copied (kept frames only) and
    /// `this` repointed at the copy; a server with no other holder is
    /// trimmed in place.
    pub fn retain_frames(this: &mut Arc<Self>, keep: impl Fn(usize) -> bool) -> usize {
        let dropped = this
            .wire_frames
            .iter()
            .enumerate()
            .filter(|(i, f)| f.is_some() && !keep(*i))
            .count();
        if dropped == 0 {
            return 0;
        }
        if let Some(server) = Arc::get_mut(this) {
            for (i, slot) in server.wire_frames.iter_mut().enumerate() {
                if !keep(i) {
                    *slot = None;
                }
            }
            server.held -= dropped;
        } else {
            let wire_frames = this
                .wire_frames
                .iter()
                .enumerate()
                .map(|(i, f)| f.as_ref().filter(|_| keep(i)).cloned())
                .collect();
            *this = Arc::new(LiveServer {
                header: this.header.clone(),
                wire_frames,
                held: this.held - dropped,
            });
        }
        dropped
    }

    /// The control-channel header describing this transmission.
    pub fn header(&self) -> &DocumentHeader {
        &self.header
    }

    /// The cached wire framing for cooked packet `index`, borrowed —
    /// repeat requests (retransmission rounds) cost nothing beyond the
    /// socket write, not an encode. `None` for an out-of-range index:
    /// every serving route must tolerate a request index mangled in
    /// flight, so there is deliberately no panicking accessor.
    pub fn frame_bytes(&self, index: usize) -> Option<&[u8]> {
        self.wire_frames.get(index).and_then(|f| f.as_deref())
    }

    /// Like [`LiveServer::frame_bytes`], but owned.
    pub fn try_frame(&self, index: usize) -> Option<Vec<u8>> {
        self.wire_frames.get(index).and_then(Clone::clone)
    }

    /// Like [`LiveServer::frame_bytes`], but a failed lookup is typed —
    /// for servers that must tell a peer violation apart from a packet
    /// this server legitimately lacks (a trimmed edge-cache entry).
    ///
    /// # Errors
    ///
    /// [`TransportError::FrameOutOfRange`] if `index ≥ N` — a protocol
    /// violation to report to the peer; [`TransportError::FrameNotHeld`]
    /// if `index` is valid but the packet is not held — a sequence the
    /// serving loop skips.
    pub fn frame_checked(&self, index: usize) -> Result<&[u8], TransportError> {
        let slot = self
            .wire_frames
            .get(index)
            .ok_or(TransportError::FrameOutOfRange {
                index,
                n: self.header.n,
            })?;
        slot.as_deref()
            .ok_or(TransportError::FrameNotHeld { index })
    }
}

/// The client side: sequence manager + rendering manager.
#[derive(Debug)]
pub struct LiveClient {
    header: DocumentHeader,
    state: ReceiverState,
    codec: Codec,
    /// The raw document, raw packet `j` at `j · packet_size`: each intact
    /// clear payload is written at its offset as it lands, and the rows
    /// no clear packet delivered are rebuilt in place once `M` packets
    /// are intact. Grown only as far as intact frames reach, so a
    /// hostile header's packet size never sizes an allocation by itself.
    raw: Vec<u8>,
    /// Intact parity payloads, cooked packet `i ≥ M` at
    /// `(i − M) · packet_size`; grown the same way as `raw`.
    parity: Vec<u8>,
    /// Byte range of each plan slice within the document.
    slice_ranges: Vec<Range<usize>>,
    /// Intact clear bytes per slice (for rendering progress).
    slice_have: Vec<usize>,
    reconstructed: bool,
}

impl LiveClient {
    /// Creates a client for the given transmission header.
    ///
    /// # Errors
    ///
    /// Propagates codec construction errors for inconsistent headers.
    pub fn new(header: DocumentHeader) -> Result<Self, Error> {
        // Shared substrate: every client session with this (M, N) shape
        // shares one generator and one survivor-keyed recovery-table
        // cache, so a loss pattern solved by any session is a cache hit
        // for all of them.
        let codec = Codec::shared(header.m, header.n, header.packet_size)?;
        let contents = header.plan.packet_contents(header.packet_size);
        let state = ReceiverState::new(header.m, header.n, contents);
        let slice_ranges = header.plan.slice_ranges();
        let slice_have = vec![0usize; slice_ranges.len()];
        Ok(LiveClient {
            state,
            codec,
            raw: Vec::new(),
            parity: Vec::new(),
            slice_ranges,
            slice_have,
            header,
            reconstructed: false,
        })
    }

    /// Feeds one wire frame (possibly corrupted). Returns rendering
    /// events triggered by this frame.
    pub fn on_wire(&mut self, wire: &[u8]) -> Vec<ClientEvent> {
        let Ok((sequence, payload)) = Frame::parse_wire(wire, self.header.packet_size) else {
            // Corrupted: detected by CRC, discarded. Sequence is
            // unknown, so we only book the corruption statistically;
            // index 0 is safe because corrupted packets never alter
            // intact bookkeeping.
            self.state.on_packet(0, true);
            emit(EventKind::CrcReject, self.state.corrupted(), 0);
            return Vec::new();
        };
        let idx = usize::from(sequence);
        if idx >= self.header.n || self.state.has(idx) {
            // Unknown or duplicate: nothing new.
            if idx < self.header.n {
                self.state.on_packet(idx, false);
            }
            return Vec::new();
        }
        self.state.on_packet(idx, false);
        let (m, ps) = (self.header.m, self.header.packet_size);
        let (buf, row) = if idx < m {
            (&mut self.raw, idx)
        } else {
            (&mut self.parity, idx - m)
        };
        let end = (row + 1) * ps;
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf[end - ps..end].copy_from_slice(payload);
        let mut events = Vec::new();
        if idx < m {
            self.render_progress(idx, &mut events);
        }
        if self.state.is_complete() && !self.reconstructed && self.rebuild_lost_rows() {
            self.reconstructed = true;
            events.push(ClientEvent::Reconstructed);
        }
        events
    }

    /// Rebuilds the raw rows no intact clear packet delivered from the
    /// `M` intact packets; `false` if the header is inconsistent.
    fn rebuild_lost_rows(&mut self) -> bool {
        let m = self.header.m;
        let ps = self.header.packet_size;
        let survivors: Vec<usize> = (0..self.header.n)
            .filter(|&i| self.state.has(i))
            .take(m)
            .collect();
        self.raw.resize(m * ps, 0);
        let parity: Vec<&[u8]> = survivors
            .iter()
            .filter(|&&i| i >= m)
            .map(|&i| &self.parity[(i - m) * ps..(i - m + 1) * ps])
            .collect();
        self.codec
            .recover_in_place(&mut self.raw, &survivors, &parity, self.header.doc_len)
            .is_ok()
    }

    /// Rendering progress for the slices a clear packet touches.
    fn render_progress(&mut self, packet_idx: usize, events: &mut Vec<ClientEvent>) {
        let lo = packet_idx * self.header.packet_size;
        let hi = ((packet_idx + 1) * self.header.packet_size).min(self.header.doc_len);
        for (i, range) in self.slice_ranges.iter().enumerate() {
            let overlap = hi.min(range.end).saturating_sub(lo.max(range.start));
            if overlap == 0 || range.is_empty() {
                continue;
            }
            self.slice_have[i] += overlap;
            let fraction = self.slice_have[i] as f64 / (range.end - range.start) as f64;
            // a = slice index in plan order, b = basis points complete.
            emit(
                EventKind::SliceProgress,
                i as u64,
                (fraction.min(1.0) * 10_000.0) as u64,
            );
            events.push(ClientEvent::SliceProgress {
                label: self.header.plan.slices()[i].label.clone(),
                fraction: fraction.min(1.0),
            });
        }
    }

    /// Protocol bookkeeping (intact counts, content, missing packets).
    pub fn state(&self) -> &ReceiverState {
        &self.state
    }

    /// The reconstructed payload, once available.
    pub fn document_bytes(&self) -> Option<&[u8]> {
        self.raw
            .get(..self.header.doc_len)
            .filter(|_| self.reconstructed)
    }

    /// Discards all packet state (NoCaching reload). The buffers are
    /// kept: re-delivered packets overwrite them.
    pub fn reset(&mut self) {
        self.state.reset_packets();
        self.slice_have.iter_mut().for_each(|b| *b = 0);
        self.reconstructed = false;
    }
}

/// Re-emits newly recorded fault-scheduler events as trace events,
/// returning the new high-water mark. The channel layer stays
/// deterministic and observability-free; the transport narrates on its
/// behalf.
fn book_fault_events<L: mrtweb_channel::loss::LossModel>(
    faulty: &FaultyLink<L>,
    seen: usize,
) -> usize {
    let trace = faulty.scheduler().trace();
    for event in &trace[seen..] {
        emit(
            EventKind::FaultInjected,
            event.packet,
            u64::from(event.kind.code()),
        );
    }
    trace.len()
}

/// Control messages from client to server.
#[derive(Debug)]
enum Control {
    /// Retransmit exactly these cooked packets.
    Request(Vec<usize>),
    /// The client is done (reconstructed or stopped).
    Done,
}

/// Data messages from server to client.
#[derive(Debug)]
enum Wire {
    Frame(Vec<u8>),
    RoundEnd,
    GaveUp,
}

/// Outcome of [`run_transfer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransferReport {
    /// Whether the document was fully reconstructed.
    pub completed: bool,
    /// Whether the client stopped early on the relevance threshold.
    pub stopped_early: bool,
    /// Rounds used (1 = no stall).
    pub rounds: usize,
    /// Frames pushed onto the wire.
    pub frames_sent: u64,
    /// Frames the client discarded as corrupted.
    pub frames_corrupted: u64,
    /// The reconstructed payload (empty if not completed).
    pub payload: Vec<u8>,
    /// Rendering events in order of occurrence.
    pub events: Vec<ClientEvent>,
    /// Retransmission request sets in round order (Caching: the missing
    /// packets; NoCaching: full reloads). Empty if no round stalled.
    pub requests: Vec<Vec<usize>>,
    /// The fault scheduler's replayable trace (empty without injected
    /// faults).
    pub fault_events: Vec<FaultEvent>,
}

/// Parameters for [`run_transfer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransferConfig {
    /// Per-packet corruption probability of the simulated wireless link.
    pub alpha: f64,
    /// RNG seed for the link.
    pub seed: u64,
    /// Caching vs from-scratch reloads on stall.
    pub cache_mode: CacheMode,
    /// Stop once accrued content reaches this threshold (the user's
    /// "stop" button for irrelevant documents).
    pub stop_at_content: Option<f64>,
    /// Retry budget in rounds.
    pub max_rounds: usize,
    /// Optional scheduled fault injection layered over the link's own
    /// Bernoulli corruption (drops, duplication, reordering, garbling,
    /// outages — see [`FaultConfig`]).
    pub fault: Option<FaultConfig>,
}

impl Default for TransferConfig {
    fn default() -> Self {
        TransferConfig {
            alpha: 0.1,
            seed: 0,
            cache_mode: CacheMode::Caching,
            stop_at_content: None,
            max_rounds: 64,
            fault: None,
        }
    }
}

/// Runs a full transfer: the server on its own thread pushing frames
/// through a corrupting link, the client on the calling thread.
///
/// The header travels on the reliable control channel (modelled by
/// cloning it to the client before the lossy data stream starts), as a
/// real deployment would ship the structural characteristic first.
///
/// The server is taken owned or shared: a handle another session (or an
/// edge cache) also holds serves just the same.
///
/// # Errors
///
/// [`TransportError::Codec`] if the header does not describe a valid
/// codec; [`TransportError::ServerPanicked`] if the server thread dies
/// mid-transfer.
pub fn run_transfer(
    server: impl Into<Arc<LiveServer>>,
    config: &TransferConfig,
) -> Result<TransferReport, TransportError> {
    let server = server.into();
    // A rendezvous channel models a link with no in-flight buffering:
    // the server hands over one delivery at a time, so a "stop" takes
    // effect after at most one further frame. Zero capacity also makes
    // the fault trace a pure function of the schedule — the server
    // cannot race a variable distance ahead of a client hangup, which
    // keeps replaying a failing schedule exact even when decode timing
    // varies (e.g. a warm shared inverse cache on the second run).
    let (wire_tx, wire_rx): (Sender<Wire>, Receiver<Wire>) = bounded(0);
    let (ctl_tx, ctl_rx): (Sender<Control>, Receiver<Control>) = unbounded();

    // (frames_sent, rounds), shared with the server thread.
    let stats: Arc<Mutex<(u64, usize)>> = Arc::new(Mutex::new((0, 0)));
    let header = server.header().clone();
    emit(EventKind::TransferStart, header.m as u64, header.n as u64);
    let n = header.n;
    let alpha = config.alpha;
    let seed = config.seed;
    let max_rounds = config.max_rounds;
    let fault_cfg = config.fault.clone().unwrap_or_else(FaultConfig::clean);
    let stats_server = Arc::clone(&stats);

    // The thread returns the fault scheduler's trace so a failing
    // schedule can be replayed exactly.
    let server_thread = thread::spawn(move || -> Vec<FaultEvent> {
        let link = Link::new(
            Bandwidth::from_kbps(19.2),
            BernoulliChannel::new(alpha, seed),
            seed ^ 1,
        );
        let mut faulty = FaultyLink::new(link, fault_cfg, seed ^ 2);
        let mut to_send: Vec<usize> = (0..n).collect();
        // Fault-scheduler events already re-emitted as trace events.
        let mut faults_seen = 0usize;
        'rounds: loop {
            // Bump the round counter under the lock, but send GaveUp
            // after releasing it: wire_tx is a rendezvous channel, so a
            // send blocks until the client turns around — holding the
            // stats mutex across that wait would stall the client's own
            // stats reads.
            let round = {
                let mut s = stats_server.lock();
                s.1 += 1;
                s.1
            };
            if round > max_rounds {
                let _ = wire_tx.send(Wire::GaveUp);
                break 'rounds;
            }
            let round_span = Span::start(EventKind::RoundSpan);
            for &idx in &to_send {
                // A request index mangled in flight must not crash the
                // server; unknown packets are simply not served.
                let Some(bytes) = server.frame_bytes(idx) else {
                    continue;
                };
                stats_server.lock().0 += 1;
                for delivery in faulty.transmit(bytes) {
                    if wire_tx.send(Wire::Frame(delivery.bytes)).is_err() {
                        // Client hung up (reconstructed or stopped):
                        // the round still happened — close its span.
                        round_span.end(round as u64);
                        break 'rounds;
                    }
                }
            }
            // Nothing left on the wire this round: held (reordered)
            // frames can no longer be overtaken.
            for delivery in faulty.flush() {
                if wire_tx.send(Wire::Frame(delivery.bytes)).is_err() {
                    round_span.end(round as u64);
                    break 'rounds;
                }
            }
            faults_seen = book_fault_events(&faulty, faults_seen);
            round_span.end(round as u64);
            if wire_tx.send(Wire::RoundEnd).is_err() {
                break 'rounds;
            }
            match ctl_rx.recv() {
                Ok(Control::Request(ids)) => to_send = ids,
                Ok(Control::Done) | Err(_) => break 'rounds,
            }
        }
        faults_seen = book_fault_events(&faulty, faults_seen);
        let _ = faults_seen;
        faulty.into_trace()
    });

    let mut client = LiveClient::new(header)?;
    let mut events = Vec::new();
    let mut requests: Vec<Vec<usize>> = Vec::new();
    let mut completed = false;
    let mut stopped_early = false;
    let mut gave_up = false;

    'transfer: for wire in wire_rx.iter() {
        match wire {
            Wire::Frame(bytes) => {
                let new_events = client.on_wire(&bytes);
                let reconstructed = new_events
                    .iter()
                    .any(|e| matches!(e, ClientEvent::Reconstructed));
                events.extend(new_events);
                if reconstructed {
                    completed = true;
                    let _ = ctl_tx.send(Control::Done);
                    break 'transfer;
                }
                if let Some(threshold) = config.stop_at_content {
                    if client.state().content() >= threshold {
                        stopped_early = true;
                        let _ = ctl_tx.send(Control::Done);
                        break 'transfer;
                    }
                }
            }
            Wire::RoundEnd => {
                // Stalled round: arrange retransmission.
                let request = match config.cache_mode {
                    CacheMode::Caching => client.state().missing(),
                    CacheMode::NoCaching => {
                        client.reset();
                        (0..n).collect()
                    }
                };
                requests.push(request.clone());
                let _ = ctl_tx.send(Control::Request(request));
            }
            Wire::GaveUp => {
                gave_up = true;
                break 'transfer;
            }
        }
    }
    // Drop both channel ends so the server unblocks wherever it is
    // (mid-send or waiting on control), then join.
    drop(ctl_tx);
    drop(wire_rx);
    let fault_events = server_thread
        .join()
        .map_err(|_| TransportError::ServerPanicked)?;
    let _ = gave_up;

    let (frames_sent, rounds) = *stats.lock();
    emit(
        EventKind::TransferEnd,
        u64::from(completed),
        rounds.min(max_rounds) as u64,
    );
    Ok(TransferReport {
        completed,
        stopped_early,
        rounds: rounds.min(max_rounds),
        frames_sent,
        frames_corrupted: client.state().corrupted(),
        payload: client
            .document_bytes()
            .map(<[u8]>::to_vec)
            .unwrap_or_default(),
        events,
        requests,
        fault_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrtweb_content::query::Query;
    use mrtweb_textproc::pipeline::ScPipeline;

    fn fixture() -> (Document, StructuralCharacteristic) {
        let doc = Document::parse_xml(
            "<document>\
             <section><title>Mobile Web</title>\
             <paragraph>mobile browsing over wireless channels needs bandwidth care</paragraph>\
             <paragraph>clients cache cooked packets against corruption</paragraph></section>\
             <section><title>Background</title>\
             <paragraph>databases indexes storage engines and other prose</paragraph></section>\
             </document>",
        )
        .unwrap();
        let pipeline = ScPipeline::default();
        let idx = pipeline.run(&doc);
        let q = Query::parse("mobile wireless", &pipeline);
        let sc = StructuralCharacteristic::from_index(&idx, Some(&q));
        (doc, sc)
    }

    fn server(lod: Lod, gamma: f64) -> LiveServer {
        let (doc, sc) = fixture();
        LiveServer::new(&doc, &sc, lod, Measure::Qic, 32, gamma).unwrap()
    }

    fn try_run(srv: LiveServer, config: &TransferConfig) -> TransferReport {
        run_transfer(srv, config).unwrap()
    }

    #[test]
    fn clean_channel_reconstructs_exactly() {
        let srv = server(Lod::Paragraph, 1.5);
        let (_, payload_expect) = {
            let (doc, sc) = fixture();
            plan_document(&doc, &sc, Lod::Paragraph, Measure::Qic)
        };
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
        assert!(report.completed);
        assert_eq!(report.rounds, 1);
        assert_eq!(report.payload, payload_expect);
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ClientEvent::Reconstructed)));
    }

    #[test]
    fn lossy_channel_still_reconstructs_with_caching() {
        let srv = server(Lod::Section, 1.5);
        let (_, payload_expect) = {
            let (doc, sc) = fixture();
            plan_document(&doc, &sc, Lod::Section, Measure::Qic)
        };
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.3,
                seed: 7,
                ..Default::default()
            },
        );
        assert!(report.completed, "transfer failed: {report:?}");
        assert_eq!(report.payload, payload_expect);
        assert!(
            report.frames_corrupted > 0,
            "alpha=0.3 should corrupt something"
        );
    }

    #[test]
    fn nocaching_also_completes() {
        let srv = server(Lod::Document, 1.5);
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.2,
                seed: 3,
                cache_mode: CacheMode::NoCaching,
                ..Default::default()
            },
        );
        assert!(report.completed);
    }

    #[test]
    fn stop_button_interrupts_irrelevant_document() {
        let srv = server(Lod::Paragraph, 1.5);
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.0,
                stop_at_content: Some(0.3),
                ..Default::default()
            },
        );
        assert!(report.stopped_early);
        assert!(!report.completed);
        assert!(report.payload.is_empty());
    }

    #[test]
    fn progressive_rendering_is_monotone_per_slice() {
        let srv = server(Lod::Paragraph, 1.2);
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
        let mut last = std::collections::HashMap::<String, f64>::new();
        for e in &report.events {
            if let ClientEvent::SliceProgress { label, fraction } = e {
                let prev = last.insert(label.clone(), *fraction).unwrap_or(0.0);
                assert!(*fraction >= prev, "progress went backwards for {label}");
                assert!(*fraction <= 1.0 + 1e-12);
            }
        }
        assert!(!last.is_empty(), "rendering events must be emitted");
    }

    #[test]
    fn qic_ordering_renders_matching_section_first() {
        let srv = server(Lod::Section, 1.5);
        let first_label = srv.header().plan.slices()[0].label.clone();
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.0,
                ..Default::default()
            },
        );
        let first_event = report.events.iter().find_map(|e| match e {
            ClientEvent::SliceProgress { label, .. } => Some(label.clone()),
            ClientEvent::Reconstructed => None,
        });
        assert_eq!(first_event.as_deref(), Some(first_label.as_str()));
    }

    #[test]
    fn new_auto_fits_large_documents() {
        use mrtweb_docmodel::gen::SyntheticDocSpec;
        // A ~10 KiB document at 16-byte packets would need ~640 raw
        // packets; new_auto must grow the packet size until N ≤ 256.
        let doc = SyntheticDocSpec::default().generate(3).document;
        let pipeline = ScPipeline::default();
        let idx = pipeline.run(&doc);
        let sc = StructuralCharacteristic::from_index(&idx, None);
        let srv = LiveServer::new_auto(&doc, &sc, Lod::Paragraph, Measure::Ic, 16, 1.5).unwrap();
        assert!(srv.header().n <= 256, "N = {}", srv.header().n);
        assert!(
            srv.header().packet_size >= 64,
            "packet size {}",
            srv.header().packet_size
        );
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 0.2,
                seed: 8,
                ..Default::default()
            },
        );
        assert!(report.completed);
    }

    #[test]
    fn out_of_range_frame_requests_are_typed_errors() {
        let srv = server(Lod::Paragraph, 1.5);
        let n = srv.header().n;
        assert!(srv.frame_bytes(n).is_none());
        assert!(srv.try_frame(n).is_none());
        match srv.frame_checked(n) {
            Err(TransportError::FrameOutOfRange { index, n: reported }) => {
                assert_eq!(index, n);
                assert_eq!(reported, n);
            }
            other => panic!("expected FrameOutOfRange, got {other:?}"),
        }
        assert_eq!(srv.frame_checked(0).unwrap(), srv.frame_bytes(0).unwrap());
    }

    #[test]
    fn not_held_frames_are_distinct_from_out_of_range() {
        // A from_cooked server with a trimmed parity packet — the shape
        // an edge cache serves after budget pressure. The hole must be
        // a skippable FrameNotHeld, not the peer-violation error.
        let (doc, sc) = fixture();
        let (plan, payload) = plan_document(&doc, &sc, Lod::Paragraph, Measure::Qic);
        let packet_size = 32;
        let m = plan.raw_packets(packet_size);
        let n = ((m as f64 * 1.5).round() as usize).max(m);
        let codec = Codec::shared(m, n, packet_size).unwrap();
        let mut cooked = Vec::new();
        encode_into_parallel(&codec, &payload, &mut cooked, default_threads());
        let mut packets: Vec<Option<Vec<u8>>> = cooked
            .chunks_exact(packet_size)
            .map(|p| Some(p.to_vec()))
            .collect();
        packets[n - 1] = None;
        let header = DocumentHeader {
            doc_len: payload.len(),
            m,
            n,
            packet_size,
            plan,
        };
        let srv = LiveServer::from_cooked(header, packets).unwrap();
        assert!(matches!(
            srv.frame_checked(n - 1),
            Err(TransportError::FrameNotHeld { index }) if index == n - 1
        ));
        assert!(matches!(
            srv.frame_checked(n),
            Err(TransportError::FrameOutOfRange { .. })
        ));
        assert!(srv.frame_checked(0).is_ok());
    }

    #[test]
    fn retaining_frames_copies_only_a_shared_server() {
        let mut srv = Arc::new(server(Lod::Paragraph, 2.0));
        let (m, n) = (srv.header().m, srv.header().n);
        assert!(n > m + 1);
        let frames: Vec<Vec<u8>> = (0..n).map(|i| srv.try_frame(i).unwrap()).collect();

        // Sole owner: trimmed in place.
        let before = Arc::as_ptr(&srv);
        assert_eq!(LiveServer::retain_frames(&mut srv, |i| i < n - 1), 1);
        assert_eq!(Arc::as_ptr(&srv), before);
        assert_eq!(srv.held(), n - 1);
        assert!(matches!(
            srv.frame_checked(n - 1),
            Err(TransportError::FrameNotHeld { .. })
        ));
        // Nothing to drop: no change, no copy.
        assert_eq!(LiveServer::retain_frames(&mut srv, |i| i < n - 1), 0);
        assert_eq!(Arc::as_ptr(&srv), before);

        // Shared: the other holder keeps its frames; `srv` moves to a
        // trimmed copy.
        let session = Arc::clone(&srv);
        assert_eq!(LiveServer::retain_frames(&mut srv, |i| i < m), n - 1 - m);
        assert!(!Arc::ptr_eq(&srv, &session));
        assert_eq!((srv.held(), session.held()), (m, n - 1));
        for (i, frame) in frames.iter().enumerate() {
            let held = if i < m { Some(&frame[..]) } else { None };
            assert_eq!(srv.frame_bytes(i), held);
            assert_eq!(session.frame_bytes(i).is_some(), i < n - 1);
        }
        assert_eq!(srv.header(), session.header());
    }

    #[test]
    fn hopeless_channel_gives_up_at_budget() {
        let srv = server(Lod::Document, 1.0);
        let report = try_run(
            srv,
            &TransferConfig {
                alpha: 1.0,
                max_rounds: 3,
                ..Default::default()
            },
        );
        assert!(!report.completed);
        assert_eq!(report.rounds, 3);
        assert!(report.payload.is_empty());
    }
}
