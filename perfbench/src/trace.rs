//! The traced run: spans recorded from the benchmark's own files around
//! the public calls each layer makes, plus `/proc` and program counters,
//! turned into the per-layer metrics.
//!
//! Two sources feed it. An instrumented client makes the same calls
//! `proxy::client::fetch` makes over the real proxy. An in-process
//! replay drives the same request sequence through a twin store,
//! gateway and edge cache and times the server-side calls one by one;
//! the miss path's parts run on a store and edge cache of their own so
//! their caches stay cold.

use std::collections::HashMap;
use std::io::{Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::fault::FaultyLink;
use mrtweb_channel::link::Link;
use mrtweb_content::query::Query;
use mrtweb_obs::hist::{bucket_bounds, HistSnapshot};
use mrtweb_proxy::client::{FetchError, FetchOptions};
use mrtweb_proxy::wire::{put_frame_envelope, Hello, Message, StreamDecoder, WireError};
use mrtweb_store::codec::{encode_dispersed, BlobPackets};
use mrtweb_store::edge::{EdgeCache, EdgeKey};
use mrtweb_store::gateway::{Gateway, Request};
use mrtweb_store::store::DocumentStore;
use mrtweb_transport::error::Error as TransportError;
use mrtweb_transport::live::{ClientEvent, DocumentHeader, LiveClient, LiveServer};
use mrtweb_transport::plan::plan_document;

use crate::drive::{quantile, Fetched};
use crate::sys;
use crate::workload::{self, Op, Sequence, Workload, SC_CAPACITY};

const NO_PARENT: u32 = u32::MAX;

/// One timed call, or `count` calls of one name within one request
/// (per-frame calls are folded per request to keep the log small).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Request the span belongs to; spans of one request share it.
    pub req: u32,
    /// Index of the causing span in the same log, or `NO_PARENT`.
    pub parent: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Thread CPU time of the call, where measured (0 otherwise).
    pub cpu_ns: u64,
    pub count: u32,
}

/// An in-memory span log, one per thread, written out at the end.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    pub spans: Vec<Span>,
}

static NEXT_REQ: AtomicU32 = AtomicU32::new(0);

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        req: u32,
        parent: u32,
        t0: Instant,
        dur: Duration,
    ) -> u32 {
        let start_ns = self.ns(t0);
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            cpu_ns: 0,
            count: 1,
        });
        (self.spans.len() - 1) as u32
    }

    /// Closes the span `open` returned.
    fn close(&mut self, idx: u32, t0: Instant) {
        self.spans[idx as usize].dur_ns = t0.elapsed().as_nanos() as u64;
    }

    /// Times `f` as one span.
    fn time<T>(&mut self, name: &'static str, req: u32, parent: u32, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.push(name, req, parent, t0, t0.elapsed());
        out
    }

    /// Times `f` as one span, with the thread CPU time it used.
    fn time_cpu<T>(
        &mut self,
        name: &'static str,
        req: u32,
        parent: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let c0 = sys::thread_cpu_ns();
        let out = self.time(name, req, parent, f);
        if let Some(last) = self.spans.last_mut() {
            last.cpu_ns = sys::thread_cpu_ns().saturating_sub(c0);
        }
        out
    }
}

/// Per-request accumulators for calls made once per frame.
#[derive(Default)]
struct Folded(HashMap<&'static str, (Instant, u64, u32)>);

impl Folded {
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let e = self.0.entry(name).or_insert((t0, 0, 0));
        e.1 += ns;
        e.2 += 1;
        out
    }

    fn add(&mut self, name: &'static str, t0: Instant, ns: u64) {
        let e = self.0.entry(name).or_insert((t0, 0, 0));
        e.1 += ns;
        e.2 += 1;
    }

    fn flush(self, log: &mut SpanLog, req: u32, parent: u32) {
        let mut v: Vec<_> = self.0.into_iter().collect();
        v.sort_by_key(|(name, _)| *name);
        for (name, (t0, ns, count)) in v {
            let start_ns = log.ns(t0);
            log.spans.push(Span {
                name,
                req,
                parent,
                start_ns,
                dur_ns: ns,
                cpu_ns: 0,
                count,
            });
        }
    }
}

/// The client's socket reader: reads in 16 KiB chunks as the library
/// client does, counting wire bytes, `recv` calls and the time blocked
/// in them.
struct TimedReader {
    inner: TcpStream,
    buf: Vec<u8>,
    pos: usize,
    cap: usize,
    bytes: u64,
    calls: u64,
    wait_ns: u64,
}

impl TimedReader {
    fn new(inner: TcpStream) -> Self {
        TimedReader {
            inner,
            buf: vec![0u8; 16 * 1024],
            pos: 0,
            cap: 0,
            bytes: 0,
            calls: 0,
            wait_ns: 0,
        }
    }

    fn timed(
        &mut self,
        read: impl FnOnce(&mut TcpStream) -> std::io::Result<usize>,
    ) -> std::io::Result<usize> {
        let t0 = Instant::now();
        let n = read(&mut self.inner);
        self.wait_ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        let n = n?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl Read for TimedReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.cap {
            // Big requests (frame bodies) bypass the buffer entirely.
            if out.len() >= self.buf.len() {
                return self.timed(|s| s.read(out));
            }
            let mut buf = std::mem::take(&mut self.buf);
            let filled = self.timed(|s| s.read(&mut buf));
            self.buf = buf;
            self.cap = filled?;
            self.pos = 0;
        }
        let n = out.len().min(self.cap - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Per-request receiver figures of the traced client.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientReq {
    pub completed: bool,
    pub frames: u64,
    pub rounds: u64,
    pub retx: u64,
    pub crc_rejects: u64,
    pub recv_calls: u64,
    pub read_wait_ns: u64,
}

/// A traced client thread's state.
pub struct ClientTrace {
    pub log: SpanLog,
    pub reqs: Vec<ClientReq>,
}

impl ClientTrace {
    pub fn new(epoch: Instant) -> Self {
        ClientTrace {
            log: SpanLog::new(epoch),
            reqs: Vec::new(),
        }
    }
}

/// `proxy::client::fetch`, call for call, with spans around the calls.
pub fn traced_fetch(
    t: &mut ClientTrace,
    addr: SocketAddr,
    options: &FetchOptions,
) -> Result<Fetched, FetchError> {
    // ORDERING: only hands out distinct ids.
    let req = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
    let t0 = Instant::now();
    let root = t
        .log
        .push("proxy.client.fetch", req, NO_PARENT, t0, Duration::ZERO);
    let mut stats = ClientReq::default();
    let mut folded = Folded::default();
    let result = traced_session(
        &mut t.log,
        &mut folded,
        &mut stats,
        req,
        root,
        addr,
        options,
    );
    t.log.close(root, t0);
    folded.flush(&mut t.log, req, root);
    stats.completed = result.as_ref().is_ok_and(|f| f.completed);
    t.reqs.push(stats);
    result
}

fn traced_session(
    log: &mut SpanLog,
    folded: &mut Folded,
    stats: &mut ClientReq,
    req: u32,
    root: u32,
    addr: SocketAddr,
    options: &FetchOptions,
) -> Result<Fetched, FetchError> {
    let stream = log.time("proxy.client.connect", req, root, || {
        TcpStream::connect(addr)
    })?;
    stream.set_read_timeout(Some(options.io_timeout))?;
    stream.set_write_timeout(Some(options.io_timeout))?;
    stream.set_nodelay(true)?;
    let mut reader = TimedReader::new(stream);
    let hello = Hello {
        url: options.url.clone(),
        query: options.query.clone(),
        lod: options.lod.clone(),
        measure: options.measure.clone(),
        packet_size: options.packet_size,
        gamma: options.gamma,
        ..Hello::new("", "")
    };
    log.time("proxy.client.write", req, root, || {
        Message::Hello(hello).write_to(&mut reader.inner)
    })?;
    let header = match log.time("proxy.client.header_wait", req, root, || {
        Message::read_from(&mut reader)
    })? {
        Message::Header(h) => h,
        Message::Error { code, detail } => return Err(FetchError::Rejected { code, detail }),
        _ => return Err(FetchError::Unexpected("wanted HEADER or ERROR")),
    };
    let mut client = log
        .time("transport.live.client_new", req, root, || {
            LiveClient::new(header.clone())
        })
        .map_err(TransportError::from)?;

    let mut completed = false;
    let mut finishing = false;
    loop {
        let msg = match folded.time("proxy.client.read_message", || {
            Message::read_from(&mut reader)
        }) {
            Ok(msg) => msg,
            Err(WireError::Io(_)) if finishing => break,
            Err(e) => return Err(e.into()),
        };
        match msg {
            Message::Frame(bytes) => {
                stats.frames += 1;
                if finishing {
                    continue;
                }
                let t0 = Instant::now();
                let events = client.on_wire(&bytes);
                let ns = t0.elapsed().as_nanos() as u64;
                if events
                    .iter()
                    .any(|e| matches!(e, ClientEvent::Reconstructed))
                {
                    log.push(
                        "transport.live.reconstruct",
                        req,
                        root,
                        t0,
                        Duration::from_nanos(ns),
                    );
                    completed = true;
                    log.time("proxy.client.write", req, root, || {
                        Message::Done.write_to(&mut reader.inner)
                    })?;
                    finishing = true;
                } else {
                    folded.add("transport.live.on_wire", t0, ns);
                }
            }
            Message::RoundEnd => {
                stats.rounds += 1;
                if finishing {
                    break;
                }
                let needed = client.state().needed();
                if needed.is_empty() {
                    Message::Done.write_to(&mut reader.inner)?;
                    break;
                }
                let ids: Vec<u16> = needed.iter().map(|&i| i as u16).collect();
                stats.retx += 1;
                log.time("proxy.client.write", req, root, || {
                    Message::Request(ids).write_to(&mut reader.inner)
                })?;
            }
            Message::GaveUp => break,
            Message::Error { code, detail } => return Err(FetchError::Rejected { code, detail }),
            _ => return Err(FetchError::Unexpected("wanted FRAME, ROUND-END, or ERROR")),
        }
    }
    stats.crc_rejects = client.state().corrupted();
    stats.read_wait_ns = reader.wait_ns;
    stats.recv_calls = reader.calls;
    Ok(Fetched {
        completed,
        payload: client
            .document_bytes()
            .map(<[u8]>::to_vec)
            .unwrap_or_default(),
        bytes: reader.bytes,
    })
}

/// What the in-process replay measured.
pub struct Replay {
    pub log: SpanLog,
    pub fetches: u64,
    /// Hit-latency histogram of the twin edge cache (ns).
    pub edge_serve: HistSnapshot,
}

/// Miss-path parts timed on the cold store for at most this many
/// fetches: each admit writes and syncs a blob.
const COLD_SAMPLES: u64 = 400;

/// Fetches the replay stops after, if its time budget lasts that long.
const REPLAY_FETCHES: u64 = 5000;

/// Replays the workload's op sequence from its start in-process until
/// `budget` runs out or [`REPLAY_FETCHES`] fetches are done.
pub fn replay(w: &Workload, seed: u64, dir: &Path, budget: Duration) -> Result<Replay, String> {
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch);
    let twin = Arc::new(DocumentStore::new(SC_CAPACITY));
    // SC capacity 0: every structural characteristic is computed.
    let cold = DocumentStore::new(0);
    for d in 0..w.docs {
        let doc = workload::document(seed, d, 0);
        cold.put(workload::url(d), doc.clone());
        log.time("store.store.put", u32::MAX, NO_PARENT, || {
            twin.put(workload::url(d), doc)
        });
    }
    let twin_dir = dir.join("twin");
    let cold_dir = dir.join("cold");
    for d in [&twin_dir, &cold_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let edge = Arc::new(EdgeCache::new(&twin_dir, w.edge_budget).map_err(|e| format!("{e}"))?);
    let cold_edge = EdgeCache::new(&cold_dir, w.edge_budget).map_err(|e| format!("{e}"))?;
    let gateway = Gateway::new(Arc::clone(&twin)).with_edge(Arc::clone(&edge));
    let seq = Sequence::new(w, seed);
    let mut versions = vec![0u32; w.docs];
    let mut wire = Vec::new();
    let mut fetches = 0u64;
    let end = epoch + budget;
    let mut i = 0u64;
    while Instant::now() < end && fetches < REPLAY_FETCHES {
        let op = seq.op(i);
        i += 1;
        let (doc, query) = match op {
            Op::Write { doc } => {
                versions[doc] += 1;
                let d = workload::document(seed, doc, versions[doc]);
                cold.put(workload::url(doc), d.clone());
                log.time("store.store.put", u32::MAX, NO_PARENT, || {
                    twin.put(workload::url(doc), d)
                });
                continue;
            }
            Op::Fetch { doc, query } => (doc, query),
        };
        // ORDERING: only hands out distinct ids.
        let req = NEXT_REQ.fetch_add(1, Ordering::Relaxed);
        let t_req = Instant::now();
        let root = log.push("replay.request", req, NO_PARENT, t_req, Duration::ZERO);
        let url = workload::url(doc);
        let text = workload::query_text(seed, doc, query);
        let request = log
            .time_cpu("store.gateway.from_options", req, root, || {
                Request::from_options(
                    &url,
                    &text,
                    "paragraph",
                    "qic",
                    w.packet_size as usize,
                    w.gamma,
                )
            })
            .map_err(|e| format!("{e}"))?;
        let (server, hit) = log
            .time_cpu("store.gateway.prepare_edge", req, root, || {
                gateway.prepare_edge(&request)
            })
            .map_err(|e| format!("{e}"))?;
        if let Some(span) = log.spans.last_mut() {
            span.name = if hit {
                "store.gateway.prepare_hit"
            } else {
                "store.gateway.prepare_miss"
            };
        }
        if fetches < COLD_SAMPLES {
            cold_miss_path(&mut log, req, root, &cold, &cold_edge, &request)?;
        }

        let mut folded = Folded::default();
        let mut faulty = w.fault().map(|cfg| {
            let s = workload::mix(seed ^ u64::from(req));
            FaultyLink::new(
                Link::new(Bandwidth::from_kbps(19.2), BernoulliChannel::new(0.0, s), s),
                cfg,
                s,
            )
        });
        wire.clear();
        for idx in 0..server.header().n {
            let Ok(bytes) =
                folded.time("transport.live.frame_checked", || server.frame_checked(idx))
            else {
                continue;
            };
            if let Some(link) = faulty.as_mut() {
                for delivery in folded.time("channel.fault.transmit", || link.transmit(bytes)) {
                    folded.time("proxy.wire.envelope", || {
                        put_frame_envelope(&mut wire, &delivery.bytes);
                    });
                }
            } else {
                folded.time("proxy.wire.envelope", || {
                    put_frame_envelope(&mut wire, bytes)
                });
            }
        }
        if let Some(link) = faulty.as_mut() {
            for delivery in link.flush() {
                put_frame_envelope(&mut wire, &delivery.bytes);
            }
        }
        let mut dec = StreamDecoder::new();
        dec.absorb(&wire);
        while let Ok(Some(_)) = folded.time("proxy.wire.decode", || dec.next_message()) {}
        log.close(root, t_req);
        folded.flush(&mut log, req, root);
        fetches += 1;
    }
    let edge_serve = edge.hit_latency().snapshot();
    for d in [&twin_dir, &cold_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(Replay {
        log,
        fetches,
        edge_serve,
    })
}

/// The calls `Gateway::prepare_edge` makes on a miss, one span each.
fn cold_miss_path(
    log: &mut SpanLog,
    req: u32,
    root: u32,
    cold: &DocumentStore,
    cold_edge: &EdgeCache,
    request: &Request,
) -> Result<(), String> {
    let query = log.time("textproc.query_parse", req, root, || {
        Query::parse(&request.query, cold.pipeline())
    });
    let (doc, generation) = cold
        .document_with_generation(&request.url)
        .ok_or("document vanished")?;
    let sc = log
        .time("store.store.sc_miss", req, root, || {
            cold.structural_characteristic(&request.url, &query)
        })
        .ok_or("document vanished")?;
    let (plan, payload) = log.time("transport.plan.plan", req, root, || {
        plan_document(&doc, &sc, request.lod, request.measure)
    });
    let m = plan.raw_packets(request.packet_size);
    let n = ((m as f64 * request.gamma).round() as usize).max(m);
    let blob = log
        .time("store.codec.encode", req, root, || {
            encode_dispersed(&payload, m, n, request.packet_size)
        })
        .map_err(|e| format!("{e}"))?;
    let header = DocumentHeader {
        doc_len: payload.len(),
        m,
        n,
        packet_size: request.packet_size,
        plan,
    };
    let key = EdgeKey::of(request);
    log.time("store.edge.admit", req, root, || {
        cold_edge.admit_from_store(key, header.clone(), &blob, generation)
    })
    .map_err(|e| format!("{e}"))?;
    let view = BlobPackets::parse(&blob).map_err(|e| format!("{e}"))?;
    let packets = (0..view.n())
        .map(|i| view.is_intact(0, i).then(|| view.packet(0, i).to_vec()))
        .collect();
    log.time("transport.live.from_cooked", req, root, || {
        LiveServer::from_cooked(header, packets)
    })
    .map_err(|e| format!("{e}"))?;
    Ok(())
}

/// Spans by name: per-span durations of one call (ns), and the total
/// wall time, CPU time and calls the spans stand for.
pub struct SpanIndex {
    by_name: HashMap<&'static str, (Vec<f64>, f64, f64, u64)>,
}

impl SpanIndex {
    pub fn new<'a>(logs: impl IntoIterator<Item = &'a SpanLog>) -> Self {
        let mut by_name: HashMap<&'static str, (Vec<f64>, f64, f64, u64)> = HashMap::new();
        for log in logs {
            for s in &log.spans {
                let e = by_name.entry(s.name).or_default();
                e.0.push(s.dur_ns as f64 / f64::from(s.count.max(1)));
                e.1 += s.dur_ns as f64;
                e.2 += s.cpu_ns as f64;
                e.3 += u64::from(s.count);
            }
        }
        SpanIndex { by_name }
    }

    /// The `q`-quantile of one call's duration, in µs.
    pub fn us(&self, name: &str, q: f64) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |(d, _, _, _)| quantile(d, q) / 1e3)
    }

    /// Mean duration of one call, in ns.
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(_, wall, _, calls)| wall / calls.max(1) as f64)
    }

    /// Mean thread CPU time of one call, in ns, for spans that measure it.
    pub fn mean_cpu_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(_, _, cpu, calls)| cpu / calls.max(1) as f64)
    }

    /// Spans recorded under `name` (a folded span counts once).
    pub fn samples(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |(d, _, _, _)| d.len())
    }
}

/// Per-phase difference of a histogram snapshot.
pub fn hist_delta(after: &HistSnapshot, before: &HistSnapshot) -> HistSnapshot {
    let buckets = after
        .buckets
        .iter()
        .enumerate()
        .map(|(i, &c)| c.saturating_sub(before.buckets.get(i).copied().unwrap_or(0)))
        .collect();
    HistSnapshot {
        buckets,
        count: after.count.saturating_sub(before.count),
        sum: after.sum.wrapping_sub(before.sum),
        min: after.min,
        max: after.max,
    }
}

/// The `q`-quantile of a histogram, interpolated linearly within the
/// bucket holding the ranked sample.
pub fn hist_quantile(h: &HistSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).max(1.0);
    let mut seen = 0.0;
    for (idx, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let c = c as f64;
        if seen + c >= rank {
            let (lo, hi) = bucket_bounds(idx);
            let hi = (hi as f64).min(h.max as f64 + 1.0).max(lo as f64);
            return lo as f64 + (hi - lo as f64) * ((rank - seen) / c);
        }
        seen += c;
    }
    h.max as f64
}

/// Writes every span as one JSON line.
pub fn write_spans<'a>(
    path: &Path,
    logs: impl IntoIterator<Item = &'a SpanLog>,
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for log in logs {
        for s in &log.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"req\":{},\"parent\":{},\"start_ns\":{},\"dur_ns\":{},\"cpu_ns\":{},\"count\":{}}}",
                s.name,
                s.req,
                if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) },
                s.start_ns,
                s.dur_ns,
                s.cpu_ns,
                s.count
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_deltas_and_interpolated_quantiles() {
        let before = HistSnapshot {
            buckets: vec![0, 2],
            count: 2,
            sum: 2,
            min: 1,
            max: 1,
        };
        let top = mrtweb_obs::hist::bucket_index(1000);
        let mut buckets = vec![0u64; top + 1];
        buckets[1] = 2;
        buckets[top] = 10;
        let after = HistSnapshot {
            buckets,
            count: 12,
            sum: 10_002,
            min: 1,
            max: 1000,
        };
        let d = hist_delta(&after, &before);
        assert_eq!(d.count, 10);
        let p50 = hist_quantile(&d, 0.5);
        assert!((896.0..=1001.0).contains(&p50), "{p50}");
    }
}
