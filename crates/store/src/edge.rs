//! The edge cache: cooked dispersed blobs resident at the base station.
//!
//! The paper's base station (Figure 1) is where weakly-connected
//! clients win or lose; this module keeps *cooked* transmissions there
//! so a repeat request never touches the erasure codec. The at-rest
//! format is the MRTB dispersed blob ([`crate::codec::encode_dispersed`])
//! — encoding happens exactly once, before admission, and framing for
//! the wire once per admission or re-hydration; a hit hands out the
//! resident [`LiveServer`] itself (zero `EncodeSpan`s, zero copies).
//!
//! Structure:
//!
//! * **memory** — one pre-framed [`LiveServer`] per entry under a byte
//!   budget counted in cooked payload bytes, in a two-segment
//!   (probation/protected) LRU; eviction is planned by
//!   [`crate::evict::plan_eviction`], which sheds low-IC parity first
//!   and pins hot clear-text prefixes longest. Trimming swaps in a
//!   smaller server; sessions already serving keep the one they hold;
//! * **disk** — the full blob, written temp-file-and-rename at
//!   admission; a trimmed or flushed entry re-hydrates from it, and a
//!   rotted record is skipped (any `M` intact packets still serve);
//! * **migration** — [`crate::migrate`] frames `(key, header, blob)`
//!   into a CRC-guarded record another cell's cache admits verbatim,
//!   the roaming path of Stanski et al.'s archive container.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use mrtweb_content::sc::Measure;
use mrtweb_docmodel::lod::Lod;
use mrtweb_obs::clock::now_nanos;
use mrtweb_obs::{emit, hist::Histogram, EventKind, Span};
use mrtweb_transport::live::{DocumentHeader, LiveServer};

use crate::codec::{BlobPackets, CodecError};
use crate::disk::fnv1a;
use crate::evict::{plan_eviction, Action, Resident, Segment};
use crate::gateway::Request;

/// Everything that shapes a cached transmission — the key of both this
/// cache and the gateway's prepared-transmission map, public so
/// migration records can carry it between cells.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EdgeKey {
    /// Document URL.
    pub url: String,
    /// Free-text query (empty → static IC ordering).
    pub query: String,
    /// Transmission level of detail.
    pub lod: Lod,
    /// Content measure ordering the units.
    pub measure: Measure,
    /// Raw packet size.
    pub packet_size: usize,
    /// Redundancy ratio γ, bit-exact (`f64::to_bits`).
    pub gamma_bits: u64,
}

impl EdgeKey {
    /// The key a request maps to.
    #[must_use]
    pub fn of(request: &Request) -> Self {
        EdgeKey {
            url: request.url.clone(),
            query: request.query.clone(),
            lod: request.lod,
            measure: request.measure,
            packet_size: request.packet_size,
            gamma_bits: request.gamma.to_bits(),
        }
    }

    /// Stable, filesystem-safe blob filename for this key.
    fn file_name(&self) -> String {
        let canon = format!(
            "{}\u{1f}{}\u{1f}{}\u{1f}{:?}\u{1f}{}\u{1f}{:016x}",
            self.url,
            self.query,
            self.lod.depth(),
            self.measure,
            self.packet_size,
            self.gamma_bits
        );
        format!("{:016x}.mrtb", fnv1a(&canon))
    }
}

/// Edge-cache errors.
#[derive(Debug)]
pub enum EdgeError {
    /// Underlying I/O failure on the blob directory.
    Io(io::Error),
    /// A blob or migration record failed to parse or validate.
    Codec(CodecError),
}

impl std::fmt::Display for EdgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EdgeError::Io(e) => write!(f, "edge i/o error: {e}"),
            EdgeError::Codec(e) => write!(f, "edge {e}"),
        }
    }
}

impl std::error::Error for EdgeError {}

impl From<io::Error> for EdgeError {
    fn from(e: io::Error) -> Self {
        EdgeError::Io(e)
    }
}

impl From<CodecError> for EdgeError {
    fn from(e: CodecError) -> Self {
        EdgeError::Codec(e)
    }
}

/// A serve-ready cached transmission: the entry's pre-framed server,
/// shared with the cache and every other session serving it. It holds
/// at least `M` frames (trimmed or rotted packets are not held; any `M`
/// reconstruct).
#[derive(Debug, Clone)]
pub struct EdgeServed {
    /// The transmission, framed once when the entry was admitted or
    /// re-hydrated.
    pub server: Arc<LiveServer>,
    /// The store generation the blob was cooked from
    /// ([`EdgeCache::admit_from_store`]), or `None` for entries the
    /// edge holds authoritatively (a migrated blob from another cell).
    /// The gateway compares it against the store's current generation
    /// before honouring a hit, so a replaced or deleted document never
    /// keeps serving from the cache.
    pub origin: Option<u64>,
}

/// Point-in-time cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeStats {
    /// Lookups served from resident or re-hydrated packets.
    pub hits: u64,
    /// Lookups that found nothing servable.
    pub misses: u64,
    /// Whole entries evicted from memory and disk.
    pub evictions: u64,
    /// Parity packets trimmed from memory (blob stays on disk).
    pub trimmed_packets: u64,
    /// Migration records shipped out of this cell.
    pub migrations_out: u64,
    /// Migration records admitted from another cell.
    pub migrations_in: u64,
    /// Admissions that failed outright (cache-disk I/O, blob/header
    /// disagreement) — the request still serves from the cooked blob,
    /// only the cache copy is lost.
    pub admit_failures: u64,
    /// Bytes currently resident in memory.
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

/// One resident entry: a serve-ready server in memory, full blob on
/// disk.
#[derive(Debug)]
struct Entry {
    /// The framed transmission; a frame it does not hold was trimmed
    /// from memory or rotted at rest. Indices `0..m` are the clear-text
    /// prefix.
    server: Arc<LiveServer>,
    /// Store generation the blob was cooked from; `None` = the edge
    /// holds this entry authoritatively (migrated from another cell).
    origin: Option<u64>,
    segment: Segment,
    last_used: u64,
}

impl Entry {
    /// Resident cooked payload bytes: the budget's unit.
    fn resident_bytes(&self) -> usize {
        self.server.held() * self.server.header().packet_size
    }

    fn as_resident(&self) -> Resident {
        let header = self.server.header();
        let ps = header.packet_size;
        let clear = (0..header.m)
            .filter(|&i| self.server.frame_bytes(i).is_some())
            .count();
        let parity = self.server.held() - clear;
        Resident {
            segment: self.segment,
            last_used: self.last_used,
            clear_bytes: clear * ps,
            parity_bytes: parity * ps,
            parity_packets: parity,
            packet_size: ps,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<EdgeKey, Entry>,
    /// Monotone use tick driving the LRU ordering.
    tick: u64,
    /// Sum of [`Entry::resident_bytes`] over `entries`.
    resident: usize,
}

impl Inner {
    fn insert(&mut self, key: EdgeKey, entry: Entry) {
        self.resident += entry.resident_bytes();
        if let Some(old) = self.entries.insert(key, entry) {
            self.resident -= old.resident_bytes();
        }
    }

    fn remove(&mut self, key: &EdgeKey) -> Option<Entry> {
        let entry = self.entries.remove(key)?;
        self.resident -= entry.resident_bytes();
        Some(entry)
    }

    /// Swaps in a re-hydrated server for `key`.
    fn set_server(&mut self, key: &EdgeKey, server: Arc<LiveServer>) {
        if let Some(entry) = self.entries.get_mut(key) {
            self.resident -= entry.resident_bytes();
            entry.server = server;
            self.resident += entry.resident_bytes();
        }
    }

    /// Drops the frames of `key`'s server that fail `keep`; returns how
    /// many were dropped.
    fn retain_frames(&mut self, key: &EdgeKey, keep: impl Fn(usize) -> bool) -> usize {
        let Some(entry) = self.entries.get_mut(key) else {
            return 0;
        };
        let dropped = LiveServer::retain_frames(&mut entry.server, keep);
        self.resident -= dropped * entry.server.header().packet_size;
        dropped
    }
}

/// A bounded, disk-backed cache of cooked dispersed blobs.
#[derive(Debug)]
pub struct EdgeCache {
    dir: PathBuf,
    byte_budget: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    trimmed_packets: AtomicU64,
    migrations_out: AtomicU64,
    migrations_in: AtomicU64,
    admit_failures: AtomicU64,
    /// Hit serve latency, lookup to serve-ready packets, nanoseconds.
    hit_ns: Histogram,
}

impl EdgeCache {
    /// Opens (creating if needed) a cache over `dir` with a resident
    /// byte budget.
    ///
    /// # Errors
    ///
    /// I/O failure creating the blob directory.
    pub fn new(dir: impl Into<PathBuf>, byte_budget: usize) -> Result<Self, EdgeError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(EdgeCache {
            dir,
            byte_budget,
            inner: Mutex::new(Inner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            trimmed_packets: AtomicU64::new(0),
            migrations_out: AtomicU64::new(0),
            migrations_in: AtomicU64::new(0),
            admit_failures: AtomicU64::new(0),
            hit_ns: Histogram::new(),
        })
    }

    /// The resident byte budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.byte_budget
    }

    /// The blob directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Bytes currently resident in memory.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().resident
    }

    /// Whether `key` has a resident entry.
    #[must_use]
    pub fn contains(&self, key: &EdgeKey) -> bool {
        self.inner.lock().entries.contains_key(key)
    }

    /// Resident entry count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The on-disk blob path for `key` (whether or not it exists yet) —
    /// the fault harness rots bytes through this.
    #[must_use]
    pub fn blob_path(&self, key: &EdgeKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Point-in-time statistics.
    #[must_use]
    pub fn stats(&self) -> EdgeStats {
        // ORDERING: monitoring counters — each total is independently
        // exact; a torn snapshot only skews one report line.
        EdgeStats {
            // ORDERING: monitoring counters — each total is
            // independently exact; a torn snapshot only skews one
            // report line.
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            trimmed_packets: self.trimmed_packets.load(Ordering::Relaxed),
            migrations_out: self.migrations_out.load(Ordering::Relaxed),
            migrations_in: self.migrations_in.load(Ordering::Relaxed),
            admit_failures: self.admit_failures.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes(),
            entries: self.len(),
        }
    }

    /// Hit serve-latency histogram (nanoseconds).
    #[must_use]
    pub fn hit_latency(&self) -> &Histogram {
        &self.hit_ns
    }

    /// Admits a cooked blob under `key`. The blob is validated against
    /// `header`, written durably to disk, and its intact packets made
    /// resident; the byte budget is then enforced (other entries trim
    /// parity or leave memory, per [`crate::evict`]).
    ///
    /// The entry carries no origin generation — the edge vouches for it
    /// unconditionally (the roaming case). When the blob was cooked
    /// from a document in this cell's store, use
    /// [`EdgeCache::admit_from_store`] instead so replacement of that
    /// document invalidates the cached blob.
    ///
    /// Returns `Ok(false)` — refused, nothing written — when the
    /// clear-text prefix alone (`m · packet_size`) exceeds the whole
    /// budget: such an entry could never serve from memory within it.
    ///
    /// # Errors
    ///
    /// [`EdgeError::Codec`] if the blob does not parse, disagrees with
    /// `header`, or holds fewer than `M` intact packets;
    /// [`EdgeError::Io`] on disk failure.
    pub fn admit(
        &self,
        key: EdgeKey,
        header: DocumentHeader,
        blob: &[u8],
    ) -> Result<bool, EdgeError> {
        self.admit_with_origin(key, header, blob, None)
    }

    /// Like [`EdgeCache::admit`], but stamps the entry with the store
    /// generation of the document the blob was cooked from. A later hit
    /// is honoured only while the store still holds that exact
    /// generation ([`EdgeServed::origin`]).
    ///
    /// # Errors
    ///
    /// Same as [`EdgeCache::admit`].
    pub fn admit_from_store(
        &self,
        key: EdgeKey,
        header: DocumentHeader,
        blob: &[u8],
        generation: u64,
    ) -> Result<bool, EdgeError> {
        self.admit_with_origin(key, header, blob, Some(generation))
    }

    fn admit_with_origin(
        &self,
        key: EdgeKey,
        header: DocumentHeader,
        blob: &[u8],
        origin: Option<u64>,
    ) -> Result<bool, EdgeError> {
        let admitted = frame_blob(header, blob)
            .and_then(|server| self.try_admit(key, Arc::new(server), blob, origin));
        self.tally(admitted)
    }

    /// Like [`EdgeCache::admit_from_store`], for a blob the caller has
    /// already framed into `server` (the gateway's miss path): the entry
    /// and the caller's session share that one server.
    pub(crate) fn admit_framed(
        &self,
        key: EdgeKey,
        server: Arc<LiveServer>,
        blob: &[u8],
        generation: u64,
    ) -> Result<bool, EdgeError> {
        self.tally(self.try_admit(key, server, blob, Some(generation)))
    }

    fn tally(&self, admitted: Result<bool, EdgeError>) -> Result<bool, EdgeError> {
        if admitted.is_err() {
            // ORDERING: monitoring tally only.
            self.admit_failures.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    fn try_admit(
        &self,
        key: EdgeKey,
        server: Arc<LiveServer>,
        blob: &[u8],
        origin: Option<u64>,
    ) -> Result<bool, EdgeError> {
        let header = server.header();
        if header.m.saturating_mul(header.packet_size) > self.byte_budget {
            return Ok(false);
        }
        let path = self.blob_path(&key);
        let tmp = path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(blob)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.insert(
            key,
            Entry {
                server,
                origin,
                segment: Segment::Probation,
                last_used: tick,
            },
        );
        self.enforce_budget(&mut inner);
        Ok(true)
    }

    /// Looks `key` up and returns its serve-ready transmission, or
    /// `None` on a miss. A hit touches the entry (probation → protected
    /// on re-reference), never invokes the erasure codec and copies
    /// nothing: it hands out the entry's shared server. If memory holds
    /// fewer than `M` intact packets the entry re-hydrates from its
    /// on-disk blob, skipping rotted records. An entry that cannot
    /// reach `M` even from disk is dropped — the request falls back to
    /// the encode path.
    #[must_use]
    pub fn serve(&self, key: &EdgeKey) -> Option<EdgeServed> {
        let t0 = now_nanos();
        let span = Span::start(EventKind::EdgeServeSpan);
        let mut inner = self.inner.lock();
        let Some(entry) = inner.entries.get(key) else {
            drop(inner);
            // ORDERING: monitoring tally only.
            self.misses.fetch_add(1, Ordering::Relaxed);
            emit(EventKind::EdgeMiss, 0, 0);
            span.end(0);
            return None;
        };
        let m = entry.server.header().m;
        if entry.server.held() < m {
            // Trimmed or flushed below the any-M margin: re-hydrate
            // from the at-rest blob. Disk I/O under the lock is the
            // rare path (only after budget pressure or rot), and keeps
            // the entry state transition atomic. The blob is checked
            // against the entry's header like at admission: blob
            // filenames are a 64-bit hash, so a colliding key's blob
            // (or any swapped file) must not hydrate under this entry —
            // a mismatch counts as at-rest rot.
            let header = entry.server.header().clone();
            let rehydrated = fs::read(self.blob_path(key))
                .ok()
                .and_then(|blob| frame_blob(header, &blob).ok());
            let Some(server) = rehydrated else {
                // The blob rotted below M (or vanished): the entry is
                // unservable; drop it.
                inner.remove(key);
                drop(inner);
                // ORDERING: monitoring tally only.
                self.misses.fetch_add(1, Ordering::Relaxed);
                emit(EventKind::EdgeMiss, 1, 0);
                span.end(0);
                return None;
            };
            inner.set_server(key, Arc::new(server));
            self.enforce_budget(&mut inner);
            if !inner.entries.contains_key(key) {
                // Budget pressure evicted the freshly re-hydrated entry
                // (it was colder than everything else resident).
                drop(inner);
                // ORDERING: monitoring tally only.
                self.misses.fetch_add(1, Ordering::Relaxed);
                emit(EventKind::EdgeMiss, 1, 0);
                span.end(0);
                return None;
            }
        }
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner
            .entries
            .get_mut(key)
            .unwrap_or_else(|| unreachable!("presence checked under the same lock"));
        entry.last_used = tick;
        entry.segment = Segment::Protected;
        let served = EdgeServed {
            server: Arc::clone(&entry.server),
            origin: entry.origin,
        };
        drop(inner);
        // ORDERING: monitoring tally only.
        self.hits.fetch_add(1, Ordering::Relaxed);
        emit(EventKind::EdgeHit, served.server.held() as u64, m as u64);
        self.hit_ns.record(now_nanos().saturating_sub(t0));
        span.end(1);
        Some(served)
    }

    /// Drops every entry's frames from memory (blobs stay on disk), so
    /// the next serve must re-hydrate — a deterministic way to exercise
    /// the disk path in tests and the fault harness.
    pub fn flush_resident(&self) {
        let inner = &mut *self.inner.lock();
        for entry in inner.entries.values_mut() {
            LiveServer::retain_frames(&mut entry.server, |_| false);
        }
        inner.resident = 0;
    }

    /// Removes `key` entirely (memory + disk), like a budget eviction.
    pub fn remove(&self, key: &EdgeKey) {
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.remove(key) {
            drop(inner);
            let _ = fs::remove_file(self.blob_path(key));
            // ORDERING: monitoring tally only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
            emit(EventKind::EdgeEvict, entry.resident_bytes() as u64, 1);
        }
    }

    /// Reads the at-rest blob for `key`, with its header — the payload a
    /// migration record ships to another cell.
    #[must_use]
    pub fn export_blob(&self, key: &EdgeKey) -> Option<(DocumentHeader, Vec<u8>)> {
        let header = {
            let inner = self.inner.lock();
            inner.entries.get(key)?.server.header().clone()
        };
        let blob = fs::read(self.blob_path(key)).ok()?;
        // ORDERING: monitoring tally only.
        self.migrations_out.fetch_add(1, Ordering::Relaxed);
        Some((header, blob))
    }

    /// Admits a blob that arrived in a migration record from another
    /// cell. Same admission rules as [`EdgeCache::admit`].
    ///
    /// # Errors
    ///
    /// Same as [`EdgeCache::admit`].
    pub fn admit_migrated(
        &self,
        key: EdgeKey,
        header: DocumentHeader,
        blob: &[u8],
    ) -> Result<bool, EdgeError> {
        let admitted = self.admit(key, header, blob)?;
        if admitted {
            // ORDERING: monitoring tally only.
            self.migrations_in.fetch_add(1, Ordering::Relaxed);
        }
        Ok(admitted)
    }

    /// Brings residency back under the byte budget by applying the
    /// planner's actions: parity trims first, whole evictions last.
    /// Caller holds the lock.
    fn enforce_budget(&self, inner: &mut Inner) {
        if inner.resident <= self.byte_budget {
            return;
        }
        let excess = inner.resident - self.byte_budget;
        let (keys, snapshot): (Vec<&EdgeKey>, Vec<Resident>) = inner
            .entries
            .iter()
            .map(|(k, e)| (k, e.as_resident()))
            .unzip();
        let plan: Vec<(EdgeKey, Action)> = plan_eviction(&snapshot, excess)
            .into_iter()
            .map(|action| {
                let (Action::TrimParity { victim, .. } | Action::Evict { victim }) = action;
                (keys[victim].clone(), action)
            })
            .collect();
        for (key, action) in plan {
            match action {
                Action::TrimParity { packets, .. } => {
                    let Some(entry) = inner.entries.get(&key) else {
                        continue;
                    };
                    // The `packets` highest held parity frames go: every
                    // held frame from the lowest of them up.
                    let server = &entry.server;
                    let (m, n) = (server.header().m, server.header().n);
                    let cut = (m..n)
                        .rev()
                        .filter(|&i| server.frame_bytes(i).is_some())
                        .take(packets)
                        .last()
                        .unwrap_or(n);
                    let ps = server.header().packet_size as u64;
                    let trimmed = inner.retain_frames(&key, |i| i < cut) as u64;
                    // ORDERING: monitoring tally only.
                    self.trimmed_packets.fetch_add(trimmed, Ordering::Relaxed);
                    emit(EventKind::EdgeEvict, trimmed * ps, 0);
                }
                Action::Evict { .. } => {
                    if let Some(entry) = inner.remove(&key) {
                        let _ = fs::remove_file(self.blob_path(&key));
                        // ORDERING: monitoring tally only.
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                        emit(EventKind::EdgeEvict, entry.resident_bytes() as u64, 1);
                    }
                }
            }
        }
    }
}

/// Parses `blob`, checks it against `header`, and frames its intact
/// packets (rotted records are not held) into a server.
///
/// # Errors
///
/// [`EdgeError::Codec`] if the blob does not parse, disagrees with
/// `header`, or holds fewer than `M` intact packets.
pub(crate) fn frame_blob(header: DocumentHeader, blob: &[u8]) -> Result<LiveServer, EdgeError> {
    let view = BlobPackets::parse(blob)?;
    if view.m() != header.m
        || view.n() != header.n
        || view.packet_size() != header.packet_size
        || view.doc_len() != header.doc_len
        || view.groups() != 1
        || header.plan.total_bytes() != header.doc_len
    {
        return Err(EdgeError::Codec(CodecError(
            "blob disagrees with transmission header",
        )));
    }
    let payloads = (0..view.n()).map(|i| view.is_intact(0, i).then(|| view.packet(0, i)));
    LiveServer::from_payloads(header, payloads)
        .map_err(|_| EdgeError::Codec(CodecError("blob holds fewer than M intact packets")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::encode_dispersed;
    use mrtweb_content::sc::StructuralCharacteristic;
    use mrtweb_docmodel::document::Document;
    use mrtweb_transport::live::frame_wire;
    use mrtweb_transport::plan::plan_document;

    fn temp_dir(tag: &str) -> PathBuf {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let dir = std::env::temp_dir().join(format!("mrtweb-edge-{tag}-{nanos}"));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fixture(packet_size: usize, gamma: f64) -> (EdgeKey, DocumentHeader, Vec<u8>) {
        let doc = Document::parse_xml(
            "<document><title>Edge</title>\
             <section><title>Hot</title>\
             <paragraph>mobile wireless browsing content for the cache</paragraph></section>\
             <section><title>Cold</title>\
             <paragraph>appendix material nobody requested yet today</paragraph></section>\
             </document>",
        )
        .unwrap();
        let pipeline = mrtweb_textproc::pipeline::ScPipeline::default();
        let idx = pipeline.run(&doc);
        let sc = StructuralCharacteristic::from_index(&idx, None);
        let (plan, payload) = plan_document(&doc, &sc, Lod::Paragraph, Measure::Ic);
        let m = plan.raw_packets(packet_size);
        let n = ((m as f64 * gamma).round() as usize).max(m);
        let blob = encode_dispersed(&payload, m, n, packet_size).unwrap();
        let header = DocumentHeader {
            doc_len: payload.len(),
            m,
            n,
            packet_size,
            plan,
        };
        let key = EdgeKey {
            url: "http://cell/a".into(),
            query: String::new(),
            lod: Lod::Paragraph,
            measure: Measure::Ic,
            packet_size,
            gamma_bits: gamma.to_bits(),
        };
        (key, header, blob)
    }

    #[test]
    fn admit_then_serve_round_trips_packets() {
        let dir = temp_dir("roundtrip");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        assert!(cache.admit(key.clone(), header.clone(), &blob).unwrap());
        let served = cache.serve(&key).unwrap();
        assert_eq!(*served.server.header(), header);
        assert_eq!(served.server.held(), header.n);
        let view = BlobPackets::parse(&blob).unwrap();
        for i in 0..header.n {
            let want = frame_wire(i as u16, view.packet(0, i));
            assert_eq!(served.server.frame_bytes(i), Some(&want[..]));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn miss_on_absent_key() {
        let dir = temp_dir("miss");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, ..) = fixture(64, 1.5);
        assert!(cache.serve(&key).is_none());
        assert_eq!(cache.stats().misses, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_is_enforced_after_every_admission() {
        let dir = temp_dir("budget");
        let (key, header, blob) = fixture(64, 1.5);
        let budget = header.m * header.packet_size + header.packet_size;
        let cache = EdgeCache::new(&dir, budget).unwrap();
        for i in 0..4 {
            let k = EdgeKey {
                url: format!("http://cell/{i}"),
                ..key.clone()
            };
            assert!(cache.admit(k, header.clone(), &blob).unwrap());
            assert!(
                cache.resident_bytes() <= budget,
                "resident {} over budget {budget}",
                cache.resident_bytes()
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clear_prefix_larger_than_budget_is_refused() {
        let dir = temp_dir("refuse");
        let (key, header, blob) = fixture(64, 1.5);
        let cache = EdgeCache::new(&dir, header.m * header.packet_size - 1).unwrap();
        assert!(!cache.admit(key.clone(), header, &blob).unwrap());
        assert!(!cache.contains(&key));
        assert!(!cache.blob_path(&key).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trimmed_entry_rehydrates_from_disk() {
        let dir = temp_dir("rehydrate");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        cache.admit(key.clone(), header.clone(), &blob).unwrap();
        cache.flush_resident();
        let served = cache.serve(&key).unwrap();
        assert_eq!(served.server.held(), header.n);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rehydrated_frames_are_byte_identical_to_the_admitted_ones() {
        let dir = temp_dir("reframe");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        cache.admit(key.clone(), header.clone(), &blob).unwrap();
        let first = cache.serve(&key).unwrap().server;
        cache.flush_resident();
        assert_eq!(cache.resident_bytes(), 0);
        // The session holding `first` keeps every frame it was served.
        assert_eq!(first.held(), header.n);
        let again = cache.serve(&key).unwrap().server;
        assert!(!Arc::ptr_eq(&first, &again), "re-hydration frames anew");
        assert_eq!(again.header(), first.header());
        for i in 0..header.n {
            assert_eq!(again.frame_bytes(i), first.frame_bytes(i), "frame {i}");
        }
        assert_eq!(cache.resident_bytes(), header.n * header.packet_size);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_trim_leaves_the_frames_a_session_holds_intact() {
        let dir = temp_dir("trim-held");
        let (key, header, blob) = fixture(64, 2.0);
        let (m, n, ps) = (header.m, header.n, header.packet_size);
        assert!(
            n - m >= 2,
            "fixture needs two parity packets, has {}",
            n - m
        );
        // Two clear prefixes and one parity packet: admitting a second
        // entry trims all of its parity and all but one of the first's.
        let budget = (2 * m + 1) * ps;
        let cache = EdgeCache::new(&dir, budget).unwrap();
        let k1 = EdgeKey {
            url: "http://cell/1".into(),
            ..key.clone()
        };
        let k2 = EdgeKey {
            url: "http://cell/2".into(),
            ..key
        };
        cache.admit(k1.clone(), header.clone(), &blob).unwrap();
        let session = cache.serve(&k1).unwrap().server;
        let frames: Vec<Vec<u8>> = (0..n)
            .map(|i| session.frame_bytes(i).unwrap().to_vec())
            .collect();
        assert_eq!(cache.resident_bytes(), n * ps);
        cache.admit(k2, header, &blob).unwrap();
        assert_eq!(cache.resident_bytes(), budget);
        let trimmed = cache.serve(&k1).unwrap().server;
        assert_eq!(trimmed.held(), m + 1);
        assert!(!Arc::ptr_eq(&session, &trimmed));
        assert_eq!(session.held(), n);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(session.frame_bytes(i), Some(&frame[..]), "frame {i}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotted_blob_below_m_becomes_a_reported_miss() {
        let dir = temp_dir("rot");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        cache.admit(key.clone(), header, &blob).unwrap();
        // Truncate the at-rest blob so it cannot parse at all.
        fs::write(cache.blob_path(&key), b"MRTB").unwrap();
        cache.flush_resident();
        assert!(cache.serve(&key).is_none());
        assert!(!cache.contains(&key));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rehydration_rejects_a_blob_that_disagrees_with_the_header() {
        // Blob filenames are a 64-bit hash: a collision (or any swapped
        // file) can put a differently-shaped blob under this entry's
        // name. Rehydration must cross-check the header, like admission
        // does, and treat the mismatch as at-rest rot.
        let dir = temp_dir("swap");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, _) = fixture(64, 1.5);
        let (_, other_header, other_blob) = fixture(32, 1.5);
        assert_ne!(header.packet_size, other_header.packet_size);
        let (_, _, blob) = fixture(64, 1.5);
        cache.admit(key.clone(), header, &blob).unwrap();
        // Swap in a valid blob of the wrong shape, then force the disk
        // path.
        fs::write(cache.blob_path(&key), &other_blob).unwrap();
        cache.flush_resident();
        assert!(cache.serve(&key).is_none());
        assert!(!cache.contains(&key));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_admission_is_tallied() {
        let dir = temp_dir("admitfail");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        // Blob directory gone: the durable write must fail.
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            cache.admit(key.clone(), header, &blob),
            Err(EdgeError::Io(_))
        ));
        assert_eq!(cache.stats().admit_failures, 1);
        assert!(!cache.contains(&key));
    }

    #[test]
    fn admission_over_budget_evicts_the_colder_entry() {
        let dir = temp_dir("evict");
        let (key, header, blob) = fixture(64, 1.5);
        let budget = header.m * header.packet_size;
        let cache = EdgeCache::new(&dir, budget).unwrap();
        let k1 = EdgeKey {
            url: "http://cell/1".into(),
            ..key.clone()
        };
        let k2 = EdgeKey {
            url: "http://cell/2".into(),
            ..key
        };
        cache.admit(k1.clone(), header.clone(), &blob).unwrap();
        cache.admit(k2.clone(), header, &blob).unwrap();
        // Budget fits one clear prefix: admitting k2 evicted k1.
        assert!(!cache.contains(&k1));
        assert!(cache.contains(&k2));
        assert!(!cache.blob_path(&k1).exists());
        assert_eq!(cache.stats().evictions, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migration_export_admits_at_a_second_cell() {
        let dir_a = temp_dir("cell-a");
        let dir_b = temp_dir("cell-b");
        let a = EdgeCache::new(&dir_a, 1 << 20).unwrap();
        let b = EdgeCache::new(&dir_b, 1 << 20).unwrap();
        let (key, header, blob) = fixture(64, 1.5);
        a.admit(key.clone(), header, &blob).unwrap();
        let (h, exported) = a.export_blob(&key).unwrap();
        assert_eq!(exported, blob);
        assert!(b.admit_migrated(key.clone(), h, &exported).unwrap());
        let sa = a.serve(&key).unwrap().server;
        let sb = b.serve(&key).unwrap().server;
        assert_eq!(sa.header(), sb.header());
        for i in 0..sa.header().n {
            assert_eq!(sa.frame_bytes(i), sb.frame_bytes(i));
        }
        assert_eq!(a.stats().migrations_out, 1);
        assert_eq!(b.stats().migrations_in, 1);
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn blob_header_disagreement_is_rejected() {
        let dir = temp_dir("mismatch");
        let cache = EdgeCache::new(&dir, 1 << 20).unwrap();
        let (key, mut header, blob) = fixture(64, 1.5);
        header.n += 1;
        assert!(matches!(
            cache.admit(key, header, &blob),
            Err(EdgeError::Codec(_))
        ));
        fs::remove_dir_all(&dir).unwrap();
    }
}
