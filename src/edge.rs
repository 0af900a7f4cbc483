//! Edge-cache and roaming driver: the base station serving cooked blobs.
//!
//! Wires the whole stack into the cell architecture the paper's
//! Figure 1 implies: a [`mrtweb_store::gateway::Gateway`] fronting each
//! base station keeps cooked MRTB dispersed blobs in a bounded,
//! disk-backed [`mrtweb_store::edge::EdgeCache`], so a repeat request
//! replays frames built once at admission instead of re-running the
//! slicer, the ranker, and the GF(2⁸) codec. Two drivers:
//!
//! * [`run`] — one cell under a request stream: measures cache-hit vs
//!   encode-on-miss latency and proves the zero-re-encode claim (the
//!   trace's `EncodeSpan` count equals the number of *distinct
//!   documents*, not requests);
//! * [`roam`] — two shared-nothing cells: a client mid-transfer at cell
//!   A roams to cell B, whose only knowledge of the document arrives in
//!   one CRC-framed migration record ([`mrtweb_store::migrate`]); the
//!   client resumes with the packets it already holds and only the
//!   missing ones cross the new wireless hop.
//!
//! Everything is deterministic in the seed; latencies are wall-clock
//! (they feed the `edge` section of `BENCH_proxy.json`).

use std::fmt::Write as _;
use std::sync::Arc;

use mrtweb_content::query::Query;
use mrtweb_content::sc::Measure;
use mrtweb_docmodel::gen::SyntheticDocSpec;
use mrtweb_docmodel::lod::Lod;
use mrtweb_obs::clock::now_nanos;
use mrtweb_obs::{emit, EventKind};
use mrtweb_store::edge::{EdgeCache, EdgeKey};
use mrtweb_store::gateway::{Gateway, Request};
use mrtweb_store::migrate::{decode_record, encode_record, MigrationRecord};
use mrtweb_store::store::DocumentStore;
use mrtweb_transport::live::{LiveClient, LiveServer};
use mrtweb_transport::plan::plan_document;

/// One edge-cell simulation's knobs. Deterministic in `seed` (latencies
/// excepted — they are real wall-clock measurements).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Distinct documents in the cell's corpus.
    pub docs: usize,
    /// Total requests, round-robin over the corpus (so each document
    /// misses once and hits `requests/docs − 1` times under a roomy
    /// budget).
    pub requests: usize,
    /// The edge cache's resident byte budget.
    pub byte_budget: usize,
    /// Raw packet size in bytes.
    pub packet_size: usize,
    /// Redundancy ratio γ (`N = round(γM)`).
    pub gamma: f64,
    /// Seed for the synthetic corpus.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            docs: 8,
            requests: 64,
            byte_budget: 1 << 20,
            packet_size: 64,
            gamma: 1.5,
            seed: 42,
        }
    }
}

/// Aggregate report of one single-cell run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Distinct documents requested.
    pub docs: usize,
    /// Requests issued.
    pub requests: usize,
    /// Requests served from the edge cache.
    pub hits: u64,
    /// Requests that cooked a blob (encode path).
    pub misses: u64,
    /// `EncodeSpan` events in the trace — equals `docs` when every
    /// repeat request was served without touching the codec.
    pub encode_spans: u64,
    /// Cache-hit serve latency, median, milliseconds.
    pub cache_hit_p50_ms: f64,
    /// Cache-hit serve latency, 99th percentile, milliseconds.
    pub cache_hit_p99_ms: f64,
    /// Encode-on-miss latency, median, milliseconds.
    pub encode_miss_p50_ms: f64,
    /// Encode-on-miss latency, 99th percentile, milliseconds.
    pub encode_miss_p99_ms: f64,
    /// `hits / requests`, percent.
    pub cache_hit_rate_pct: f64,
    /// `encode_miss_p50_ms / cache_hit_p50_ms`.
    pub cache_hit_speedup_vs_miss: f64,
    /// Whether every checked hit served frames byte-identical to the
    /// miss that cooked them.
    pub byte_identical: bool,
    /// Whole entries the budget evicted.
    pub evictions: u64,
    /// Parity packets trimmed from memory by the budget.
    pub trimmed_packets: u64,
    /// Bytes resident when the run ended.
    pub resident_bytes: usize,
    /// The configured byte budget.
    pub byte_budget: usize,
}

impl RunReport {
    /// The tentpole claim: encoding happened once per *document*, never
    /// per request. Only meaningful when the budget held every entry
    /// (an eviction legitimately forces a re-encode on the next miss).
    #[must_use]
    pub fn zero_reencode(&self) -> bool {
        self.encode_spans == self.docs as u64
    }

    /// Whether residency stayed within the configured budget.
    #[must_use]
    pub fn under_budget(&self) -> bool {
        self.resident_bytes <= self.byte_budget
    }

    /// Human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "edge: docs={} requests={} hits={} misses={} hit_rate={:.1}%",
            self.docs, self.requests, self.hits, self.misses, self.cache_hit_rate_pct
        );
        let _ = writeln!(
            out,
            "latency ms: hit p50={:.4} p99={:.4} | miss p50={:.4} p99={:.4} | speedup={:.1}x",
            self.cache_hit_p50_ms,
            self.cache_hit_p99_ms,
            self.encode_miss_p50_ms,
            self.encode_miss_p99_ms,
            self.cache_hit_speedup_vs_miss
        );
        let _ = writeln!(
            out,
            "encodes={} (docs={}) zero_reencode={} byte_identical={}",
            self.encode_spans,
            self.docs,
            self.zero_reencode(),
            self.byte_identical
        );
        let _ = writeln!(
            out,
            "budget: resident_bytes={} byte_budget={} under_budget={} evictions={} trimmed_packets={}",
            self.resident_bytes,
            self.byte_budget,
            self.under_budget(),
            self.evictions,
            self.trimmed_packets
        );
        out
    }
}

/// What happened to one roamed document.
#[derive(Debug, Clone)]
pub struct RoamOutcome {
    /// Corpus index.
    pub doc: usize,
    /// Raw packets `M` of the transmission.
    pub m: usize,
    /// Cooked packets the client already held when it roamed.
    pub held: usize,
    /// Frames the new cell pushed over its wireless hop.
    pub new_hop_frames: usize,
    /// Size of the one migration record that crossed the backhaul.
    pub record_bytes: usize,
    /// Size of the blob inside it.
    pub blob_bytes: usize,
    /// Whether the resumed reconstruction is byte-identical to the
    /// source payload.
    pub byte_identical: bool,
    /// Whether cell B served from its edge cache (it must: its store
    /// is empty, the migration record is all it knows).
    pub served_from_edge: bool,
}

/// Aggregate report of one two-cell roaming run.
#[derive(Debug, Clone)]
pub struct RoamReport {
    /// Documents roamed mid-transfer.
    pub docs: usize,
    /// Per-document detail.
    pub outcomes: Vec<RoamOutcome>,
    /// Migration records cell B admitted (one per roamed document).
    pub migrations_in: u64,
    /// Total backhaul bytes (all migration records).
    pub record_bytes_total: usize,
}

impl RoamReport {
    /// Every roamed document reconstructed byte-identically.
    #[must_use]
    pub fn all_byte_identical(&self) -> bool {
        self.outcomes.iter().all(|o| o.byte_identical)
    }

    /// Every resume pushed fewer than `M` frames over the new hop —
    /// the packets held from cell A kept their value.
    #[must_use]
    pub fn resumes_cheaper_than_restart(&self) -> bool {
        self.outcomes.iter().all(|o| o.new_hop_frames < o.m)
    }

    /// Human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "roam: docs={} migrations_in={} records≤1/doc={} backhaul_bytes={}",
            self.docs,
            self.migrations_in,
            self.migrations_in <= self.docs as u64,
            self.record_bytes_total
        );
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "  doc {}: m={} held={} new_hop_frames={} record_bytes={} byte_identical={} edge_hit={}",
                o.doc, o.m, o.held, o.new_hop_frames, o.record_bytes, o.byte_identical,
                o.served_from_edge
            );
        }
        let _ = writeln!(
            out,
            "all_byte_identical={} resumes_cheaper_than_restart={}",
            self.all_byte_identical(),
            self.resumes_cheaper_than_restart()
        );
        out
    }
}

/// A corpus request: document `i` of the seeded synthetic corpus, at
/// paragraph LOD under the static IC ordering (no query, so the edge
/// key is stable across cells).
fn request_for(i: usize, packet_size: usize, gamma: f64) -> Request {
    Request {
        url: format!("http://cell/doc{i}"),
        query: String::new(),
        lod: Lod::Paragraph,
        measure: Measure::Ic,
        packet_size,
        gamma,
    }
}

/// Fills a store with the seeded synthetic corpus.
fn fill_store(store: &DocumentStore, docs: usize, seed: u64) {
    for i in 0..docs {
        let generated = SyntheticDocSpec {
            sections: 2,
            subsections_per_section: 2,
            paragraphs_per_subsection: 2,
            target_bytes: 1400 + (i % 5) * 300,
            ..Default::default()
        }
        .generate(seed.wrapping_add(i as u64));
        store.put(format!("http://cell/doc{i}"), generated.document);
    }
}

/// A unique scratch directory for one cell's blob store.
fn fresh_dir(tag: &str, seed: u64) -> Result<std::path::PathBuf, String> {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_err(|e| format!("{e}"))?
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("mrtweb-edge-{tag}-{seed}-{nanos}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{e}"))?;
    Ok(dir)
}

/// `q`-quantile of an unsorted latency sample, in milliseconds.
fn quantile_ms(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 * q).ceil() as usize)
        .saturating_sub(1)
        .min(sorted.len() - 1);
    sorted[idx]
}

/// Runs one cell under a round-robin request stream and reports hit
/// and miss latencies plus the zero-re-encode evidence.
///
/// # Errors
///
/// Configuration, I/O, or gateway failures as strings; per-request
/// outcomes come back inside the report.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    if cfg.docs == 0 || cfg.requests == 0 {
        return Err("docs and requests must both be positive".into());
    }
    // Capture the whole run's trace: every encode the gateway performs
    // shows up as an EncodeSpan, hits show up as EdgeHit.
    let session = mrtweb_obs::testkit::capture();
    let outcome = run_traced(cfg);
    let trace = session.finish();
    let mut report = outcome?;
    report.encode_spans = trace
        .events
        .iter()
        .filter(|e| e.kind == EventKind::EncodeSpan)
        .count() as u64;
    Ok(report)
}

fn run_traced(cfg: &RunConfig) -> Result<RunReport, String> {
    let dir = fresh_dir("run", cfg.seed)?;
    let store = Arc::new(DocumentStore::new(cfg.docs.max(8)));
    fill_store(&store, cfg.docs, cfg.seed);
    let edge = Arc::new(EdgeCache::new(&dir, cfg.byte_budget).map_err(|e| format!("{e}"))?);
    let gateway = Gateway::new(store).with_edge(Arc::clone(&edge));

    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    // The first (miss) server per document is the ground truth a later
    // hit must match byte for byte.
    let mut first: Vec<Option<Arc<LiveServer>>> = vec![None; cfg.docs];
    let mut byte_identical = true;
    for r in 0..cfg.requests {
        let i = r % cfg.docs;
        let req = request_for(i, cfg.packet_size, cfg.gamma);
        let t0 = now_nanos();
        let (server, hit) = gateway.prepare_edge(&req).map_err(|e| format!("{e}"))?;
        let elapsed_ms = now_nanos().saturating_sub(t0) as f64 / 1e6;
        if hit {
            hit_ms.push(elapsed_ms);
            if let Some(miss_srv) = &first[i] {
                byte_identical &= miss_srv.header() == server.header()
                    && (0..server.header().n)
                        .all(|f| miss_srv.frame_bytes(f) == server.frame_bytes(f));
            }
        } else {
            miss_ms.push(elapsed_ms);
            first[i] = Some(server);
        }
    }

    let stats = edge.stats();
    let hit_p50 = quantile_ms(&hit_ms, 0.50);
    let miss_p50 = quantile_ms(&miss_ms, 0.50);
    let report = RunReport {
        docs: cfg.docs,
        requests: cfg.requests,
        hits: hit_ms.len() as u64,
        misses: miss_ms.len() as u64,
        encode_spans: 0,
        cache_hit_p50_ms: hit_p50,
        cache_hit_p99_ms: quantile_ms(&hit_ms, 0.99),
        encode_miss_p50_ms: miss_p50,
        encode_miss_p99_ms: quantile_ms(&miss_ms, 0.99),
        cache_hit_rate_pct: hit_ms.len() as f64 / cfg.requests as f64 * 100.0,
        cache_hit_speedup_vs_miss: if hit_p50 > 0.0 {
            miss_p50 / hit_p50
        } else {
            0.0
        },
        byte_identical,
        evictions: stats.evictions,
        trimmed_packets: stats.trimmed_packets,
        resident_bytes: stats.resident_bytes,
        byte_budget: cfg.byte_budget,
    };
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
}

/// Runs the two-cell roaming handoff: every document starts
/// transferring at cell A, the client roams mid-transfer, and cell B —
/// whose document store is *empty* — serves the resume entirely from
/// the one migration record that crossed the backhaul.
///
/// # Errors
///
/// Configuration, I/O, migration-codec, or gateway failures as strings.
#[allow(clippy::too_many_lines)]
pub fn roam(cfg: &RunConfig) -> Result<RoamReport, String> {
    if cfg.docs == 0 {
        return Err("docs must be positive".into());
    }
    let dir_a = fresh_dir("cell-a", cfg.seed)?;
    let dir_b = fresh_dir("cell-b", cfg.seed)?;
    let store_a = Arc::new(DocumentStore::new(cfg.docs.max(8)));
    fill_store(&store_a, cfg.docs, cfg.seed);
    let edge_a = Arc::new(EdgeCache::new(&dir_a, cfg.byte_budget).map_err(|e| format!("{e}"))?);
    let edge_b = Arc::new(EdgeCache::new(&dir_b, cfg.byte_budget).map_err(|e| format!("{e}"))?);
    let gateway_a = Gateway::new(Arc::clone(&store_a)).with_edge(Arc::clone(&edge_a));
    // Shared-nothing: cell B has no documents, no pipeline state, no
    // history — only its (empty) edge cache.
    let gateway_b = Gateway::new(Arc::new(DocumentStore::new(8))).with_edge(Arc::clone(&edge_b));

    let mut outcomes = Vec::with_capacity(cfg.docs);
    let mut record_bytes_total = 0usize;
    for i in 0..cfg.docs {
        let req = request_for(i, cfg.packet_size, cfg.gamma);

        // Ground truth: the payload the planner would transmit.
        let doc = store_a
            .document(&req.url)
            .ok_or_else(|| format!("corpus document {i} missing"))?;
        let query = Query::parse(&req.query, store_a.pipeline());
        let sc = store_a
            .structural_characteristic(&req.url, &query)
            .ok_or_else(|| format!("no structural characteristic for document {i}"))?;
        let (_, expected) = plan_document(&doc, &sc, req.lod, req.measure);

        // Start the transfer at cell A: the miss cooks and admits the
        // blob; the client banks a deterministic clear-text prefix.
        let (server_a, _) = gateway_a.prepare_edge(&req).map_err(|e| format!("{e}"))?;
        let m = server_a.header().m;
        let held = (m / 2).clamp(1, m.saturating_sub(1).max(1));
        let mut client = LiveClient::new(server_a.header().clone()).map_err(|e| format!("{e}"))?;
        for f in 0..held {
            let wire = server_a
                .frame_bytes(f)
                .ok_or_else(|| format!("cell A cannot serve frame {f}"))?;
            client.on_wire(wire);
        }

        // Roam: one CRC-framed record carries (key, header, blob) over
        // the backhaul; cell B validates and admits it verbatim.
        let key = EdgeKey::of(&req);
        let (header, blob) = edge_a
            .export_blob(&key)
            .ok_or_else(|| format!("cell A never admitted document {i}"))?;
        let blob_bytes = blob.len();
        let record = encode_record(&MigrationRecord { key, header, blob });
        emit(
            EventKind::EdgeMigrate,
            record.len() as u64,
            blob_bytes as u64,
        );
        record_bytes_total += record.len();
        let decoded = decode_record(&record).map_err(|e| format!("{e}"))?;
        edge_b
            .admit_migrated(decoded.key, decoded.header, &decoded.blob)
            .map_err(|e| format!("{e}"))?;

        // Resume at cell B: the serve must come from its edge cache
        // (the store would answer NotFound), and only the packets the
        // client still lacks cross the new wireless hop.
        let (server_b, served_from_edge) =
            gateway_b.prepare_edge(&req).map_err(|e| format!("{e}"))?;
        let missing = client.state().missing();
        emit(EventKind::HandoffResume, held as u64, missing.len() as u64);
        let mut new_hop_frames = 0usize;
        for idx in missing {
            if client.document_bytes().is_some() {
                break;
            }
            let Some(wire) = server_b.frame_bytes(idx) else {
                continue;
            };
            client.on_wire(wire);
            new_hop_frames += 1;
        }
        let byte_identical = client.document_bytes() == Some(&expected[..]);
        outcomes.push(RoamOutcome {
            doc: i,
            m,
            held,
            new_hop_frames,
            record_bytes: record.len(),
            blob_bytes,
            byte_identical,
            served_from_edge,
        });
    }

    let migrations_in = edge_b.stats().migrations_in;
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
    Ok(RoamReport {
        docs: cfg.docs,
        outcomes,
        migrations_in,
        record_bytes_total,
    })
}

/// The `edge` object of the bench envelope, rendered from a run.
#[must_use]
pub fn edge_metrics_json(report: &RunReport) -> String {
    format!(
        "{{\"cache_hit_p50_ms\": {:.4}, \"cache_hit_p99_ms\": {:.4}, \"encode_miss_p50_ms\": {:.4}, \"encode_miss_p99_ms\": {:.4}, \"cache_hit_rate_pct\": {:.2}, \"cache_hit_speedup_vs_miss\": {:.1}}}",
        report.cache_hit_p50_ms,
        report.cache_hit_p99_ms,
        report.encode_miss_p50_ms,
        report.encode_miss_p99_ms,
        report.cache_hit_rate_pct,
        report.cache_hit_speedup_vs_miss
    )
}

/// Pulls the proxy sweep array out of an existing `BENCH_proxy.json`,
/// which is either the load generator's bare array or an envelope this
/// driver wrote earlier (so re-running is idempotent).
#[must_use]
pub fn extract_proxy_array(existing: &str) -> Option<String> {
    let text = existing.trim();
    let start = if text.starts_with('[') {
        0
    } else {
        let at = text.find("\"proxy\"")?;
        at + text[at..].find('[')?
    };
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    for (i, c) in text[start..].char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => {
                depth -= 1;
                if depth == 0 {
                    return Some(text[start..=start + i].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

/// Re-envelopes `BENCH_proxy.json`: the existing proxy sweep (bare
/// array or prior envelope) plus the edge section.
#[must_use]
pub fn envelope_bench_json(existing: Option<&str>, edge_json: &str) -> String {
    let proxy = existing
        .and_then(extract_proxy_array)
        .unwrap_or_else(|| "[]".to_owned());
    format!("{{\n  \"proxy\": {proxy},\n  \"edge\": {edge_json}\n}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_requests_hit_and_encode_once_per_document() {
        let report = run(&RunConfig {
            docs: 4,
            requests: 20,
            seed: 7,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(report.hits + report.misses, 20, "{}", report.render());
        assert_eq!(report.misses, 4, "{}", report.render());
        assert_eq!(
            report.encode_spans,
            4,
            "one encode per distinct document, not per request: {}",
            report.render()
        );
        assert!(report.zero_reencode(), "{}", report.render());
        assert!(report.byte_identical, "{}", report.render());
        assert!(report.cache_hit_rate_pct >= 75.0, "{}", report.render());
        assert!(report.under_budget(), "{}", report.render());
    }

    #[test]
    fn tiny_budget_evicts_but_never_exceeds() {
        let report = run(&RunConfig {
            docs: 6,
            requests: 18,
            byte_budget: 12 << 10,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        assert!(report.under_budget(), "{}", report.render());
        assert!(
            report.evictions > 0 || report.trimmed_packets > 0,
            "a 12 KiB budget over this corpus must create pressure: {}",
            report.render()
        );
        assert!(report.byte_identical, "{}", report.render());
    }

    #[test]
    fn roaming_resumes_byte_identically_with_one_record_per_doc() {
        let report = roam(&RunConfig {
            docs: 3,
            seed: 11,
            ..Default::default()
        })
        .unwrap();
        assert!(report.all_byte_identical(), "{}", report.render());
        assert!(report.resumes_cheaper_than_restart(), "{}", report.render());
        assert_eq!(
            report.migrations_in,
            3,
            "exactly one migration record per roamed document: {}",
            report.render()
        );
        for o in &report.outcomes {
            assert!(o.served_from_edge, "{}", report.render());
            assert_eq!(o.held + o.new_hop_frames, o.m, "{}", report.render());
        }
    }

    #[test]
    fn roam_is_deterministic_in_structure() {
        let cfg = RunConfig {
            docs: 2,
            seed: 5,
            ..Default::default()
        };
        let a = roam(&cfg).unwrap();
        let b = roam(&cfg).unwrap();
        let shape = |r: &RoamReport| {
            r.outcomes
                .iter()
                .map(|o| (o.m, o.held, o.new_hop_frames, o.record_bytes))
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&a), shape(&b));
    }

    #[test]
    fn bench_envelope_wraps_and_rewraps() {
        let bare = r#"[
  {"clients": 1, "p50_ms": 0.7},
  {"clients": 8, "p50_ms": 7.7}
]"#;
        let edge = r#"{"cache_hit_p50_ms": 0.05}"#;
        let enveloped = envelope_bench_json(Some(bare), edge);
        assert!(enveloped.contains("\"proxy\": ["));
        assert!(enveloped.contains("\"edge\": {"));
        // Idempotent: extracting from the envelope gives the array back.
        let again = envelope_bench_json(Some(&enveloped), edge);
        assert_eq!(
            extract_proxy_array(&again).unwrap(),
            extract_proxy_array(bare).unwrap()
        );
        // No prior file: empty sweep, edge still present.
        let fresh = envelope_bench_json(None, edge);
        assert!(fresh.contains("\"proxy\": []"));
    }
}
