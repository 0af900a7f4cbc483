//! One base-station cell: store, edge cache, gateway and the real TCP
//! proxy in front of them, plus the output check every fetch passes.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use mrtweb_content::query::Query;
use mrtweb_content::sc::{Measure, StructuralCharacteristic};
use mrtweb_docmodel::lod::Lod;
use mrtweb_proxy::client::FetchOptions;
use mrtweb_proxy::server::{bind_engine, Engine, ProxyServer, ServerConfig};
use mrtweb_store::edge::EdgeCache;
use mrtweb_store::gateway::Gateway;
use mrtweb_store::store::DocumentStore;
use mrtweb_textproc::pipeline::ScPipeline;
use mrtweb_transport::plan::plan_document;

use crate::workload::{self, mix, Workload, SC_CAPACITY};

/// Where run artifacts (edge blob directories, span files) live: inside
/// the benchmark's own directory, which the repository ignores.
pub fn runs_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("runs")
}

/// This run's own directory under [`runs_dir`]: the edge caches' blob
/// directories, removed when the run ends.
pub fn work_dir(w: &Workload) -> PathBuf {
    runs_dir().join(format!("{}-{}", w.name, std::process::id()))
}

/// A loopback address no earlier run has used. Every fetch is a fresh
/// TCP connection and each leaves TIME-WAIT sockets for 60 s; a run
/// that reused the previous run's address would inherit that load in
/// its port search. A fresh destination makes every 4-tuple new — the
/// guard that still holds when the run could not get a network
/// namespace of its own (`sys::isolate`).
pub fn fresh_loopback(salt: u64) -> Ipv4Addr {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64);
    let h = mix(nanos ^ mix(u64::from(std::process::id())) ^ mix(salt));
    let b = h.to_le_bytes();
    // 127.0.0.0/8 is all loopback; keep clear of 127.0.0.x.
    Ipv4Addr::new(127, 1 + b[0] % 254, b[1], 1 + b[2] % 254)
}

/// A running cell.
pub struct Cell {
    pub store: Arc<DocumentStore>,
    pub edge: Arc<EdgeCache>,
    pub server: Box<dyn ProxyServer>,
    pub addr: SocketAddr,
    edge_dir: PathBuf,
}

impl Cell {
    /// Generates the corpus, fills a store, opens the edge cache, binds
    /// the proxy, and returns with nothing served yet.
    pub fn start(
        w: &Workload,
        seed: u64,
        ip: Ipv4Addr,
        edge_dir: PathBuf,
        config: ServerConfig,
    ) -> Result<Cell, String> {
        let store = Arc::new(DocumentStore::new(SC_CAPACITY));
        for d in 0..w.docs {
            store.put(workload::url(d), workload::document(seed, d, 0));
        }
        let _ = std::fs::remove_dir_all(&edge_dir);
        let edge = Arc::new(
            EdgeCache::new(&edge_dir, w.edge_budget).map_err(|e| format!("edge cache: {e}"))?,
        );
        let gateway = Gateway::new(Arc::clone(&store)).with_edge(Arc::clone(&edge));
        let server = bind_engine(&format!("{ip}:0"), gateway, config, Engine::Auto)
            .map_err(|e| format!("bind {ip}: {e}"))?;
        let addr = server.local_addr();
        Ok(Cell {
            store,
            edge,
            server,
            addr,
            edge_dir,
        })
    }

    pub fn stop(self) {
        let _ = self.server.shutdown();
        let _ = std::fs::remove_dir_all(&self.edge_dir);
    }
}

pub fn server_config(w: &Workload, seed: u64) -> ServerConfig {
    ServerConfig {
        fault: w.fault(),
        fault_seed: seed,
        ..ServerConfig::default()
    }
}

pub fn fetch_options(w: &Workload, seed: u64, doc: usize, query: usize) -> FetchOptions {
    FetchOptions {
        query: workload::query_text(seed, doc, query),
        measure: "qic".to_owned(),
        packet_size: w.packet_size,
        gamma: w.gamma,
        ..FetchOptions::new(workload::url(doc))
    }
}

/// Store generations a URL has held, and which document version each
/// one was: `(generation, version)` in put order.
type History = Vec<(u64, u32)>;

/// Expected payloads by `(doc, version, query)`.
type Expected = HashMap<(usize, u32, usize), Arc<Vec<u8>>>;

/// A payload whose expected bytes were not at hand when it arrived.
struct Deferred {
    doc: usize,
    query: usize,
    versions: Vec<u32>,
    payload: Vec<u8>,
}

/// Checks every completed payload byte for byte against
/// `plan_document` of a document version the URL held while the
/// request was in flight, and performs the workload's writes so it
/// knows every version.
///
/// Expected payloads of the corpus are computed up front. A payload of
/// a version written during the run is kept and checked by
/// [`Checker::settle`] between measurement slices, so the check costs
/// the clients no time while they are measured.
pub struct Checker {
    seed: u64,
    pipeline: ScPipeline,
    history: Vec<Mutex<History>>,
    expected: Mutex<Expected>,
    deferred: Mutex<Vec<Deferred>>,
    /// The first few mismatches, kept for [`Checker::diagnose`].
    mismatches: Mutex<Vec<Deferred>>,
}

/// Mismatches kept for diagnosis.
const KEPT_MISMATCHES: usize = 8;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Checker {
    /// A checker with the corpus's expected payloads precomputed;
    /// [`Checker::rebase`] binds it to a store.
    pub fn new(w: &Workload, seed: u64) -> Checker {
        let checker = Checker {
            seed,
            pipeline: ScPipeline::default(),
            history: (0..w.docs).map(|_| Mutex::new(Vec::new())).collect(),
            expected: Mutex::new(HashMap::new()),
            deferred: Mutex::new(Vec::new()),
            mismatches: Mutex::new(Vec::new()),
        };
        for d in 0..w.docs {
            checker.compute(d, 0, 0..w.queries_per_doc);
        }
        checker
    }

    /// Binds the checker to a store freshly filled with the corpus.
    pub fn rebase(&self, store: &DocumentStore) {
        for (d, h) in self.history.iter().enumerate() {
            let mut h = lock(h);
            h.clear();
            h.extend(store.generation(&workload::url(d)).map(|g| (g, 0)));
        }
    }

    /// Computes the expected payloads of `queries` on one version.
    fn compute(&self, doc: usize, version: u32, queries: impl IntoIterator<Item = usize>) {
        let document = workload::document(self.seed, doc, version);
        let index = self.pipeline.run(&document);
        for query in queries {
            let q = Query::parse(&workload::query_text(self.seed, doc, query), &self.pipeline);
            let sc = StructuralCharacteristic::from_index(&index, Some(&q));
            let payload = plan_document(&document, &sc, Lod::Paragraph, Measure::Qic).1;
            lock(&self.expected).insert((doc, version, query), Arc::new(payload));
        }
    }

    /// Checks `payload` against the corpus version of `doc`, as a cell
    /// serves it before any write.
    pub fn matches_corpus(&self, doc: usize, query: usize, payload: &[u8]) -> bool {
        lock(&self.expected)
            .get(&(doc, 0, query))
            .is_some_and(|p| p.as_slice() == payload)
    }

    /// Puts the next version of `doc` into `store`.
    pub fn write(&self, store: &DocumentStore, doc: usize) {
        let mut h = lock(&self.history[doc]);
        let version = h.last().map_or(0, |&(_, v)| v + 1);
        let url = workload::url(doc);
        store.put(url.clone(), workload::document(self.seed, doc, version));
        if let Some(g) = store.generation(&url) {
            h.push((g, version));
        }
    }

    /// Checks `payload` against the request's document as of every
    /// generation in `[gen_lo, gen_hi]`, the generations the URL held
    /// from just before the request to just after it. `false` is a
    /// mismatch; a payload of a version whose expected bytes are not
    /// computed yet passes for now and is settled later.
    pub fn matches(
        &self,
        doc: usize,
        query: usize,
        gen_lo: Option<u64>,
        gen_hi: Option<u64>,
        payload: &[u8],
    ) -> bool {
        let (Some(lo), Some(hi)) = (gen_lo, gen_hi) else {
            return false;
        };
        let versions: Vec<u32> = lock(&self.history[doc])
            .iter()
            .filter(|&&(g, _)| (lo..=hi).contains(&g))
            .map(|&(_, v)| v)
            .collect();
        let expected = lock(&self.expected);
        let known: Vec<&Arc<Vec<u8>>> = versions
            .iter()
            .filter_map(|&v| expected.get(&(doc, v, query)))
            .collect();
        if known.iter().any(|p| p.as_slice() == payload) {
            return true;
        }
        let verdict = known.len() < versions.len();
        drop(expected);
        let d = Deferred {
            doc,
            query,
            versions,
            payload: payload.to_vec(),
        };
        if verdict {
            lock(&self.deferred).push(d);
        } else {
            self.keep_mismatch(d);
        }
        verdict
    }

    fn keep_mismatch(&self, d: Deferred) {
        let mut kept = lock(&self.mismatches);
        if kept.len() < KEPT_MISMATCHES {
            kept.push(d);
        }
    }

    /// Explains each kept mismatch: the payload is checked against the
    /// plan of every candidate version laid out by the structural
    /// characteristic of every version the URL has held, which tells a
    /// stale cached ranking from corrupted bytes.
    pub fn diagnose(&self) -> Vec<String> {
        let kept = std::mem::take(&mut *lock(&self.mismatches));
        kept.iter()
            .map(|d| {
                let held: Vec<u32> = lock(&self.history[d.doc]).iter().map(|&(_, v)| v).collect();
                let q = Query::parse(&workload::query_text(self.seed, d.doc, d.query), &self.pipeline);
                let mut found = None;
                for &v in &d.versions {
                    let document = workload::document(self.seed, d.doc, v);
                    for &u in &held {
                        let index = self.pipeline.run(&workload::document(self.seed, d.doc, u));
                        let sc = StructuralCharacteristic::from_index(&index, Some(&q));
                        if plan_document(&document, &sc, Lod::Paragraph, Measure::Qic).1 == d.payload {
                            found = Some((v, u));
                        }
                    }
                }
                let verdict = match found {
                    Some((v, u)) => format!(
                        "document version {v} ranked by the structural characteristic of version {u}"
                    ),
                    None => "matches no version under any held version's ranking".to_owned(),
                };
                format!(
                    "mismatch url={} query={:?} candidate_versions={:?}: {verdict}",
                    workload::url(d.doc),
                    workload::query_text(self.seed, d.doc, d.query),
                    d.versions
                )
            })
            .collect()
    }

    /// Checks every deferred payload; returns how many mismatched.
    pub fn settle(&self) -> u64 {
        let deferred = std::mem::take(&mut *lock(&self.deferred));
        // Index each missing version once for all its queries.
        let mut missing: HashMap<(usize, u32), Vec<usize>> = HashMap::new();
        {
            let expected = lock(&self.expected);
            for d in &deferred {
                for &v in &d.versions {
                    if !expected.contains_key(&(d.doc, v, d.query)) {
                        let queries = missing.entry((d.doc, v)).or_default();
                        if !queries.contains(&d.query) {
                            queries.push(d.query);
                        }
                    }
                }
            }
        }
        for ((doc, version), queries) in missing {
            self.compute(doc, version, queries);
        }
        let mut mismatched = 0;
        for d in deferred {
            let expected = lock(&self.expected);
            let ok = d.versions.iter().any(|&v| {
                expected
                    .get(&(d.doc, v, d.query))
                    .is_some_and(|p| p.as_slice() == d.payload.as_slice())
            });
            drop(expected);
            if !ok {
                mismatched += 1;
                self.keep_mismatch(d);
            }
        }
        mismatched
    }
}

/// Median of a non-empty sample.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(seed: u64, doc: usize, version: u32, query: usize) -> Vec<u8> {
        let document = workload::document(seed, doc, version);
        let pipeline = ScPipeline::default();
        let index = pipeline.run(&document);
        let q = Query::parse(&workload::query_text(seed, doc, query), &pipeline);
        let sc = StructuralCharacteristic::from_index(&index, Some(&q));
        plan_document(&document, &sc, Lod::Paragraph, Measure::Qic).1
    }

    #[test]
    fn the_output_check_catches_a_one_byte_flip() {
        let w = Workload::by_name("churn-mixed").unwrap();
        let store = DocumentStore::new(SC_CAPACITY);
        for d in 0..w.docs {
            store.put(workload::url(d), workload::document(3, d, 0));
        }
        let checker = Checker::new(w, 3);
        checker.rebase(&store);
        let g0 = store.generation(&workload::url(5));
        let good = payload(3, 5, 0, 2);
        let mut bad = good.clone();
        bad[good.len() / 2] ^= 0x01;
        assert!(checker.matches(5, 2, g0, g0, &good));
        assert!(!checker.matches(5, 2, g0, g0, &bad));
        // A version written mid-run is checked when settled.
        checker.write(&store, 5);
        let g1 = store.generation(&workload::url(5));
        let good1 = payload(3, 5, 1, 2);
        let mut bad1 = good1.clone();
        bad1[0] ^= 0x80;
        assert!(checker.matches(5, 2, g1, g1, &good1));
        assert!(
            checker.matches(5, 2, g1, g1, &bad1),
            "deferred, not yet judged"
        );
        assert_eq!(checker.settle(), 1);
        // Either generation held during the request is acceptable.
        assert!(checker.matches(5, 2, g0, g1, &good));
        assert!(!checker.matches(5, 2, g1, g1, &good));
        assert_eq!(checker.settle(), 0);
    }

    /// Why the workloads apply writes between phases (`Ctx::step`).
    #[test]
    #[ignore = "fails: DocumentStore::structural_characteristic can cache the replaced document's ranking in the one a concurrent put installed"]
    fn a_put_racing_a_ranking_leaves_the_new_document_correctly_ranked() {
        let store = DocumentStore::new(SC_CAPACITY);
        let pipeline = ScPipeline::default();
        let url = workload::url(0);
        let q = Query::parse(&workload::query_text(1, 0, 0), &pipeline);
        let versions: Vec<_> = (0..2).map(|v| workload::document(1, 0, v)).collect();
        let ranking: Vec<_> = versions
            .iter()
            .map(|d| StructuralCharacteristic::from_index(&pipeline.run(d), Some(&q)))
            .collect();
        assert_ne!(ranking[0], ranking[1]);
        for round in 0..2000 {
            store.put(url.clone(), versions[0].clone());
            std::thread::scope(|s| {
                s.spawn(|| store.structural_characteristic(&url, &q));
                s.spawn(|| store.put(url.clone(), versions[1].clone()));
            });
            let cached = store.structural_characteristic(&url, &q).unwrap();
            assert!(
                *cached == ranking[1],
                "round {round}: the cached ranking is not the installed document's"
            );
        }
    }
}
