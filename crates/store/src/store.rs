//! The concurrent document store with structural-characteristic caching.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use mrtweb_content::query::Query;
use mrtweb_content::sc::StructuralCharacteristic;
use mrtweb_docmodel::document::Document;
use mrtweb_textproc::index::DocumentIndex;
use mrtweb_textproc::pipeline::ScPipeline;

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Structural characteristics served from cache.
    pub sc_hits: u64,
    /// Structural characteristics computed on demand.
    pub sc_misses: u64,
}

/// A stored document with its pre-computed logical index.
#[derive(Debug)]
struct StoredDoc {
    document: Arc<Document>,
    index: Arc<DocumentIndex>,
    /// Store-wide unique id of this exact document version; a `put`
    /// over the same URL assigns a fresh one, so derived caches (the
    /// edge cache's cooked blobs) can detect replacement without
    /// holding the document pointer.
    generation: u64,
    /// Query-keyed SC cache with insertion-order eviction.
    sc_cache: HashMap<String, Arc<StructuralCharacteristic>>,
    sc_order: Vec<String>,
}

/// A concurrent URL-keyed document store.
///
/// The logical index of every document is computed once at `put` time —
/// "the weights of keywords of a document remain unchanged across
/// queries, only the contribution by querying words need be
/// incorporated" (§3.3) — and per-query structural characteristics are
/// cached with bounded LRU-ish eviction.
///
/// # Example
///
/// ```
/// use mrtweb_store::store::DocumentStore;
/// use mrtweb_docmodel::document::Document;
/// use mrtweb_content::query::Query;
///
/// # fn main() -> Result<(), mrtweb_docmodel::xml::ParseError> {
/// let store = DocumentStore::new(8);
/// let doc = Document::parse_xml(
///     "<document><paragraph>mobile web</paragraph></document>")?;
/// store.put("http://a/", doc);
/// let q = Query::parse("mobile", store.pipeline());
/// let sc1 = store.structural_characteristic("http://a/", &q).unwrap();
/// let sc2 = store.structural_characteristic("http://a/", &q).unwrap();
/// assert!(std::sync::Arc::ptr_eq(&sc1, &sc2)); // second hit is cached
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DocumentStore {
    docs: RwLock<HashMap<String, StoredDoc>>,
    pipeline: ScPipeline,
    sc_capacity: usize,
    sc_hits: AtomicU64,
    sc_misses: AtomicU64,
    /// Source of [`StoredDoc::generation`] values.
    next_generation: AtomicU64,
}

impl DocumentStore {
    /// Creates a store caching at most `sc_capacity` structural
    /// characteristics per document (0 disables SC caching).
    pub fn new(sc_capacity: usize) -> Self {
        DocumentStore {
            docs: RwLock::new(HashMap::new()),
            pipeline: ScPipeline::default(),
            sc_capacity,
            sc_hits: AtomicU64::new(0),
            sc_misses: AtomicU64::new(0),
            next_generation: AtomicU64::new(0),
        }
    }

    /// Uses a custom pipeline (stop words, policy, stemming).
    pub fn with_pipeline(mut self, pipeline: ScPipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// The pipeline queries must be normalized with.
    pub fn pipeline(&self) -> &ScPipeline {
        &self.pipeline
    }

    /// Inserts (or replaces) a document, computing its logical index.
    /// Returns the previous document if one existed.
    pub fn put(&self, url: impl Into<String>, document: Document) -> Option<Arc<Document>> {
        let index = Arc::new(self.pipeline.run(&document));
        let stored = StoredDoc {
            document: Arc::new(document),
            index,
            // ORDERING: only uniqueness matters, not publication order —
            // the value travels to readers under the `docs` lock.
            generation: self.next_generation.fetch_add(1, Ordering::Relaxed),
            sc_cache: HashMap::new(),
            sc_order: Vec::new(),
        };
        self.docs
            .write()
            .insert(url.into(), stored)
            .map(|s| s.document)
    }

    /// The generation of the document currently stored at `url`, or
    /// `None` for unknown URLs. Every `put` assigns a fresh value, so a
    /// derived artifact stamped with the generation it was built from
    /// (an edge-cache blob) is stale exactly when the stamps differ.
    pub fn generation(&self, url: &str) -> Option<u64> {
        self.docs.read().get(url).map(|s| s.generation)
    }

    /// The document at `url` together with its generation, read under
    /// one lock — a derived artifact cooked from the returned document
    /// can stamp itself with a generation that is guaranteed to match
    /// it, even against a concurrent `put`.
    pub fn document_with_generation(&self, url: &str) -> Option<(Arc<Document>, u64)> {
        self.docs
            .read()
            .get(url)
            .map(|s| (Arc::clone(&s.document), s.generation))
    }

    /// Removes a document.
    pub fn remove(&self, url: &str) -> Option<Arc<Document>> {
        self.docs.write().remove(url).map(|s| s.document)
    }

    /// Fetches a document.
    pub fn document(&self, url: &str) -> Option<Arc<Document>> {
        self.docs.read().get(url).map(|s| Arc::clone(&s.document))
    }

    /// Fetches a document's pre-computed logical index.
    pub fn index(&self, url: &str) -> Option<Arc<DocumentIndex>> {
        self.docs.read().get(url).map(|s| Arc::clone(&s.index))
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.read().len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.read().is_empty()
    }

    /// Stored URLs (unordered).
    pub fn urls(&self) -> Vec<String> {
        self.docs.read().keys().cloned().collect()
    }

    /// Cache statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            // ORDERING: monitoring counters — each total is
            // independently exact; a torn snapshot only skews one
            // report line.
            sc_hits: self.sc_hits.load(Ordering::Relaxed),
            sc_misses: self.sc_misses.load(Ordering::Relaxed),
        }
    }

    /// The structural characteristic of `url` under `query`, cached per
    /// canonical query.
    ///
    /// Returns `None` for unknown URLs.
    pub fn structural_characteristic(
        &self,
        url: &str,
        query: &Query,
    ) -> Option<Arc<StructuralCharacteristic>> {
        self.ranked_document(url, query).map(|(_, _, sc)| sc)
    }

    /// The document at `url`, its generation, and its structural
    /// characteristic under `query` (cached per canonical query), all
    /// of one stored version even against a concurrent `put`: a
    /// characteristic ranked from a replaced version is returned with
    /// that version but never cached under its successor.
    ///
    /// Returns `None` for unknown URLs.
    pub fn ranked_document(
        &self,
        url: &str,
        query: &Query,
    ) -> Option<(Arc<Document>, u64, Arc<StructuralCharacteristic>)> {
        let key = canonical_query_key(query);
        // Fast path: read lock, cache hit.
        let (document, generation, index) = {
            let docs = self.docs.read();
            let stored = docs.get(url)?;
            let document = Arc::clone(&stored.document);
            if let Some(sc) = stored.sc_cache.get(&key) {
                // ORDERING: monitoring tally only.
                self.sc_hits.fetch_add(1, Ordering::Relaxed);
                return Some((document, stored.generation, Arc::clone(sc)));
            }
            (document, stored.generation, Arc::clone(&stored.index))
        };
        // Slow path: compute outside any lock, then insert — only if
        // the version it was ranked from is still the stored one.
        let sc = Arc::new(StructuralCharacteristic::from_index(&index, Some(query)));
        // ORDERING: monitoring tally only.
        self.sc_misses.fetch_add(1, Ordering::Relaxed);
        if self.sc_capacity > 0 {
            let mut docs = self.docs.write();
            if let Some(stored) = docs.get_mut(url).filter(|s| s.generation == generation) {
                if !stored.sc_cache.contains_key(&key) {
                    if stored.sc_order.len() >= self.sc_capacity {
                        let evict = stored.sc_order.remove(0);
                        stored.sc_cache.remove(&evict);
                    }
                    stored.sc_cache.insert(key.clone(), Arc::clone(&sc));
                    stored.sc_order.push(key);
                }
            }
        }
        Some((document, generation, sc))
    }
}

/// Canonical cache key of a query: sorted `stem:count` pairs.
fn canonical_query_key(query: &Query) -> String {
    let mut parts: Vec<String> = query.iter().map(|(s, n)| format!("{s}:{n}")).collect();
    parts.sort();
    parts.join("\u{1f}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Document {
        Document::parse_xml(&format!(
            "<document><paragraph>{text}</paragraph></document>"
        ))
        .unwrap()
    }

    /// Two versions of one URL whose rankings under "mobile" differ.
    fn two_versions() -> [Document; 2] {
        let xml = |a: &str, b: &str| {
            Document::parse_xml(&format!(
                "<document><section><paragraph>{a}</paragraph></section>\
                 <section><paragraph>{b}</paragraph></section></document>"
            ))
            .unwrap()
        };
        [
            xml("mobile web browsing", "database storage"),
            xml("database storage", "mobile mobile browsing"),
        ]
    }

    fn store_with_doc() -> DocumentStore {
        let s = DocumentStore::new(2);
        s.put("u1", doc("mobile web browsing"));
        s.put("u2", doc("database storage engines"));
        s
    }

    #[test]
    fn put_get_remove() {
        let s = store_with_doc();
        assert_eq!(s.len(), 2);
        assert!(s.document("u1").is_some());
        assert!(s.index("u1").is_some());
        assert!(s.document("nope").is_none());
        assert!(s.remove("u1").is_some());
        assert!(s.document("u1").is_none());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn put_replaces_and_returns_old() {
        let s = DocumentStore::new(2);
        assert!(s.put("u", doc("old text")).is_none());
        let old = s.put("u", doc("new text")).unwrap();
        assert!(old.full_text().contains("old"));
        assert!(s.document("u").unwrap().full_text().contains("new"));
    }

    #[test]
    fn sc_cache_hits_after_first_computation() {
        let s = store_with_doc();
        let q = Query::parse("mobile", s.pipeline());
        let a = s.structural_characteristic("u1", &q).unwrap();
        let b = s.structural_characteristic("u1", &q).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let st = s.stats();
        assert_eq!(st.sc_misses, 1);
        assert_eq!(st.sc_hits, 1);
    }

    #[test]
    fn distinct_queries_get_distinct_scs() {
        let s = store_with_doc();
        let qa = Query::parse("mobile", s.pipeline());
        let qb = Query::parse("browsing", s.pipeline());
        let a = s.structural_characteristic("u1", &qa).unwrap();
        let b = s.structural_characteristic("u1", &qb).unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(s.stats().sc_misses, 2);
    }

    #[test]
    fn query_key_is_order_insensitive() {
        let s = store_with_doc();
        let qa = Query::parse("mobile web", s.pipeline());
        let qb = Query::parse("web mobile", s.pipeline());
        let a = s.structural_characteristic("u1", &qa).unwrap();
        let b = s.structural_characteristic("u1", &qb).unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "query word order must not defeat the cache"
        );
    }

    #[test]
    fn capacity_evicts_oldest() {
        let s = store_with_doc(); // capacity 2
        let pipeline = s.pipeline().clone();
        let q1 = Query::parse("mobile", &pipeline);
        let q2 = Query::parse("web", &pipeline);
        let q3 = Query::parse("browsing", &pipeline);
        let first = s.structural_characteristic("u1", &q1).unwrap();
        s.structural_characteristic("u1", &q2).unwrap();
        s.structural_characteristic("u1", &q3).unwrap(); // evicts q1
        let again = s.structural_characteristic("u1", &q1).unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "q1 should have been evicted");
        assert_eq!(s.stats().sc_misses, 4);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let s = DocumentStore::new(0);
        s.put("u", doc("mobile things"));
        let q = Query::parse("mobile", s.pipeline());
        s.structural_characteristic("u", &q).unwrap();
        s.structural_characteristic("u", &q).unwrap();
        assert_eq!(s.stats().sc_misses, 2);
        assert_eq!(s.stats().sc_hits, 0);
    }

    #[test]
    fn unknown_url_returns_none() {
        let s = store_with_doc();
        let q = Query::parse("mobile", s.pipeline());
        assert!(s.structural_characteristic("ghost", &q).is_none());
    }

    #[test]
    fn a_put_racing_a_ranking_never_caches_the_replaced_ranking() {
        let s = DocumentStore::new(2);
        let versions = two_versions();
        let q = Query::parse("mobile", s.pipeline());
        let ranking: Vec<StructuralCharacteristic> = versions
            .iter()
            .map(|d| StructuralCharacteristic::from_index(&s.pipeline().run(d), Some(&q)))
            .collect();
        assert_ne!(ranking[0], ranking[1]);
        // No hook can pause a ranking between its index read and its
        // cache insert, so both sides start together from a barrier and
        // the race repeats until the window is hit.
        let start = std::sync::Barrier::new(2);
        for round in 0..2000 {
            s.put("u", versions[0].clone());
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    s.structural_characteristic("u", &q)
                });
                scope.spawn(|| {
                    start.wait();
                    s.put("u", versions[1].clone())
                });
            });
            let cached = s.structural_characteristic("u", &q).unwrap();
            assert!(
                *cached == ranking[1],
                "round {round}: the cached ranking is not the installed document's"
            );
        }
    }

    #[test]
    fn ranked_document_returns_one_version() {
        let s = Arc::new(DocumentStore::new(2));
        let versions = two_versions();
        s.put("u", versions[0].clone());
        let q = Query::parse("mobile", s.pipeline());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for i in 0..400 {
                    s.put("u", versions[i % 2].clone());
                }
            });
            for _ in 0..400 {
                let (doc, generation, sc) = s.ranked_document("u", &q).unwrap();
                let want = StructuralCharacteristic::from_index(&s.pipeline().run(&doc), Some(&q));
                assert!(*sc == want, "SC of another version than the document");
                assert!(s.generation("u").unwrap() >= generation);
            }
        });
    }

    #[test]
    fn concurrent_reads_and_computes() {
        let s = Arc::new(store_with_doc());
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let q = Query::parse(if t % 2 == 0 { "mobile" } else { "web" }, s.pipeline());
                for _ in 0..50 {
                    let sc = s.structural_characteristic("u1", &q).unwrap();
                    assert!(!sc.entries().is_empty());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let st = s.stats();
        assert_eq!(st.sc_hits + st.sc_misses, 400);
        assert!(
            st.sc_misses <= 16,
            "misses {} should be near 2",
            st.sc_misses
        );
    }
}
