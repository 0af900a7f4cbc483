//! The three base-station workloads and their seeded inputs.
//!
//! Everything the proxy sees — documents, queries, the request and
//! write sequence — is a pure function of `(workload, seed)`, so two
//! runs with one seed offer identical inputs and the proxy never sees
//! the seed itself.

use mrtweb_channel::fault::FaultConfig;
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::gen::SyntheticDocSpec;

/// One traffic mix against one cell configuration.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Documents in the cell's store.
    pub docs: usize,
    /// Distinct QIC queries per document.
    pub queries_per_doc: usize,
    /// Zipf exponent of URL popularity (0 = uniform).
    pub zipf_s: f64,
    pub packet_size: u32,
    pub gamma: f64,
    /// Corruption probability of the simulated wireless hop, if any.
    pub corrupt_p: Option<f64>,
    /// Writes per thousand operations: a `DocumentStore::put` of a
    /// regenerated document on a uniformly drawn URL, applied when the
    /// phase that drew it ends (`drive::Ctx::step`).
    pub writes_per_mille: u64,
    /// Resident byte budget of the edge cache.
    pub edge_budget: usize,
    /// Open-loop offered rate of the latency phase, requests/s: an
    /// eighth to a quarter of the capacity measured on a 2-vCPU x86-64
    /// VM, so no backlog builds even if capacity halves. Fixed, so every
    /// commit is offered the same load.
    pub open_rps: f64,
}

/// Per-document SC cache capacity of the cell's store.
pub const SC_CAPACITY: usize = 8;

pub const WORKLOADS: [Workload; 3] = [
    // After warm-up every prepare is an edge hit: the serving plane
    // (accept, HELLO, re-framing, envelopes, syscalls, client decode)
    // is nearly all the work.
    Workload {
        name: "hot-clean",
        docs: 8,
        queries_per_doc: 1,
        zipf_s: 1.0,
        packet_size: 256,
        gamma: 1.5,
        corrupt_p: None,
        writes_per_mille: 0,
        edge_budget: 4 << 20,
        open_rps: 1500.0,
    },
    // 48 documents × 16 queries = 768 request shapes drawn uniformly
    // against an edge budget of ~48 entries: the miss path (parse, SC,
    // plan, encode, admit/evict) dominates, and 2% writes exercise
    // generation staleness.
    Workload {
        name: "churn-mixed",
        docs: 48,
        queries_per_doc: 16,
        zipf_s: 0.0,
        packet_size: 256,
        gamma: 1.5,
        corrupt_p: None,
        writes_per_mille: 20,
        edge_budget: 768 << 10,
        open_rps: 250.0,
    },
    // The weakly-connected regime: small packets, thin redundancy and
    // 10% frame corruption force retransmission rounds and erasure
    // decodes on the client; every prepare is still an edge hit.
    Workload {
        name: "lossy-retx",
        docs: 8,
        queries_per_doc: 1,
        zipf_s: 1.0,
        packet_size: 64,
        gamma: 1.1,
        corrupt_p: Some(0.1),
        writes_per_mille: 0,
        edge_budget: 4 << 20,
        open_rps: 400.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn fault(&self) -> Option<FaultConfig> {
        self.corrupt_p.map(FaultConfig::corrupting)
    }
}

/// One step of the request sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    Fetch { doc: usize, query: usize },
    Write { doc: usize },
}

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded, endless request/write sequence of one workload. Op `i`
/// depends only on `(seed, i)`, so clients can claim ops from a shared
/// cursor and any run with the same seed offers the same ops.
#[derive(Debug, Clone)]
pub struct Sequence {
    workload: Workload,
    seed: u64,
    /// Cumulative Zipf popularity over document indices.
    cdf: Vec<f64>,
}

impl Sequence {
    pub fn new(workload: &Workload, seed: u64) -> Self {
        let weights: Vec<f64> = (1..=workload.docs)
            .map(|rank| 1.0 / (rank as f64).powf(workload.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Sequence {
            workload: *workload,
            seed,
            cdf,
        }
    }

    pub fn op(&self, i: u64) -> Op {
        let h = mix(self.seed ^ mix(i));
        let w = &self.workload;
        if h % 1000 < w.writes_per_mille {
            return Op::Write {
                doc: (mix(h) % w.docs as u64) as usize,
            };
        }
        let u = unit(mix(h ^ 1));
        let rank = self.cdf.iter().position(|&c| u < c).unwrap_or(w.docs - 1);
        // Popularity rank → document through a seeded permutation, so
        // the hottest URL differs between seeds.
        let doc = (rank + (mix(self.seed) % w.docs as u64) as usize) % w.docs;
        let query = (mix(h ^ 2) % w.queries_per_doc as u64) as usize;
        Op::Fetch { doc, query }
    }
}

pub fn url(doc: usize) -> String {
    format!("http://cell/doc{doc}")
}

/// Version `version` of document `doc` (version 0 is the corpus; each
/// write puts the next version).
pub fn document(seed: u64, doc: usize, version: u32) -> Document {
    SyntheticDocSpec::default()
        .generate(mix(seed ^ mix((doc as u64) << 32 | u64::from(version))))
        .document
}

/// Topical words the synthetic generator plants in paragraphs.
const QUERY_WORDS: &[&str] = &[
    "mobile",
    "wireless",
    "bandwidth",
    "browsing",
    "transmission",
    "resolution",
    "packet",
    "redundancy",
    "channel",
    "caching",
    "retransmission",
    "reconstruction",
    "connectivity",
    "corruption",
    "latency",
    "prefetching",
    "relevance",
    "session",
    "dispersal",
    "disconnection",
    "hypertext",
    "navigation",
    "summary",
    "energy",
];

/// The two-word QIC query `query` of document `doc`.
pub fn query_text(seed: u64, doc: usize, query: usize) -> String {
    let h = mix(seed ^ 0x5155_4552_5900_0000 ^ ((doc as u64) << 16) ^ query as u64);
    let a = QUERY_WORDS[(h % QUERY_WORDS.len() as u64) as usize];
    let b = QUERY_WORDS[((h >> 32) % QUERY_WORDS.len() as u64) as usize];
    format!("{a} {b}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(w: &Workload, seed: u64) -> Vec<Op> {
        let seq = Sequence::new(w, seed);
        (0..4000).map(|i| seq.op(i)).collect()
    }

    #[test]
    fn a_seed_fixes_the_request_and_write_sequence() {
        for w in &WORKLOADS {
            assert_eq!(prefix(w, 7), prefix(w, 7), "{}", w.name);
            assert_ne!(prefix(w, 7), prefix(w, 8), "{}", w.name);
        }
        assert_eq!(document(7, 2, 1), document(7, 2, 1));
        assert_ne!(document(7, 2, 1), document(7, 2, 2));
        let churn = Workload::by_name("churn-mixed").unwrap();
        let writes = prefix(churn, 7)
            .iter()
            .filter(|op| matches!(op, Op::Write { .. }))
            .count();
        assert!((40..=120).contains(&writes), "{writes} writes in 4000 ops");
        let shapes: std::collections::HashSet<Op> = prefix(churn, 7).into_iter().collect();
        assert!(
            shapes.len() > churn.docs * churn.queries_per_doc / 2,
            "near-uniform draw"
        );
    }

    #[test]
    fn hot_workloads_are_zipf_popular() {
        let hot = Workload::by_name("hot-clean").unwrap();
        let mut counts = vec![0usize; hot.docs];
        for op in prefix(hot, 11) {
            if let Op::Fetch { doc, .. } = op {
                counts[doc] += 1;
            }
        }
        counts.sort_unstable();
        assert!(counts[hot.docs - 1] > 3 * counts[0], "{counts:?}");
    }
}
