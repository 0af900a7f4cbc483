//! Property tests for the edge cache and the migration codec: the byte
//! budget holds over arbitrary admission sequences, whatever the cache
//! serves reconstructs the admitted payload exactly (resident or
//! rehydrated from disk), and migration records round-trip while every
//! hostile mutation is rejected without a panic.

use proptest::prelude::*;

use mrtweb_content::sc::Measure;
use mrtweb_docmodel::lod::Lod;
use mrtweb_store::codec::encode_dispersed;
use mrtweb_store::edge::{EdgeCache, EdgeKey};
use mrtweb_store::migrate::{decode_record, encode_record, MigrationRecord};
use mrtweb_transport::live::{DocumentHeader, LiveClient};
use mrtweb_transport::plan::{TransmissionPlan, UnitSlice};

/// A scratch directory unique to this process and call site.
fn temp_dir(tag: &str) -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let dir = std::env::temp_dir().join(format!("mrtweb-prop-edge-{tag}-{nanos}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deterministic cache entry: seeded payload of `payload_len` bytes
/// dispersal-encoded at `packet_size` with `gamma_pct`% redundancy,
/// keyed by `idx` so sequences of entries occupy distinct slots.
fn entry(
    idx: u64,
    payload_len: usize,
    packet_size: usize,
    gamma_pct: usize,
) -> (EdgeKey, DocumentHeader, Vec<u8>, Vec<u8>) {
    let payload: Vec<u8> = (0..payload_len)
        .map(|i| ((i as u64 ^ idx).wrapping_mul(2_654_435_761) >> 7) as u8)
        .collect();
    let plan = TransmissionPlan::sequential(vec![UnitSlice::new("doc", payload_len, 1.0)]);
    let m = plan.raw_packets(packet_size);
    let n = ((m * gamma_pct).div_ceil(100)).max(m);
    let blob = encode_dispersed(&payload, m, n, packet_size).unwrap();
    let header = DocumentHeader {
        doc_len: payload_len,
        m,
        n,
        packet_size,
        plan,
    };
    let key = EdgeKey {
        url: format!("http://cell/doc{idx}"),
        query: String::new(),
        lod: Lod::Paragraph,
        measure: Measure::Ic,
        packet_size,
        gamma_bits: (gamma_pct as f64 / 100.0).to_bits(),
    };
    (key, header, blob, payload)
}

/// Reconstructs the payload from whatever the cache serves for `key`.
fn reconstruct(cache: &EdgeCache, key: &EdgeKey) -> Option<Vec<u8>> {
    let server = cache.serve(key)?.server;
    let mut client = LiveClient::new(server.header().clone()).ok()?;
    for f in 0..server.header().n {
        if client.document_bytes().is_some() {
            break;
        }
        if let Some(wire) = server.frame_bytes(f) {
            client.on_wire(wire);
        }
    }
    client.document_bytes().map(<[u8]>::to_vec)
}

/// Strategy for one entry's shape: payload length, packet size, γ%.
fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
    (
        64usize..1500,
        prop_oneof![Just(32usize), Just(64usize)],
        100usize..200,
    )
}

proptest! {
    /// Residency never exceeds the byte budget at any point of an
    /// arbitrary admission sequence, and a refused admission leaves
    /// nothing behind.
    #[test]
    fn budget_never_exceeded(
        shapes in proptest::collection::vec(shape(), 1..10),
        budget_kib in 1usize..48,
    ) {
        let budget = budget_kib << 10;
        let dir = temp_dir("budget");
        let cache = EdgeCache::new(&dir, budget).unwrap();
        for (i, &(len, ps, gamma)) in shapes.iter().enumerate() {
            let (key, header, blob, _) = entry(i as u64, len, ps, gamma);
            let admitted = cache.admit(key.clone(), header, &blob).unwrap();
            prop_assert!(
                cache.resident_bytes() <= budget,
                "budget {} exceeded at entry {}: resident {}",
                budget, i, cache.resident_bytes()
            );
            if !admitted {
                prop_assert!(cache.serve(&key).is_none());
            }
        }
        prop_assert!(cache.resident_bytes() <= budget);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A hit reconstructs the admitted payload byte-identically — both
    /// straight from residency and after a flush forces rehydration
    /// from disk (the cold-serve path a miss would have produced).
    #[test]
    fn hit_reconstructs_admitted_payload(s in shape(), idx in any::<u64>()) {
        let (len, ps, gamma) = s;
        let dir = temp_dir("identity");
        let cache = EdgeCache::new(&dir, 1 << 22).unwrap();
        let (key, header, blob, payload) = entry(idx, len, ps, gamma);
        prop_assert!(cache.admit(key.clone(), header, &blob).unwrap());
        prop_assert_eq!(reconstruct(&cache, &key).as_deref(), Some(&payload[..]));
        cache.flush_resident();
        prop_assert_eq!(reconstruct(&cache, &key).as_deref(), Some(&payload[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Migration records round-trip exactly.
    #[test]
    fn migration_record_round_trips(s in shape(), idx in any::<u64>()) {
        let (len, ps, gamma) = s;
        let (key, header, blob, _) = entry(idx, len, ps, gamma);
        let record = encode_record(&MigrationRecord {
            key: key.clone(),
            header: header.clone(),
            blob: blob.clone(),
        });
        let decoded = decode_record(&record).unwrap();
        prop_assert_eq!(decoded.key, key);
        prop_assert_eq!(decoded.header, header);
        prop_assert_eq!(decoded.blob, blob);
    }

    /// Arbitrary bytes never panic the migration decoder.
    #[test]
    fn hostile_records_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..768)) {
        let _ = decode_record(&bytes);
    }

    /// Any single-byte corruption of a valid record is rejected: the
    /// trailing CRC-32 catches every one-byte error.
    #[test]
    fn corrupted_records_are_rejected(s in shape(), pos in any::<usize>(), mask in 1u8..=255) {
        let (len, ps, gamma) = s;
        let (key, header, blob, _) = entry(1, len, ps, gamma);
        let mut record = encode_record(&MigrationRecord { key, header, blob });
        let i = pos % record.len();
        record[i] ^= mask;
        prop_assert!(decode_record(&record).is_err(), "flip at {} passed", i);
    }

    /// Truncating a valid record always errors — no partial migrations.
    #[test]
    fn truncated_records_error(s in shape(), cut_frac in 0.0f64..1.0) {
        let (len, ps, gamma) = s;
        let (key, header, blob, _) = entry(2, len, ps, gamma);
        let record = encode_record(&MigrationRecord { key, header, blob });
        let cut = ((record.len() as f64) * cut_frac) as usize;
        prop_assume!(cut < record.len());
        prop_assert!(decode_record(&record[..cut]).is_err());
    }
}
