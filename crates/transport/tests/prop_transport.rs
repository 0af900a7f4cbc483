//! Property-based tests for transmission planning and the receiver
//! state machine.

use proptest::prelude::*;

use mrtweb_channel::bandwidth::Bandwidth;
use mrtweb_channel::bernoulli::BernoulliChannel;
use mrtweb_channel::link::Link;
use mrtweb_content::query::Query;
use mrtweb_content::sc::{Measure, StructuralCharacteristic};
use mrtweb_docmodel::document::Document;
use mrtweb_docmodel::lod::Lod;
use mrtweb_erasure::packet::Frame;
use mrtweb_textproc::pipeline::ScPipeline;
use mrtweb_transport::live::{frame_wire, ClientEvent, DocumentHeader, LiveClient, LiveServer};
use mrtweb_transport::plan::{plan_document, TransmissionPlan, UnitSlice};
use mrtweb_transport::receiver::ReceiverState;
use mrtweb_transport::session::{download, CacheMode, Outcome, Relevance, SessionConfig};

fn slices_strategy() -> impl Strategy<Value = Vec<UnitSlice>> {
    proptest::collection::vec((1usize..2000, 0.0f64..1.0), 1..30).prop_map(|parts| {
        let total: f64 = parts.iter().map(|(_, c)| *c).sum::<f64>().max(1e-9);
        parts
            .into_iter()
            .enumerate()
            .map(|(i, (bytes, c))| UnitSlice::new(format!("u{i}"), bytes, c / total))
            .collect()
    })
}

/// `0..n` in a pseudo-random order fixed by `seed`.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        // xorshift64 is plenty for test shuffling.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        order.swap(i, (state as usize) % (i + 1));
    }
    order
}

/// A small two-section document served at `lod`, with the payload its
/// plan lays out.
fn live_fixture(lod: Lod, min_packet: usize, gamma: f64) -> (LiveServer, Vec<u8>) {
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
    let index = pipeline.run(&doc);
    let query = Query::parse("mobile wireless", &pipeline);
    let sc = StructuralCharacteristic::from_index(&index, Some(&query));
    let (_, payload) = plan_document(&doc, &sc, lod, Measure::Qic);
    let server = LiveServer::new_auto(&doc, &sc, lod, Measure::Qic, min_packet, gamma).unwrap();
    (server, payload)
}

proptest! {
    /// Packet contents always partition the plan's total content, for
    /// any slice geometry and packet size.
    #[test]
    fn packet_contents_partition_content(
        slices in slices_strategy(),
        packet_size in 1usize..600,
    ) {
        let plan = TransmissionPlan::ranked(slices);
        let pc = plan.packet_contents(packet_size);
        prop_assert_eq!(pc.len(), plan.raw_packets(packet_size));
        let sum: f64 = pc.iter().sum();
        prop_assert!((sum - plan.total_content()).abs() < 1e-6);
        prop_assert!(pc.iter().all(|&c| c >= -1e-12));
    }

    /// Ranked plans are sorted by descending content.
    #[test]
    fn ranked_plans_are_sorted(slices in slices_strategy()) {
        let plan = TransmissionPlan::ranked(slices);
        for w in plan.slices().windows(2) {
            prop_assert!(w[0].content >= w[1].content - 1e-12);
        }
    }

    /// Receiver content is monotone in arrivals and reaches exactly 1.0
    /// on completion; intact counts never exceed distinct indices.
    #[test]
    fn receiver_monotone_and_bounded(
        m in 1usize..40,
        extra in 0usize..20,
        arrivals in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..200),
    ) {
        let n = m + extra;
        let contents = vec![1.0 / m as f64; m];
        let mut r = ReceiverState::new(m, n, contents);
        let mut last_content = 0.0;
        let mut distinct = std::collections::HashSet::new();
        for (idx, corrupted) in arrivals {
            let idx = idx % n;
            r.on_packet(idx, corrupted);
            if !corrupted {
                distinct.insert(idx);
            }
            let c = r.content();
            prop_assert!(c >= last_content - 1e-12, "content decreased");
            prop_assert!(c <= 1.0 + 1e-12);
            last_content = c;
            prop_assert!(r.intact_count() <= distinct.len());
            prop_assert_eq!(r.is_complete(), r.intact_count() >= m);
        }
        if r.is_complete() {
            prop_assert_eq!(r.content(), 1.0);
            prop_assert!(r.needed().is_empty());
        } else {
            prop_assert_eq!(r.needed().len(), m - r.intact_count());
        }
        prop_assert_eq!(r.missing().len(), n - r.intact_count());
    }

    /// Downloads are deterministic per seed and always terminate with a
    /// consistent report.
    #[test]
    fn download_reports_are_consistent(
        alpha in 0.0f64..0.8,
        gamma in 1.0f64..2.5,
        seed in any::<u64>(),
        caching in any::<bool>(),
        irrelevant in any::<bool>(),
        threshold in 0.0f64..1.0,
    ) {
        let plan = TransmissionPlan::sequential(vec![UnitSlice::new("doc", 4096, 1.0)]);
        let config = SessionConfig {
            gamma,
            cache_mode: if caching { CacheMode::Caching } else { CacheMode::NoCaching },
            max_rounds: 50,
            ..Default::default()
        };
        let relevance = if irrelevant {
            Relevance::irrelevant(threshold)
        } else {
            Relevance::relevant()
        };
        let run = |seed| {
            let mut link =
                Link::new(Bandwidth::from_kbps(19.2), BernoulliChannel::new(alpha, seed), 0);
            download(&plan, relevance, &config, &mut link)
        };
        let a = run(seed);
        let b = run(seed);
        prop_assert_eq!(&a, &b, "downloads must be deterministic per seed");

        prop_assert!(a.response_time >= 0.0);
        prop_assert!(a.content >= 0.0 && a.content <= 1.0);
        prop_assert!(a.n >= a.m);
        match a.outcome {
            Outcome::Completed => prop_assert_eq!(a.content, 1.0),
            Outcome::StoppedIrrelevant => prop_assert!(a.content >= threshold || threshold <= 0.0),
            Outcome::Failed => prop_assert!(a.rounds == 50),
        }
        // Time accounting: every packet costs exactly frame/bandwidth,
        // so time = packets × 260/2400.
        let per_packet = 260.0 / 2400.0;
        prop_assert!(
            (a.response_time - a.packets_sent as f64 * per_packet).abs() < 1e-6,
            "time {} != packets {} × {}", a.response_time, a.packets_sent, per_packet
        );
    }

    /// With caching, retrying strictly adds distinct intact packets, so
    /// completion always happens when alpha < 1 and the budget is ample.
    #[test]
    fn caching_always_completes_with_budget(
        alpha in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let plan = TransmissionPlan::sequential(vec![UnitSlice::new("doc", 2048, 1.0)]);
        let config = SessionConfig {
            cache_mode: CacheMode::Caching,
            max_rounds: 100_000,
            ..Default::default()
        };
        let mut link =
            Link::new(Bandwidth::from_kbps(19.2), BernoulliChannel::new(alpha, seed), 0);
        let r = download(&plan, Relevance::relevant(), &config, &mut link);
        prop_assert_eq!(r.outcome, Outcome::Completed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    /// The live client rebuilds the planned payload from any M intact
    /// frames arriving in any order amid corrupt, duplicate,
    /// out-of-range and wrong-length frames, reports it exactly once,
    /// and does it again after a reset and re-delivery.
    #[test]
    fn live_client_rebuilds_payload_from_shuffled_noisy_frames(
        lod_pick in 0usize..3,
        min_packet in 1usize..40,
        gamma in 1.0f64..2.5,
        lose_seed in any::<u64>(),
        order_seed in any::<u64>(),
        noise in 0usize..24,
    ) {
        let lod = [Lod::Document, Lod::Section, Lod::Paragraph][lod_pick];
        let (server, payload) = live_fixture(lod, min_packet, gamma);
        let header = server.header().clone();
        let (m, n) = (header.m, header.n);

        // Lose up to N − M packets outright; the rest arrive intact.
        let order = shuffled(n, lose_seed);
        let (lost, kept) = order.split_at((lose_seed as usize >> 32) % (n - m + 1));
        let frame = |i: usize| server.frame_bytes(i).unwrap().to_vec();
        let mut wire: Vec<Vec<u8>> = kept.iter().map(|&i| frame(i)).collect();
        for k in 0..noise {
            let i = order[(k * 7 + 3) % n];
            let mut bad = frame(i);
            let at = (k * 13) % bad.len();
            bad[at] ^= 1 + (k as u8 % 255);
            wire.push(bad); // corrupt: any single-byte flip fails the CRC
            if !lost.contains(&i) {
                wire.push(frame(i)); // duplicate
            }
            wire.push(Frame::new((n + k) as u16, vec![k as u8; header.packet_size]).to_wire().to_vec());
            wire.push(frame(i)[1..].to_vec()); // wrong length
        }

        let mut client = LiveClient::new(header).unwrap();
        for round_seed in [order_seed, !order_seed] {
            let mut completions = 0;
            for w in shuffled(wire.len(), round_seed) {
                completions += client
                    .on_wire(&wire[w])
                    .iter()
                    .filter(|e| matches!(e, ClientEvent::Reconstructed))
                    .count();
            }
            prop_assert_eq!(completions, 1);
            prop_assert_eq!(client.document_bytes(), Some(payload.as_slice()));
            client.reset();
            prop_assert_eq!(client.document_bytes(), None);
        }
    }
}

proptest! {
    /// The one-allocation framing is byte-identical to `Frame::to_wire`
    /// for every sequence number, packet size and payload.
    #[test]
    fn frame_wire_matches_frame_to_wire(
        sequence in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1500),
    ) {
        let want = Frame::new(sequence, payload.clone()).to_wire();
        prop_assert_eq!(&frame_wire(sequence, &payload)[..], &want[..]);
    }

    /// A server built from borrowed payloads holds, at every index, the
    /// frame `Frame::new(i, p).to_wire()` — and nothing where a payload
    /// is absent.
    #[test]
    fn from_payloads_frames_like_frame_to_wire(
        packet_size in 1usize..300,
        m in 1usize..12,
        extra in 0usize..8,
        absent_mask in any::<u32>(),
        seed in any::<u8>(),
    ) {
        let n = m + extra;
        let payloads: Vec<Vec<u8>> = (0..n)
            .map(|i| (0..packet_size).map(|j| (i * 31 + j) as u8 ^ seed).collect())
            .collect();
        // Only parity may be absent, so any mask leaves `m` present.
        let present = |i: usize| i < m || absent_mask & (1 << (i % 32)) == 0;
        let header = DocumentHeader {
            doc_len: m * packet_size,
            m,
            n,
            packet_size,
            plan: TransmissionPlan::sequential(vec![UnitSlice::new("doc", m * packet_size, 1.0)]),
        };
        let srv = LiveServer::from_payloads(
            header,
            payloads.iter().enumerate().map(|(i, p)| present(i).then_some(&p[..])),
        )
        .unwrap();
        for (i, p) in payloads.iter().enumerate() {
            let want = present(i).then(|| Frame::new(i as u16, p.clone()).to_wire());
            prop_assert_eq!(srv.frame_bytes(i), want.as_deref());
        }
        prop_assert_eq!(srv.held(), (0..n).filter(|&i| present(i)).count());
    }
}
