//! One benchmark run: arguments, the phases in order, and the metrics
//! they yield, printed by name with units and as the final JSON line.

use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::time::{Duration, Instant};

use mrtweb_erasure::gf256::detected_tiers;
use mrtweb_erasure::ida::inverse_cache_counters;
use mrtweb_proxy::server::Engine;
use mrtweb_proxy::stats as ps;

use crate::cell::{
    fetch_options, fresh_loopback, median, runs_dir, server_config, work_dir, Cell, Checker,
};
use crate::drive::{closed_loop, open_loop, plain_fetch, quantile, Ctx, Phase, Tally};
use crate::procfs;
use crate::trace::{self, hist_delta, hist_quantile, ClientTrace, SpanIndex};
use crate::workload::{mix, Workload};

/// Set-ups per untraced run; `setup_s` is their median. The first
/// builds the cell the run measures; the others are spread across the
/// run, between slices, so they sample the host as the slices do.
const SETUP_REPS: usize = 9;

/// An open-loop arrival counts as late when it starts this long after
/// it was due.
const LATE_S: f64 = 0.0005;

#[derive(Debug)]
pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

pub struct RunResult {
    pub host: Vec<(&'static str, String)>,
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
    pub tally: Tally,
}

fn num(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl RunResult {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name,
            value: num(value),
            unit,
            samples,
        });
    }

    /// Human-readable lines: the host record, notes, then every metric.
    pub fn lines(&self) -> Vec<String> {
        let mut host = String::from("host");
        for (k, v) in &self.host {
            let _ = write!(host, " {k}={v}");
        }
        let mut out = vec![host];
        out.extend(self.notes.iter().cloned());
        let t = &self.tally;
        out.push(format!(
            "fetches attempted={} completed={} rejected={} failed={} mismatched={} writes={} error_pct={:.4}",
            t.attempted, t.completed, t.rejected, t.failed, t.mismatched, t.writes, t.error_pct()
        ));
        for m in &self.metrics {
            out.push(format!(
                "metric {} {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    /// Every workload is chosen so that no fetch fails, so a rejected
    /// or failed fetch makes the run incorrect, as a mismatch does.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.tally.errors() == 0,
            self.tally.attempted.max(1),
            self.tally.errors()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Set-up of one cell, timed from corpus generation to the end of
/// warm-up: one fetch of each document, checked against the corpus.
fn set_up(
    w: &Workload,
    seed: u64,
    rep: usize,
    ip: Ipv4Addr,
    checker: &Checker,
    warm: &mut Tally,
) -> Result<(Cell, f64), String> {
    let t = Instant::now();
    let cell = Cell::start(
        w,
        seed,
        ip,
        work_dir(w).join(format!("edge{rep}")),
        server_config(w, seed),
    )?;
    for d in 0..w.docs {
        let result = plain_fetch(&mut (), cell.addr, &fetch_options(w, seed, d, 0));
        warm.book(result, |p| checker.matches_corpus(d, 0, p));
    }
    Ok((cell, t.elapsed().as_secs_f64()))
}

pub fn run(args: &Args, host_time_wait: usize, private_net: bool) -> Result<RunResult, String> {
    let w = args.workload;
    let seed = args.seed;
    let clients = std::thread::available_parallelism().map_or(1, usize::from);
    std::fs::create_dir_all(runs_dir()).map_err(|e| format!("runs dir: {e}"))?;

    let steal0 = procfs::steal_ticks();
    let checker = Checker::new(w, seed);
    let mut warm = Tally::default();
    // In a private namespace the loopback is new and empty; in the
    // host's, a fresh address per cell keeps every 4-tuple new.
    let cell_ip = |rep: usize| {
        if private_net {
            Ipv4Addr::LOCALHOST
        } else {
            fresh_loopback(seed ^ (rep as u64) << 40)
        }
    };
    let time_wait = procfs::time_wait(cell_ip(0));
    let (cell, setup_s) = set_up(w, seed, 0, cell_ip(0), &checker, &mut warm)?;
    checker.rebase(&cell.store);
    let (fs_type, fs_dev) = procfs::filesystem_of(&work_dir(w));
    let tier = detected_tiers()
        .first()
        .map_or_else(|| "none".to_owned(), |t| format!("{t:?}"));

    let mut result = RunResult {
        host: vec![
            ("workload", w.name.to_owned()),
            ("seed", seed.to_string()),
            ("nproc", clients.to_string()),
            ("gf256_tier", tier),
            ("engine", Engine::Auto.resolved().to_owned()),
            ("edge_fs", format!("{fs_type}:{fs_dev}")),
            ("cell_addr", cell.addr.to_string()),
            (
                "netns",
                if private_net { "private" } else { "host" }.to_owned(),
            ),
            // TIME-WAIT sockets earlier runs left on the host, and those
            // this run starts with: none in a private namespace, and in
            // the host's, none toward this run's fresh address.
            ("time_wait_host_at_start", host_time_wait.to_string()),
            ("time_wait_at_start", time_wait.0.to_string()),
            ("time_wait_toward_cell_at_start", time_wait.1.to_string()),
        ],
        notes: Vec::new(),
        metrics: Vec::new(),
        tally: warm,
    };
    let ctx = Ctx::new(w, seed, cell.addr, &cell.store, &checker);
    let outcome = if args.trace {
        traced(args, &ctx, &cell, clients, &mut result)
    } else {
        let mut spare_set_up = |rep: usize, warm: &mut Tally| {
            let (spare, s) = set_up(w, seed, rep, cell_ip(rep), &checker, warm)?;
            spare.stop();
            Ok(s)
        };
        untraced(args, &ctx, clients, setup_s, &mut spare_set_up, &mut result)
    };
    cell.stop();
    let steal1 = procfs::steal_ticks();
    result.host.push((
        "cpu_steal_pct",
        format!("{:.2}", pct(steal1.0 - steal0.0, steal1.1 - steal0.1)),
    ));
    let _ = std::fs::remove_dir_all(work_dir(w));
    outcome?;
    result.notes.extend(checker.diagnose());
    Ok(result)
}

/// The slices least disturbed from outside: the quarter with the
/// lowest CPU steal, ties broken in a fixed pseudo-random order. The
/// host is a shared VM; a neighbour's burst takes CPU from some slices
/// (a few percent of steal already lifts p90 several-fold), and a code
/// change cannot move steal.
fn quiet_quarter<T>(slices: Vec<(f64, T)>) -> Vec<T> {
    let keep = slices.len().div_ceil(4);
    let mut ranked: Vec<(f64, u64, T)> = slices
        .into_iter()
        .enumerate()
        .map(|(i, (steal, t))| (steal, mix(i as u64), t))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    ranked.into_iter().take(keep).map(|(_, _, t)| t).collect()
}

/// Steal share of the host's CPU time while `f` ran, and its result.
fn stolen<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let (s0, t0) = procfs::steal_ticks();
    let out = f();
    let (s1, t1) = procfs::steal_ticks();
    (pct(s1 - s0, t1 - t0), out)
}

/// A latency slice lasts long enough for at least this many arrivals,
/// so its p90 has ten samples beyond it.
const SLICE_ARRIVALS: f64 = 100.0;

/// Capacity and latency are measured in alternating short slices
/// across the whole run. Capacity metrics pool the quietest quarter of
/// the capacity slices; latency metrics are the median, over the
/// quietest quarter of the latency slices, of each slice's quantile, so
/// a disturbed minority among them cannot set the tail. `set_up_spare`
/// sets up and stops a cell the slices do not use, and returns its
/// set-up time.
fn untraced(
    args: &Args,
    ctx: &Ctx<'_>,
    clients: usize,
    first_setup_s: f64,
    set_up_spare: &mut dyn FnMut(usize, &mut Tally) -> Result<f64, String>,
    r: &mut RunResult,
) -> Result<(), String> {
    let w = args.workload;
    let cap_slice = Duration::from_millis(250);
    let lat_slice = cap_slice.max(Duration::from_secs_f64(SLICE_ARRIVALS / w.open_rps));
    let n = ((args.seconds / (cap_slice + lat_slice).as_secs_f64()).round() as usize).max(4);
    let mut caps = Vec::with_capacity(n);
    let mut lats = Vec::with_capacity(n);
    let (mut bytes, mut docs) = (0, 0);
    let mut setups = vec![first_setup_s];
    for i in 0..n {
        if setups.len() < SETUP_REPS && i * SETUP_REPS >= setups.len() * n {
            setups.push(set_up_spare(setups.len(), &mut r.tally)?);
        }
        let (steal, cap) = stolen(|| closed_loop(ctx, clients, cap_slice, &|| (), &plain_fetch));
        caps.push((
            steal,
            (cap.tally.completed, cap.elapsed_s, cap.process.cpu_s),
        ));
        let (steal, lat) =
            stolen(|| open_loop(ctx, clients, w.open_rps, lat_slice, &|| (), &plain_fetch));
        for t in [&cap.tally, &lat.tally] {
            r.tally.add(t);
            bytes += t.bytes;
            docs += t.completed;
        }
        lats.push((steal, lat.latency_s));
    }
    let steal: Vec<f64> = caps.iter().map(|c| c.0).collect();
    let caps = quiet_quarter(caps);
    let lats = quiet_quarter(lats);
    let done: u64 = caps.iter().map(|c| c.0).sum();
    let secs: f64 = caps.iter().map(|c| c.1).sum();
    let cpu: f64 = caps.iter().map(|c| c.2).sum();
    let lat_n = lats.iter().map(Vec::len).sum::<usize>() as u64;
    let slice_q = |q: f64| median(lats.iter().map(|l| quantile(l, q) * 1e3).collect());
    r.notes.push(format!(
        "{n} rounds of {:.2} s + {:.2} s; capacity-slice steal_pct {steal:.0?}; metrics use the quietest quarter of each slice kind",
        cap_slice.as_secs_f64(),
        lat_slice.as_secs_f64(),
    ));
    let set_ups = setups.len() as u64;
    r.metric("setup_s", median(setups), "s", set_ups);
    r.metric("throughput_rps", done as f64 / secs, "docs/s", done);
    r.metric("cpu_us_per_doc", cpu * 1e6 / done.max(1) as f64, "us", done);
    r.metric("p50_ms", slice_q(0.5), "ms", lat_n);
    r.metric("p90_ms", slice_q(0.9), "ms", lat_n);
    r.metric(
        "air_bytes_per_doc",
        bytes as f64 / docs.max(1) as f64,
        "bytes",
        docs,
    );
    r.metric(
        "ok_pct",
        100.0 - r.tally.error_pct(),
        "%",
        r.tally.attempted,
    );
    Ok(())
}

/// Per-doc server work attributed to the layers the replay timed, as
/// shares of the server threads' measured CPU per doc.
pub struct Attribution {
    pub shares: Vec<(&'static str, f64)>,
    pub unattributed_pct: f64,
}

pub fn attribute(
    server_cpu_us_per_doc: f64,
    layers_us_per_doc: &[(&'static str, f64)],
) -> Attribution {
    let shares: Vec<(&'static str, f64)> = layers_us_per_doc
        .iter()
        .map(|&(name, us)| (name, num(us / server_cpu_us_per_doc * 100.0)))
        .collect();
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    Attribution {
        shares,
        unattributed_pct: 100.0 - attributed,
    }
}

fn per(n: f64, docs: f64) -> f64 {
    n / docs.max(1.0)
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64 * 100.0
    }
}

#[allow(clippy::too_many_lines)]
fn traced(
    args: &Args,
    ctx: &Ctx<'_>,
    cell: &Cell,
    clients: usize,
    r: &mut RunResult,
) -> Result<(), String> {
    let w = args.workload;
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);

    // Untraced reference phases: generator diagnostics and the
    // throughput the tracing overhead is measured against.
    let open: Phase<()> = open_loop(ctx, clients, w.open_rps, quarter, &|| (), &plain_fetch);
    let plain = closed_loop(ctx, clients, quarter, &|| (), &plain_fetch);

    let stats0 = cell.server.stats();
    let edge0 = cell.edge.stats();
    let store0 = cell.store.stats();
    let inv0 = inverse_cache_counters();
    let segs0 = procfs::tcp_out_segs();
    let epoch = Instant::now();
    let traced = closed_loop(
        ctx,
        clients,
        quarter,
        &|| ClientTrace::new(epoch),
        &trace::traced_fetch,
    );
    let stats1 = cell.server.stats();
    let edge1 = cell.edge.stats();
    let store1 = cell.store.stats();
    let inv1 = inverse_cache_counters();
    let segs = procfs::tcp_out_segs().saturating_sub(segs0);

    let replay = trace::replay(w, args.seed, &work_dir(w), quarter)?;
    let logs: Vec<&trace::SpanLog> = traced
        .states
        .iter()
        .map(|t| &t.log)
        .chain(std::iter::once(&replay.log))
        .collect();
    let spans = SpanIndex::new(logs.iter().copied());
    let spans_path = runs_dir().join(format!("spans-{}.jsonl", w.name));
    trace::write_spans(&spans_path, logs.iter().copied()).map_err(|e| format!("spans: {e}"))?;

    for t in [&open.tally, &plain.tally, &traced.tally] {
        r.tally.add(t);
    }
    let docs_n = traced.tally.completed;
    let docs = docs_n as f64;
    let reqs: Vec<&trace::ClientReq> = traced
        .states
        .iter()
        .flat_map(|t| t.reqs.iter())
        .filter(|q| q.completed)
        .collect();
    let server = traced.server();
    let client = traced.client;
    let counter = |name| stats1.counter(name).saturating_sub(stats0.counter(name));
    let frames_sent = per(counter(ps::FRAMES_SENT) as f64, docs);
    let retx_per_doc = per(reqs.iter().map(|q| q.retx).sum::<u64>() as f64, docs);
    let edge_lookups = (edge1.hits + edge1.misses).saturating_sub(edge0.hits + edge0.misses);
    let edge_hits = edge1.hits.saturating_sub(edge0.hits);
    let hit_share = if edge_lookups == 0 {
        1.0
    } else {
        edge_hits as f64 / edge_lookups as f64
    };

    let server_cpu_us = per(server.cpu_s * 1e6, docs);
    let layers = [
        (
            "store.gateway.from_options",
            spans.mean_cpu_ns("store.gateway.from_options") / 1e3,
        ),
        (
            "store.gateway.prepare_edge",
            (hit_share * spans.mean_cpu_ns("store.gateway.prepare_hit")
                + (1.0 - hit_share) * spans.mean_cpu_ns("store.gateway.prepare_miss"))
                / 1e3,
        ),
        (
            "transport.live.frame_checked",
            frames_sent * spans.mean_ns("transport.live.frame_checked") / 1e3,
        ),
        (
            "channel.fault.transmit",
            frames_sent * spans.mean_ns("channel.fault.transmit") / 1e3,
        ),
        (
            "proxy.wire.envelope",
            frames_sent * spans.mean_ns("proxy.wire.envelope") / 1e3,
        ),
        (
            "proxy.wire.decode_control",
            (2.0 + retx_per_doc) * spans.mean_ns("proxy.wire.decode") / 1e3,
        ),
    ];
    let attribution = attribute(server_cpu_us, &layers);
    let mut line = format!("attribution server_cpu_us_per_doc={server_cpu_us:.3}");
    for (name, share) in &attribution.shares {
        let _ = write!(line, " {name}={share:.3}%");
    }
    let _ = write!(line, " unattributed={:.3}%", attribution.unattributed_pct);
    r.notes.push(line);
    r.notes.push(format!(
        "spans {} (replayed {} fetches)",
        spans_path.display(),
        replay.fetches
    ));
    r.notes.push(format!(
        "edge entries={} resident_bytes={} budget_bytes={}",
        cell.edge.len(),
        edge1.resident_bytes,
        w.edge_budget
    ));

    let rps_plain = plain.tally.completed as f64 / plain.elapsed_s;
    let rps_traced = docs / traced.elapsed_s;
    let n_open = open.latency_s.len() as u64;
    let s = |name: &str| spans.samples(name) as u64;
    let hist = |name| hist_delta(&stats1.hist(name), &stats0.hist(name));
    let req_lat = hist(ps::REQUEST_LATENCY_NS);
    let loop_wait = hist(ps::LOOP_WAIT_NS);
    let sum = |f: fn(&trace::ClientReq) -> u64| reqs.iter().map(|q| f(q)).sum::<u64>() as f64;
    let inv_lookups = (inv1.0 + inv1.1).saturating_sub(inv0.0 + inv0.1);
    let sc_lookups =
        (store1.sc_hits + store1.sc_misses).saturating_sub(store0.sc_hits + store0.sc_misses);

    r.metric(
        "store.gateway.prepare_hit_us_p50",
        spans.us("store.gateway.prepare_hit", 0.5),
        "us",
        s("store.gateway.prepare_hit"),
    );
    r.metric(
        "transport.live.from_cooked_us_p50",
        spans.us("transport.live.from_cooked", 0.5),
        "us",
        s("transport.live.from_cooked"),
    );
    r.metric(
        "store.edge.serve_us_p50",
        hist_quantile(&replay.edge_serve, 0.5) / 1e3,
        "us",
        replay.edge_serve.count,
    );
    r.metric(
        "proxy.wire.envelope_ns_per_frame",
        spans.mean_ns("proxy.wire.envelope"),
        "ns",
        s("proxy.wire.envelope"),
    );
    r.metric(
        "proxy.wire.decode_ns_per_frame",
        spans.mean_ns("proxy.wire.decode"),
        "ns",
        s("proxy.wire.decode"),
    );
    r.metric(
        "proxy.event.syscw_per_doc",
        per(server.syscw as f64, docs),
        "count",
        docs_n,
    );
    r.metric(
        "proxy.event.syscr_per_doc",
        per(server.syscr as f64, docs),
        "count",
        docs_n,
    );
    r.metric(
        "proxy.client.syscr_per_doc",
        per(sum(|q| q.recv_calls), docs),
        "count",
        docs_n,
    );
    r.metric(
        "proxy.tcp.segs_per_doc",
        per(segs as f64, docs),
        "count",
        docs_n,
    );
    r.metric(
        "proxy.client.connect_us_p50",
        spans.us("proxy.client.connect", 0.5),
        "us",
        s("proxy.client.connect"),
    );
    r.metric(
        "proxy.event.accepted_per_doc",
        per(counter(ps::ACCEPTED) as f64, docs),
        "count",
        docs_n,
    );
    r.metric(
        "proxy.client.header_wait_us_p50",
        spans.us("proxy.client.header_wait", 0.5),
        "us",
        s("proxy.client.header_wait"),
    );
    r.metric(
        "proxy.client.read_wait_us_per_doc",
        per(sum(|q| q.read_wait_ns) / 1e3, docs),
        "us",
        docs_n,
    );
    r.metric(
        "proxy.event.request_latency_us_p50",
        hist_quantile(&req_lat, 0.5) / 1e3,
        "us",
        req_lat.count,
    );
    r.metric(
        "proxy.event.loop_wait_us_p50",
        hist_quantile(&loop_wait, 0.5) / 1e3,
        "us",
        loop_wait.count,
    );
    r.metric(
        "proxy.event.outbuf_hwm_bytes",
        stats1.gauge(ps::OUTBUF_HWM_BYTES) as f64,
        "bytes",
        1,
    );
    r.metric("proxy.event.cpu_us_per_doc", server_cpu_us, "us", docs_n);
    r.metric(
        "proxy.client.cpu_us_per_doc",
        per(client.cpu_s * 1e6, docs),
        "us",
        docs_n,
    );
    r.metric(
        "proxy.event.unattributed_pct",
        attribution.unattributed_pct,
        "%",
        docs_n,
    );
    r.metric(
        "textproc.query_parse_us_p50",
        spans.us("textproc.query_parse", 0.5),
        "us",
        s("textproc.query_parse"),
    );
    r.metric(
        "store.store.sc_miss_us_p50",
        spans.us("store.store.sc_miss", 0.5),
        "us",
        s("store.store.sc_miss"),
    );
    r.metric(
        "store.store.sc_hit_pct",
        pct(store1.sc_hits.saturating_sub(store0.sc_hits), sc_lookups),
        "%",
        sc_lookups,
    );
    r.metric(
        "store.store.put_us_p50",
        spans.us("store.store.put", 0.5),
        "us",
        s("store.store.put"),
    );
    r.metric(
        "transport.plan.plan_us_p50",
        spans.us("transport.plan.plan", 0.5),
        "us",
        s("transport.plan.plan"),
    );
    r.metric(
        "store.codec.encode_us_p50",
        spans.us("store.codec.encode", 0.5),
        "us",
        s("store.codec.encode"),
    );
    r.metric(
        "store.gateway.prepare_miss_us_p50",
        spans.us("store.gateway.prepare_miss", 0.5),
        "us",
        s("store.gateway.prepare_miss"),
    );
    r.metric(
        "store.gateway.prepare_miss_us_p99",
        spans.us("store.gateway.prepare_miss", 0.99),
        "us",
        s("store.gateway.prepare_miss"),
    );
    r.metric(
        "store.gateway.hit_pct",
        pct(edge_hits, edge_lookups),
        "%",
        edge_lookups,
    );
    r.metric(
        "store.edge.admit_us_p50",
        spans.us("store.edge.admit", 0.5),
        "us",
        s("store.edge.admit"),
    );
    r.metric(
        "store.edge.evictions_per_kdoc",
        per(
            edge1.evictions.saturating_sub(edge0.evictions) as f64 * 1e3,
            docs,
        ),
        "count",
        docs_n,
    );
    r.metric(
        "store.edge.trimmed_per_kdoc",
        per(
            edge1.trimmed_packets.saturating_sub(edge0.trimmed_packets) as f64 * 1e3,
            docs,
        ),
        "count",
        docs_n,
    );
    r.metric(
        "store.edge.admit_failures",
        edge1.admit_failures.saturating_sub(edge0.admit_failures) as f64,
        "count",
        docs_n,
    );
    r.metric(
        "store.edge.resident_bytes",
        edge1.resident_bytes as f64,
        "bytes",
        1,
    );
    r.metric(
        "transport.live.on_wire_ns_per_frame",
        spans.mean_ns("transport.live.on_wire"),
        "ns",
        s("transport.live.on_wire"),
    );
    r.metric(
        "transport.live.reconstruct_us_p50",
        spans.us("transport.live.reconstruct", 0.5),
        "us",
        s("transport.live.reconstruct"),
    );
    r.metric(
        "erasure.inverse_hit_pct",
        pct(inv1.0.saturating_sub(inv0.0), inv_lookups),
        "%",
        inv_lookups,
    );
    r.metric(
        "transport.receiver.rounds_per_doc",
        per(sum(|q| q.rounds), docs),
        "count",
        docs_n,
    );
    r.metric(
        "transport.receiver.retx_requests_per_doc",
        retx_per_doc,
        "count",
        docs_n,
    );
    r.metric(
        "transport.receiver.frames_per_doc",
        per(sum(|q| q.frames), docs),
        "count",
        docs_n,
    );
    r.metric(
        "transport.receiver.crc_rejects_per_doc",
        per(sum(|q| q.crc_rejects), docs),
        "count",
        docs_n,
    );
    r.metric(
        "channel.fault.transmit_ns_per_frame",
        spans.mean_ns("channel.fault.transmit"),
        "ns",
        s("channel.fault.transmit"),
    );
    r.metric(
        "channel.fault.faults_per_doc",
        per(counter(ps::FAULTS_INJECTED) as f64, docs),
        "count",
        docs_n,
    );
    r.metric(
        "loadgen.p99_ms",
        quantile(&open.latency_s, 0.99) * 1e3,
        "ms",
        n_open,
    );
    let late = open.late_s.iter().filter(|&&l| l > LATE_S).count() as u64;
    r.metric(
        "loadgen.late_pct",
        pct(late, open.late_s.len() as u64),
        "%",
        open.late_s.len() as u64,
    );
    r.metric(
        "bench.trace_overhead_pct",
        (rps_plain / rps_traced.max(1e-9) - 1.0) * 100.0,
        "%",
        docs_n,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_unattributed_sum_to_one_hundred() {
        let a = attribute(40.0, &[("a", 3.0), ("b", 10.5), ("c", 0.0)]);
        let total: f64 = a.shares.iter().map(|(_, s)| s).sum::<f64>() + a.unattributed_pct;
        assert!((total - 100.0).abs() < 1e-9, "{total}");
        assert!((a.unattributed_pct - 66.25).abs() < 1e-9);
        // Rounded as printed, the parts still add up to 100 ± rounding.
        let printed: f64 = a
            .shares
            .iter()
            .map(|(_, s)| (s * 1e3).round() / 1e3)
            .sum::<f64>()
            + (a.unattributed_pct * 1e3).round() / 1e3;
        assert!((printed - 100.0).abs() <= 0.002, "{printed}");
    }

    /// The metric names of one `BENCHMARK.json` section.
    fn declared(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let start = text.find(&format!("\"{section}\"")).unwrap();
        let body = &text[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_owned())
            .collect()
    }

    #[test]
    fn every_declared_metric_is_reported_and_no_other() {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                workload: Workload::by_name("lossy-retx").unwrap(),
                seed: 5,
                seconds: 0.8,
                trace,
            };
            let result = run(&args, 0, false).unwrap();
            assert_eq!(result.tally.errors(), 0);
            let names: Vec<String> = result.metrics.iter().map(|m| m.name.to_owned()).collect();
            assert_eq!(names, declared(section), "{section}");
            let json = result.json();
            assert!(
                json.starts_with("{\"correct\": true, \"attempted\": "),
                "{json}"
            );
        }
    }

    #[test]
    fn args_need_a_known_workload() {
        let a = |v: &[&str]| Args::parse(&v.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>());
        assert!(a(&["--workload", "nope", "--seed", "1"]).is_err());
        assert!(a(&["--workload", "hot-clean", "--seed", "x"]).is_err());
        let ok = a(&[
            "--workload",
            "lossy-retx",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ])
        .unwrap();
        assert!(ok.trace && ok.seed == 3 && ok.seconds == 2.0);
    }
}
