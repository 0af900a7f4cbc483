//! The load phases: a closed loop measuring capacity and an open loop
//! measuring latency at a fixed offered rate, both over real sockets.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use mrtweb_proxy::client::{fetch, FetchError, FetchOptions};
use mrtweb_store::store::DocumentStore;

use crate::cell::{fetch_options, Checker};
use crate::procfs::{self, TaskCounters};
use crate::sys;
use crate::workload::{Op, Sequence, Workload};

/// What a fetch handed back, as the output check needs it.
#[derive(Debug, Clone)]
pub struct Fetched {
    pub completed: bool,
    pub payload: Vec<u8>,
    pub bytes: u64,
}

/// Outcome counts of a phase. Writes are not fetches and count apart.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub writes: u64,
    /// Wire bytes read by completed fetches.
    pub bytes: u64,
}

impl Tally {
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.completed += o.completed;
        self.rejected += o.rejected;
        self.failed += o.failed;
        self.mismatched += o.mismatched;
        self.writes += o.writes;
        self.bytes += o.bytes;
    }

    pub fn errors(&self) -> u64 {
        self.rejected + self.failed + self.mismatched
    }

    /// Rejected, failed and mismatched fetches as a share of attempts.
    pub fn error_pct(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.errors() as f64 / self.attempted as f64 * 100.0
    }

    /// Books one fetch outcome, checking a completed payload.
    pub fn book(
        &mut self,
        result: Result<Fetched, FetchError>,
        check: impl FnOnce(&[u8]) -> bool,
    ) -> bool {
        self.attempted += 1;
        match result {
            Ok(f) if f.completed => {
                if check(&f.payload) {
                    self.completed += 1;
                    self.bytes += f.bytes;
                    true
                } else {
                    self.mismatched += 1;
                    false
                }
            }
            Ok(_) => {
                self.failed += 1;
                false
            }
            Err(FetchError::Rejected { .. }) => {
                self.rejected += 1;
                false
            }
            Err(_) => {
                self.failed += 1;
                false
            }
        }
    }
}

/// Everything a client thread needs to run the workload's ops.
pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub store: &'a DocumentStore,
    pub checker: &'a Checker,
    pub seq: Sequence,
    /// Fetch options per request shape, `doc * queries_per_doc + query`.
    pub options: Vec<FetchOptions>,
    pub queries_per_doc: usize,
    /// Next op index; phases continue the sequence where the last
    /// one stopped.
    pub cursor: AtomicU64,
    /// Documents the phase's write ops will replace once no fetch is in
    /// flight (see [`Ctx::step`]).
    writes: Mutex<Vec<(u64, usize)>>,
}

impl<'a> Ctx<'a> {
    pub fn new(
        w: &Workload,
        seed: u64,
        addr: SocketAddr,
        store: &'a DocumentStore,
        checker: &'a Checker,
    ) -> Self {
        let options = (0..w.docs)
            .flat_map(|d| (0..w.queries_per_doc).map(move |q| (d, q)))
            .map(|(d, q)| fetch_options(w, seed, d, q))
            .collect();
        Ctx {
            addr,
            store,
            checker,
            seq: Sequence::new(w, seed),
            options,
            queries_per_doc: w.queries_per_doc,
            cursor: AtomicU64::new(0),
            writes: Mutex::new(Vec::new()),
        }
    }

    /// Runs the next op of the sequence with `fetcher`; for a fetch,
    /// returns when `fetcher` returned (the output check comes after).
    ///
    /// A write is queued, not performed: the phase applies its writes
    /// in sequence order once every client has returned. A `put` that
    /// races a structural-characteristic build of the same URL can
    /// leave the replaced document's ranking cached in the new one
    /// (`DocumentStore::structural_characteristic` reads the index and
    /// inserts its result under separate locks; see the ignored test
    /// in `cell`), and the output check would fail the run on that
    /// defect. Applied between phases, a write still makes the next
    /// fetch of its URL find a stale edge entry and re-cook it.
    pub fn step<S>(
        &self,
        state: &mut S,
        tally: &mut Tally,
        fetcher: &Fetcher<S>,
    ) -> Option<Instant> {
        // ORDERING: the cursor only hands out distinct indices.
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        match self.seq.op(i) {
            Op::Write { doc } => {
                lock(&self.writes).push((i, doc));
                tally.writes += 1;
                None
            }
            Op::Fetch { doc, query } => {
                let opts = &self.options[doc * self.queries_per_doc + query];
                let lo = self.store.generation(&opts.url);
                let result = fetcher(state, self.addr, opts);
                let returned = Instant::now();
                let hi = self.store.generation(&opts.url);
                tally.book(result, |p| self.checker.matches(doc, query, lo, hi, p));
                Some(returned)
            }
        }
    }

    /// Performs the queued writes in sequence order. Call only while no
    /// fetch is in flight.
    fn apply_writes(&self) {
        let mut writes = std::mem::take(&mut *lock(&self.writes));
        writes.sort_unstable();
        for (_, doc) in writes {
            self.checker.write(self.store, doc);
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs one fetch with per-thread state `S` (the traced client keeps
/// its span log there).
pub type Fetcher<S> =
    dyn Fn(&mut S, SocketAddr, &FetchOptions) -> Result<Fetched, FetchError> + Sync;

/// The library client, untraced.
pub fn plain_fetch(
    _: &mut (),
    addr: SocketAddr,
    opts: &FetchOptions,
) -> Result<Fetched, FetchError> {
    fetch(addr, opts).map(|r| Fetched {
        completed: r.completed,
        payload: r.payload,
        bytes: r.bytes_received,
    })
}

/// One phase's measurements.
pub struct Phase<S> {
    pub tally: Tally,
    /// Per fetch: seconds from its due time (open loop) or its start
    /// (closed loop) to `fetch` returning.
    pub latency_s: Vec<f64>,
    /// Open loop: seconds each arrival started after its due time.
    pub late_s: Vec<f64>,
    pub elapsed_s: f64,
    /// Whole process, all threads, exited ones included.
    pub process: TaskCounters,
    /// The client threads together.
    pub client: TaskCounters,
    /// The thread that ran the phase and waited for it.
    pub main: TaskCounters,
    /// Each client thread's final state.
    pub states: Vec<S>,
}

impl<S> Phase<S> {
    /// Applies the phase's writes and books the output check's
    /// deferred verdicts, off the clock.
    fn settled(mut self, ctx: &Ctx<'_>) -> Self {
        ctx.apply_writes();
        let mismatched = ctx.checker.settle();
        self.tally.mismatched += mismatched;
        self.tally.completed -= mismatched;
        self
    }

    /// What the proxy's own threads did: everything but the clients
    /// and the waiting main thread.
    pub fn server(&self) -> TaskCounters {
        self.process.minus(self.client).minus(self.main)
    }
}

#[derive(Default)]
struct ThreadOut {
    tally: Tally,
    latency_s: Vec<f64>,
    late_s: Vec<f64>,
}

/// Runs `body` on `clients` threads, each pinned to its own CPU.
///
/// Unpinned, the scheduler's wake-affine placement can stack both
/// clients of a loopback ping-pong on one CPU and keep them there for a
/// whole run: the closed loop then holds the process at one CPU's worth
/// of time, with the other CPU idle, and capacity reads up to a third
/// lower than in a run where they spread. The clients stand for remote
/// hosts, so one per CPU is the closer model; the proxy's threads stay
/// free.
fn run_threads<S: Send>(
    clients: usize,
    make_state: &(dyn Fn() -> S + Sync),
    body: &(dyn Fn(&mut S, &mut ThreadOut) + Sync),
) -> Phase<S> {
    let main_tid = procfs::current_tid();
    let main0 = procfs::task(main_tid);
    let process0 = procfs::process();
    let t0 = Instant::now();
    let outs: Vec<(ThreadOut, TaskCounters, S)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                s.spawn(move || {
                    sys::pin_to_nth_cpu(i);
                    let tid = procfs::current_tid();
                    let before = procfs::task(tid);
                    let mut state = make_state();
                    let mut out = ThreadOut::default();
                    body(&mut state, &mut out);
                    (out, procfs::task(tid).minus(before), state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        tally: Tally::default(),
        latency_s: Vec::new(),
        late_s: Vec::new(),
        elapsed_s: t0.elapsed().as_secs_f64(),
        process: procfs::process().minus(process0),
        client: TaskCounters::default(),
        main: procfs::task(main_tid).minus(main0),
        states: Vec::new(),
    };
    for (out, counters, state) in outs {
        phase.tally.add(&out.tally);
        phase.latency_s.extend(out.latency_s);
        phase.late_s.extend(out.late_s);
        phase.client = phase.client.plus(counters);
        phase.states.push(state);
    }
    phase
}

/// Closed loop: `clients` threads, each issuing its next op as soon as
/// the previous one returns, for `dur`.
pub fn closed_loop<S: Send>(
    ctx: &Ctx<'_>,
    clients: usize,
    dur: Duration,
    make_state: &(dyn Fn() -> S + Sync),
    fetcher: &Fetcher<S>,
) -> Phase<S> {
    let end = Instant::now() + dur;
    let phase = run_threads(clients, make_state, &|state, out| {
        while Instant::now() < end {
            let t = Instant::now();
            if let Some(returned) = ctx.step(state, &mut out.tally, fetcher) {
                out.latency_s.push(returned.duration_since(t).as_secs_f64());
            }
        }
    });
    phase.settled(ctx)
}

/// Open loop: arrivals every `1/rate` s for `dur`, each taken by the
/// first free one of `clients` threads. Latency counts from the
/// scheduled arrival, so a stall also charges the arrivals queued
/// behind it.
pub fn open_loop<S: Send>(
    ctx: &Ctx<'_>,
    clients: usize,
    rate: f64,
    dur: Duration,
    make_state: &(dyn Fn() -> S + Sync),
    fetcher: &Fetcher<S>,
) -> Phase<S> {
    let start = Instant::now() + Duration::from_millis(1);
    let arrivals = (dur.as_secs_f64() * rate) as u64;
    let next = AtomicU64::new(0);
    let phase = run_threads(clients, make_state, &|state, out| loop {
        // ORDERING: the counter only hands out distinct arrivals.
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= arrivals {
            break;
        }
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        out.late_s
            .push(Instant::now().saturating_duration_since(due).as_secs_f64());
        if let Some(returned) = ctx.step(state, &mut out.tally, fetcher) {
            out.latency_s
                .push(returned.saturating_duration_since(due).as_secs_f64());
        }
    });
    phase.settled(ctx)
}

/// The `q`-quantile (nearest rank) of a sample; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(payload: &[u8]) -> Result<Fetched, FetchError> {
        Ok(Fetched {
            completed: true,
            payload: payload.to_vec(),
            bytes: 10,
        })
    }

    #[test]
    fn every_failure_kind_counts_as_an_error() {
        let mut t = Tally::default();
        t.book(done(b"abc"), |p| p == b"abc");
        t.book(done(b"abd"), |p| p == b"abc");
        t.book(
            Err(FetchError::Rejected {
                code: mrtweb_proxy::wire::ErrorCode::Busy,
                detail: String::new(),
            }),
            |_| true,
        );
        t.book(Err(FetchError::Unexpected("x")), |_| true);
        assert_eq!((t.attempted, t.completed, t.errors()), (4, 1, 3));
        assert_eq!(t.error_pct(), 75.0);
        assert_eq!(t.bytes, 10);
    }

    #[test]
    fn a_session_refused_by_admission_counts_as_an_error() {
        use crate::cell::{fetch_options, server_config, Checker};
        use crate::workload::{self, Workload};
        use mrtweb_proxy::server::{bind_engine, Engine, ServerConfig};
        use mrtweb_store::gateway::Gateway;
        use std::sync::Arc;

        let w = Workload::by_name("hot-clean").unwrap();
        let store = Arc::new(DocumentStore::new(8));
        store.put(workload::url(0), workload::document(1, 0, 0));
        let checker = Checker::new(w, 1);
        checker.rebase(&store);
        let config = ServerConfig {
            max_sessions: 1,
            ..server_config(w, 1)
        };
        let server = bind_engine(
            "127.0.0.1:0",
            Gateway::new(Arc::clone(&store)),
            config,
            Engine::Auto,
        )
        .unwrap();
        // An idle session holds the only slot; the fetch behind it is
        // refused.
        let idle = std::net::TcpStream::connect(server.local_addr()).unwrap();
        let mut t = Tally::default();
        let opts = fetch_options(w, 1, 0, 0);
        let g = store.generation(&opts.url);
        let result = plain_fetch(&mut (), server.local_addr(), &opts);
        assert!(
            matches!(result, Err(FetchError::Rejected { .. })),
            "{result:?}"
        );
        t.book(result, |p| checker.matches(0, 0, g, g, p));
        drop(idle);
        let _ = server.shutdown();
        assert_eq!((t.attempted, t.rejected, t.error_pct()), (1, 1, 100.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&[], 0.9), 0.0);
    }
}
