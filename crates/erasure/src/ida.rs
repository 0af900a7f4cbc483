//! Systematic information dispersal (Rabin IDA on a Cauchy layout).
//!
//! Rabin's Information Dispersal Algorithm splits a file into `M` *raw*
//! packets and disperses them into `N ≥ M` *cooked* packets such that any
//! `M` cooked packets reconstruct the file. The paper uses a systematic
//! dispersal matrix so that the first `M` cooked packets are the raw
//! packets verbatim ("clear text"): a mobile client can render the
//! leading portion of a document the moment those packets arrive,
//! without waiting for `M` packets to invert a matrix.
//!
//! The generator is built by the [`cauchy`](crate::cauchy) module:
//! identity rows over a Cauchy parity block, written down directly in
//! `O(M·N)` (no Gauss–Jordan elimination). Decoding copies the clear
//! survivors into place and rebuilds only the `r` lost clear packets,
//! from closed-form recovery rows in `O(r·M)`. [`Codec`] is configured
//! once per `(M, N, packet size)` triple and reused across documents.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mrtweb_obs::{emit, EventKind, Span};

use crate::cauchy::{self, Recovery};
use crate::gf256::{mul_acc, mul_row, Gf256};
use crate::matrix::Matrix;
use crate::Error;

/// Recovery tables retained per codec before the cache is reset.
///
/// A survivor set keys one entry; real sessions see few distinct loss
/// patterns per document, so a few hundred entries make the cache
/// effectively unbounded in practice while capping worst-case memory at
/// `512 · r · M` bytes, `r ≤ min(M, N − M)` the lost clear packets of a
/// pattern.
const INVERSE_CACHE_CAP: usize = 512;

/// Distinct `(M, N)` shapes retained in the process-wide substrate
/// registry before it is reset. A gateway serves a handful of shapes
/// (one per document-size class), so this is effectively unbounded;
/// the cap only defends against a peer cycling packet sizes to pin
/// `O(cap · N·M)` matrix memory.
const SHARED_SUBSTRATE_CAP: usize = 64;

/// The expensive, parameter-determined part of a codec: the systematic
/// generator and the survivor-keyed recovery-table cache. Everything in
/// here depends only on `(M, N)`, so every session with the same shape
/// can share one copy.
#[derive(Debug, Clone)]
struct Substrate {
    generator: Arc<Matrix>,
    inverse_cache: Arc<Mutex<RecoveryCache>>,
}

/// Recovery tables keyed by the survivor set's cooked indices.
type RecoveryCache = HashMap<Vec<u8>, Arc<Recovery>>;

fn substrate_registry() -> &'static Mutex<HashMap<(usize, usize), Substrate>> {
    static REGISTRY: OnceLock<Mutex<HashMap<(usize, usize), Substrate>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Recovery-table cache hits across every codec in the process.
static INVERSE_HITS: AtomicU64 = AtomicU64::new(0);
/// Recovery-table cache misses across every codec in the process.
static INVERSE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide recovery-table cache traffic as `(hits, misses)`.
///
/// Counts every [`Codec`] in the process, shared or private. A hit
/// recorded by one session against a table another session paid for
/// is exactly the cross-session reuse the shared substrate exists to
/// provide; the proxy mirrors these into its stats snapshot.
pub fn inverse_cache_counters() -> (u64, u64) {
    (
        // ORDERING: monitoring counters — each is independently coherent
        // and a torn (hits, misses) pair only skews one stats snapshot.
        INVERSE_HITS.load(Ordering::Relaxed),
        INVERSE_MISSES.load(Ordering::Relaxed),
    )
}

/// A configured `(M, N)` information-dispersal codec.
///
/// # Example
///
/// ```
/// use mrtweb_erasure::ida::Codec;
///
/// # fn main() -> Result<(), mrtweb_erasure::Error> {
/// let codec = Codec::new(3, 5, 8)?;
/// let data = b"hello weak connection!".to_vec();
/// let cooked = codec.encode(&data);
/// assert_eq!(cooked.len(), 5);
/// // First M cooked packets are the raw data in clear text:
/// assert_eq!(&cooked[0][..8], &data[..8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Codec {
    raw: usize,
    cooked: usize,
    packet_size: usize,
    generator: Arc<Matrix>,
    /// Recovery tables keyed by the surviving cooked-index set. Shared
    /// across clones (and therefore across worker threads in the `par`
    /// layer) so every thread benefits from every table built. Codecs
    /// built by [`Codec::shared`] additionally share this cache with
    /// every other shared codec of the same `(M, N)` shape.
    inverse_cache: Arc<Mutex<RecoveryCache>>,
}

impl Codec {
    /// Creates a codec for `raw` (`M`) input packets, `cooked` (`N`)
    /// output packets of `packet_size` bytes each.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidParameters`] unless `1 ≤ raw ≤ cooked ≤ 256`.
    /// * [`Error::ZeroPacketSize`] if `packet_size` is zero.
    pub fn new(raw: usize, cooked: usize, packet_size: usize) -> Result<Self, Error> {
        if raw == 0 || cooked < raw || cooked > 256 {
            return Err(Error::InvalidParameters { raw, cooked });
        }
        if packet_size == 0 {
            return Err(Error::ZeroPacketSize);
        }
        let generator = Arc::new(cauchy::systematic_generator(raw, cooked)?);
        debug_assert!(generator.is_systematic());
        Ok(Codec {
            raw,
            cooked,
            packet_size,
            generator,
            inverse_cache: Arc::new(Mutex::new(HashMap::new())),
        })
    }

    /// Like [`Codec::new`], but backed by the process-wide substrate
    /// registry: the systematic generator is computed once per `(M, N)`
    /// shape, and the recovery-table cache is one shared, bounded map
    /// across every session using that shape.
    ///
    /// This is the constructor for concurrent servers and clients — the
    /// `O(N·M)` generator construction and each `O(r·M)` closed-form
    /// recovery table are paid once per process instead of once per
    /// session. [`Codec::new`] remains fully private and uncached so
    /// benchmarks measuring setup cost stay honest.
    ///
    /// # Errors
    ///
    /// Same as [`Codec::new`].
    pub fn shared(raw: usize, cooked: usize, packet_size: usize) -> Result<Self, Error> {
        if raw == 0 || cooked < raw || cooked > 256 {
            return Err(Error::InvalidParameters { raw, cooked });
        }
        if packet_size == 0 {
            return Err(Error::ZeroPacketSize);
        }
        let mut registry = substrate_registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(sub) = registry.get(&(raw, cooked)) {
            let sub = sub.clone();
            drop(registry);
            return Ok(Codec {
                raw,
                cooked,
                packet_size,
                generator: sub.generator,
                inverse_cache: sub.inverse_cache,
            });
        }
        // First session with this shape pays for the construction — now
        // O(N·M) table lookups, so holding the lock across it is cheap;
        // it still prevents concurrent first-comers duplicating the work.
        let generator = Arc::new(cauchy::systematic_generator(raw, cooked)?);
        debug_assert!(generator.is_systematic());
        let sub = Substrate {
            generator: Arc::clone(&generator),
            inverse_cache: Arc::new(Mutex::new(HashMap::new())),
        };
        // A reset frees every shape's generator and cache: move the map
        // out and drop it after unlocking, not under the lock.
        let evicted = if registry.len() >= SHARED_SUBSTRATE_CAP {
            std::mem::take(&mut *registry)
        } else {
            HashMap::new()
        };
        registry.insert((raw, cooked), sub.clone());
        drop(registry);
        drop(evicted);
        Ok(Codec {
            raw,
            cooked,
            packet_size,
            generator: sub.generator,
            inverse_cache: sub.inverse_cache,
        })
    }

    /// Number of raw packets `M`.
    pub fn raw_packets(&self) -> usize {
        self.raw
    }

    /// Number of cooked packets `N`.
    pub fn cooked_packets(&self) -> usize {
        self.cooked
    }

    /// Payload size of each packet in bytes.
    pub fn packet_size(&self) -> usize {
        self.packet_size
    }

    /// Redundancy ratio `γ = N / M`.
    pub fn redundancy_ratio(&self) -> f64 {
        self.cooked as f64 / self.raw as f64
    }

    /// Maximum number of data bytes one encode call can carry.
    pub fn capacity(&self) -> usize {
        self.raw * self.packet_size
    }

    /// Splits `data` into `M` zero-padded raw packets.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > self.capacity()`; use [`Codec::capacity`]
    /// (or a chunking layer) to size inputs.
    pub fn split(&self, data: &[u8]) -> Vec<Vec<u8>> {
        assert!(
            data.len() <= self.capacity(),
            "data ({} bytes) exceeds codec capacity ({} bytes)",
            data.len(),
            self.capacity()
        );
        (0..self.raw)
            .map(|i| {
                let start = (i * self.packet_size).min(data.len());
                let end = ((i + 1) * self.packet_size).min(data.len());
                let mut p = data[start..end].to_vec();
                p.resize(self.packet_size, 0);
                p
            })
            .collect()
    }

    /// Encodes `data` into `N` cooked packets.
    ///
    /// The first `M` packets equal the (padded) raw packets; the trailing
    /// `N − M` packets carry redundancy. Cooked packet `i` is
    /// `Σ_j G[i][j] · raw_j` over GF(2⁸).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > self.capacity()`.
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        self.encode_packets(self.split(data))
    }

    /// Encodes pre-split raw packets (each exactly `packet_size` bytes).
    ///
    /// Takes the raw packets by value: the clear-text prefix of the
    /// output *is* the input, moved rather than copied, so encoding
    /// touches only the `N − M` redundancy packets.
    ///
    /// # Panics
    ///
    /// Panics if the number or size of raw packets does not match the
    /// codec configuration.
    pub fn encode_packets(&self, raws: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(raws.len(), self.raw, "expected {} raw packets", self.raw);
        for (i, r) in raws.iter().enumerate() {
            assert_eq!(r.len(), self.packet_size, "raw packet {i} has wrong size");
        }
        let span = Span::start(EventKind::EncodeSpan);
        let mut out = raws;
        out.reserve_exact(self.cooked - self.raw);
        for i in self.raw..self.cooked {
            let mut p = vec![0u8; self.packet_size];
            self.fill_redundancy_row(&out[..self.raw], i, &mut p);
            out.push(p);
        }
        span.end(self.cooked as u64);
        out
    }

    /// Encodes `data` into a caller-owned flat buffer of `N` consecutive
    /// `packet_size`-byte rows (cooked packet `i` at `i · packet_size`).
    ///
    /// This is the zero-allocation encode path: `out` is resized once on
    /// first use and reused verbatim on subsequent calls, so a server
    /// encoding a stream of documents performs no allocation at all
    /// after warm-up. The clear-text prefix is written directly from
    /// `data` (no intermediate split), and redundancy rows are built
    /// with overwriting [`mul_row`] first terms — no zero-fill pass.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > self.capacity()`.
    pub fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        assert!(
            data.len() <= self.capacity(),
            "data ({} bytes) exceeds codec capacity ({} bytes)",
            data.len(),
            self.capacity()
        );
        let span = Span::start(EventKind::EncodeSpan);
        let ps = self.packet_size;
        out.resize(self.cooked * ps, 0);
        let (clear, redundancy) = out.split_at_mut(self.raw * ps);
        clear[..data.len()].copy_from_slice(data);
        clear[data.len()..].fill(0);
        for (ri, row) in redundancy.chunks_exact_mut(ps).enumerate() {
            let i = self.raw + ri;
            mul_row(row, &clear[..ps], self.generator.get(i, 0));
            for j in 1..self.raw {
                mul_acc(row, &clear[j * ps..(j + 1) * ps], self.generator.get(i, j));
            }
        }
        span.end(self.cooked as u64);
    }

    /// Computes redundancy row `index` (`M ≤ index < N`) from the raw
    /// packets into `row`, overwriting it.
    ///
    /// Exposed to the [`par`](crate::par) layer, which fans disjoint
    /// redundancy rows out across threads.
    ///
    /// # Panics
    ///
    /// Panics if `index` is a clear-text row, the raw packet count is
    /// wrong, or `row` is not `packet_size` bytes.
    pub(crate) fn fill_redundancy_row<S: AsRef<[u8]>>(
        &self,
        raws: &[S],
        index: usize,
        row: &mut [u8],
    ) {
        debug_assert!(index >= self.raw && index < self.cooked);
        mul_row(row, raws[0].as_ref(), self.generator.get(index, 0));
        for (j, r) in raws.iter().enumerate().skip(1) {
            mul_acc(row, r.as_ref(), self.generator.get(index, j));
        }
    }

    /// Encodes only the single cooked packet with index `index`.
    ///
    /// Useful for selective retransmission, where the server regenerates
    /// exactly the packets a client is missing.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ N` or the raw packets do not match the
    /// configuration.
    pub fn encode_one(&self, raws: &[Vec<u8>], index: usize) -> Vec<u8> {
        let mut p = vec![0u8; self.packet_size];
        self.encode_one_into(raws, index, &mut p);
        p
    }

    /// Like [`Codec::encode_one`], writing into a caller-owned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ N`, the raw packets do not match the
    /// configuration, or `out` is not `packet_size` bytes.
    pub fn encode_one_into(&self, raws: &[Vec<u8>], index: usize, out: &mut [u8]) {
        assert!(index < self.cooked, "cooked index {index} out of range");
        assert_eq!(raws.len(), self.raw, "expected {} raw packets", self.raw);
        if index < self.raw {
            out.copy_from_slice(&raws[index]);
            return;
        }
        self.fill_redundancy_row(raws, index, out);
    }

    /// Reconstructs the original `len` bytes from any `M` intact cooked
    /// packets, supplied as `(cooked index, payload)` pairs.
    ///
    /// Duplicate indices are ignored. When more than `M` distinct
    /// indices are supplied, clear-text packets are chosen before any
    /// parity (lowest indices first), since each is a plain copy. The
    /// clear survivors are copied into place and only the `r` raw
    /// packets they lack are computed, `O(r·M)` multiply-accumulates;
    /// an all-clear survivor set needs no arithmetic at all.
    ///
    /// # Errors
    ///
    /// * [`Error::NotEnoughPackets`] if fewer than `M` distinct indices
    ///   are supplied.
    /// * [`Error::BadPacketIndex`] for an index `≥ N`.
    /// * [`Error::BadPacketLength`] if a payload is not `packet_size`
    ///   bytes.
    /// * [`Error::LengthOverflow`] if `len > capacity()`.
    pub fn decode(&self, packets: &[(usize, Vec<u8>)], len: usize) -> Result<Vec<u8>, Error> {
        self.decode_impl(packets, len, true)
    }

    /// [`Codec::decode`] with the recovery cache bypassed: the recovery
    /// table is computed fresh on every call.
    ///
    /// Exists so tests can prove cached and fresh decodes agree; it is
    /// never faster than [`Codec::decode`].
    ///
    /// # Errors
    ///
    /// Same as [`Codec::decode`].
    pub fn decode_uncached(
        &self,
        packets: &[(usize, Vec<u8>)],
        len: usize,
    ) -> Result<Vec<u8>, Error> {
        self.decode_impl(packets, len, false)
    }

    fn decode_impl(
        &self,
        packets: &[(usize, Vec<u8>)],
        len: usize,
        use_cache: bool,
    ) -> Result<Vec<u8>, Error> {
        let span = Span::start(EventKind::DecodeSpan);
        let out = self.decode_inner(packets, len, use_cache);
        span.end(self.raw as u64);
        out
    }

    fn decode_inner(
        &self,
        packets: &[(usize, Vec<u8>)],
        len: usize,
        use_cache: bool,
    ) -> Result<Vec<u8>, Error> {
        if len > self.capacity() {
            return Err(Error::LengthOverflow {
                requested: len,
                capacity: self.capacity(),
            });
        }
        let ps = self.packet_size;
        let mut out = vec![0u8; self.capacity()];
        // Clear survivors go straight to their offsets; parity waits
        // until we know how many raw packets are missing.
        let mut seen = vec![false; self.cooked];
        let mut clear = 0;
        let mut parity: Vec<(usize, &[u8])> = Vec::new();
        for (idx, payload) in packets {
            let dup = seen.get_mut(*idx).ok_or(Error::BadPacketIndex(*idx))?;
            if payload.len() != ps {
                return Err(Error::BadPacketLength {
                    got: payload.len(),
                    want: ps,
                });
            }
            if std::mem::replace(dup, true) {
                continue;
            }
            if *idx < self.raw {
                out[idx * ps..(idx + 1) * ps].copy_from_slice(payload);
                clear += 1;
            } else {
                parity.push((*idx, payload.as_slice()));
            }
        }
        let lost = self.raw - clear;
        if parity.len() < lost {
            return Err(Error::NotEnoughPackets {
                have: clear + parity.len(),
                need: self.raw,
            });
        }
        if lost > 0 {
            // Lowest parity indices first: one canonical survivor list
            // (the cache key) per survivor set, whatever the supply order.
            parity.sort_unstable_by_key(|&(i, _)| i);
            parity.truncate(lost);
            let survivors: Vec<usize> = (0..self.raw)
                .filter(|&j| seen[j])
                .chain(parity.iter().map(|&(i, _)| i))
                .collect();
            let payloads: Vec<&[u8]> = parity.iter().map(|&(_, p)| p).collect();
            self.rebuild(&mut out, &survivors, &payloads, len, use_cache)?;
        }
        out.truncate(len);
        Ok(out)
    }

    /// Rebuilds, in place, the raw packets that no clear survivor
    /// carries: the receiving half of systematic decoding, for a client
    /// that paints each clear packet at its offset as it lands.
    ///
    /// `raw` is the flat `M · packet_size` raw buffer (raw packet `j` at
    /// `j · packet_size`) already holding every clear survivor's
    /// payload. `survivors` lists `M` distinct cooked indices, and
    /// `parity` the payloads of its parity members (index `≥ M`) in the
    /// order `survivors` lists them. Only the `r` lost rows are written,
    /// each a combination of the `M` survivors (`O(r·M)` work); lost
    /// rows starting at or past `len` are left as they are. The recovery
    /// table comes from the shared, survivor-keyed cache.
    ///
    /// # Errors
    ///
    /// * [`Error::LengthOverflow`] if `len > capacity()`.
    /// * [`Error::BadPacketLength`] if `raw` is not `capacity()` bytes
    ///   or a parity payload is not `packet_size` bytes.
    /// * [`Error::BadPacketIndex`] for a survivor index `≥ N`.
    /// * [`Error::InvalidParameters`] unless `survivors` holds exactly
    ///   `M` distinct indices, of which exactly `parity.len()` are
    ///   parity.
    pub fn recover_in_place(
        &self,
        raw: &mut [u8],
        survivors: &[usize],
        parity: &[&[u8]],
        len: usize,
    ) -> Result<(), Error> {
        let span = Span::start(EventKind::DecodeSpan);
        let out = self.rebuild(raw, survivors, parity, len, true);
        span.end(self.raw as u64);
        out
    }

    fn rebuild(
        &self,
        raw: &mut [u8],
        survivors: &[usize],
        parity: &[&[u8]],
        len: usize,
        use_cache: bool,
    ) -> Result<(), Error> {
        let ps = self.packet_size;
        if len > self.capacity() {
            return Err(Error::LengthOverflow {
                requested: len,
                capacity: self.capacity(),
            });
        }
        if raw.len() != self.capacity() {
            return Err(Error::BadPacketLength {
                got: raw.len(),
                want: self.capacity(),
            });
        }
        if let Some(bad) = parity.iter().find(|p| p.len() != ps) {
            return Err(Error::BadPacketLength {
                got: bad.len(),
                want: ps,
            });
        }
        let invalid = Error::InvalidParameters {
            raw: self.raw,
            cooked: self.cooked,
        };
        let mut seen = vec![false; self.cooked];
        for &i in survivors {
            let slot = seen.get_mut(i).ok_or(Error::BadPacketIndex(i))?;
            if std::mem::replace(slot, true) {
                return Err(invalid);
            }
        }
        if survivors.len() != self.raw
            || survivors.iter().filter(|&&i| i >= self.raw).count() != parity.len()
        {
            return Err(invalid);
        }
        if parity.is_empty() {
            return Ok(()); // every raw packet is a clear survivor
        }
        let rec = if use_cache {
            self.recovery_for(survivors)?
        } else {
            Arc::new(cauchy::recovery_rows(self.raw, self.cooked, survivors)?)
        };
        // Every survivor's payload, in survivor order: clear ones from
        // their rows of `raw`, parity ones as supplied.
        let mut supplied = parity.iter().copied();
        let sources: Vec<&[u8]> = survivors
            .iter()
            .filter_map(|&i| {
                if i < self.raw {
                    Some(&raw[i * ps..(i + 1) * ps])
                } else {
                    supplied.next()
                }
            })
            .collect();
        debug_assert_eq!(sources.len(), survivors.len());
        // Rows ascend, so the ones past `len` are a suffix.
        let lost: Vec<(usize, &[Gf256])> = rec.rows().take_while(|&(j, _)| j * ps < len).collect();
        let mut rebuilt = vec![0u8; lost.len() * ps];
        for ((_, coeffs), row) in lost.iter().zip(rebuilt.chunks_exact_mut(ps)) {
            for (src, &c) in sources.iter().zip(*coeffs) {
                mul_acc(row, src, c);
            }
        }
        for ((j, _), row) in lost.iter().zip(rebuilt.chunks_exact(ps)) {
            raw[j * ps..(j + 1) * ps].copy_from_slice(row);
        }
        Ok(())
    }

    /// Returns the recovery table for the given survivor set, from the
    /// cache when present.
    ///
    /// Weakly-connected sessions revisit the same few loss patterns
    /// (burst losses hit the same interleave positions), so even the
    /// closed-form `O(r·M)` table is paid once per pattern instead of
    /// once per document.
    fn recovery_for(&self, indices: &[usize]) -> Result<Arc<Recovery>, Error> {
        let key: Vec<u8> = indices.iter().map(|&i| i as u8).collect();
        let cache = self
            .inverse_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(rec) = cache.get(&key) {
            // ORDERING: pure tallies — nothing is published through
            // them; RMW atomicity alone keeps the totals exact.
            INVERSE_HITS.fetch_add(1, Ordering::Relaxed);
            emit(EventKind::CacheHit, self.raw as u64, cache.len() as u64);
            return Ok(Arc::clone(rec));
        }
        // ORDERING: same monitoring tally as the hit counter above.
        INVERSE_MISSES.fetch_add(1, Ordering::Relaxed);
        emit(EventKind::CacheMiss, self.raw as u64, cache.len() as u64);
        drop(cache); // do not hold the lock across the computation
        let rec = Arc::new(cauchy::recovery_rows(self.raw, self.cooked, indices)?);
        let mut cache = self
            .inverse_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // A reset frees up to `INVERSE_CACHE_CAP` tables: move the map
        // out and drop it after unlocking, off every other decoder's path.
        let evicted = if cache.len() >= INVERSE_CACHE_CAP {
            std::mem::take(&mut *cache)
        } else {
            HashMap::new()
        };
        cache.insert(key, Arc::clone(&rec));
        drop(cache);
        drop(evicted);
        Ok(rec)
    }

    /// Returns the generator row for cooked packet `index` — the GF(2⁸)
    /// coefficients combining the raw packets.
    ///
    /// # Panics
    ///
    /// Panics if `index ≥ N`.
    pub fn coefficients(&self, index: usize) -> &[Gf256] {
        self.generator.row(index)
    }
}

/// Encodes data of arbitrary length by chunking into consecutive
/// [`Codec`]-sized groups.
///
/// GF(2⁸) limits a single dispersal group to 256 cooked packets; real
/// documents larger than `M × packet_size` are simply encoded as a
/// sequence of groups, each independently recoverable. This mirrors how
/// the paper's transmitter would page a large document through the
/// dispersal stage.
#[derive(Debug, Clone)]
pub struct ChunkedCodec {
    codec: Codec,
}

/// Received packets of one group: `(group index, (cooked index, payload) pairs, group byte length)`.
pub type GroupPackets = (usize, Vec<(usize, Vec<u8>)>, usize);

/// One encoded group produced by [`ChunkedCodec::encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Index of this group within the document.
    pub index: usize,
    /// Number of document bytes carried by this group (≤ capacity).
    pub len: usize,
    /// The `N` cooked payloads.
    pub cooked: Vec<Vec<u8>>,
}

impl ChunkedCodec {
    /// Wraps a [`Codec`] for multi-group use.
    pub fn new(codec: Codec) -> Self {
        ChunkedCodec { codec }
    }

    /// Access to the underlying per-group codec.
    pub fn codec(&self) -> &Codec {
        &self.codec
    }

    /// Encodes `data` into consecutive groups.
    pub fn encode(&self, data: &[u8]) -> Vec<Group> {
        let cap = self.codec.capacity();
        if data.is_empty() {
            return vec![Group {
                index: 0,
                len: 0,
                cooked: self.codec.encode(&[]),
            }];
        }
        data.chunks(cap)
            .enumerate()
            .map(|(index, chunk)| Group {
                index,
                len: chunk.len(),
                cooked: self.codec.encode(chunk),
            })
            .collect()
    }

    /// Decodes groups back into the original byte stream.
    ///
    /// # Errors
    ///
    /// Propagates [`Codec::decode`] errors for the failing group.
    pub fn decode(&self, groups: &[GroupPackets]) -> Result<Vec<u8>, Error> {
        let mut sorted: Vec<_> = groups.iter().collect();
        sorted.sort_by_key(|(gi, _, _)| *gi);
        let mut out = Vec::new();
        for (_, packets, len) in sorted {
            out.extend(self.codec.decode(packets, *len)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn round_trip_all_clear() {
        let codec = Codec::new(4, 6, 16).unwrap();
        let data = sample(60);
        let cooked = codec.encode(&data);
        let packets: Vec<_> = cooked.iter().take(4).cloned().enumerate().collect();
        assert_eq!(codec.decode(&packets, 60).unwrap(), data);
    }

    #[test]
    fn round_trip_redundancy_only_survivors() {
        // Worst case: every clear-text packet lost, only redundancy and
        // exactly M survivors remain.
        let codec = Codec::new(3, 6, 8).unwrap();
        let data = sample(20);
        let cooked = codec.encode(&data);
        let packets: Vec<_> = cooked
            .iter()
            .enumerate()
            .skip(3)
            .map(|(i, p)| (i, p.clone()))
            .collect();
        assert_eq!(codec.decode(&packets, 20).unwrap(), data);
    }

    #[test]
    fn round_trip_mixed_survivors_out_of_order() {
        let codec = Codec::new(4, 8, 8).unwrap();
        let data = sample(30);
        let cooked = codec.encode(&data);
        let packets = vec![
            (7, cooked[7].clone()),
            (1, cooked[1].clone()),
            (5, cooked[5].clone()),
            (2, cooked[2].clone()),
        ];
        assert_eq!(codec.decode(&packets, 30).unwrap(), data);
    }

    #[test]
    fn clear_text_prefix_matches_raw() {
        let codec = Codec::new(5, 9, 10).unwrap();
        let data = sample(47);
        let cooked = codec.encode(&data);
        let raws = codec.split(&data);
        for i in 0..5 {
            assert_eq!(cooked[i], raws[i], "clear packet {i} differs from raw");
        }
    }

    #[test]
    fn duplicate_indices_are_ignored() {
        let codec = Codec::new(3, 5, 4).unwrap();
        let data = sample(12);
        let cooked = codec.encode(&data);
        let packets = vec![
            (0, cooked[0].clone()),
            (0, cooked[0].clone()),
            (1, cooked[1].clone()),
            (4, cooked[4].clone()),
        ];
        assert_eq!(codec.decode(&packets, 12).unwrap(), data);
    }

    #[test]
    fn recover_in_place_rebuilds_only_lost_rows() {
        let codec = Codec::new(4, 7, 8).unwrap();
        let data = sample(29);
        let cooked = codec.encode(&data);
        // Clear packets 1 and 3 lost; parity 6 and 4 stand in.
        let mut raw = vec![0xEEu8; codec.capacity()];
        for i in [0usize, 2] {
            raw[i * 8..(i + 1) * 8].copy_from_slice(&cooked[i]);
        }
        let survivors = [0usize, 2, 6, 4];
        let parity = [cooked[6].as_slice(), cooked[4].as_slice()];
        codec
            .recover_in_place(&mut raw, &survivors, &parity, data.len())
            .unwrap();
        assert_eq!(&raw[..data.len()], data.as_slice());
    }

    #[test]
    fn recover_in_place_validates_its_inputs() {
        let codec = Codec::new(3, 5, 4).unwrap();
        let p = [0u8; 4];
        let mut raw = vec![0u8; 12];
        let invalid = Err(Error::InvalidParameters { raw: 3, cooked: 5 });
        // Duplicate survivor, too few survivors, parity count mismatch.
        assert_eq!(
            codec.recover_in_place(&mut raw, &[0, 0, 3], &[&p], 12),
            invalid
        );
        assert_eq!(
            codec.recover_in_place(&mut raw, &[0, 3], &[&p], 12),
            invalid
        );
        assert_eq!(
            codec.recover_in_place(&mut raw, &[0, 1, 3], &[], 12),
            invalid
        );
        assert_eq!(
            codec.recover_in_place(&mut raw, &[0, 1, 9], &[&p], 12),
            Err(Error::BadPacketIndex(9))
        );
        assert_eq!(
            codec.recover_in_place(&mut raw, &[0, 1, 3], &[&p[..3]], 12),
            Err(Error::BadPacketLength { got: 3, want: 4 })
        );
        assert_eq!(
            codec.recover_in_place(&mut raw[..8], &[0, 1, 3], &[&p], 8),
            Err(Error::BadPacketLength { got: 8, want: 12 })
        );
        assert_eq!(
            codec.recover_in_place(&mut raw, &[0, 1, 3], &[&p], 13),
            Err(Error::LengthOverflow {
                requested: 13,
                capacity: 12
            })
        );
    }

    #[test]
    fn too_few_packets_errors() {
        let codec = Codec::new(3, 5, 4).unwrap();
        let data = sample(12);
        let cooked = codec.encode(&data);
        let packets = vec![(0, cooked[0].clone()), (1, cooked[1].clone())];
        assert_eq!(
            codec.decode(&packets, 12),
            Err(Error::NotEnoughPackets { have: 2, need: 3 })
        );
    }

    #[test]
    fn bad_index_errors() {
        let codec = Codec::new(2, 3, 4).unwrap();
        let packets = vec![(0, vec![0; 4]), (9, vec![0; 4])];
        assert_eq!(codec.decode(&packets, 4), Err(Error::BadPacketIndex(9)));
    }

    #[test]
    fn bad_length_errors() {
        let codec = Codec::new(2, 3, 4).unwrap();
        let packets = vec![(0, vec![0; 4]), (1, vec![0; 3])];
        assert_eq!(
            codec.decode(&packets, 4),
            Err(Error::BadPacketLength { got: 3, want: 4 })
        );
    }

    #[test]
    fn length_overflow_errors() {
        let codec = Codec::new(2, 3, 4).unwrap();
        let packets = vec![(0, vec![0; 4]), (1, vec![0; 4])];
        assert_eq!(
            codec.decode(&packets, 100),
            Err(Error::LengthOverflow {
                requested: 100,
                capacity: 8
            })
        );
    }

    #[test]
    fn parameter_validation() {
        assert!(Codec::new(0, 1, 4).is_err());
        assert!(Codec::new(4, 3, 4).is_err());
        assert!(Codec::new(4, 257, 4).is_err());
        assert!(Codec::new(4, 8, 0).is_err());
        assert!(Codec::new(1, 1, 1).is_ok());
        assert!(Codec::new(256, 256, 1).is_ok());
    }

    #[test]
    fn degenerate_single_packet_code() {
        let codec = Codec::new(1, 3, 8).unwrap();
        let data = sample(5);
        let cooked = codec.encode(&data);
        for (i, payload) in cooked.iter().enumerate() {
            let restored = codec.decode(&[(i, payload.clone())], 5).unwrap();
            assert_eq!(restored, data, "failed via cooked packet {i}");
        }
    }

    #[test]
    fn encode_one_matches_full_encode() {
        let codec = Codec::new(4, 9, 8).unwrap();
        let data = sample(32);
        let raws = codec.split(&data);
        let cooked = codec.encode(&data);
        for (i, expect) in cooked.iter().enumerate() {
            assert_eq!(&codec.encode_one(&raws, i), expect, "cooked {i} mismatch");
        }
    }

    #[test]
    fn empty_data_round_trips() {
        let codec = Codec::new(2, 4, 4).unwrap();
        let cooked = codec.encode(&[]);
        let packets = vec![(2, cooked[2].clone()), (3, cooked[3].clone())];
        assert_eq!(codec.decode(&packets, 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn paper_scale_parameters() {
        // Table 2: M = 40, N = 60, 256-byte packets, 10240-byte document.
        let codec = Codec::new(40, 60, 256).unwrap();
        assert_eq!(codec.capacity(), 10240);
        let data = sample(10240);
        let cooked = codec.encode(&data);
        assert_eq!(cooked.len(), 60);
        // Drop 20 arbitrary packets (indices ≡ 0 mod 3).
        let packets: Vec<_> = cooked
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .collect();
        assert!(packets.len() >= 40);
        assert_eq!(codec.decode(&packets, 10240).unwrap(), data);
    }

    #[test]
    fn chunked_round_trip() {
        let codec = Codec::new(4, 6, 8).unwrap();
        let chunked = ChunkedCodec::new(codec);
        let data = sample(100); // capacity 32 -> 4 groups (32+32+32+4)
        let groups = chunked.encode(&data);
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[3].len, 4);
        let recovered: Vec<_> = groups
            .iter()
            .map(|g| {
                // keep packets 1..5 of each group (drop 0 and 5)
                let pk: Vec<_> = g
                    .cooked
                    .iter()
                    .cloned()
                    .enumerate()
                    .skip(1)
                    .take(4)
                    .collect();
                (g.index, pk, g.len)
            })
            .collect();
        assert_eq!(chunked.decode(&recovered).unwrap(), data);
    }

    #[test]
    fn chunked_empty_input() {
        let chunked = ChunkedCodec::new(Codec::new(2, 3, 4).unwrap());
        let groups = chunked.encode(&[]);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len, 0);
    }

    #[test]
    fn shared_codecs_share_generator_and_inverse_cache() {
        // Shapes chosen to be unique to this test so parallel tests
        // cannot pre-warm them.
        let a = Codec::shared(7, 13, 16).unwrap();
        let b = Codec::shared(7, 13, 32).unwrap(); // packet size differs, shape matches
        assert!(Arc::ptr_eq(&a.generator, &b.generator));
        assert!(Arc::ptr_eq(&a.inverse_cache, &b.inverse_cache));

        // An inversion paid by `a` is a cache hit for `b` — this is the
        // cross-session reuse the proxy relies on.
        let data = sample(7 * 16);
        let cooked = a.encode(&data);
        let survivors: Vec<_> = cooked
            .iter()
            .enumerate()
            .skip(6)
            .map(|(i, p)| (i, p.clone()))
            .collect();
        let (_, miss0) = inverse_cache_counters();
        assert_eq!(a.decode(&survivors, data.len()).unwrap(), data);
        let (hit1, miss1) = inverse_cache_counters();
        // Counters are process-global, so other tests may also bump
        // them concurrently — assert monotonically.
        assert!(miss1 > miss0);
        assert_eq!(
            a.inverse_cache
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            1
        );
        // Same survivor pattern decoded through the *other* codec: the
        // inversion `a` paid for is a pure hit for `b`.
        let survivors32: Vec<_> = b
            .encode(&sample(7 * 32))
            .into_iter()
            .enumerate()
            .skip(6)
            .collect();
        assert!(b.decode(&survivors32, 7 * 32).is_ok());
        let (hit2, _) = inverse_cache_counters();
        assert!(hit2 > hit1);
    }

    #[test]
    fn shared_matches_private_codec_output() {
        let shared = Codec::shared(5, 9, 8).unwrap();
        let private = Codec::new(5, 9, 8).unwrap();
        let data = sample(37);
        assert_eq!(shared.encode(&data), private.encode(&data));
        let cooked = shared.encode(&data);
        let survivors: Vec<_> = cooked.into_iter().enumerate().skip(3).collect();
        assert_eq!(
            shared.decode(&survivors, 37).unwrap(),
            private.decode(&survivors, 37).unwrap()
        );
    }

    #[test]
    fn shared_validates_parameters() {
        assert!(Codec::shared(0, 1, 4).is_err());
        assert!(Codec::shared(4, 3, 4).is_err());
        assert!(Codec::shared(4, 257, 4).is_err());
        assert!(Codec::shared(4, 8, 0).is_err());
    }
}
