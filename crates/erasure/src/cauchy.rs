//! Cauchy-matrix codec construction: O(M·N) generator setup and
//! closed-form O(r·M) recovery rows for the `r` lost clear packets.
//!
//! The seed codec built its systematic generator by inverting the top
//! `M × M` block of a Vandermonde matrix (Gauss–Jordan, `O(M³)`) and
//! multiplying it back through all `N` rows (`O(N·M²)`); every cold
//! decode then paid another `O(M³)` Gauss–Jordan to invert the survivor
//! submatrix. Both costs vanish with a *Cauchy layout*: the parity block
//! is written down directly as
//!
//! ```text
//! G = [ I_M ]          C[i][j] = 1 / (xᵢ + yⱼ)
//!     [  C  ]          xᵢ = i (cooked parity index, M ≤ i < N)
//!                      yⱼ = j (raw index, j < M)
//! ```
//!
//! with `x` and `y` drawn from disjoint subsets of GF(2⁸) — so every
//! denominator is nonzero and each entry is a single table-driven field
//! inversion. No elimination, no matmul: the generator is `O(M·N)`
//! lookups total.
//!
//! The payoff at decode time is the classical closed form for the
//! inverse of a Cauchy matrix `A[a][b] = 1/(u_a + v_b)`:
//!
//! ```text
//! A⁻¹[b][a] = ( Π_k (u_a + v_k) · Π_k (u_k + v_b) )
//!             / ( (u_a + v_b) · Π_{k≠a} (u_a + u_k) · Π_{k≠b} (v_b + v_k) )
//! ```
//!
//! (the usual (−1)^{a+b} signs vanish in characteristic 2). With the
//! four product families precomputed in `O(r²)`, every entry is three
//! multiplies and one division — `O(r²)` for the whole inverse, where
//! `r` is the number of *parity* survivors, not `M`.
//!
//! A real survivor set mixes clear-text rows (identity rows of `G`) with
//! parity rows. A clear survivor *is* its raw packet, so its row of the
//! survivor inverse is a unit vector and decoding it is a copy. Only the
//! `r` raw packets no clear survivor carries need arithmetic, and
//! [`recovery_rows`] returns exactly those `r` rows of the inverse
//! (`r × M` coefficients), solved through the `r × r` sub-Cauchy system.
//! The back-substitution of the clear columns — naïvely an `O(r²·k)`
//! matrix product — also collapses, because the Cauchy inverse is
//! *separable*: a partial-fraction identity reduces each clear-column
//! coefficient to closed form too (see the comments in the function
//! body), leaving the whole table at `O(r·(r + k)) = O(r·M)` where the
//! seed paid `O(M³)` per cold survivor set.
//!
//! Why any `M` rows of `G` stay invertible (the IDA contract): choose
//! `k` clear rows `P` and `r = M − k` parity rows `R`. Permute columns
//! so `P` comes first; the submatrix is block-triangular with an
//! identity block over `P` and the `r × r` block `C[R][Q]` over the
//! missing columns `Q` — itself a Cauchy matrix on distinct points, so
//! its determinant `Π(cross sums)/Π(pair sums)` is nonzero.
//!
//! [`matrix`](crate::matrix) keeps the dense Gauss–Jordan path intact:
//! it is the oracle the `prop_cauchy` property suite checks every one of
//! these shortcuts against.

use crate::gf256::{Gf256, EXP, LOG};
use crate::matrix::Matrix;
use crate::Error;

/// Builds the systematic Cauchy generator for `raw` (`M`) input packets
/// and `cooked` (`N`) output packets in `O(M·N)` field operations.
///
/// Row `i < raw` is the `i`-th identity row; row `i ≥ raw` is the Cauchy
/// row `1/(i + j)` over GF(2⁸). Any `raw` rows form an invertible
/// matrix (see the module docs), which is the property
/// [`Codec::decode`](crate::ida::Codec::decode) relies on.
///
/// # Errors
///
/// Returns [`Error::InvalidParameters`] unless `1 ≤ raw ≤ cooked ≤ 256`.
pub fn systematic_generator(raw: usize, cooked: usize) -> Result<Matrix, Error> {
    if raw == 0 || cooked < raw || cooked > 256 {
        return Err(Error::InvalidParameters { raw, cooked });
    }
    Ok(Matrix::from_fn(cooked, raw, |i, j| {
        if i < raw {
            if i == j {
                Gf256::ONE
            } else {
                Gf256::ZERO
            }
        } else {
            // i ∈ [raw, cooked) and j ∈ [0, raw) are disjoint byte
            // ranges, so i + j ≠ 0 and the inversion cannot hit zero.
            (Gf256::new(i as u8) + Gf256::new(j as u8)).inverse()
        }
    }))
}

/// The rows of a survivor set's decode inverse that need arithmetic:
/// one per raw packet no clear survivor carries.
///
/// Each row rebuilds one missing raw packet as `Σ_k c_k · survivor_k`
/// over the survivors in the order [`recovery_rows`] was given them.
/// Every other raw packet is a clear survivor, copied as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Survivor count `M`: the length of every coefficient row.
    raw: usize,
    /// Raw indices absent from the survivor set, ascending.
    missing: Vec<usize>,
    /// Row-major `r × M` coefficient table, `r = missing.len()`.
    coeffs: Vec<Gf256>,
}

impl Recovery {
    /// `(raw index, coefficient row)` for each missing raw packet, in
    /// ascending raw-index order.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &[Gf256])> {
        self.missing
            .iter()
            .copied()
            .zip(self.coeffs.chunks_exact(self.raw))
    }
}

/// Discrete log of a nonzero element: `x = g^log(x)`, `0 ≤ log(x) < 255`.
fn log(x: Gf256) -> usize {
    debug_assert!(!x.is_zero());
    usize::from(LOG[usize::from(x.value())])
}

/// `g^e` for `e < 510` (the exponent table repeats its cycle once).
fn exp(e: usize) -> Gf256 {
    Gf256::new(EXP[e])
}

/// `e mod 255` for `e < 510`.
fn mod255(e: usize) -> usize {
    if e >= 255 {
        e - 255
    } else {
        e
    }
}

/// Computes the recovery rows for a survivor set: the rows of `B`, where
/// `B · G[indices] = I`, for the raw packets no clear survivor carries.
///
/// `indices` are the cooked indices of the `raw` chosen survivors, in
/// the order their payloads will be supplied. The cost is
/// `O(M + r·(r + k)) = O(r·M)` where `r` counts parity survivors and `k`
/// clear survivors — linear in `M` for the few-loss patterns real
/// sessions see, which is what makes cache-cold decodes affordable.
///
/// # Errors
///
/// * [`Error::BadPacketIndex`] for an index `≥ cooked`.
/// * [`Error::InvalidParameters`] if the survivor count is not exactly
///   `raw` or an index repeats (a duplicated survivor makes the
///   submatrix singular, exactly as the Gauss–Jordan oracle reports).
// The single-letter names mirror the u/v/f/g/S notation in the math
// comments above each block; longer names would decouple code from proof.
#[allow(clippy::many_single_char_names)]
pub fn recovery_rows(raw: usize, cooked: usize, indices: &[usize]) -> Result<Recovery, Error> {
    if raw == 0 || cooked < raw || cooked > 256 {
        return Err(Error::InvalidParameters { raw, cooked });
    }
    if indices.len() != raw {
        return Err(Error::InvalidParameters { raw, cooked });
    }
    let mut seen = vec![false; cooked];
    for &idx in indices {
        if idx >= cooked {
            return Err(Error::BadPacketIndex(idx));
        }
        if seen[idx] {
            return Err(Error::InvalidParameters { raw, cooked });
        }
        seen[idx] = true;
    }

    // Partition the survivors into (point, survivor-vector position)
    // pairs: clear rows pin their raw packet directly; parity rows
    // jointly determine the missing ones.
    let mut clear: Vec<(Gf256, usize)> = Vec::with_capacity(raw);
    let mut parity: Vec<(Gf256, usize)> = Vec::new();
    for (pos, &idx) in indices.iter().enumerate() {
        let point = Gf256::new(idx as u8);
        if idx < raw {
            clear.push((point, pos));
        } else {
            parity.push((point, pos));
        }
    }
    let missing: Vec<usize> = (0..raw).filter(|&j| !seen[j]).collect();
    // |missing| = raw − #clear = #parity because indices are distinct.
    let r = missing.len();
    debug_assert_eq!(r, parity.len());
    let mut coeffs = vec![Gf256::ZERO; r * raw];

    // The r × r sub-Cauchy system: u_a = parity cooked index, v_b =
    // missing raw index, A[a][b] = 1/(u_a + v_b). Its closed-form
    // inverse is *separable* around the cross term,
    //
    //   D[b][a] = f(a) · g(b) / (u_a + v_b)
    //   f(a) = Π_k (u_a + v_k) / Π_{k≠a} (u_a + u_k)
    //   g(b) = Π_k (u_k + v_b) / Π_{k≠b} (v_b + v_k)
    //
    // with the (−1)^{a+b} signs gone in characteristic 2. The product
    // families cost O(r²); every entry after that is O(1).
    //
    // Every factor and divisor below is a sum of two distinct points, so
    // never zero, and the work runs in the log domain: products and
    // quotients are sums and differences of discrete logs mod 255, with
    // no zero checks and no multiply on any dependency chain.
    let u: Vec<Gf256> = parity.iter().map(|&(point, _)| point).collect();
    let v: Vec<Gf256> = missing.iter().map(|&j| Gf256::new(j as u8)).collect();
    // log f(a) and log g(b), reduced mod 255.
    let mut lf = vec![0usize; r];
    let mut lg = vec![0usize; r];
    for a in 0..r {
        let mut num_u = 0; // log Π_k (u_a + v_k)
        let mut den_u = 0; // log Π_{k≠a} (u_a + u_k)
        let mut num_v = 0; // log Π_k (u_k + v_a)
        let mut den_v = 0; // log Π_{k≠a} (v_a + v_k)
        for k in 0..r {
            num_u += log(u[a] + v[k]);
            num_v += log(u[k] + v[a]);
            if k != a {
                // u (parity cooked indices) and v (raw indices) are each
                // internally distinct, so neither factor is zero.
                den_u += log(u[a] + u[k]);
                den_v += log(v[a] + v[k]);
            }
        }
        // Each sum is below 255·r, so the difference stays non-negative.
        lf[a] = (num_u + 255 * r - den_u) % 255;
        lg[a] = (num_v + 255 * r - den_v) % 255;
    }

    // Parity survivor a satisfies
    //   survivor_a = Σ_{p clear} (1/(u_a + p)) · raw_p + Σ_b A[a][b] · raw_{missing_b},
    // so with D = A⁻¹,
    //   raw_{missing_b} = Σ_a D[b][a]·survivor_a
    //                   + Σ_p ( Σ_a D[b][a]/(u_a + p) ) · survivor_{t(p)}.
    // The clear-column coefficient is a Cauchy inverse multiplied by
    // another Cauchy column — and separability turns that back into
    // closed form. With S(w) = Σ_a f(a)/(u_a + w), partial fractions
    // over characteristic 2 give
    //   1/((u_a + v_b)(u_a + p)) = (1/(v_b + p))·(1/(u_a + v_b) + 1/(u_a + p))
    //   Σ_a D[b][a]/(u_a + p)    = g(b)·(S(v_b) + S(p)) / (v_b + p)
    // (v_b ≠ p: one raw index is missing, the other present), so the
    // clear block costs O(r·k) instead of the O(r²·k) matrix product —
    // the whole table is O(r·(r + k)) = O(r·M).
    let s = |w: Gf256| -> Gf256 {
        u.iter().zip(&lf).fold(Gf256::ZERO, |acc, (&u_a, &lf_a)| {
            acc + exp(lf_a + 255 - log(u_a + w))
        })
    };
    let s_v: Vec<Gf256> = v.iter().map(|&v_b| s(v_b)).collect();
    // S(point) per clear survivor, aligned with `clear`.
    let s_clear: Vec<Gf256> = clear.iter().map(|&(y, _)| s(y)).collect();
    for (b_i, row) in coeffs.chunks_exact_mut(raw).enumerate() {
        for (a, &(_, pos)) in parity.iter().enumerate() {
            // D[b][a] = f(a)·g(b)/(u_a + v_b)
            row[pos] = exp(mod255(lf[a] + lg[b_i]) + 255 - log(u[a] + v[b_i]));
        }
        for (&(y, pos), &s_y) in clear.iter().zip(&s_clear) {
            // g(b)·(S(v_b) + S(p))/(v_b + p); S(v_b) + S(p) may be zero.
            let sum = s_v[b_i] + s_y;
            if !sum.is_zero() {
                row[pos] = exp(mod255(lg[b_i] + log(sum)) + 255 - log(v[b_i] + y));
            }
        }
    }
    Ok(Recovery {
        raw,
        missing,
        coeffs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_systematic_and_matches_oracle_inverse() {
        for (m, n) in [(1usize, 1usize), (1, 4), (3, 5), (5, 9), (40, 60)] {
            let g = systematic_generator(m, n).unwrap();
            assert!(g.is_systematic(), "({m},{n}) not systematic");
            assert_eq!(g.rows(), n);
            assert_eq!(g.cols(), m);
        }
    }

    #[test]
    fn generator_rejects_bad_shapes() {
        assert!(systematic_generator(0, 1).is_err());
        assert!(systematic_generator(4, 3).is_err());
        assert!(systematic_generator(4, 257).is_err());
        assert!(systematic_generator(256, 256).is_ok());
    }

    /// Asserts that `recovery_rows` names exactly the raw indices absent
    /// from `indices` and that each of its rows equals the matching row
    /// of the Gauss–Jordan inverse of the selected generator rows.
    fn assert_matches_oracle(m: usize, n: usize, indices: &[usize]) {
        let g = systematic_generator(m, n).unwrap();
        let oracle = g.select_rows(indices).inverse().unwrap();
        let rec = recovery_rows(m, n, indices).unwrap();
        let absent: Vec<usize> = (0..m).filter(|j| !indices.contains(j)).collect();
        let recovered: Vec<usize> = rec.rows().map(|(j, _)| j).collect();
        assert_eq!(recovered, absent, "survivors {indices:?}");
        for (j, row) in rec.rows() {
            assert_eq!(row, oracle.row(j), "raw {j}, survivors {indices:?}");
        }
    }

    #[test]
    fn recovery_rows_match_gauss_jordan_oracle() {
        for indices in [
            [0usize, 1, 2, 3, 4], // all clear
            [4, 5, 6, 7, 8],      // mixed
            [8, 7, 6, 5, 0],      // out of order
            [5, 6, 7, 8, 4],      // single clear survivor
            [6, 8, 5, 7, 4],      // shuffled
        ] {
            assert_matches_oracle(5, 9, &indices);
        }
    }

    #[test]
    fn recovery_rows_all_parity_survivors() {
        // r = M: the pure closed-form Cauchy path with no substitution.
        assert_matches_oracle(4, 9, &[5, 8, 6, 7]);
    }

    #[test]
    fn recovery_rows_validate_input() {
        assert_eq!(
            recovery_rows(3, 5, &[0, 1, 9]),
            Err(Error::BadPacketIndex(9))
        );
        assert!(recovery_rows(3, 5, &[0, 1]).is_err()); // too few
        assert!(recovery_rows(3, 5, &[0, 1, 1]).is_err()); // duplicate
        assert!(recovery_rows(0, 5, &[]).is_err());
    }

    #[test]
    fn full_shape_sweep_against_oracle() {
        // Every (M, N) up to 8 with a deterministic survivor choice.
        for n in 1usize..=8 {
            for m in 1..=n {
                // Take the *last* M cooked indices: maximizes parity rows.
                let indices: Vec<usize> = (n - m..n).collect();
                assert_matches_oracle(m, n, &indices);
            }
        }
    }
}
