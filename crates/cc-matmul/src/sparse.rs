//! Sparse matrix multiplication on the congested clique (Le Gall tier).
//!
//! Le Gall (arXiv:1608.02674) shows that multiplying matrices with `m`
//! nonzeros needs only `O((m/n)^{2/3}/n^{1/3} + 1)` rounds — far below the
//! dense-3D `O(n^{1/3})` when `m ≪ n²`. This module lands the practically
//! dominant part of that result for the workspace's semirings:
//!
//! 1. **Nonzero-count agreement via gossip**: every node broadcasts its
//!    per-band nonzero counts for its rows of `A` and `B` (one
//!    [`cc_routing::all_to_all_sized`] collective). After the gossip every
//!    payload size below is *global knowledge*, which is exactly the
//!    legitimacy requirement of the header-free sized routing tier.
//! 2. **The 3D schedule of [`crate::distributed`] in its sparse format**:
//!    each row holder ships, per 3D block, only its nonzero `(column,
//!    value)` pairs — `⌈log₂ band⌉ + w` bits per triple instead of
//!    `band · w` bits per block row — over the balanced megastream
//!    ([`cc_routing::route_balanced_sized`]). Workers multiply their
//!    blocks locally, then ship dense partial rows (their sizes are
//!    functions of `n` alone, so no second gossip is needed) to the row
//!    owners, which sum. The worker plan, block products and partial-row
//!    return are shared with [`crate::mm_three_d`]; only the block-row
//!    format differs.
//!
//! Outputs are **bit-identical** to [`crate::mm_three_d`] and the serial
//! oracle: every workspace semiring has commutative, associative addition
//! with a true additive identity, so skipping zero terms cannot change any
//! output value (each output cell adds its remaining terms in the same
//! order as the dense format).
//!
//! [`mm_sparse_overhead`] is the exact analytic ledger — the full
//! [`RunStats`] of a sparse run computed from the inputs without
//! simulating, asserted field-for-field the way `dolev_strong_overhead`
//! is. [`MmStrategy`] is the density-aware selector mirroring the
//! `DeliveryMode` precedent, with the crossover pinned at
//! `max(nnz A, nnz B) ≤ n·⌊√n⌋` (the `m ≤ n^{3/2}` regime of the paper).

use cliquesim::{BitString, RunStats, Session};

use cc_routing::{all_to_all_sized, all_to_all_sized_cost, route_balanced_sized_cost, DemandSizes};

use crate::distributed::{
    check_shapes, mm_naive_broadcast, mm_three_d, three_d, Blocking, Chunks, MatmulError,
};
use crate::semiring::Semiring;

/// Which distributed multiplication path to run, mirroring the
/// `DeliveryMode::{Auto, Dense, Sparse}` precedent in `cliquesim`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MmStrategy {
    /// Decide by density: run the nonzero-count gossip (which the sparse
    /// path needs anyway), then pick [`MmStrategy::Sparse`] iff
    /// `max(nnz A, nnz B) ≤ n·⌊√n⌋`, else [`MmStrategy::Dense3D`].
    Auto,
    /// Always the dense 3D schedule ([`crate::mm_three_d`]).
    Dense3D,
    /// Always the sparse path ([`mm_sparse`]).
    Sparse,
    /// The folklore `O(n)`-round baseline ([`crate::mm_naive_broadcast`]).
    NaiveBroadcast,
}

impl MmStrategy {
    /// Short tag for repro labels (`mm[...]@sparse`).
    pub fn tag(&self) -> &'static str {
        match self {
            MmStrategy::Auto => "auto",
            MmStrategy::Dense3D => "dense3d",
            MmStrategy::Sparse => "sparse",
            MmStrategy::NaiveBroadcast => "naive",
        }
    }

    /// The Auto crossover: sparse wins while `nnz ≤ n·⌊√n⌋` (the paper's
    /// `m ≤ n^{3/2}` regime, integer-exact so tests can pin both sides).
    pub fn sparse_threshold(n: usize) -> usize {
        n * n.isqrt()
    }

    /// Resolve `Auto` against agreed nonzero totals; concrete strategies
    /// return themselves.
    pub fn resolve(self, n: usize, nnz_a: usize, nnz_b: usize) -> MmStrategy {
        match self {
            MmStrategy::Auto => {
                if nnz_a.max(nnz_b) <= Self::sparse_threshold(n) {
                    MmStrategy::Sparse
                } else {
                    MmStrategy::Dense3D
                }
            }
            other => other,
        }
    }
}

/// Outcome of a strategy-dispatched multiplication.
#[derive(Clone, Debug)]
pub struct MmRun<E> {
    /// Node `v`'s row of the product.
    pub rows: Vec<Vec<E>>,
    /// The concrete path that ran (never [`MmStrategy::Auto`]).
    pub resolved: MmStrategy,
}

/// Per-row, per-band nonzero counts of both inputs, as agreed by the
/// gossip round: `a[u][k]` counts nonzeros of `A[u, band k]`.
pub(crate) struct NnzCounts {
    pub(crate) a: Vec<Vec<usize>>,
    pub(crate) b: Vec<Vec<usize>>,
}

impl NnzCounts {
    fn total_a(&self) -> usize {
        self.a.iter().map(|r| r.iter().sum::<usize>()).sum()
    }

    fn total_b(&self) -> usize {
        self.b.iter().map(|r| r.iter().sum::<usize>()).sum()
    }
}

/// Count the nonzeros of `rows[u]` within each band.
fn band_counts<S: Semiring>(sr: &S, bl: &Blocking, rows: &[Vec<S::Elem>]) -> Vec<Vec<usize>> {
    let zero = sr.zero();
    rows.iter()
        .map(|row| {
            (0..bl.t)
                .map(|k| bl.members(k).filter(|&c| row[c] != zero).count())
                .collect()
        })
        .collect()
}

/// Width of one gossiped count: band occupancy is in `0..=band_size`.
fn count_width(bl: &Blocking) -> usize {
    BitString::width_for(bl.band_size + 1)
}

/// Phase 0: every node broadcasts its `2t` per-band counts; all nodes end
/// with the same global count table (the agreement that legitimises sized
/// routing for the input-dependent phases below).
fn gossip_counts<S: Semiring>(
    session: &mut Session,
    sr: &S,
    bl: &Blocking,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<NnzCounts, MatmulError> {
    let n = session.n();
    let t = bl.t;
    let cw = count_width(bl);
    let cnt_a = band_counts(sr, bl, a_rows);
    let cnt_b = band_counts(sr, bl, b_rows);
    let payloads: Vec<BitString> = (0..n)
        .map(|u| {
            let mut bits = BitString::with_capacity(2 * t * cw);
            for k in 0..t {
                bits.push_uint(cnt_a[u][k] as u64, cw);
            }
            for j in 0..t {
                bits.push_uint(cnt_b[u][j] as u64, cw);
            }
            bits
        })
        .collect();
    let views = all_to_all_sized(session, payloads)?;

    // Decode the agreed table from node 0's view (all views are equal:
    // delivery is reliable) and cross-check it against the local counts.
    let mut a = Vec::with_capacity(n);
    let mut b = Vec::with_capacity(n);
    for u in 0..n {
        let mut r = views[0][u].reader();
        let mut ra = Vec::with_capacity(t);
        let mut rb = Vec::with_capacity(t);
        for _ in 0..t {
            ra.push(r.read_uint(cw).map_err(MatmulError::Decode)? as usize);
        }
        for _ in 0..t {
            rb.push(r.read_uint(cw).map_err(MatmulError::Decode)? as usize);
        }
        r.expect_end().map_err(MatmulError::Decode)?;
        a.push(ra);
        b.push(rb);
    }
    debug_assert_eq!(a, cnt_a, "gossiped A counts diverge from local counts");
    debug_assert_eq!(b, cnt_b, "gossiped B counts diverge from local counts");
    Ok(NnzCounts { a, b })
}

/// Sparse semiring multiplication: gossip, then the 3D schedule shipping
/// only nonzero `(column, value)` pairs. Same input/output convention as
/// [`crate::mm_three_d`]; outputs are bit-identical to it. Strictly
/// cheaper in rounds on sparse instances (`m ≲ n^{3/2}`); on dense inputs
/// the dense path wins — that trade is what [`MmStrategy::Auto`] arbitrates.
pub fn mm_sparse<S: Semiring>(
    session: &mut Session,
    sr: &S,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<Vec<Vec<S::Elem>>, MatmulError> {
    Ok(mm_with_strategy(session, sr, MmStrategy::Sparse, a_rows, b_rows)?.rows)
}

/// Strategy-dispatched multiplication: the single entry point consumers
/// (triangle detection, distance products) call.
///
/// `Sparse` and `Auto` run the count gossip first (in-model agreement on
/// the nonzero totals); `Auto` then resolves on them. Either way the cost
/// is the gossip plus the chosen format of the 3D schedule.
pub fn mm_with_strategy<S: Semiring>(
    session: &mut Session,
    sr: &S,
    strategy: MmStrategy,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> Result<MmRun<S::Elem>, MatmulError> {
    let (rows, resolved) = match strategy {
        MmStrategy::Dense3D => (mm_three_d(session, sr, a_rows, b_rows)?, strategy),
        MmStrategy::NaiveBroadcast => (mm_naive_broadcast(session, sr, a_rows, b_rows)?, strategy),
        MmStrategy::Sparse | MmStrategy::Auto => {
            let n = session.n();
            check_shapes(n, a_rows, b_rows)?;
            let counts = gossip_counts(session, sr, &Blocking::for_n(n), a_rows, b_rows)?;
            let resolved = strategy.resolve(n, counts.total_a(), counts.total_b());
            let chunks = match resolved {
                MmStrategy::Sparse => Chunks::Sparse { counts: &counts },
                _ => Chunks::Dense,
            };
            (three_d(session, sr, chunks, a_rows, b_rows)?, resolved)
        }
    };
    Ok(MmRun { rows, resolved })
}

/// The exact analytic ledger of [`mm_sparse`]: the [`RunStats`] a session
/// accumulates running the sparse path on these inputs, computed without
/// simulating.
///
/// Recomputes every phase's demand-size shape independently (per-band
/// nonzero counting, the same worker schedule) and prices it with the
/// routing cost twins; the session combination (rounds add, max fields
/// max) matches `RunStats::absorb`. Asserted field-for-field against
/// simulation in the conformance suite, the way `dolev_strong_overhead`
/// is.
pub fn mm_sparse_overhead<S: Semiring>(
    n: usize,
    bandwidth: usize,
    sr: &S,
    a_rows: &[Vec<S::Elem>],
    b_rows: &[Vec<S::Elem>],
) -> RunStats {
    let bl = Blocking::for_n(n);
    let t = bl.t;
    let eb = sr.entry_bits();
    let cw = count_width(&bl);
    let lw = BitString::width_for(bl.band_size);
    let cnt_a = band_counts(sr, &bl, a_rows);
    let cnt_b = band_counts(sr, &bl, b_rows);

    // Phase 0: gossip of 2t counts per node.
    let gossip_lens = vec![2 * t * cw; n];
    let mut stats = all_to_all_sized_cost(n, bandwidth, &gossip_lens);

    // Phase 1: sparse triple redistribution, sizes from the count table.
    let mut sizes1: DemandSizes = vec![Vec::new(); n];
    for u in 0..n {
        let bu = bl.band(u);
        for j in 0..t {
            for k in 0..t {
                let w = bl.worker(bu, j, k);
                if w != u {
                    sizes1[u].push((w, cnt_a[u][k] * (lw + eb)));
                }
            }
        }
        for i in 0..t {
            for j in 0..t {
                let w = bl.worker(i, j, bu);
                if w != u {
                    sizes1[u].push((w, cnt_b[u][j] * (lw + eb)));
                }
            }
        }
    }
    stats.absorb(&route_balanced_sized_cost(n, bandwidth, &sizes1));

    // Phase 2: dense partial rows from every worker to its row owners.
    let mut sizes2: DemandSizes = vec![Vec::new(); n];
    for w in 0..n {
        let Some((i, j, _)) = bl.triple(w) else {
            continue;
        };
        let cols_j = bl.members(j).len();
        for r in bl.members(i) {
            if r != w {
                sizes2[w].push((r, cols_j * eb));
            }
        }
    }
    stats.absorb(&route_balanced_sized_cost(n, bandwidth, &sizes2));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{
        mm_local, BoolSemiring, Matrix, RingI64, TropicalSemiring, TROPICAL_INF,
    };
    use cliquesim::Engine;
    use rand::{Rng, SeedableRng};

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    /// A random matrix with exactly `m` nonzeros (if `m ≤ n²`).
    fn sparse_ring(n: usize, m: usize, seed: u64) -> Matrix<i64> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut mat = Matrix::filled(n, 0i64);
        let mut placed = 0;
        while placed < m {
            let (i, j) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if mat.get(i, j) == 0 {
                let mut v = rng.gen_range(-30i64..30);
                if v == 0 {
                    v = 7;
                }
                mat.set(i, j, v);
                placed += 1;
            }
        }
        mat
    }

    #[test]
    fn sparse_matches_local_and_dense_bitwise() {
        let sr = RingI64::with_width(16);
        for n in [4usize, 9, 16, 27] {
            let m = n * 2;
            let a = sparse_ring(n, m, 10 + n as u64);
            let b = sparse_ring(n, m, 20 + n as u64);
            let expect = mm_local(&sr, &a, &b);
            let mut s1 = session(n);
            let sparse = mm_sparse(&mut s1, &sr, &a.to_rows(), &b.to_rows()).unwrap();
            let mut s2 = session(n);
            let dense = mm_three_d(&mut s2, &sr, &a.to_rows(), &b.to_rows()).unwrap();
            assert_eq!(sparse, dense, "n={n}: sparse and dense outputs diverge");
            assert_eq!(Matrix::from_rows(sparse), expect, "n={n}");
        }
    }

    #[test]
    fn sparse_handles_tropical_and_bool() {
        let n = 16;
        let trop = TropicalSemiring::with_width(12);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let gen = |rng: &mut rand_chacha::ChaCha8Rng| {
            Matrix::from_fn(n, |_, _| {
                if rng.gen_bool(0.8) {
                    TROPICAL_INF
                } else {
                    rng.gen_range(0..400)
                }
            })
        };
        let a = gen(&mut rng);
        let b = gen(&mut rng);
        let mut s = session(n);
        let got = mm_sparse(&mut s, &trop, &a.to_rows(), &b.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), mm_local(&trop, &a, &b));

        let boolean = Matrix::from_fn(n, |i, j| (i * 5 + j) % 11 == 0);
        let mut s = session(n);
        let got = mm_sparse(
            &mut s,
            &BoolSemiring,
            &boolean.to_rows(),
            &boolean.to_rows(),
        )
        .unwrap();
        assert_eq!(
            Matrix::from_rows(got),
            mm_local(&BoolSemiring, &boolean, &boolean)
        );
    }

    #[test]
    fn sparse_beats_dense_rounds_on_sparse_instances() {
        // The tentpole acceptance at the small end (the full n ∈ {64, 125,
        // 216} sweep lives in tests/matmul_suite.rs).
        let sr = RingI64::with_width(16);
        let n = 27;
        let m = 27 * 5; // ≤ n^{3/2} = 140 is violated; use m = n·√n ≈ 140
        let m = m.min(MmStrategy::sparse_threshold(n));
        let a = sparse_ring(n, m, 1);
        let b = sparse_ring(n, m, 2);
        let mut s1 = session(n);
        mm_sparse(&mut s1, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        let mut s2 = session(n);
        mm_three_d(&mut s2, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        assert!(
            s1.stats().rounds < s2.stats().rounds,
            "sparse {} rounds vs dense {}",
            s1.stats().rounds,
            s2.stats().rounds
        );
    }

    #[test]
    fn overhead_matches_simulation_field_for_field() {
        let sr = RingI64::with_width(16);
        for n in [4usize, 9, 16, 27] {
            let a = sparse_ring(n, n * 2, 30 + n as u64);
            let b = sparse_ring(n, n, 40 + n as u64);
            let mut s = session(n);
            mm_sparse(&mut s, &sr, &a.to_rows(), &b.to_rows()).unwrap();
            let analytic = mm_sparse_overhead(n, s.bandwidth(), &sr, &a.to_rows(), &b.to_rows());
            assert_eq!(analytic, s.stats(), "n={n}");
        }
    }

    #[test]
    fn auto_resolves_on_the_pinned_threshold() {
        let n = 16;
        let thr = MmStrategy::sparse_threshold(n);
        assert_eq!(thr, 64);
        assert_eq!(MmStrategy::Auto.resolve(n, thr, thr), MmStrategy::Sparse);
        assert_eq!(MmStrategy::Auto.resolve(n, thr + 1, 0), MmStrategy::Dense3D);
        assert_eq!(MmStrategy::Auto.resolve(n, 0, thr + 1), MmStrategy::Dense3D);
        assert_eq!(
            MmStrategy::Sparse.resolve(n, usize::MAX, 0),
            MmStrategy::Sparse
        );
    }

    #[test]
    fn strategy_dispatch_is_output_identical() {
        let sr = RingI64::with_width(16);
        let n = 9;
        let a = sparse_ring(n, 12, 7);
        let b = sparse_ring(n, 12, 8);
        let expect = mm_local(&sr, &a, &b);
        for strategy in [
            MmStrategy::Auto,
            MmStrategy::Dense3D,
            MmStrategy::Sparse,
            MmStrategy::NaiveBroadcast,
        ] {
            let mut s = session(n);
            let run = mm_with_strategy(&mut s, &sr, strategy, &a.to_rows(), &b.to_rows()).unwrap();
            assert_eq!(Matrix::from_rows(run.rows), expect, "{strategy:?}");
            assert_ne!(run.resolved, MmStrategy::Auto, "{strategy:?} must resolve");
        }
    }

    #[test]
    fn degenerate_shapes() {
        let sr = RingI64::with_width(16);
        // n = 1: no links, zero rounds, correct product.
        let a = Matrix::filled(1, 3i64);
        let b = Matrix::filled(1, 5i64);
        let mut s = session(1);
        let got = mm_sparse(&mut s, &sr, &a.to_rows(), &b.to_rows()).unwrap();
        assert_eq!(got, vec![vec![15i64]]);
        assert_eq!(s.stats().rounds, 0);
        let analytic = mm_sparse_overhead(1, s.bandwidth(), &sr, &a.to_rows(), &b.to_rows());
        assert_eq!(analytic, s.stats());

        // All-zero inputs.
        let n = 8;
        let zero = Matrix::filled(n, 0i64);
        let mut s = session(n);
        let got = mm_sparse(&mut s, &sr, &zero.to_rows(), &zero.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), zero);

        // A single nonzero.
        let mut single = Matrix::filled(n, 0i64);
        single.set(3, 5, 9);
        let mut id = Matrix::filled(n, 0i64);
        for i in 0..n {
            id.set(i, i, 1);
        }
        let mut s = session(n);
        let got = mm_sparse(&mut s, &sr, &single.to_rows(), &id.to_rows()).unwrap();
        assert_eq!(Matrix::from_rows(got), single);
    }
}
