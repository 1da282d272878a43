//! Two-phase balanced routing for globally known demand patterns.
//!
//! The direct schedule of [`crate::route`] pays the *maximum per-link* load.
//! Lenzen's protocol \[43\] pays only the maximum *per-node* load (divided by
//! the node's `n−1` links) — the difference matters for patterns like the
//! matrix-multiplication redistribution, where each node talks to only
//! `n^{2/3}` of the other nodes.
//!
//! For patterns whose demand *sizes* are globally known (every pattern in
//! this workspace: they depend on `n` and `k`, not on input values), the
//! rebalancing can be done without Lenzen's sorting machinery:
//!
//! 1. every sender concatenates its outgoing streams (ordered by
//!    destination) into one megastream and scatters it in near-equal
//!    contiguous segments, one per *live* node, segment `j` going to the
//!    intermediate of live rank `(j + rank(u)) mod m` — the rotation
//!    decorrelates different senders;
//! 2. every intermediate, knowing the global layout, slices the segments it
//!    holds by final destination and forwards them; receivers reassemble by
//!    megastream position.
//!
//! Phase 1 is perfectly balanced (`⌈T_u/m⌉` bits per link). Phase 2 is
//! balanced for the regular patterns produced by the workspace's algorithms;
//! adversarially skewed patterns can degrade it, which is why the full
//! Lenzen protocol needs sorting — see DESIGN.md for the substitution
//! argument. Tests verify both delivery correctness on random patterns and
//! the round advantage on the patterns that motivated this module.
//!
//! [`route_balanced_faulted`] is the crash-aware rendering: the same plan
//! computed over the survivor list of a [`crate::CrashSet`], so megastream
//! segments are remapped away from dead intermediates and phase 2 still
//! reassembles. With an empty crash set the survivor list is all of
//! `0..n`, making the faulted plan byte-identical to [`route_balanced`].

use cliquesim::{BitString, NodeId, Session};

use crate::fault::{route_faulted, CrashSet, RoutedOutcome};
use crate::frames::{frame_all, parse_frames};
use crate::router::{route, Delivered, RouteError};

/// One demand list per node: the shape routed by both phases.
type DemandMatrix = Vec<Vec<(NodeId, BitString)>>;

/// Bit-range bookkeeping: layout of one sender's megastream. Shared with
/// the header-free plan in [`crate::sized`].
#[derive(Clone, Debug)]
pub(crate) struct MegaLayout {
    /// For each destination `w`, the megastream range `[start, end)` of the
    /// framed stream headed to `w` (empty ranges allowed).
    pub(crate) ranges: Vec<(usize, usize)>,
    /// Total megastream length.
    pub(crate) total: usize,
}

pub(crate) fn layout_for(stream_sizes: &[usize]) -> MegaLayout {
    let mut ranges = Vec::with_capacity(stream_sizes.len());
    let mut pos = 0;
    for &s in stream_sizes {
        ranges.push((pos, pos + s));
        pos += s;
    }
    MegaLayout { ranges, total: pos }
}

/// Segment `j` of a megastream of length `total` split into `m` near-equal
/// contiguous parts: `[j*ceil(total/m), min((j+1)*ceil(total/m), total))`.
pub(crate) fn segment_range(total: usize, m: usize, j: usize) -> (usize, usize) {
    let seg = total.div_ceil(m).max(1);
    let start = (j * seg).min(total);
    let end = ((j + 1) * seg).min(total);
    (start, end)
}

/// The shared two-phase plan, parameterised by the live node list. With
/// `live == 0..n` it is exactly the original balanced schedule; with a
/// proper survivor list every megastream segment lands on a surviving
/// intermediate and every layout range involves only surviving endpoints.
struct BalancedPlan {
    n: usize,
    /// Surviving node indices, ascending.
    live: Vec<usize>,
    /// Inverse of `live`: `rank[v] = Some(i)` iff `live[i] == v`.
    rank: Vec<Option<usize>>,
    layouts: Vec<MegaLayout>,
    megas: Vec<BitString>,
}

impl BalancedPlan {
    fn new(n: usize, live: Vec<usize>, demands: Vec<Vec<(NodeId, BitString)>>) -> Self {
        let mut rank = vec![None; n];
        for (i, &v) in live.iter().enumerate() {
            rank[v] = Some(i);
        }
        // Framed per-destination streams and megastreams, one per node
        // (dead nodes carry empty demand lists and get empty layouts).
        let mut streams: Vec<Vec<BitString>> = Vec::with_capacity(n);
        for (u, list) in demands.into_iter().enumerate() {
            let mut per_dst: Vec<Vec<BitString>> = vec![Vec::new(); n];
            for (dst, payload) in list {
                assert_ne!(dst.index(), u, "demand from node {u} to itself");
                per_dst[dst.index()].push(payload);
            }
            streams.push(
                per_dst
                    .into_iter()
                    .map(|ps| {
                        if ps.is_empty() {
                            BitString::new()
                        } else {
                            frame_all(ps.iter())
                        }
                    })
                    .collect(),
            );
        }
        let layouts: Vec<MegaLayout> = streams
            .iter()
            .map(|row| layout_for(&row.iter().map(|s| s.len()).collect::<Vec<_>>()))
            .collect();
        let megas: Vec<BitString> = streams
            .iter()
            .map(|row| {
                let mut m = BitString::new();
                for s in row {
                    m.extend_from(s);
                }
                m
            })
            .collect();
        Self {
            n,
            live,
            rank,
            layouts,
            megas,
        }
    }

    /// Number of live nodes (= number of megastream segments per sender).
    fn m(&self) -> usize {
        self.live.len()
    }

    /// Which live node holds segment `j` of live sender `u`'s megastream.
    fn intermediate_for(&self, u: usize, j: usize) -> usize {
        let r = self.rank[u].expect("sender is live");
        self.live[(j + r) % self.m()]
    }

    /// Phase-1 demands (scatter megastream segments) plus the `held[p][u]`
    /// matrix pre-seeded with the segments each sender keeps locally.
    fn scatter(&self) -> (DemandMatrix, Vec<Vec<BitString>>) {
        let m = self.m();
        let mut phase1: DemandMatrix = vec![Vec::new(); self.n];
        let mut held: Vec<Vec<BitString>> = vec![vec![BitString::new(); self.n]; self.n];
        for &u in &self.live {
            for j in 0..m {
                let (a, b) = segment_range(self.layouts[u].total, m, j);
                if a >= b {
                    continue;
                }
                let mut r = self.megas[u].reader();
                r.skip(a).expect("in range");
                let seg = r.read_bits(b - a).expect("in range");
                let p = self.intermediate_for(u, j);
                if p == u {
                    held[p][u] = seg; // kept locally, free
                } else {
                    phase1[u].push((NodeId::from(p), seg));
                }
            }
        }
        (phase1, held)
    }

    /// Phase-2 demands (slice held segments by destination and forward)
    /// plus `kept[w]`: the `(intermediate, blob)` pairs node `w` holds for
    /// itself, in the same ascending-intermediate order the wire delivers.
    fn slice(&self, held: &[Vec<BitString>]) -> (DemandMatrix, Vec<Vec<(usize, BitString)>>) {
        let m = self.m();
        let mut phase2: DemandMatrix = vec![Vec::new(); self.n];
        let mut kept: Vec<Vec<(usize, BitString)>> = vec![Vec::new(); self.n];
        for &p in &self.live {
            let pi = self.rank[p].expect("intermediate is live");
            for w in 0..self.n {
                let mut blob = BitString::new();
                for &u in &self.live {
                    let ui = self.rank[u].expect("sender is live");
                    // p holds segment j of u's megastream iff
                    // intermediate_for(u, j) == p, i.e. j = pi - ui (mod m).
                    let j = (pi + m - ui) % m;
                    let (sa, sb) = segment_range(self.layouts[u].total, m, j);
                    let (ra, rb) = self.layouts[u].ranges[w];
                    let (ia, ib) = (sa.max(ra), sb.min(rb));
                    if ia >= ib {
                        continue;
                    }
                    // Bits [ia, ib) of u's megastream, offset within the
                    // held segment.
                    let seg = &held[p][u];
                    let mut r = seg.reader();
                    r.skip(ia - sa).expect("in range");
                    let piece = r.read_bits(ib - ia).expect("in range");
                    blob.extend_from(&piece);
                }
                if blob.is_empty() {
                    continue;
                }
                if p == w {
                    kept[w].push((p, blob));
                } else {
                    phase2[p].push((NodeId::from(w), blob));
                }
            }
        }
        (phase2, kept)
    }

    /// Reassemble receiver `w`'s delivered streams from the phase-2 blobs
    /// (`blob_from[p]` = the blob `w` got from intermediate `p`). Each
    /// blob is consumed in the same `(p, u)` order it was written; pieces
    /// are collected as explicit `(megastream position, bits)` pairs and
    /// stitched per sender in position order.
    fn reassemble(
        &self,
        w: usize,
        blob_from: &[Option<BitString>],
    ) -> Result<Delivered, RouteError> {
        let m = self.m();
        let mut per_sender: Vec<Vec<(usize, BitString)>> = vec![Vec::new(); self.n];
        let mut cursors: Vec<usize> = vec![0; self.n];
        for &p in &self.live {
            let pi = self.rank[p].expect("intermediate is live");
            for &u in &self.live {
                let ui = self.rank[u].expect("sender is live");
                let j = (pi + m - ui) % m;
                let (sa, sb) = segment_range(self.layouts[u].total, m, j);
                let (ra, rb) = self.layouts[u].ranges[w];
                let (ia, ib) = (sa.max(ra), sb.min(rb));
                if ia >= ib {
                    continue;
                }
                let blob = blob_from[p]
                    .as_ref()
                    .ok_or_else(|| RouteError::Malformed(NodeId::from(w), missing_blob(p)))?;
                let mut r = blob.reader();
                r.skip(cursors[p])
                    .map_err(|e| RouteError::Malformed(NodeId::from(w), e))?;
                let piece = r
                    .read_bits(ib - ia)
                    .map_err(|e| RouteError::Malformed(NodeId::from(w), e))?;
                cursors[p] += ib - ia;
                per_sender[u].push((ia, piece));
            }
        }
        // Stitch each sender's pieces in megastream-position order and
        // parse the framed stream back into payloads.
        let mut delivered = Vec::new();
        for u in 0..self.n {
            let (ra, rb) = self.layouts[u].ranges[w];
            if ra == rb {
                continue;
            }
            let stream = stitch(std::mem::take(&mut per_sender[u]), rb - ra, ra)
                .map_err(|e| RouteError::Malformed(NodeId::from(w), e))?;
            let payloads =
                parse_frames(&stream).map_err(|e| RouteError::Malformed(NodeId::from(w), e))?;
            for payload in payloads {
                delivered.push((NodeId::from(u), payload));
            }
        }
        Ok(delivered)
    }
}

/// Route a demand set with the two-phase balanced schedule.
///
/// Semantics are identical to [`route`]; only the round cost differs. The
/// demand **sizes** are treated as globally known: every node derives the
/// same global layout, which is legitimate for the information-oblivious
/// patterns of the paper's algorithms (the sizes are functions of `n`, `k`).
pub fn route_balanced(
    session: &mut Session,
    demands: Vec<Vec<(NodeId, BitString)>>,
) -> Result<Vec<Delivered>, RouteError> {
    let n = session.n();
    assert_eq!(demands.len(), n);
    let plan = BalancedPlan::new(n, (0..n).collect(), demands);

    let (phase1, mut held) = plan.scatter();
    let delivered1 = route(session, phase1)?;
    for (p, list) in delivered1.into_iter().enumerate() {
        for (src, seg) in list {
            held[p][src.index()] = seg;
        }
    }

    let (phase2, kept) = plan.slice(&held);
    let delivered2 = route(session, phase2)?;

    let mut result: Vec<Delivered> = Vec::with_capacity(n);
    for w in 0..n {
        let mut blob_from: Vec<Option<BitString>> = vec![None; n];
        for (src, blob) in &delivered2[w] {
            blob_from[src.index()] = Some(blob.clone());
        }
        for (p, blob) in &kept[w] {
            blob_from[*p] = Some(blob.clone());
        }
        result.push(plan.reassemble(w, &blob_from)?);
    }
    Ok(result)
}

/// Crash-aware balanced routing: the two-phase plan computed over the
/// survivor list of `crash`, run under the engine's fault plan.
///
/// Demands to or from dead endpoints are dropped at planning time and
/// reported in [`RoutedOutcome::undeliverable`]; megastream segments are
/// remapped away from dead intermediates, so phase 2 still reassembles and
/// every payload between surviving endpoints is delivered. With an empty
/// crash set the plan — phase demands, schedule, every bit on the wire —
/// is identical to [`route_balanced`].
pub fn route_balanced_faulted(
    session: &mut Session,
    demands: Vec<Vec<(NodeId, BitString)>>,
    crash: &CrashSet,
) -> Result<RoutedOutcome, RouteError> {
    let n = session.n();
    assert_eq!(demands.len(), n);
    let (live_demands, undeliverable) = crash.partition_demands(demands);
    let live: Vec<usize> = (0..n)
        .filter(|&v| !crash.is_dead(NodeId::from(v)))
        .collect();
    let plan = BalancedPlan::new(n, live, live_demands);

    let (phase1, mut held) = plan.scatter();
    let out1 = route_faulted(session, phase1, crash)?;
    for (p, slot) in out1.delivered.iter().enumerate() {
        if let Some(list) = slot {
            for (src, seg) in list {
                held[p][src.index()] = seg.clone();
            }
        }
    }

    let (phase2, kept) = plan.slice(&held);
    let out2 = route_faulted(session, phase2, crash)?;

    let mut delivered: Vec<Option<Delivered>> = Vec::with_capacity(n);
    for w in 0..n {
        if crash.is_dead(NodeId::from(w)) {
            delivered.push(None);
            continue;
        }
        let mut blob_from: Vec<Option<BitString>> = vec![None; n];
        if let Some(list) = &out2.delivered[w] {
            for (src, blob) in list {
                blob_from[src.index()] = Some(blob.clone());
            }
        }
        for (p, blob) in &kept[w] {
            blob_from[*p] = Some(blob.clone());
        }
        delivered.push(Some(plan.reassemble(w, &blob_from)?));
    }

    let mut stats = out1.stats.clone();
    stats.absorb(&out2.stats);
    let mut report = out1.report;
    report.events.extend(out2.report.events);
    Ok(RoutedOutcome {
        delivered,
        undeliverable,
        stats,
        report,
    })
}

/// Stitch explicit `(megastream position, bits)` pieces into one contiguous
/// stream covering `[base, base + want)`.
pub(crate) fn stitch(
    mut pieces: Vec<(usize, BitString)>,
    want: usize,
    base: usize,
) -> Result<BitString, cliquesim::DecodeError> {
    pieces.sort_by_key(|(pos, _)| *pos);
    let mut out = BitString::with_capacity(want);
    let mut expect = base;
    for (pos, bits) in pieces {
        if pos != expect {
            return Err(cliquesim::DecodeError {
                at: pos,
                wanted: want,
                len: out.len(),
            });
        }
        expect += bits.len();
        out.extend_from(&bits);
    }
    if out.len() != want {
        return Err(cliquesim::DecodeError {
            at: expect,
            wanted: want,
            len: out.len(),
        });
    }
    Ok(out)
}

pub(crate) fn missing_blob(p: usize) -> cliquesim::DecodeError {
    cliquesim::DecodeError {
        at: p,
        wanted: 0,
        len: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::Engine;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    fn normalise(mut d: Vec<Delivered>) -> Vec<Vec<(usize, Vec<bool>)>> {
        d.iter_mut()
            .map(|list| {
                let mut v: Vec<(usize, Vec<bool>)> = list
                    .iter()
                    .map(|(s, p)| (s.index(), p.iter().collect()))
                    .collect();
                v.sort();
                v
            })
            .collect()
    }

    fn random_demands(n: usize, seed: u64, max_len: usize) -> Vec<Vec<(NodeId, BitString)>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
        for v in 0..n {
            for _ in 0..rng.gen_range(0..4) {
                let dst = (v + rng.gen_range(1..n)) % n;
                let len = rng.gen_range(0..max_len);
                let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                demands[v].push((NodeId::from(dst), payload));
            }
        }
        demands
    }

    #[test]
    fn balanced_matches_direct_on_simple_pattern() {
        let n = 6;
        for seed in 0..8 {
            let mut s1 = session(n);
            let direct = route(&mut s1, random_demands(n, seed, 30)).unwrap();
            let mut s2 = session(n);
            let balanced = route_balanced(&mut s2, random_demands(n, seed, 30)).unwrap();
            assert_eq!(normalise(direct), normalise(balanced), "seed {seed}");
        }
    }

    #[test]
    fn balanced_beats_direct_on_skewed_pattern() {
        // One node sends a large payload to a single destination: the direct
        // schedule serialises it over one link; the balanced schedule
        // spreads it over all links.
        let n = 16;
        let payload = BitString::from_bits((0..n * 4 * 8).map(|i| i % 5 == 0));
        let mk = || {
            let mut d: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
            d[0].push((NodeId(9), payload.clone()));
            d
        };
        let mut s1 = session(n);
        route(&mut s1, mk()).unwrap();
        let mut s2 = session(n);
        let got = route_balanced(&mut s2, mk()).unwrap();
        assert_eq!(got[9].len(), 1);
        assert_eq!(got[9][0].1, payload);
        assert!(
            s2.stats().rounds < s1.stats().rounds,
            "balanced {} should beat direct {}",
            s2.stats().rounds,
            s1.stats().rounds
        );
    }

    #[test]
    fn balanced_zero_length_megastream_is_free() {
        // A node with no demands has a zero-length megastream; nodes with
        // demands still route, and the empty sender costs nothing.
        let n = 5;
        let mut s = session(n);
        let mut demands: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
        demands[1].push((NodeId(3), BitString::from_bits([true, false, true])));
        let got = route_balanced(&mut s, demands).unwrap();
        assert_eq!(got[3].len(), 1);
        assert_eq!(got[3][0].0, NodeId(1));
        // All-empty demand set: schedule 0, nothing delivered.
        let mut s2 = session(n);
        let got2 = route_balanced(&mut s2, vec![Vec::new(); n]).unwrap();
        assert!(got2.iter().all(|d| d.is_empty()));
        assert_eq!(s2.stats().rounds, 0);
    }

    #[test]
    fn rejoined_intermediate_is_readmitted_in_the_next_wave() {
        use cliquesim::FaultPlan;
        // Waves on a fixed 40-round cadence: node 2 is down for all of
        // wave 1 (plan rounds 0..40) and back from round 40 on. The
        // windowed crash sets avoid it in wave 1 and re-admit it in wave
        // 2, where it carries megastream segments and receives again.
        let n = 6;
        let plan = FaultPlan::new(0)
            .crash(NodeId(2), 0)
            .rejoin(NodeId(2), 40)
            .expect("crash precedes rejoin");
        let mut s = Session::new(Engine::new(n).with_fault_plan(plan.clone()));
        let wave1 = CrashSet::from_plan_window(&plan, 0..40);
        assert!(wave1.is_dead(NodeId(2)));
        let out1 = route_balanced_faulted(&mut s, random_demands(n, 3, 30), &wave1).unwrap();
        assert!(out1.delivered[2].is_none(), "down for the whole wave");
        let touching_dead = random_demands(n, 3, 30)
            .iter()
            .enumerate()
            .flat_map(|(s, list)| list.iter().map(move |(d, _)| (s, d.index())))
            .filter(|(s, d)| *s == 2 || *d == 2)
            .count();
        assert_eq!(out1.undeliverable.len(), touching_dead);
        // Advance the fault clock to the wave boundary and re-plan: the
        // completed crash/rejoin pair drops out of the window.
        s.set_fault_offset(40);
        let wave2 = CrashSet::from_plan_window(&plan, 40..usize::MAX);
        assert!(wave2.is_empty(), "node 2 recovered: {wave2}");
        let out2 = route_balanced_faulted(&mut s, random_demands(n, 4, 30), &wave2).unwrap();
        assert!(out2.delivered[2].is_some(), "re-admitted after its rejoin");
        assert!(out2.undeliverable.is_empty());
        // Wave 2 deliveries match the unfaulted balanced route exactly.
        let mut clean = session(n);
        let want = route_balanced(&mut clean, random_demands(n, 4, 30)).unwrap();
        let got: Vec<Delivered> = out2
            .delivered
            .into_iter()
            .map(|d| d.expect("all alive"))
            .collect();
        assert_eq!(normalise(want), normalise(got));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_balanced_delivers_exactly(seed in any::<u64>()) {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..8);
            let demands = random_demands(n, seed.wrapping_add(1), 60);
            let mut s1 = session(n);
            let direct = route(&mut s1, demands.clone()).unwrap();
            let mut s2 = session(n);
            let balanced = route_balanced(&mut s2, demands).unwrap();
            prop_assert_eq!(normalise(direct), normalise(balanced));
        }

        #[test]
        fn prop_empty_crash_set_is_byte_identical(seed in any::<u64>()) {
            // Transparency, mirroring `assert_empty_adversary_transparent`:
            // the crash-aware plan under an empty crash set must reproduce
            // `route_balanced` exactly — same deliveries, same rounds, same
            // bits on the wire.
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let n = rng.gen_range(2..8);
            let demands = random_demands(n, seed.wrapping_add(2), 60);
            let mut s1 = session(n);
            let plain = route_balanced(&mut s1, demands.clone()).unwrap();
            let mut s2 = session(n);
            let faulted = route_balanced_faulted(&mut s2, demands, &CrashSet::new()).unwrap();
            prop_assert!(faulted.undeliverable.is_empty());
            prop_assert!(faulted.report.is_empty());
            let unwrapped: Vec<Delivered> = faulted
                .delivered
                .into_iter()
                .map(|d| d.expect("no node is dead"))
                .collect();
            prop_assert_eq!(&plain, &unwrapped, "deliveries diverge");
            prop_assert_eq!(s1.stats(), s2.stats(), "wire cost diverges");
        }
    }
}
