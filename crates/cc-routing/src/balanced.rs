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
//! 1. every sender concatenates its outgoing link streams (ordered by
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
//! One plan serves every rendering. It takes its link streams from the
//! crate's link codec, so the link format is data: [`route_balanced`]
//! plans length-framed streams and runs both phases on [`crate::route`];
//! [`crate::route_balanced_sized`] plans header-free streams and runs them
//! on [`crate::route_sized`]; [`route_balanced_faulted`] plans framed
//! streams over the survivor list of a [`crate::CrashSet`] and runs them on
//! [`crate::route_faulted`], so megastream segments are remapped away from
//! dead intermediates and phase 2 still reassembles. With an empty crash
//! set the survivor list is all of `0..n`, making the faulted plan
//! byte-identical to [`route_balanced`].

use cliquesim::{BitString, DecodeError, FaultReport, NodeId, RunStats, Session};

use crate::fault::{route_faulted, CrashSet, RoutedOutcome};
use crate::router::{route, Delivered, DemandMatrix, Links, RouteError, Split};

/// Bit-range bookkeeping: layout of one sender's megastream, the
/// concatenation of its link streams in destination order. Shared with the
/// balanced cost twin in [`crate::sized`].
#[derive(Clone, Debug)]
pub(crate) struct MegaLayout {
    /// For each destination `w`, the megastream range `[start, end)` of the
    /// link stream headed to `w` (empty ranges allowed).
    pub(crate) ranges: Vec<(usize, usize)>,
    /// Total megastream length.
    pub(crate) total: usize,
}

pub(crate) fn layout_for(stream_sizes: impl IntoIterator<Item = usize>) -> MegaLayout {
    let mut pos = 0;
    let ranges = stream_sizes
        .into_iter()
        .map(|s| {
            pos += s;
            (pos - s, pos)
        })
        .collect();
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

/// Bits `[start, start + len)` of `bits`.
fn bit_range(bits: &BitString, start: usize, len: usize) -> Result<BitString, DecodeError> {
    let mut r = bits.reader();
    r.skip(start)?;
    r.read_bits(len)
}

/// The two-phase plan, parameterised by the live node list and the link
/// format. With `live == 0..n` it is exactly the balanced schedule; with a
/// proper survivor list every megastream segment lands on a surviving
/// intermediate and every layout range involves only surviving endpoints.
pub(crate) struct BalancedPlan {
    n: usize,
    /// Surviving node indices, ascending.
    live: Vec<usize>,
    layouts: Vec<MegaLayout>,
    megas: Vec<BitString>,
    /// How receivers cut reassembled link streams into payloads.
    split: Split,
}

impl BalancedPlan {
    /// Plan the encoded `links` over the live nodes (dead nodes carry no
    /// demands, so they get empty layouts).
    pub(crate) fn new(n: usize, live: Vec<usize>, links: Links) -> Self {
        let layouts = links
            .streams
            .iter()
            .map(|row| layout_for(row.iter().map(BitString::len)))
            .collect();
        let megas = links
            .streams
            .iter()
            .map(|row| row.iter().fold(BitString::new(), |m, s| m.concat(s)))
            .collect();
        Self {
            n,
            live,
            layouts,
            megas,
            split: links.split,
        }
    }

    /// Number of live nodes (= number of megastream segments per sender).
    fn m(&self) -> usize {
        self.live.len()
    }

    /// The part of the link stream from the live sender of rank `ui` to
    /// `w` that the intermediate of rank `pi` holds, as `(segment start,
    /// overlap start, overlap end)` in megastream positions; `None` when
    /// they do not overlap. The intermediate holds segment
    /// `j = pi − ui (mod m)` of the sender's megastream.
    fn overlap(&self, pi: usize, ui: usize, w: usize) -> Option<(usize, usize, usize)> {
        let layout = &self.layouts[self.live[ui]];
        let (ra, rb) = layout.ranges[w];
        if ra == rb {
            // Most sender/receiver pairs of a sparse pattern exchange
            // nothing; skip the segment arithmetic of this hot loop.
            return None;
        }
        let m = self.m();
        let (sa, sb) = segment_range(layout.total, m, (pi + m - ui) % m);
        let (ia, ib) = (sa.max(ra), sb.min(rb));
        (ia < ib).then_some((sa, ia, ib))
    }

    /// Phase-1 demands (scatter megastream segments) plus the `held[p][u]`
    /// matrix pre-seeded with the segments each sender keeps locally.
    fn scatter(&self) -> (DemandMatrix, Vec<Vec<BitString>>) {
        let m = self.m();
        let mut phase1: DemandMatrix = vec![Vec::new(); self.n];
        let mut held: Vec<Vec<BitString>> = vec![vec![BitString::new(); self.n]; self.n];
        for (r, &u) in self.live.iter().enumerate() {
            for j in 0..m {
                let (a, b) = segment_range(self.layouts[u].total, m, j);
                if a >= b {
                    continue;
                }
                let seg = bit_range(&self.megas[u], a, b - a).expect("segment in range");
                let p = self.live[(j + r) % m];
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
    /// plus `kept[w]`: the blob node `w` holds for itself as intermediate.
    fn slice(&self, held: &[Vec<BitString>]) -> (DemandMatrix, Vec<Option<BitString>>) {
        let mut phase2: DemandMatrix = vec![Vec::new(); self.n];
        let mut kept: Vec<Option<BitString>> = vec![None; self.n];
        for (pi, &p) in self.live.iter().enumerate() {
            for w in 0..self.n {
                let mut blob = BitString::new();
                for (ui, &u) in self.live.iter().enumerate() {
                    if let Some((sa, ia, ib)) = self.overlap(pi, ui, w) {
                        let piece =
                            bit_range(&held[p][u], ia - sa, ib - ia).expect("held in range");
                        blob.extend_from(&piece);
                    }
                }
                if blob.is_empty() {
                    continue;
                }
                if p == w {
                    kept[w] = Some(blob);
                } else {
                    phase2[p].push((NodeId::from(w), blob));
                }
            }
        }
        (phase2, kept)
    }

    /// Reassemble receiver `w`'s link streams from the phase-2 blobs
    /// (`blob_from[p]` = the blob `w` got from intermediate `p`) and decode
    /// them through the plan's split. Each blob is consumed in the same
    /// `(p, u)` order it was written; pieces are collected as explicit
    /// `(megastream position, bits)` pairs and stitched per sender in
    /// position order.
    fn reassemble(
        &self,
        w: usize,
        blob_from: &[Option<BitString>],
    ) -> Result<Delivered, RouteError> {
        let malformed = |e| RouteError::Malformed(NodeId::from(w), e);
        let mut per_sender: Vec<Vec<(usize, BitString)>> = vec![Vec::new(); self.n];
        for (pi, &p) in self.live.iter().enumerate() {
            let mut cursor = 0;
            for (ui, &u) in self.live.iter().enumerate() {
                let Some((_, ia, ib)) = self.overlap(pi, ui, w) else {
                    continue;
                };
                let blob = blob_from[p]
                    .as_ref()
                    .ok_or_else(|| malformed(missing_blob(p)))?;
                per_sender[u].push((ia, bit_range(blob, cursor, ib - ia).map_err(malformed)?));
                cursor += ib - ia;
            }
        }
        let mut delivered = Vec::new();
        for (u, pieces) in per_sender.into_iter().enumerate() {
            let (ra, rb) = self.layouts[u].ranges[w];
            let stream = stitch(pieces, rb - ra, ra).map_err(malformed)?;
            self.split.decode(w, u, stream, &mut delivered)?;
        }
        Ok(delivered)
    }

    /// Run the plan: scatter, route phase 1 with `phase`, slice, route
    /// phase 2 with `phase`, reassemble. `phase` is the direct router for
    /// the plan's link format; every receiver's deliveries are returned
    /// (empty for dead nodes).
    pub(crate) fn run(
        &self,
        session: &mut Session,
        mut phase: impl FnMut(&mut Session, DemandMatrix) -> Result<Vec<Delivered>, RouteError>,
    ) -> Result<Vec<Delivered>, RouteError> {
        let (phase1, mut held) = self.scatter();
        for (p, list) in phase(session, phase1)?.into_iter().enumerate() {
            for (u, seg) in list {
                held[p][u.index()] = seg;
            }
        }
        let (phase2, mut kept) = self.slice(&held);
        phase(session, phase2)?
            .into_iter()
            .enumerate()
            .map(|(w, list)| {
                let mut blob_from: Vec<Option<BitString>> = vec![None; self.n];
                for (p, blob) in list {
                    blob_from[p.index()] = Some(blob);
                }
                if let Some(blob) = kept[w].take() {
                    blob_from[w] = Some(blob);
                }
                self.reassemble(w, &blob_from)
            })
            .collect()
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
    BalancedPlan::new(n, (0..n).collect(), Links::framed(n, demands)?).run(session, route)
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
    let (live_demands, undeliverable) = crash.partition_demands(n, demands)?;
    let live = crash.survivors(n).iter().map(|v| v.index()).collect();
    let plan = BalancedPlan::new(n, live, Links::framed(n, live_demands)?);
    let mut stats = RunStats::default();
    let mut report = FaultReport::default();
    let delivered = plan.run(session, |session, demands| {
        let out = route_faulted(session, demands, crash)?;
        stats.absorb(&out.stats);
        report.events.extend(out.report.events);
        Ok(out
            .delivered
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect())
    })?;
    let delivered = delivered
        .into_iter()
        .enumerate()
        .map(|(w, d)| (!crash.is_dead(NodeId::from(w))).then_some(d))
        .collect();
    Ok(RoutedOutcome {
        delivered,
        undeliverable,
        stats,
        report,
    })
}

/// Stitch explicit `(megastream position, bits)` pieces into one contiguous
/// stream covering `[base, base + want)`.
fn stitch(
    mut pieces: Vec<(usize, BitString)>,
    want: usize,
    base: usize,
) -> Result<BitString, DecodeError> {
    pieces.sort_by_key(|(pos, _)| *pos);
    let mut out = BitString::with_capacity(want);
    let mut expect = base;
    for (pos, bits) in pieces {
        if pos != expect {
            return Err(DecodeError {
                at: pos,
                wanted: want,
                len: out.len(),
            });
        }
        expect += bits.len();
        out.extend_from(&bits);
    }
    if out.len() != want {
        return Err(DecodeError {
            at: expect,
            wanted: want,
            len: out.len(),
        });
    }
    Ok(out)
}

fn missing_blob(p: usize) -> DecodeError {
    DecodeError {
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
            assert_eq!(direct, balanced, "seed {seed}");
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
        assert_eq!(want, got);
    }

    #[test]
    fn framed_balanced_costs_are_pinned() {
        // Exact wire cost of the framed balanced plan, plain and around a
        // crash set. The sized plan has an analytic twin; this one is
        // pinned, so any change to segment geometry, slicing order or
        // framing shows up here.
        let n = 7;
        let pinned = |s: &RunStats| (s.rounds, s.messages, s.bits, s.peak_live_payload_bytes);
        let mut s = session(n);
        route_balanced(&mut s, random_demands(n, 5, 60)).unwrap();
        assert_eq!(pinned(&s.stats()), (54, 872, 2564, 18));
        let crash = CrashSet::new().with(NodeId(2)).with(NodeId(5));
        let mut s = session(n);
        let out = route_balanced_faulted(&mut s, random_demands(n, 5, 60), &crash).unwrap();
        assert_eq!(pinned(&s.stats()), (62, 579, 1715, 12));
        assert_eq!(pinned(&out.stats), (62, 579, 1715, 12));
        assert_eq!(out.undeliverable.len(), 3);
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
            // Exactly, not as multisets: sources ascending, payloads per
            // source in sending order, as `Delivered` promises.
            prop_assert_eq!(direct, balanced);
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
