//! Single-source shortest paths.
//!
//! Figure 1 places SSSP variants below their APSP counterparts (trivially,
//! an APSP algorithm answers SSSP). Direct algorithms are nevertheless
//! interesting baselines:
//!
//! * [`bfs`] — unweighted SSSP by frontier flooding. On a clique every
//!   announcement is a broadcast, so the algorithm runs in
//!   `eccentricity(src) + 2` rounds with 1-bit messages.
//! * [`bellman_ford`] — weighted SSSP by iterated distance broadcast;
//!   `O(hop-radius)` iterations of an `O(1)`-round broadcast phase.

use cc_graph::{dist_add, Graph, WeightedGraph, INF};
use cc_routing::{all_to_all_broadcast, RouteError};
use cliquesim::{
    BitString, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Session, SimError, Status,
};

/// Node program for distributed BFS.
///
/// Round r: every node whose distance was fixed to `r − 1` in the previous
/// round broadcasts a single bit. A node adopts distance `r` when it first
/// hears an announcement from one of its *neighbours*. A node halts after
/// its first locally silent round; at that point either its distance is
/// already fixed, or the global frontier has died out and it is
/// unreachable, so early halting is always sound. The run finishes within
/// `ecc(src) + 2` rounds.
struct BfsNode {
    src: usize,
    /// This node's adjacency row (its input).
    row: BitString,
    dist: u64,
    parent: Option<u32>,
    announce_round: Option<usize>,
}

impl NodeProgram for BfsNode {
    /// `(distance, BFS parent)`; the parent is the smallest-id neighbour
    /// that announced one round earlier (`None` for the source and for
    /// unreachable nodes).
    type Output = (u64, Option<u32>);

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<(u64, Option<u32>)> {
        let me = ctx.id.index();
        if round == 0 {
            if me == self.src {
                self.dist = 0;
                self.announce_round = Some(0);
            }
        } else {
            let mut heard_any = false;
            let mut heard_neighbor: Option<u32> = None;
            for (u, _) in inbox.iter() {
                heard_any = true;
                // Adjacency row is indexed by V \ {me}.
                let ui = u.index();
                let slot = if ui < me { ui } else { ui - 1 };
                if self.row.get(slot) && heard_neighbor.is_none() {
                    heard_neighbor = Some(u.0);
                }
            }
            if let Some(p) = heard_neighbor {
                if self.dist == INF {
                    self.dist = round as u64; // announcer had dist = round − 1
                    self.parent = Some(p);
                    self.announce_round = Some(round);
                }
            }
            if !heard_any {
                // A fully silent round: the frontier died out everywhere.
                return Status::Halt((self.dist, self.parent));
            }
        }
        if self.announce_round == Some(round) {
            let mut one = BitString::new();
            one.push(true);
            outbox.broadcast(&one);
        }
        Status::Continue
    }
}

/// Distributed BFS from `src`; returns hop distances (`INF` when
/// unreachable). Runs in `ecc(src) + 2` rounds.
pub fn bfs(session: &mut Session, g: &Graph, src: usize) -> Result<Vec<u64>, SimError> {
    Ok(bfs_tree(session, g, src)?
        .into_iter()
        .map(|(d, _)| d)
        .collect())
}

/// Distributed BFS returning `(distance, parent)` per node — the
/// "BFS tree" entry of Figure 1. Parents form a tree rooted at `src`
/// spanning its component.
pub fn bfs_tree(
    session: &mut Session,
    g: &Graph,
    src: usize,
) -> Result<Vec<(u64, Option<u32>)>, SimError> {
    let n = session.n();
    assert_eq!(g.n(), n);
    assert!(src < n);
    let programs: Vec<BfsNode> = (0..n)
        .map(|v| BfsNode {
            src,
            row: g.input_row(NodeId::from(v)),
            dist: INF,
            parent: None,
            announce_round: None,
        })
        .collect();
    let out = session.run(programs)?;
    Ok(out.outputs)
}

/// Distributed Bellman–Ford from `src`.
///
/// Each iteration, every node broadcasts its tentative distance (an
/// `O(log n + log W)`-bit value shipped by the router) and relaxes against
/// its incident edges; iteration stops after a round in which no node
/// improved (each node's "changed" flag travels with its distance, so the
/// stability of the whole network is common knowledge).
pub fn bellman_ford(
    session: &mut Session,
    g: &WeightedGraph,
    src: usize,
) -> Result<Vec<u64>, RouteError> {
    let n = session.n();
    assert_eq!(g.n(), n);
    assert!(src < n);
    let width = 64; // distance payloads are framed and chunked by the router
    let mut dist: Vec<u64> = (0..n).map(|v| if v == src { 0 } else { INF }).collect();
    loop {
        let payloads: Vec<BitString> = dist
            .iter()
            .map(|&d| {
                let mut b = BitString::new();
                b.push_uint(d, width);
                b
            })
            .collect();
        let views = all_to_all_broadcast(session, payloads)?;
        let mut changed = false;
        let mut next = dist.clone();
        for v in 0..n {
            for (u, bits) in views[v].iter().enumerate() {
                if u == v || !g.has_edge(u, v) {
                    continue;
                }
                let du = bits
                    .reader()
                    .read_uint(width)
                    .map_err(|e| RouteError::Malformed(NodeId::from(v), e))?;
                let alt = dist_add(du, g.weight(u, v));
                if alt < next[v] {
                    next[v] = alt;
                    changed = true;
                }
            }
        }
        dist = next;
        if !changed {
            return Ok(dist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{gen, reference};
    use cliquesim::{Engine, FaultPlan};

    fn session(n: usize) -> Session {
        Session::new(Engine::new(n))
    }

    #[test]
    fn bfs_matches_reference() {
        for seed in 0..4 {
            let n = 18;
            let g = gen::gnp(n, 0.18, seed);
            let expect = reference::bfs_distances(&g, 3);
            let mut s = session(n);
            let got = bfs(&mut s, &g, 3).unwrap();
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn bfs_round_count_tracks_eccentricity() {
        let n = 12;
        let g = gen::path(n);
        let mut s = session(n);
        let got = bfs(&mut s, &g, 0).unwrap();
        assert_eq!(got[n - 1], (n - 1) as u64);
        // ecc(0) = n−1; nodes halt after their first locally silent round,
        // which lands 1–2 rounds past the eccentricity.
        let ecc = n - 1;
        assert!(
            (ecc + 1..=ecc + 2).contains(&s.stats().rounds),
            "rounds = {}",
            s.stats().rounds
        );
    }

    #[test]
    fn bfs_on_disconnected_graph() {
        let g = gen::cliques(8, 2);
        let mut s = session(8);
        let got = bfs(&mut s, &g, 0).unwrap();
        for v in 0..8 {
            if v % 2 == 0 {
                assert_eq!(got[v], u64::from(v != 0));
            } else {
                assert_eq!(got[v], INF);
            }
        }
    }

    #[test]
    fn bfs_tree_parents_are_consistent() {
        for seed in 0..3 {
            let n = 16;
            let g = gen::gnp(n, 0.2, 70 + seed);
            let mut s = session(n);
            let tree = bfs_tree(&mut s, &g, 2).unwrap();
            let dist = reference::bfs_distances(&g, 2);
            for (v, (d, p)) in tree.iter().enumerate() {
                assert_eq!(*d, dist[v], "seed {seed} v={v}");
                match p {
                    Some(p) => {
                        let p = *p as usize;
                        assert!(g.has_edge(v, p), "parent must be a neighbour");
                        assert_eq!(dist[p] + 1, dist[v], "parent one level up");
                    }
                    None => assert!(v == 2 || dist[v] == INF),
                }
            }
        }
    }

    #[test]
    fn bellman_ford_matches_dijkstra() {
        for seed in 0..4 {
            let n = 12;
            let g = gen::gnp_weighted(n, 0.3, 25, seed);
            let expect = reference::dijkstra(&g, 1);
            let mut s = session(n);
            let got = bellman_ford(&mut s, &g, 1).unwrap();
            assert_eq!(got, expect, "seed {seed}");
        }
    }

    #[test]
    fn bellman_ford_isolated_source() {
        let g = WeightedGraph::empty(5);
        let mut s = session(5);
        let got = bellman_ford(&mut s, &g, 2).unwrap();
        assert_eq!(got, vec![INF, INF, 0, INF, INF]);
    }

    #[test]
    fn bellman_ford_reports_a_lost_distance_instead_of_panicking() {
        // Every message dropped: each node's view of the others' distances
        // is empty, so the first relaxation against an edge cannot decode.
        let g = gen::gnp_weighted(6, 0.5, 25, 3);
        let plan = FaultPlan::new(0).drop_messages(1.0);
        let mut s = Session::new(Engine::new(6).with_fault_plan(plan));
        assert!(matches!(
            bellman_ford(&mut s, &g, 1),
            Err(RouteError::Malformed(_, _))
        ));
    }
}
