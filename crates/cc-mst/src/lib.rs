//! # cc-mst — minimum spanning trees on the congested clique
//!
//! MST is the congested clique's flagship problem (§2 of Korhonen &
//! Suomela lists \[25, 32, 34, 45\]; §8 uses it as the motivating
//! randomised-vs-deterministic gap). This crate implements:
//!
//! * [`boruvka_mst`] — distributed Borůvka: `O(log n)` merge phases, each
//!   a constant number of `O(log n)`-bit broadcast rounds (every node
//!   announces its component's candidate edge; all nodes merge the same
//!   candidate set locally, so component labels stay globally consistent
//!   without extra communication);
//! * [`reference_mst_weight`] — centralised Kruskal, the tests' ground
//!   truth.
//!
//! The `O(log log n)` algorithm of Lotker et al. \[45\] (merging via
//! doubling sketches) and the `O(log* n)` / `O(1)`-expected randomised
//! algorithms \[25, 32\] are *not* implemented — the paper uses them only
//! as complexity data points; Borůvka already exercises the same
//! communication substrate. Recorded in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cc_graph::WeightedGraph;
use cc_routing::{all_to_all_broadcast, RouteError};
use cliquesim::{BitString, NodeId, Session};

/// An MST edge `(u, v, weight)`.
pub type MstEdge = (usize, usize, u64);

/// Distributed Borůvka. Node `v` holds row `v` of the weight matrix;
/// afterwards every node knows the full MST edge list (size `n − 1` for
/// connected inputs; a minimum spanning *forest* otherwise).
///
/// Each phase: every node broadcasts the minimum-weight edge leaving its
/// component (ids + weight, `O(log n)` bits shipped by the router);
/// every node then applies the same deterministic merge locally. At most
/// `⌈log₂ n⌉` phases halve the component count each time.
///
/// ```
/// use cc_mst::{boruvka_mst, reference_mst_weight};
/// use cliquesim::{Engine, Session};
///
/// let g = cc_graph::gen::gnp_weighted(20, 0.4, 50, 7);
/// let mut session = Session::new(Engine::new(20));
/// let forest = boruvka_mst(&mut session, &g).unwrap();
/// let total: u64 = forest.iter().map(|e| e.2).sum();
/// assert_eq!(total, reference_mst_weight(&g));
/// ```
pub fn boruvka_mst(session: &mut Session, g: &WeightedGraph) -> Result<Vec<MstEdge>, RouteError> {
    let n = session.n();
    assert_eq!(g.n(), n);
    let idw = BitString::width_for(n.max(2));
    let ww = 62usize; // weight field width on the wire
    let mut component: Vec<usize> = (0..n).collect();
    let mut mst: Vec<MstEdge> = Vec::new();

    loop {
        // Each node picks the lightest edge leaving its own component that
        // *it* is an endpoint of (ties broken by (weight, u, v) so every
        // node applies the same rule).
        let candidate = |v: usize| -> Option<MstEdge> {
            let mut best: Option<MstEdge> = None;
            for u in 0..n {
                if u == v || !g.has_edge(v, u) || component[u] == component[v] {
                    continue;
                }
                let w = g.weight(v, u);
                let (a, b) = (v.min(u), v.max(u));
                let e = (a, b, w);
                if best.is_none_or(|be| (w, a, b) < (be.2, be.0, be.1)) {
                    best = Some(e);
                }
            }
            best
        };

        // Broadcast the candidates: flag + u + v + weight.
        let payloads: Vec<BitString> = (0..n)
            .map(|v| {
                let mut bits = BitString::new();
                match candidate(v) {
                    Some((a, b, w)) => {
                        bits.push(true);
                        bits.push_uint(a as u64, idw);
                        bits.push_uint(b as u64, idw);
                        bits.push_uint(w.min((1 << ww) - 1), ww);
                    }
                    None => bits.push(false),
                }
                bits
            })
            .collect();
        let views = all_to_all_broadcast(session, payloads)?;

        // Everyone decodes the same candidate set (views are identical;
        // `views[_][i]` is node i's proposal, so the proposing component
        // is `component[i]`). Node 0's view stands for all; a candidate
        // lost or damaged on the wire is reported against it as a typed
        // error, never a panic.
        let v = 0;
        let malformed = |e| RouteError::Malformed(NodeId::from(v), e);
        let mut best_of: Vec<Option<MstEdge>> = vec![None; n];
        for (i, bits) in views[v].iter().enumerate() {
            let mut r = bits.reader();
            if r.read_bit().map_err(malformed)? {
                let a = r.read_uint(idw).map_err(malformed)? as usize;
                let b = r.read_uint(idw).map_err(malformed)? as usize;
                let w = r.read_uint(ww).map_err(malformed)?;
                // Borůvka selects each component's *minimum* outgoing edge
                // (a node's own candidate may be heavier than a fellow
                // member's); the shared total order (w, a, b) breaks ties.
                let c = component[i];
                if best_of[c].is_none_or(|(ba, bb, bw)| (w, a, b) < (bw, ba, bb)) {
                    best_of[c] = Some((a, b, w));
                }
            }
        }
        let mut proposals: Vec<MstEdge> = best_of.into_iter().flatten().collect();
        if proposals.is_empty() {
            return Ok(mst); // no component has an outgoing edge: done
        }
        proposals.sort_by_key(|&(a, b, w)| (w, a, b));
        proposals.dedup();
        let mut merged_any = false;
        for (a, b, w) in proposals {
            let (ca, cb) = (component[a], component[b]);
            if ca == cb {
                continue; // already merged earlier this phase
            }
            mst.push((a, b, w));
            let target = ca.min(cb);
            let from = ca.max(cb);
            for c in component.iter_mut() {
                if *c == from {
                    *c = target;
                }
            }
            merged_any = true;
        }
        if !merged_any {
            return Ok(mst);
        }
    }
}

/// Total weight of a minimum spanning forest via Kruskal (ground truth).
pub fn reference_mst_weight(g: &WeightedGraph) -> u64 {
    let n = g.n();
    let mut edges: Vec<MstEdge> = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if g.has_edge(u, v) {
                edges.push((u, v, g.weight(u, v)));
            }
        }
    }
    edges.sort_by_key(|&(a, b, w)| (w, a, b));
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut Vec<usize>, x: usize) -> usize {
        if p[x] != x {
            let r = find(p, p[x]);
            p[x] = r;
        }
        p[x]
    }
    let mut total = 0;
    for (a, b, w) in edges {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra != rb {
            parent[ra] = rb;
            total += w;
        }
    }
    total
}

/// Check that `edges` forms a spanning forest of `g` (acyclic, edges
/// exist, spans every connected component).
pub fn is_spanning_forest(g: &WeightedGraph, edges: &[MstEdge]) -> bool {
    let n = g.n();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(p: &mut Vec<usize>, x: usize) -> usize {
        if p[x] != x {
            let r = find(p, p[x]);
            p[x] = r;
        }
        p[x]
    }
    for &(a, b, w) in edges {
        if !g.has_edge(a, b) || g.weight(a, b) != w {
            return false;
        }
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        if ra == rb {
            return false; // cycle
        }
        parent[ra] = rb;
    }
    // Spanning: the forest must connect exactly what g connects.
    let skel = g.skeleton();
    let comp = cc_graph::reference::components(&skel);
    for u in 0..n {
        for v in 0..n {
            if comp[u] == comp[v] && find(&mut parent, u) != find(&mut parent, v) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::gen;
    use cliquesim::{Engine, FaultPlan};
    use proptest::prelude::*;

    fn run(g: &WeightedGraph) -> (Vec<MstEdge>, usize) {
        let mut s = Session::new(Engine::new(g.n()).with_bandwidth_multiplier(12));
        let mst = boruvka_mst(&mut s, g).unwrap();
        (mst, s.stats().rounds)
    }

    #[test]
    fn boruvka_reports_a_lost_candidate_instead_of_panicking() {
        // Every message dropped: the decoding node's view of the
        // candidates is empty, so the first candidate flag cannot decode.
        let g = gen::gnp_weighted(6, 0.5, 25, 3);
        let plan = FaultPlan::new(0).drop_messages(1.0);
        let mut s = Session::new(Engine::new(6).with_fault_plan(plan));
        assert!(matches!(
            boruvka_mst(&mut s, &g),
            Err(RouteError::Malformed(_, _))
        ));
    }

    #[test]
    fn mst_on_known_graph() {
        // Square with diagonal: MST = three lightest non-cyclic edges.
        let mut g = WeightedGraph::empty(4);
        g.set_weight(0, 1, 1);
        g.set_weight(1, 2, 2);
        g.set_weight(2, 3, 3);
        g.set_weight(3, 0, 4);
        g.set_weight(0, 2, 5);
        let (mst, _) = run(&g);
        let total: u64 = mst.iter().map(|e| e.2).sum();
        assert_eq!(total, 1 + 2 + 3);
        assert_eq!(mst.len(), 3);
        assert!(is_spanning_forest(&g, &mst));
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..6 {
            let g = gen::gnp_weighted(24, 0.3, 100, seed);
            let (mst, _) = run(&g);
            assert!(is_spanning_forest(&g, &mst), "seed {seed}");
            let total: u64 = mst.iter().map(|e| e.2).sum();
            assert_eq!(total, reference_mst_weight(&g), "seed {seed}");
        }
    }

    #[test]
    fn forest_on_disconnected_graphs() {
        let g = WeightedGraph::from_graph(&gen::cliques(12, 3));
        let (mst, _) = run(&g);
        assert_eq!(mst.len(), 12 - 3, "forest has n - #components edges");
        assert!(is_spanning_forest(&g, &mst));
    }

    #[test]
    fn empty_graph_has_empty_forest() {
        let g = WeightedGraph::empty(6);
        let (mst, rounds) = run(&g);
        assert!(mst.is_empty());
        assert!(rounds > 0, "one candidate round still happens");
    }

    #[test]
    fn dense_graphs_with_heavy_ties() {
        // Regression: a node's own candidate can be heavier than a fellow
        // component member's — only each component's minimum may merge.
        // Dense graphs with small weight ranges exercise exactly that.
        for seed in 0..4 {
            let g = gen::gnp_weighted(40, 0.6, 5, seed);
            let (mst, _) = run(&g);
            assert!(is_spanning_forest(&g, &mst), "seed {seed}");
            let total: u64 = mst.iter().map(|e| e.2).sum();
            assert_eq!(total, reference_mst_weight(&g), "seed {seed}");
        }
    }

    #[test]
    fn phase_count_is_logarithmic() {
        // A path forces the worst merge pattern; phases ≤ ⌈log₂ n⌉ + 1.
        let n = 64;
        let mut g = WeightedGraph::empty(n);
        for v in 1..n {
            g.set_weight(v - 1, v, v as u64);
        }
        let mut s = Session::new(Engine::new(n).with_bandwidth_multiplier(12));
        boruvka_mst(&mut s, &g).unwrap();
        let phases = s.phases();
        assert!(
            phases <= (n as f64).log2().ceil() as usize + 1,
            "phases = {phases}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_mst_weight_matches_kruskal(seed in any::<u64>(), n in 4usize..20) {
            let g = gen::gnp_weighted(n, 0.4, 50, seed);
            let (mst, _) = run(&g);
            prop_assert!(is_spanning_forest(&g, &mst));
            let total: u64 = mst.iter().map(|e| e.2).sum();
            prop_assert_eq!(total, reference_mst_weight(&g));
        }
    }
}
