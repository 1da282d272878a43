//! Differential execution across engine pool shapes, delivery backends,
//! topologies, and adversaries.
//!
//! The engine promises bit-identical results whether or not its worker
//! pool engages and whichever delivery backend it picks; this module
//! turns that into a standing obligation for every *real* protocol. A
//! differential run executes the same protocol once per `(backend, pool
//! shape)` pair — backends from [`BACKENDS`] (dense matrix, sparse edge
//! list, and the auto heuristic), pool shapes from [`POOL_SHAPES`]
//! (sequential, an even 4-worker split, and a 7-worker pool that divides
//! nothing evenly) — and asserts outputs, accumulated [`RunStats`], and —
//! for raw program runs — full transcripts and both adversary event logs
//! are identical. Every adversary is a pure function of `(seed, round,
//! from, to)`, so a run under a fault plan, churn, traitors, or a keyring
//! is held to the same contract. Any divergence is a
//! scheduler-nondeterminism or backend-semantics bug, and the panic names
//! the protocol label, the backend (`label@sparse`), the adversaries'
//! labels (e.g. `plan[seed=7, crashes=1, drop=0.25]`), and the offending
//! thread count, so the exact failing cell is replayable.

use cliquesim::{
    ByzantinePlan, DeliveryArena, DeliveryMode, Engine, FaultPlan, NodeProgram, Outcome, RunStats,
    Session,
};
use std::fmt::Debug;

/// Pool shapes every differential run covers: sequential, an even split,
/// and a worker count that divides typical `n` unevenly. `with_threads_exact`
/// keeps the pooled path live even on single-core CI hosts.
pub const POOL_SHAPES: [usize; 3] = [1, 4, 7];

/// Delivery backends every differential run covers. `Dense` first, so the
/// reference run each grid compares against is the long-standing dense
/// sequential path; `Auto` last proves the heuristic picks *some* backend
/// that agrees with both forced ones.
pub const BACKENDS: [DeliveryMode; 3] = [
    DeliveryMode::Dense,
    DeliveryMode::Sparse,
    DeliveryMode::Auto,
];

/// Run a session-level protocol under every pool shape on a plain clique
/// engine and assert identical outputs and stats. Returns the output of
/// the sequential run.
pub fn differential_session<T, F>(label: &str, n: usize, protocol: F) -> T
where
    T: PartialEq + Debug,
    F: FnMut(&mut Session) -> T,
{
    differential_engines(label, &Engine::new(n), protocol)
}

/// Like [`differential_session`], but over an arbitrary pre-configured
/// base engine (topology, bandwidth, broadcast restriction, …). The base
/// engine's own thread setting is overridden by each pool shape.
pub fn differential_engines<T, F>(label: &str, base: &Engine, mut protocol: F) -> T
where
    T: PartialEq + Debug,
    F: FnMut(&mut Session) -> T,
{
    let mut reference: Option<(T, RunStats, usize)> = None;
    for &mode in BACKENDS.iter() {
        for &threads in POOL_SHAPES.iter() {
            let tag = format!("{label}@{}", mode.tag());
            let mut session =
                Session::new(base.clone().with_threads_exact(threads).with_delivery(mode));
            let out = protocol(&mut session);
            let stats = session.stats();
            let phases = session.phases();
            match &reference {
                None => reference = Some((out, stats, phases)),
                Some((out0, stats0, phases0)) => {
                    assert!(
                        *out0 == out,
                        "{tag}: output diverges at threads={threads}: {out:?} vs {out0:?}"
                    );
                    assert!(
                        *stats0 == stats,
                        "{tag}: RunStats diverge at threads={threads}: {stats:?} vs {stats0:?}"
                    );
                    assert!(
                        *phases0 == phases,
                        "{tag}: phase count diverges at threads={threads}"
                    );
                }
            }
        }
    }
    reference.expect("BACKENDS and POOL_SHAPES are non-empty").0
}

/// Run a broadcast-capable protocol differentially in the unrestricted
/// clique *and* the broadcast-only model (paper §2), asserting the two
/// models agree with each other and across pool shapes. Returns the
/// clique-model output.
pub fn differential_broadcast_only<T, F>(label: &str, n: usize, mut protocol: F) -> T
where
    T: PartialEq + Debug,
    F: FnMut(&mut Session) -> T,
{
    let clique = differential_engines(&format!("{label}/clique"), &Engine::new(n), &mut protocol);
    let bcast = differential_engines(
        &format!("{label}/broadcast-only"),
        &Engine::new(n).broadcast_only(true),
        &mut protocol,
    );
    assert!(
        clique == bcast,
        "{label}: broadcast-only model diverges from clique: {bcast:?} vs {clique:?}"
    );
    clique
}

/// The replayable label of one grid cell: the protocol label, the
/// backend, and every adversary `engine` carries, e.g.
/// `gossip@sparse under plan[seed=7, crashes=1] under byz[seed=3, traitors=2] auth[n=15, seed=3]`.
fn cell_tag(label: &str, engine: &Engine, mode: DeliveryMode) -> String {
    let mut tag = format!("{label}@{}", mode.tag());
    if let Some(plan) = engine.fault_plan() {
        tag += &format!(" under {plan}");
    }
    if let Some(plan) = engine.byzantine_plan() {
        tag += &format!(" under {plan}");
    }
    if let Some(keyring) = engine.auth_keyring() {
        tag += &format!(" {keyring}");
    }
    tag
}

/// Run raw node programs on every `(backend, pool shape)` cell with
/// transcript recording forced on, under whatever adversaries `base`
/// carries (fault plan, churn, Byzantine plan, keyring), asserting
/// byte-identical outputs (`None` for crashed nodes), stats, transcripts,
/// fault reports, and Byzantine reports. Returns the reference run (dense,
/// sequential) for further auditing; call [`Outcome::complete`] on it
/// when no node may crash.
///
/// Every panic names the cell: protocol label, backend, adversary labels
/// (see the plans' `Display`), and thread count. The factory is called
/// once per cell and must produce identical programs each time
/// (deterministic construction is the caller's responsibility — pass a
/// fixed seed in).
pub fn differential<P, M>(
    label: &str,
    base: &Engine,
    mut make_programs: M,
) -> Outcome<Option<P::Output>>
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let mut reference: Option<Outcome<Option<P::Output>>> = None;
    for &mode in BACKENDS.iter() {
        let tag = cell_tag(label, base, mode);
        for &threads in POOL_SHAPES.iter() {
            let engine = base
                .clone()
                .with_transcripts(true)
                .with_threads_exact(threads)
                .with_delivery(mode);
            let out = engine
                .run_in(make_programs(), &mut DeliveryArena::new())
                .unwrap_or_else(|e| panic!("{tag}: engine error at threads={threads}: {e}"));
            assert!(
                out.transcripts.is_some(),
                "{tag}: transcripts were requested"
            );
            let Some(out0) = &reference else {
                reference = Some(out);
                continue;
            };
            assert!(
                out0.outputs == out.outputs,
                "{tag}: outputs diverge at threads={threads}"
            );
            assert!(
                out0.stats == out.stats,
                "{tag}: RunStats diverge at threads={threads}: {:?} vs {:?}",
                out.stats,
                out0.stats
            );
            assert!(
                out0.byzantine == out.byzantine,
                "{tag}: Byzantine reports diverge at threads={threads}: {:?} vs {:?}",
                out.byzantine,
                out0.byzantine
            );
            assert!(
                out0.faults == out.faults,
                "{tag}: fault reports diverge at threads={threads}: {:?} vs {:?}",
                out.faults,
                out0.faults
            );
            assert!(
                out0.transcripts == out.transcripts,
                "{tag}: transcripts diverge at threads={threads}"
            );
        }
    }
    reference.expect("BACKENDS and POOL_SHAPES are non-empty")
}

/// Assert the engine's transparency guarantee: attaching *empty*
/// adversaries changes nothing. On every pool shape, runs the programs
/// once bare, once under `FaultPlan::new(0)` and once under
/// `ByzantinePlan::new(0)` (every probability zero, no crashes, no
/// traitors), and requires byte-identical outputs, stats, and transcripts
/// — plus empty fault and Byzantine reports.
pub fn assert_empty_adversary_transparent<P, M>(label: &str, base: &Engine, mut make_programs: M)
where
    P: NodeProgram,
    P::Output: PartialEq + Debug,
    M: FnMut() -> Vec<P>,
{
    let (plan, byz) = (FaultPlan::new(0), ByzantinePlan::new(0));
    assert!(plan.is_empty(), "FaultPlan::new must start empty");
    assert!(byz.is_empty(), "ByzantinePlan::new must start empty");
    let adversaries = [
        ("empty plan", base.clone().with_fault_plan(plan)),
        (
            "empty Byzantine plan",
            base.clone().with_byzantine_plan(byz),
        ),
    ];
    let run = |engine: &Engine, threads: usize, programs: Vec<P>| {
        engine
            .clone()
            .with_transcripts(true)
            .with_threads_exact(threads)
            .run_in(programs, &mut DeliveryArena::new())
    };
    for &threads in POOL_SHAPES.iter() {
        let bare = run(base, threads, make_programs())
            .unwrap_or_else(|e| panic!("{label}: bare engine error at threads={threads}: {e}"));
        for (which, engine) in &adversaries {
            let planned = run(engine, threads, make_programs()).unwrap_or_else(|e| {
                panic!("{label}: {which} engine error at threads={threads}: {e}")
            });
            assert!(
                planned.faults.is_empty(),
                "{label}: {which} produced fault events at threads={threads}"
            );
            assert!(
                planned.byzantine.is_empty(),
                "{label}: {which} produced rewrite events at threads={threads}"
            );
            assert!(
                bare.outputs == planned.outputs,
                "{label}: {which} changed outputs at threads={threads}"
            );
            assert!(
                bare.stats == planned.stats,
                "{label}: {which} changed RunStats at threads={threads}: {:?} vs {:?}",
                planned.stats,
                bare.stats
            );
            assert!(
                bare.transcripts == planned.transcripts,
                "{label}: {which} changed transcripts at threads={threads}"
            );
        }
    }
}

/// Adjacency matrix of the n-cycle, for CONGEST-ring differentials via
/// `Engine::with_topology`.
pub fn ring_topology(n: usize) -> Vec<bool> {
    let mut adj = vec![false; n * n];
    for v in 0..n {
        let w = (v + 1) % n;
        if v != w {
            adj[v * n + w] = true;
            adj[w * n + v] = true;
        }
    }
    adj
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cliquesim::{BitString, Inbox, NodeCtx, NodeId, Outbox, Status};

    /// One broadcast round: every node learns the minimum id.
    #[derive(Clone)]
    struct MinId(u64);

    impl NodeProgram for MinId {
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<u64> {
            if round == 0 {
                let mut m = BitString::new();
                m.push_uint(ctx.id.0 as u64, ctx.id_width());
                outbox.broadcast(&m);
                self.0 = ctx.id.0 as u64;
                Status::Continue
            } else {
                for (_, msg) in inbox.iter() {
                    self.0 = self.0.min(msg.reader().read_uint(ctx.id_width()).unwrap());
                }
                Status::Halt(self.0)
            }
        }
    }

    /// Ring token passing: node 0 sends a token around the cycle once;
    /// each node outputs whether it ever saw the token.
    #[derive(Clone, Default)]
    struct RingHop {
        seen: bool,
    }

    impl NodeProgram for RingHop {
        type Output = bool;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<bool> {
            let (me, n) = (ctx.id.index(), ctx.n);
            if !inbox.from(NodeId::from((me + n - 1) % n)).is_empty() {
                self.seen = true;
                let next = (me + 1) % n;
                if next != 0 {
                    outbox.send(NodeId::from(next), BitString::from_bits([true]));
                }
            }
            if round == 0 && me == 0 && n > 1 {
                outbox.send(NodeId::from(1 % n), BitString::from_bits([true]));
            }
            if round >= n - 1 {
                return Status::Halt(me == 0 || self.seen);
            }
            Status::Continue
        }
    }

    /// Three rounds of id gossip: every node tracks the multiset of ids it
    /// has heard (order-sensitive enough to notice any nondeterminism).
    /// Programs read the payload prefix and ignore any trailing tag, so the
    /// fixture works with and without a keyring.
    #[derive(Clone)]
    pub(crate) struct Gossip {
        heard: Vec<u64>,
    }

    impl NodeProgram for Gossip {
        type Output = Vec<u64>;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<Vec<u64>> {
            for (u, m) in inbox.iter() {
                if let Ok(v) = m.reader().read_uint(ctx.id_width()) {
                    self.heard.push(u.0 as u64 * 1000 + v);
                }
            }
            if round < 3 {
                let mut m = BitString::new();
                m.push_uint(ctx.id.0 as u64, ctx.id_width());
                outbox.broadcast(&m);
                return Status::Continue;
            }
            Status::Halt(self.heard.clone())
        }
    }

    pub(crate) fn gossip(n: usize) -> Vec<Gossip> {
        (0..n).map(|_| Gossip { heard: Vec::new() }).collect()
    }

    #[test]
    fn program_differential_is_stable_across_shapes() {
        // n = 15 ≥ 2·7, so the 7-worker pooled path really engages.
        let n = 15;
        let out = differential("minid", &Engine::new(n), || vec![MinId(0); n])
            .complete()
            .unwrap();
        assert_eq!(out.outputs, vec![0; n]);
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.transcripts.unwrap().len(), n);
    }

    #[test]
    fn ring_topology_runs_under_congest_restriction() {
        let n = 6;
        let engine = Engine::new(n).with_topology(ring_topology(n));
        let out = differential("ringhop", &engine, || vec![RingHop::default(); n]);
        assert!(out.outputs.iter().all(|&ok| ok == Some(true)));
    }

    #[test]
    fn faulted_differential_is_stable_across_shapes() {
        // n = 15 ≥ 2·7, so the 7-worker pooled path really engages.
        let n = 15;
        let plan = FaultPlan::new(42)
            .crash(NodeId(3), 2)
            .drop_messages(0.2)
            .corrupt_messages(0.1)
            .truncate_messages(0.05);
        let out = differential("gossip", &Engine::new(n).with_fault_plan(plan), || {
            gossip(n)
        });
        assert!(out.outputs[3].is_none(), "crashed node has no output");
        assert_eq!(out.stats.dead_nodes, 1);
        assert!(
            out.stats.dropped_messages > 0,
            "seed 42 must drop something"
        );
        assert!(!out.faults.is_empty());
        assert_eq!(out.transcripts.unwrap().len(), n);
    }

    #[test]
    fn empty_adversaries_are_transparent_for_gossip() {
        let n = 10;
        assert_empty_adversary_transparent("gossip", &Engine::new(n), || gossip(n));
    }

    #[test]
    #[should_panic(expected = "TopologyViolated")]
    fn ring_topology_rejects_chords() {
        // A broadcast from any node crosses non-ring links and must be
        // rejected by the engine, proving the helper restricts topology.
        let n = 6;
        let engine = Engine::new(n).with_topology(ring_topology(n));
        engine
            .run((0..n).map(|_| MinId(0)).collect())
            .map(|_| ())
            .unwrap();
    }

    #[test]
    fn session_differential_composes_phases() {
        let g = crate::instances::Instance::new(crate::instances::Family::ErMedium, 14, 5).graph();
        let out = differential_session("two-phase", 14, |s| {
            let a = cc_graph_bfs(s, &g, 0);
            let b = cc_graph_bfs(s, &g, 1);
            (a, b)
        });
        assert_eq!(out.0.len(), 14);
    }

    /// Minimal BFS flood (testkit-local, so this module's self-test does
    /// not depend on `cc-paths`): distances from `src` by 1-bit waves.
    fn cc_graph_bfs(s: &mut Session, g: &cc_graph::Graph, src: usize) -> Vec<u64> {
        #[derive(Clone)]
        struct Flood {
            row: BitString,
            src: usize,
            dist: Option<u64>,
            frontier: bool,
        }
        impl NodeProgram for Flood {
            type Output = u64;
            fn step(
                &mut self,
                ctx: &NodeCtx,
                round: usize,
                inbox: &Inbox<'_>,
                outbox: &mut Outbox<'_>,
            ) -> Status<u64> {
                let me = ctx.id.index();
                if round == 0 {
                    if me == self.src {
                        self.dist = Some(0);
                        self.frontier = true;
                    }
                } else {
                    let mut newly = false;
                    for (u, _) in inbox.iter() {
                        let slot = if u.index() < me {
                            u.index()
                        } else {
                            u.index() - 1
                        };
                        if self.row.get(slot) && self.dist.is_none() {
                            self.dist = Some(round as u64);
                            newly = true;
                        }
                    }
                    self.frontier = newly;
                }
                if round >= ctx.n {
                    return Status::Halt(self.dist.unwrap_or(u64::MAX));
                }
                if self.frontier {
                    outbox.broadcast(&BitString::from_bits([true]));
                }
                Status::Continue
            }
        }
        let n = g.n();
        let programs = (0..n)
            .map(|v| Flood {
                row: g.input_row(NodeId::from(v)),
                src,
                dist: None,
                frontier: false,
            })
            .collect();
        s.run(programs).unwrap().outputs
    }
}
