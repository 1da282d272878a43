//! Routed-payload oracles: conformance obligations for `cc-routing`'s
//! fault-aware planning layer.
//!
//! A [`RouteFaultCase`] is a seed-addressed pair of (deterministic demand
//! set, seeded crash plan), printed as `route-fault[n=…, f=…, seed=…]` —
//! the same replayable-label discipline as `plan[…]` and `family[…]`
//! labels: every judge panic starts with the case label, and rebuilding
//! the case from `(n, f, seed)` reproduces the failure bit for bit on any
//! host.
//!
//! Three obligations are enforced:
//!
//! * **delivery to survivors** — [`judge_routed_delivery`] checks that a
//!   [`RoutedOutcome`] delivers *every* demand between surviving endpoints
//!   (exactly once, in per-source order), reports *every* dead-endpoint
//!   demand as a structured [`cc_routing::Undeliverable`] record with the
//!   right reason, and leaves `None` slots exactly for crashed nodes;
//! * **pool-shape independence** — [`differential_route_faulted`] and
//!   [`differential_route_balanced_faulted`] replay the same case under
//!   every pool shape in [`POOL_SHAPES`], asserting identical deliveries,
//!   undeliverable records, [`RunStats`], and fault reports;
//! * **transparency** — [`assert_empty_crash_transparent`] proves an empty
//!   crash set byte-identical to the unfaulted schedule (outputs *and*
//!   wire cost) across pool shapes, for both the direct and the balanced
//!   scheduler.

use std::fmt;

use cc_routing::{
    route, route_balanced, route_balanced_faulted, route_faulted, CrashSet, Delivered,
    DeliveryFailure, RoutedOutcome,
};
use cliquesim::{BitString, Engine, FaultPlan, NodeId, RunStats, Session};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::differential::POOL_SHAPES;

/// One demand list per node: the input shape of `cc_routing::route`.
pub type Demands = Vec<Vec<(NodeId, BitString)>>;

/// A seed-addressed crash-routing conformance case: `n` nodes, a
/// ChaCha-derived demand set, and a [`FaultPlan`] crashing `f` seeded
/// victims. Prints as `route-fault[n=…, f=…, seed=…]`.
#[derive(Clone, Copy, Debug)]
pub struct RouteFaultCase {
    /// Clique size.
    pub n: usize,
    /// Number of crash victims the plan schedules.
    pub f: usize,
    /// Seed driving both the demand generator and the crash plan.
    pub seed: u64,
}

impl RouteFaultCase {
    /// Build a case; `f` victims must leave at least two survivors.
    pub fn new(n: usize, f: usize, seed: u64) -> Self {
        assert!(n >= f + 2, "need at least two survivors (n={n}, f={f})");
        Self { n, f, seed }
    }

    /// The case's crash plan: `f` seeded victims, each dying within the
    /// first few rounds.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed).with_random_crashes(self.n, self.f, 3, &[])
    }

    /// The crash set the plan implies (what a fault-aware router consumes).
    pub fn crash_set(&self) -> CrashSet {
        CrashSet::from_plan(&self.plan())
    }

    /// The case's deterministic demand set: every node sends 0–3 payloads
    /// of 0–40 bits to seeded destinations (dead endpoints included — the
    /// router must *report* those, not require the caller to pre-filter).
    pub fn demands(&self) -> Demands {
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed ^ 0x7075_7465_u64);
        let n = self.n;
        let mut demands: Demands = vec![Vec::new(); n];
        for (v, list) in demands.iter_mut().enumerate() {
            for _ in 0..rng.gen_range(0..4) {
                let dst = (v + rng.gen_range(1..n)) % n;
                let len = rng.gen_range(0..40);
                let payload: BitString = (0..len).map(|_| rng.gen_bool(0.5)).collect();
                list.push((NodeId::from(dst), payload));
            }
        }
        demands
    }
}

impl fmt::Display for RouteFaultCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route-fault[n={}, f={}, seed={}]",
            self.n, self.f, self.seed
        )
    }
}

/// Judge a [`RoutedOutcome`] against the demand set and crash set that
/// produced it (see module docs for the three checks). `label` prefixes
/// every panic message.
pub fn judge_routed_delivery(
    label: &str,
    demands: &Demands,
    crash: &CrashSet,
    out: &RoutedOutcome,
) {
    let n = demands.len();
    assert_eq!(out.delivered.len(), n, "{label}: wrong delivery arity");

    // Slot shape: None exactly for crashed nodes.
    for v in 0..n {
        let dead = crash.is_dead(NodeId::from(v));
        assert_eq!(
            out.delivered[v].is_none(),
            dead,
            "{label}: node {v} delivery slot disagrees with the crash set"
        );
    }

    // Expected survivor traffic, keyed (dst, src) with per-source order;
    // expected undeliverable records in demand order.
    let mut expect_delivered: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); n];
    let mut expect_undeliverable = Vec::new();
    for (v, list) in demands.iter().enumerate() {
        let source = NodeId::from(v);
        for (dst, payload) in list {
            if crash.is_dead(source) {
                expect_undeliverable.push((source, *dst, payload, DeliveryFailure::SourceCrashed));
            } else if crash.is_dead(*dst) {
                expect_undeliverable.push((
                    source,
                    *dst,
                    payload,
                    DeliveryFailure::DestinationCrashed,
                ));
            } else {
                expect_delivered[dst.index()].push((source, payload.clone()));
            }
        }
    }

    // Survivor deliveries: compare as per-source ordered multisets (the
    // scheduler may interleave sources, but per-source order is promised).
    let key = |l: &[(NodeId, BitString)]| {
        let mut m: Vec<(usize, Vec<BitString>)> = Vec::new();
        for (src, p) in l {
            match m.iter_mut().find(|(s, _)| *s == src.index()) {
                Some((_, ps)) => ps.push(p.clone()),
                None => m.push((src.index(), vec![p.clone()])),
            }
        }
        m.sort_by_key(|(s, _)| *s);
        m
    };
    for (v, slot) in out.delivered.iter().enumerate() {
        let Some(delivered) = slot else { continue };
        assert_eq!(
            key(delivered),
            key(&expect_delivered[v]),
            "{label}: node {v} survivor traffic mismatch"
        );
    }

    // Undeliverable records: exactly the dead-endpoint demands.
    assert_eq!(
        out.undeliverable.len(),
        expect_undeliverable.len(),
        "{label}: wrong number of undeliverable records"
    );
    for u in &out.undeliverable {
        let hit = expect_undeliverable.iter().position(|(s, d, p, r)| {
            *s == u.source && *d == u.destination && **p == u.payload && *r == u.reason
        });
        assert!(
            hit.is_some(),
            "{label}: unexpected undeliverable record {:?}→{:?} ({:?})",
            u.source,
            u.destination,
            u.reason
        );
    }
}

/// What a routing differential compares: the routed outcome plus the
/// session-level [`RunStats`] (rounds, bits, fault counters).
pub type RoutedRun = (RoutedOutcome, RunStats);

fn differential_routed<F>(label: &str, base: &Engine, plan: &FaultPlan, run: F) -> RoutedRun
where
    F: Fn(&mut Session) -> RoutedOutcome,
{
    let tag = format!("{label} under {plan}");
    let mut reference: Option<RoutedRun> = None;
    for &threads in POOL_SHAPES.iter() {
        let engine = base
            .clone()
            .with_threads_exact(threads)
            .with_fault_plan(plan.clone());
        let mut session = Session::new(engine);
        let out = run(&mut session);
        let stats = session.stats().clone();
        match &reference {
            None => reference = Some((out, stats)),
            Some((out0, stats0)) => {
                assert!(
                    out0.delivered == out.delivered,
                    "{tag}: deliveries diverge at threads={threads}"
                );
                assert!(
                    out0.undeliverable == out.undeliverable,
                    "{tag}: undeliverable records diverge at threads={threads}"
                );
                assert!(
                    out0.report == out.report,
                    "{tag}: fault reports diverge at threads={threads}"
                );
                assert!(
                    *stats0 == stats,
                    "{tag}: RunStats diverge at threads={threads}: {stats:?} vs {stats0:?}"
                );
            }
        }
    }
    reference.expect("POOL_SHAPES is non-empty")
}

/// Run `route_faulted` on a case's demands under its crash plan on every
/// pool shape, asserting identical deliveries, undeliverable records,
/// fault reports, and stats. Returns the reference run for judging.
pub fn differential_route_faulted(label: &str, base: &Engine, case: &RouteFaultCase) -> RoutedRun {
    let plan = case.plan();
    let crash = case.crash_set();
    differential_routed(label, base, &plan, |session| {
        route_faulted(session, case.demands(), &crash)
            .unwrap_or_else(|e| panic!("{label} under {plan}: route_faulted failed: {e}"))
    })
}

/// The balanced-scheduler twin of [`differential_route_faulted`].
pub fn differential_route_balanced_faulted(
    label: &str,
    base: &Engine,
    case: &RouteFaultCase,
) -> RoutedRun {
    let plan = case.plan();
    let crash = case.crash_set();
    differential_routed(label, base, &plan, |session| {
        route_balanced_faulted(session, case.demands(), &crash)
            .unwrap_or_else(|e| panic!("{label} under {plan}: route_balanced_faulted failed: {e}"))
    })
}

/// Assert the planning layer's transparency guarantee, mirroring
/// `assert_empty_adversary_transparent`: with an empty crash set (and an
/// empty fault plan), `route_faulted` must be byte-identical to `route`, and
/// `route_balanced_faulted` to `route_balanced` — same deliveries, same
/// rounds, same bits — on every pool shape.
pub fn assert_empty_crash_transparent<M>(label: &str, base: &Engine, mut make_demands: M)
where
    M: FnMut() -> Demands,
{
    let empty_plan = FaultPlan::new(0);
    let none = CrashSet::new();
    for &threads in POOL_SHAPES.iter() {
        let bare = || Session::new(base.clone().with_threads_exact(threads));
        let planned = || {
            Session::new(
                base.clone()
                    .with_threads_exact(threads)
                    .with_fault_plan(empty_plan.clone()),
            )
        };

        // Direct scheduler.
        let mut s1 = bare();
        let plain = route(&mut s1, make_demands())
            .unwrap_or_else(|e| panic!("{label}: route failed at threads={threads}: {e}"));
        let mut s2 = planned();
        let faulted = route_faulted(&mut s2, make_demands(), &none)
            .unwrap_or_else(|e| panic!("{label}: route_faulted failed at threads={threads}: {e}"));
        assert!(
            faulted.undeliverable.is_empty() && faulted.report.is_empty(),
            "{label}: empty crash set produced fault artefacts at threads={threads}"
        );
        let unwrapped: Vec<Delivered> = faulted
            .delivered
            .into_iter()
            .map(|d| d.expect("no node is dead"))
            .collect();
        assert!(
            plain == unwrapped,
            "{label}: empty crash set changed route deliveries at threads={threads}"
        );
        assert!(
            s1.stats() == s2.stats(),
            "{label}: empty crash set changed route wire cost at threads={threads}: {:?} vs {:?}",
            s2.stats(),
            s1.stats()
        );

        // Balanced scheduler.
        let mut s3 = bare();
        let plain = route_balanced(&mut s3, make_demands())
            .unwrap_or_else(|e| panic!("{label}: route_balanced failed at threads={threads}: {e}"));
        let mut s4 = planned();
        let faulted = route_balanced_faulted(&mut s4, make_demands(), &none).unwrap_or_else(|e| {
            panic!("{label}: route_balanced_faulted failed at threads={threads}: {e}")
        });
        assert!(
            faulted.undeliverable.is_empty() && faulted.report.is_empty(),
            "{label}: empty crash set produced balanced fault artefacts at threads={threads}"
        );
        let unwrapped: Vec<Delivered> = faulted
            .delivered
            .into_iter()
            .map(|d| d.expect("no node is dead"))
            .collect();
        assert!(
            plain == unwrapped,
            "{label}: empty crash set changed balanced deliveries at threads={threads}"
        );
        assert!(
            s3.stats() == s4.stats(),
            "{label}: empty crash set changed balanced wire cost at threads={threads}: {:?} vs {:?}",
            s4.stats(),
            s3.stats()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_labels_are_replayable() {
        let case = RouteFaultCase::new(9, 2, 7);
        assert_eq!(case.to_string(), "route-fault[n=9, f=2, seed=7]");
        assert_eq!(case.demands(), RouteFaultCase::new(9, 2, 7).demands());
        assert_eq!(case.plan(), RouteFaultCase::new(9, 2, 7).plan());
        assert_eq!(case.crash_set().len(), 2);
    }

    #[test]
    fn judge_accepts_a_conforming_run() {
        let case = RouteFaultCase::new(9, 2, 3);
        let (out, _) = differential_route_faulted("routing", &Engine::new(9), &case);
        judge_routed_delivery(&case.to_string(), &case.demands(), &case.crash_set(), &out);
    }

    #[test]
    fn transparency_holds_for_a_seeded_demand_set() {
        let case = RouteFaultCase::new(7, 0, 5);
        assert_empty_crash_transparent("routing", &Engine::new(7), || case.demands());
    }
}
