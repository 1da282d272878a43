//! `wire-null`: benchmark-owned null node programs, no algorithm compute.
//!
//! Three phases per iteration, each a `Session::run_byzantine` call on an
//! engine with `nproc` threads:
//! - `unicast-bare`: every node sends a distinct one-word message to every
//!   other node for 8 rounds, dense backend;
//! - `unicast-adversarial`: the same programs under an `AuthKeyring`, a
//!   `ByzantinePlan` (garble, forge, replay, silence) and a `FaultPlan`
//!   (drop, corrupt, random churn): the only phase where the five wire
//!   stages (rewrite → sign → forge → link faults → verify) do work;
//! - `broadcast-bare`: broadcast-only clique on the sparse backend.

use std::time::Instant;

use cliquesim::{
    AuthKeyring, ByzantinePlan, ByzantineReport, DeliveryArena, DeliveryMode, Engine, FaultPlan,
    FaultReport, RunStats, Session, SimError,
};

use crate::programs::{probe_for, NullBroadcast, NullUnicast, ProbeTotals};
use crate::trace::{self, Span};
use crate::{
    count_probe, count_stats, median, nproc, overhead_pairs, ratio, record_common_layers, run_for,
    secs_since, setup_median, AllocMark, Args, Checked, E2e, Report,
};

const ROUNDS: usize = 8;
const UNICAST_N: usize = 512;
const BROADCAST_N: usize = 2048;
const TINY: (usize, usize) = (24, 48);
const ROOT: &str = "wire-null/iter";

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Unicast,
    Broadcast,
}

struct Phase {
    name: &'static str,
    span: &'static str,
    kind: Kind,
    engine: Engine,
}

/// Everything a run produced except wall-clock.
#[derive(Debug, PartialEq)]
struct PhaseOut {
    outputs: Vec<Option<u64>>,
    stats: RunStats,
    faults: FaultReport,
    byzantine: ByzantineReport,
}

/// Host-side extras of a traced phase run.
struct PhaseTrace {
    probe: ProbeTotals,
    footprint: usize,
}

fn run_phase<const TRACE: bool>(
    kind: Kind,
    engine: &Engine,
    arena: &mut DeliveryArena,
    parent: &Span,
) -> Result<(PhaseOut, PhaseTrace), SimError> {
    let n = engine.n();
    let probe = probe_for::<TRACE>(n);
    let mut session = Session::with_arena(engine.clone(), std::mem::take(arena));
    let mut call = parent.child("cliquesim::Session::run_byzantine");
    let out = match kind {
        Kind::Unicast => session.run_byzantine(NullUnicast::<TRACE>::programs(n, ROUNDS, &probe)),
        Kind::Broadcast => {
            session.run_byzantine(NullBroadcast::<TRACE>::programs(n, ROUNDS, &probe))
        }
    };
    if let Ok(o) = &out {
        call.count("engine_ns", o.stats.timing.total_ns());
    }
    call.end();
    let footprint = session.delivery_footprint();
    *arena = session.into_arena();
    let o = out?;
    let extras = PhaseTrace {
        probe: probe.totals(),
        footprint,
    };
    Ok((
        PhaseOut {
            outputs: o.outputs,
            stats: o.stats,
            faults: o.faults,
            byzantine: o.byzantine,
        },
        extras,
    ))
}

/// The adversary of the `unicast-adversarial` phase, one stage at a time:
/// `stages` of byzantine, auth, link faults, churn (in that order).
fn adversarial(bare: &Engine, seed: u64, stages: usize) -> Engine {
    let n = bare.n();
    let mut e = bare.clone();
    if stages >= 1 {
        let plan = ByzantinePlan::new(seed ^ 0xB12)
            .with_random_traitors(n, n / 8, &[])
            .garble(0.02)
            .forge(0.02)
            .replay(0.02)
            .silence(0.02);
        e = e.with_byzantine_plan(plan);
    }
    if stages >= 2 {
        e = e.with_auth(AuthKeyring::from_seed(n, seed ^ 0xA17));
    }
    if stages >= 3 {
        let mut plan = FaultPlan::new(seed ^ 0xFA1)
            .drop_messages(0.01)
            .corrupt_messages(0.01);
        if stages >= 4 {
            plan = plan.with_random_churn(n, 20, 300, ROUNDS, &[]);
        }
        e = e.with_fault_plan(plan);
    }
    e
}

fn phases(tiny: bool, seed: u64) -> Vec<Phase> {
    let (nu, nb) = if tiny { TINY } else { (UNICAST_N, BROADCAST_N) };
    let bare = Engine::new(nu)
        .with_threads(nproc())
        .with_delivery(DeliveryMode::Dense);
    vec![
        Phase {
            name: "unicast-bare",
            span: "wire-null/unicast-bare",
            kind: Kind::Unicast,
            engine: bare.clone(),
        },
        Phase {
            name: "unicast-adversarial",
            span: "wire-null/unicast-adversarial",
            kind: Kind::Unicast,
            engine: adversarial(&bare, seed, 4),
        },
        Phase {
            name: "broadcast-bare",
            span: "wire-null/broadcast-bare",
            kind: Kind::Broadcast,
            engine: Engine::new(nb)
                .with_threads(nproc())
                .broadcast_only(true)
                .with_delivery(DeliveryMode::Sparse),
        },
    ]
}

/// Run every phase once; per phase `(output, host extras, wall seconds)`.
type IterOut = Vec<Result<(PhaseOut, PhaseTrace, f64), SimError>>;

fn iteration<const TRACE: bool>(
    phases: &[Phase],
    engines: &[Engine],
    arenas: &mut [DeliveryArena],
    root: &Span,
) -> IterOut {
    phases
        .iter()
        .zip(engines)
        .zip(arenas.iter_mut())
        .map(|((p, e), arena)| {
            let span = root.child(p.span);
            let t = Instant::now();
            let r = run_phase::<TRACE>(p.kind, e, arena, &span);
            let wall = secs_since(t);
            span.end();
            r.map(|(o, x)| (o, x, wall))
        })
        .collect()
}

fn check(out: &IterOut, reference: &[PhaseOut]) -> Checked {
    let wall = out.iter().flatten().map(|r| r.2).sum();
    let failed = out
        .iter()
        .zip(reference)
        .filter(|(o, r)| !matches!(o, Ok((o, _, _)) if o == *r))
        .count() as u64;
    Checked {
        wall,
        attempted: out.len() as u64,
        failed,
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::new(args);
    let ((phases, mut arenas), setup_s) = setup_median(|| {
        let p = phases(args.tiny, args.seed);
        let arenas: Vec<DeliveryArena> = p.iter().map(|_| DeliveryArena::new()).collect();
        (p, arenas)
    });
    for p in &phases {
        report.note(p.name, format!("n={} rounds={ROUNDS}", p.engine.n()));
    }
    report.note("threads", nproc());
    let engines: Vec<Engine> = phases.iter().map(|p| p.engine.clone()).collect();
    let singles: Vec<Engine> = engines
        .iter()
        .map(|e| e.clone().with_threads_exact(1))
        .collect();
    let inert = Span::root(ROOT);

    // Gates: every phase is bit-identical at 1 thread and at `nproc`
    // (outputs, stats and both adversary logs), and the broadcast programs
    // agree between the dense and sparse backends.
    let one = iteration::<false>(&phases, &singles, &mut arenas, &inert);
    let many = iteration::<false>(&phases, &engines, &mut arenas, &inert);
    let mut reference = Vec::new();
    for ((p, a), b) in phases.iter().zip(one).zip(many) {
        match (a, b) {
            (Ok((a, _, _)), Ok((b, _, _))) => {
                report.gate(format!("{}: threads 1 == {}", p.name, nproc()), a == b);
                reference.push(b);
            }
            (a, b) => {
                let e = a.err().or(b.err()).map(|e| e.to_string());
                report.gate(
                    format!("{}: runs: {}", p.name, e.unwrap_or_default()),
                    false,
                );
                return Ok(report);
            }
        }
    }
    // The dense backend holds n² slots, so the backend gate runs the
    // broadcast programs at the unicast n.
    let bcast = &phases[2];
    let n_gate = phases[0].engine.n();
    let sparse = Engine::new(n_gate)
        .with_threads(nproc())
        .broadcast_only(true)
        .with_delivery(DeliveryMode::Sparse);
    let dense = sparse.clone().with_delivery(DeliveryMode::Dense);
    let by_backend: Vec<_> = [sparse, dense]
        .iter()
        .map(|e| {
            let mut arena = DeliveryArena::new();
            run_phase::<false>(bcast.kind, e, &mut arena, &inert).map(|r| r.0)
        })
        .collect();
    report.gate(
        format!("broadcast n={n_gate}: dense == sparse"),
        by_backend[0].is_ok() && by_backend[0] == by_backend[1],
    );

    let messages: u64 = reference.iter().map(|r| r.stats.messages).sum();
    if !args.trace {
        let timed = run_for(&mut report, args.seconds, 3, || {
            check(
                &iteration::<false>(&phases, &engines, &mut arenas, &inert),
                &reference,
            )
        });
        E2e {
            setup_s,
            timed,
            messages,
            rounds: reference.iter().map(|r| r.stats.rounds as u64).sum(),
            bits: reference.iter().map(|r| r.stats.bits).sum(),
            jobs: 1,
        }
        .record(&mut report);
        return Ok(report);
    }

    let (mut round_walls, mut footprint) = (Vec::new(), 0);
    let mut closure_ok = true;
    let walls = overhead_pairs(&mut report, args.seconds, 2, |traced| {
        if !traced {
            return check(
                &iteration::<false>(&phases, &engines, &mut arenas, &inert),
                &reference,
            );
        }
        let mut root = Span::root(ROOT);
        let mark = AllocMark::now();
        let out = iteration::<true>(&phases, &engines, &mut arenas, &root);
        mark.count_into(&mut root);
        for (o, x, _) in out.iter().flatten() {
            count_stats(&mut root, &o.stats);
            count_probe(&mut root, &x.probe);
            // Trace closure: the programs' own send counts equal the
            // engine's message totals, plus the sends of the steps the
            // engine replays to sync a rejoining node (n − 1 per replayed
            // round), which it discards.
            let replayed = (o.outputs.len() as u64 - 1) * o.stats.sync_rounds;
            closure_ok &= x.probe.sends == o.stats.messages + replayed;
            round_walls.extend_from_slice(&o.stats.timing.round_wall_ns);
            footprint = footprint.max(x.footprint);
        }
        root.end();
        check(&out, &reference)
    });
    report.gate("trace sends == RunStats.messages", closure_ok);
    let spans = trace::spans();
    record_common_layers(
        &mut report,
        &spans,
        ROOT,
        &round_walls,
        (&walls.0, &walls.1),
    );
    report.set("delivery.footprint_slots", footprint as f64);
    let peak = reference.iter().map(|r| r.stats.peak_live_payload_bytes);
    report.set("delivery.peak_live_bytes", peak.max().unwrap_or(0) as f64);

    // Pool: a whole iteration on one thread vs `nproc`, interleaved.
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for k in 0..2 {
        for single in [k == 0, k == 1] {
            let es = if single { &singles } else { &engines };
            let c = check(
                &iteration::<false>(&phases, es, &mut arenas, &inert),
                &reference,
            );
            report.tally(&c);
            if single { &mut one } else { &mut many }.push(c.wall);
        }
    }
    report.set("engine.pool_speedup", median(&one) / median(&many));

    // Wire stages, added one at a time on the unicast programs with the
    // same seed: ns per program message for each added stage.
    let unicast = &phases[0];
    let stages: Vec<Engine> = (0..=4)
        .map(|k| adversarial(&unicast.engine, args.seed, k))
        .collect();
    let mut stage_walls = vec![Vec::new(); stages.len()];
    let mut arena = DeliveryArena::new();
    for _ in 0..if args.tiny { 1 } else { 3 } {
        for (k, e) in stages.iter().enumerate() {
            let t = Instant::now();
            let r = run_phase::<false>(unicast.kind, e, &mut arena, &inert);
            stage_walls[k].push(secs_since(t));
            report.op(r.is_ok());
        }
    }
    let sent = reference[0].stats.messages as f64;
    let med: Vec<f64> = stage_walls.iter().map(|w| median(w)).collect();
    for (k, name) in [
        "wire.byzantine_ns_per_msg",
        "wire.auth_ns_per_msg",
        "wire.faults_ns_per_msg",
        "wire.churn_ns_per_msg",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, (med[k + 1] - med[k]) * 1e9 / sent);
    }
    let adv = &reference[1].stats;
    report.set("wire.signed", adv.signed_messages as f64);
    report.set("wire.rejected", adv.rejected_tags as f64);
    report.set("wire.forged", adv.forged_messages as f64);
    report.set("wire.dropped", adv.dropped_messages as f64);
    report.set("wire.sync_messages", adv.sync_messages as f64);
    report.set(
        "wire.reject_ratio",
        ratio(adv.rejected_tags as f64, adv.signed_messages as f64),
    );
    Ok(report)
}
