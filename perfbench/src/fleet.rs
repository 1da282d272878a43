//! `fleet-mixed`: one multi-tenant `cc-service` batch of small seeded jobs
//! with dependency edges, on `Service::new(nproc)` with single-threaded
//! jobs. Parallelism comes from across jobs, not from within a run.
//!
//! Job types, in equal numbers:
//! - `tri`: triangle count by sparse-aware matmul (`MmStrategy::Auto`,
//!   which rides on sized routing) on `G(64, 0.08)`;
//! - `route`: `cc_routing::route_balanced` on random all-to-all demands;
//! - `gossip`: broadcast-only max gossip (the benchmark's own programs).
//!
//! Every sixth job also depends on the job before it and folds that job's
//! output into its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cc_graph::{gen, reference, Graph};
use cc_matmul::MmStrategy;
use cc_service::{Batch, EngineSpec, JobFn, JobOutcome, JobSpec, JobStatus, Service, TenantId};
use cliquesim::{BitString, NodeId, Session};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::programs::{mix, probe_for, Gossip, ProbeTotals};
use crate::trace::{self, Span};
use crate::{
    count_probe, count_stats, median, nproc, overhead_pairs, ratio, record_common_layers, run_for,
    secs_since, setup_median, AllocMark, Args, Checked, E2e, Report,
};

const JOBS_PER_TYPE: usize = 64;
const TINY_JOBS_PER_TYPE: usize = 4;
const TRI_N: usize = 64;
const TRI_P: f64 = 0.08;
const ROUTE_N: usize = 32;
const ROUTE_BITS: usize = 24;
const GOSSIP_N: usize = 64;
const GOSSIP_ROUNDS: usize = 3;
const DEP_EVERY: usize = 6;
const TENANTS: u32 = 4;
const ROOT: &str = "fleet-mixed/iter";

/// Parent span of the jobs of the batch in flight (job spans are opened
/// on service workers).
static BATCH_SPAN: AtomicU64 = AtomicU64::new(0);
/// Probe totals of the gossip jobs of the batch in flight, and the
/// engine's message count for the same runs.
static GOSSIP_PROBE: Mutex<(ProbeTotals, u64)> = Mutex::new((
    ProbeTotals {
        sends: 0,
        send_ns: 0,
        reads: 0,
        read_ns: 0,
        step_ns: 0,
    },
    0,
));

/// One job's input; `run` is its pure function, `expected` its oracle.
enum Input {
    Tri(Graph),
    Route(Vec<Vec<(NodeId, BitString)>>),
    Gossip(Vec<u64>),
}

impl Input {
    fn n(&self) -> usize {
        match self {
            Input::Tri(g) => g.n(),
            Input::Route(d) => d.len(),
            Input::Gossip(v) => v.len(),
        }
    }

    fn label(&self) -> &'static str {
        match self {
            Input::Tri(_) => "tri",
            Input::Route(_) => "route",
            Input::Gossip(_) => "gossip",
        }
    }

    /// The job's output computed on the host.
    fn expected(&self) -> Vec<u8> {
        match self {
            Input::Tri(g) => reference::count_triangles(g).to_le_bytes().to_vec(),
            Input::Route(demands) => {
                let mut inboxes: Vec<Vec<(NodeId, BitString)>> = vec![Vec::new(); demands.len()];
                for (src, list) in demands.iter().enumerate() {
                    for (dst, payload) in list {
                        inboxes[dst.index()].push((NodeId::from(src), payload.clone()));
                    }
                }
                route_digest(inboxes).to_le_bytes().to_vec()
            }
            Input::Gossip(v) => v.iter().max().copied().unwrap_or(0).to_le_bytes().to_vec(),
        }
    }

    fn run<const TRACE: bool>(&self, session: &mut Session, job: &Span) -> Result<Vec<u8>, String> {
        // Engine time inside the call, read only when tracing.
        let before = TRACE.then(|| session.stats().timing.total_ns());
        let engine_ns = |s: &Session, span: &mut Span| {
            if let Some(b) = before {
                span.count("engine_ns", s.stats().timing.total_ns() - b);
            }
        };
        match self {
            Input::Tri(g) => {
                let mut span = job.child("cc_subgraph::count_triangles_via_mm_with");
                let count = cc_subgraph::count_triangles_via_mm_with(session, g, MmStrategy::Auto)
                    .map_err(|e| e.to_string())?;
                engine_ns(session, &mut span);
                span.end();
                Ok(count.to_le_bytes().to_vec())
            }
            Input::Route(demands) => {
                let mut span = job.child("cc_routing::route_balanced");
                let delivered = cc_routing::route_balanced(session, demands.clone())
                    .map_err(|e| e.to_string())?;
                engine_ns(session, &mut span);
                if TRACE {
                    span.count("rounds", session.stats().rounds as u64);
                }
                span.end();
                Ok(route_digest(delivered).to_le_bytes().to_vec())
            }
            Input::Gossip(values) => {
                let probe = probe_for::<TRACE>(values.len());
                let mut span = job.child("cliquesim::Session::run");
                let out = session
                    .run(Gossip::<TRACE>::programs(values, GOSSIP_ROUNDS, &probe))
                    .map_err(|e| e.to_string())?;
                span.count("engine_ns", out.stats.timing.total_ns());
                span.end();
                if TRACE {
                    let mut g = GOSSIP_PROBE.lock().expect("probe lock");
                    g.0.add(&probe.totals());
                    g.1 += out.stats.messages;
                }
                let agreed = *out.unanimous().ok_or("honest disagreement")?;
                Ok(agreed.to_le_bytes().to_vec())
            }
        }
    }
}

/// Order-independent digest of delivered `(source, payload)` lists.
fn route_digest(mut inboxes: Vec<Vec<(NodeId, BitString)>>) -> u64 {
    let mut h = 0u64;
    for (dst, inbox) in inboxes.iter_mut().enumerate() {
        inbox.sort_by_key(|(src, _)| src.0);
        for (src, payload) in inbox.iter() {
            let word = payload
                .reader()
                .read_uint(payload.len().min(64))
                .unwrap_or(0);
            h = mix(h
                ^ word
                ^ ((src.0 as u64) << 40)
                ^ ((dst as u64) << 52)
                ^ payload.len() as u64);
        }
    }
    h
}

/// A dependent job's output: its own bytes plus a digest of its
/// dependency's.
fn fold_dep(mut own: Vec<u8>, dep: &[u8]) -> Vec<u8> {
    let d = dep.iter().fold(0u64, |h, &b| mix(h ^ u64::from(b)));
    own.extend_from_slice(&d.to_le_bytes());
    own
}

fn inputs(jobs_per_type: usize, seed: u64) -> Vec<Input> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(3 * jobs_per_type);
    for _ in 0..jobs_per_type {
        out.push(Input::Tri(gen::gnp(TRI_N, TRI_P, rng.gen())));
        let demands = (0..ROUTE_N)
            .map(|v| {
                (0..ROUTE_N)
                    .filter(|&u| u != v)
                    .map(|u| {
                        let mut b = BitString::new();
                        b.push_uint(rng.gen_range(0..1u64 << ROUTE_BITS), ROUTE_BITS);
                        (NodeId::from(u), b)
                    })
                    .collect()
            })
            .collect();
        out.push(Input::Route(demands));
        let width = BitString::width_for(GOSSIP_N);
        out.push(Input::Gossip(
            (0..GOSSIP_N)
                .map(|_| rng.gen_range(0..1u64 << width))
                .collect(),
        ));
    }
    out
}

/// Which job, if any, job `i` depends on.
fn dep_of(i: usize) -> Option<usize> {
    (i > 0 && i.is_multiple_of(DEP_EVERY)).then(|| i - 1)
}

/// Outputs the batch must produce, computed on the host.
fn expected(inputs: &[Input]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let own = input.expected();
        out.push(match dep_of(i) {
            Some(d) => fold_dep(own, &out[d]),
            None => own,
        });
    }
    out
}

fn batch<const TRACE: bool>(inputs: &Arc<Vec<Input>>, threads: usize) -> Batch {
    let mut batch = Batch::new();
    for (i, input) in inputs.iter().enumerate() {
        let spec = EngineSpec::new(input.n())
            .threads(threads)
            .broadcast_only(matches!(input, Input::Gossip(_)));
        let all = Arc::clone(inputs);
        let run: JobFn = Arc::new(move |session, deps| {
            let mut job = Span::under(BATCH_SPAN.load(Ordering::Relaxed), "cc_service::job");
            let own = all[i].run::<TRACE>(session, &job);
            job.count("footprint", session.delivery_footprint() as u64);
            job.end();
            Ok(match deps.first() {
                Some(d) => fold_dep(own?, d),
                None => own?,
            })
        });
        let label = format!("{}[{i}]", input.label());
        let mut job = JobSpec::new(TenantId(i as u32 % TENANTS), label, spec, run);
        if let Some(d) = dep_of(i) {
            job = job.after(cc_service::JobId(d));
        }
        batch.push(job);
    }
    batch
}

/// Jobs whose outcome differs from the serial oracle's.
fn mismatches(got: &[JobOutcome], oracle: &[JobOutcome]) -> u64 {
    if got.len() != oracle.len() {
        return oracle.len() as u64;
    }
    got.iter().zip(oracle).filter(|(a, b)| a != b).count() as u64
}

pub fn run(args: &Args) -> Result<Report, String> {
    let per_type = if args.tiny {
        TINY_JOBS_PER_TYPE
    } else {
        JOBS_PER_TYPE
    };
    let mut report = Report::new(args);
    let ((inputs, plain, service), setup_s) = setup_median(|| {
        let inputs = Arc::new(inputs(per_type, args.seed));
        let plain = batch::<false>(&inputs, 1);
        (inputs, plain, Service::new(nproc()))
    });
    let jobs = inputs.len() as u64;
    report.note("jobs", jobs);
    report.note("width", service.width());

    // Gates: the serial oracle produces the host-computed outputs, and the
    // fleet's outcomes are byte-identical to it.
    let submit = |b: &Batch| -> Vec<JobOutcome> {
        match service.submit(b.clone()) {
            Ok(h) => h.join(),
            Err(_) => Vec::new(),
        }
    };
    let serial = plain.run_serial().map_err(|e| e.to_string())?;
    let want = expected(&inputs);
    let wrong = serial
        .iter()
        .zip(&want)
        .filter(|(o, w)| !matches!(&o.status, JobStatus::Done(b) if b.as_slice() == w.as_slice()))
        .count();
    report.gate(
        format!("serial outputs == host oracle ({wrong} of {jobs} wrong)"),
        wrong == 0 && serial.len() == want.len(),
    );
    let fleet = submit(&plain);
    report.gate(
        format!("fleet width {} == run_serial", service.width()),
        mismatches(&fleet, &serial) == 0,
    );
    let sum = |f: &dyn Fn(&JobOutcome) -> u64| serial.iter().map(f).sum::<u64>();
    let messages = sum(&|o| o.stats.messages);

    let checked = |wall: f64, got: &[JobOutcome]| Checked {
        wall,
        attempted: jobs,
        failed: mismatches(got, &serial),
    };
    if !args.trace {
        let timed = run_for(&mut report, args.seconds, 3, || {
            let t = Instant::now();
            let got = submit(&plain);
            checked(secs_since(t), &got)
        });
        E2e {
            setup_s,
            timed,
            messages,
            rounds: sum(&|o| o.stats.rounds as u64),
            bits: sum(&|o| o.stats.bits),
            jobs,
        }
        .record(&mut report);
        return Ok(report);
    }

    let traced = batch::<true>(&inputs, 1);
    let (mut round_walls, mut job_wall_ns, mut fleet_ns) = (Vec::new(), 0u64, 0u64);
    let (mut peak_live, mut closure_ok) = (0, true);
    let walls = overhead_pairs(&mut report, args.seconds, 2, |on| {
        if !on {
            let t = Instant::now();
            let got = submit(&plain);
            return checked(secs_since(t), &got);
        }
        *GOSSIP_PROBE.lock().expect("probe lock") = Default::default();
        let mut root = Span::root(ROOT);
        let mark = AllocMark::now();
        let call = root.child("cc_service::Service::submit+join");
        BATCH_SPAN.store(call.id(), Ordering::Relaxed);
        let t = Instant::now();
        let got = submit(&traced);
        let wall = secs_since(t);
        call.end();
        mark.count_into(&mut root);
        for o in &got {
            count_stats(&mut root, &o.stats);
            round_walls.extend_from_slice(&o.stats.timing.round_wall_ns);
            job_wall_ns += o.wall.as_nanos() as u64;
            peak_live = peak_live.max(o.stats.peak_live_payload_bytes);
        }
        let (probe, gossip_msgs) = *GOSSIP_PROBE.lock().expect("probe lock");
        count_probe(&mut root, &probe);
        // Trace closure: the gossip programs' sends equal the engine's
        // message totals for those runs.
        closure_ok &= probe.sends == gossip_msgs;
        fleet_ns += (wall * 1e9) as u64;
        root.end();
        checked(wall, &got)
    });
    report.gate("trace gossip sends == RunStats.messages", closure_ok);
    let spans = trace::spans();
    record_common_layers(
        &mut report,
        &spans,
        ROOT,
        &round_walls,
        (&walls.0, &walls.1),
    );
    let iters = walls.1.len() as f64;

    let footprint = trace::named(&spans, "cc_service::job")
        .iter()
        .map(|s| s.counter("footprint"))
        .max()
        .unwrap_or(0);
    report.set("delivery.footprint_slots", footprint as f64);
    report.set("delivery.peak_live_bytes", peak_live as f64);
    let route = trace::named(&spans, "cc_routing::route_balanced");
    let call_ns: f64 = route.iter().map(|s| s.dur_ns() as f64).sum();
    let engine_ns: f64 = route.iter().map(|s| s.counter("engine_ns") as f64).sum();
    report.set("routing.call_s", call_ns / iters / 1e9);
    report.set("routing.planner_s", (call_ns - engine_ns) / iters / 1e9);
    let rounds: u64 = route.iter().map(|s| s.counter("rounds")).sum();
    report.set("routing.rounds", rounds as f64 / iters);
    let tri = trace::named(&spans, "cc_subgraph::count_triangles_via_mm_with");
    let tri_ns: f64 = tri.iter().map(|s| s.dur_ns() as f64).sum();
    report.set("matmul.sparse_s", tri_ns / iters / 1e9);

    let width = service.width() as f64;
    report.set(
        "service.busy_frac",
        ratio(job_wall_ns as f64, width * fleet_ns as f64),
    );
    let idle_ns = width * fleet_ns as f64 - job_wall_ns as f64;
    report.set(
        "service.overhead_us_per_job",
        idle_ns / (iters * jobs as f64) / 1e3,
    );
    let slots: usize = service.arena_footprint().iter().sum();
    report.set("service.arena_slots", slots as f64);

    // The serial oracle's wall vs the fleet's, and the serial oracle with
    // jobs on `nproc` engine threads vs one (pool shape within a job).
    let pooled = batch::<false>(&inputs, nproc());
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for k in 0..2 {
        for single in [k == 0, k == 1] {
            let t = Instant::now();
            let got = if single { &plain } else { &pooled }.run_serial();
            let wall = secs_since(t);
            let got = got.unwrap_or_default();
            report.tally(&checked(wall, &got));
            if single { &mut one } else { &mut many }.push(wall);
        }
    }
    report.set("service.speedup_vs_serial", median(&one) / median(&walls.0));
    report.set("engine.pool_speedup", median(&one) / median(&many));
    Ok(report)
}
