//! `apsp-dense`: exact APSP (`cc_paths::apsp_exact`) on a seeded weighted
//! `G(n, 0.2)`, weights in `1..=20`, on an engine with `nproc` threads.
//!
//! Dense 3D matmul mixes engine rounds with host-side `cc-matmul` /
//! `cc-routing` planning; the trace separates the two.

use std::time::Instant;

use cc_graph::{gen, reference, DistMatrix, WeightedGraph};
use cc_matmul::{mm_local, mm_three_d, Matrix, TropicalSemiring};
use cliquesim::{Engine, RunStats, Session};

use crate::trace::{self, Span};
use crate::{
    count_stats, median, nproc, overhead_pairs, record_common_layers, run_for, secs_since,
    setup_median, AllocMark, Args, Checked, E2e, Report,
};

const N: usize = 128;
const TINY_N: usize = 16;
const EDGE_P: f64 = 0.2;
const MAX_W: u64 = 20;
const ROOT: &str = "apsp-dense/iter";

/// One APSP solve on a fresh session.
fn solve(engine: &Engine, g: &WeightedGraph) -> Result<(DistMatrix, Session), String> {
    let mut session = Session::new(engine.clone());
    let d = cc_paths::apsp_exact(&mut session, g).map_err(|e| e.to_string())?;
    Ok((d, session))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let n = if args.tiny { TINY_N } else { N };
    let mut report = Report::new(args);
    report.note("n", n);
    report.note("threads", nproc());

    let ((g, engine), setup_s) = setup_median(|| {
        let g = gen::gnp_weighted(n, EDGE_P, MAX_W, args.seed);
        (g, Engine::new(n).with_threads(nproc()))
    });

    // Gate: distances equal the Floyd–Warshall oracle.
    let oracle = reference::floyd_warshall(&g);
    let reference: RunStats = match solve(&engine, &g) {
        Ok((d, s)) => {
            report.gate("apsp_exact == floyd_warshall", d == oracle);
            s.stats()
        }
        Err(e) => {
            report.gate(format!("apsp_exact runs: {e}"), false);
            RunStats::default()
        }
    };
    let matches = |r: &Result<(DistMatrix, Session), String>| matches!(r, Ok((d, s)) if *d == oracle && s.stats() == reference);

    if !args.trace {
        let timed = run_for(&mut report, args.seconds, 3, || {
            let t = Instant::now();
            let r = solve(&engine, &g);
            Checked::one(secs_since(t), matches(&r))
        });
        E2e {
            setup_s,
            timed,
            messages: reference.messages,
            rounds: reference.rounds as u64,
            bits: reference.bits,
            jobs: 1,
        }
        .record(&mut report);
        return Ok(report);
    }

    let mut round_walls = Vec::new();
    let (mut footprint, mut peak_live) = (0, 0);
    let walls = overhead_pairs(&mut report, args.seconds, 2, |traced| {
        let mut root = Span::root(ROOT);
        let mark = AllocMark::now();
        let mut call = root.child("cc_paths::apsp_exact");
        let t = Instant::now();
        let r = solve(&engine, &g);
        let wall = secs_since(t);
        if let (true, Ok((_, s))) = (traced, &r) {
            let stats = s.stats();
            call.count("engine_ns", stats.timing.total_ns());
            call.end();
            mark.count_into(&mut root);
            count_stats(&mut root, &stats);
            root.end();
            round_walls.extend_from_slice(&stats.timing.round_wall_ns);
            footprint = footprint.max(s.delivery_footprint());
            peak_live = peak_live.max(stats.peak_live_payload_bytes);
        }
        Checked::one(wall, matches(&r))
    });

    // Pool: the same solve on one thread vs `nproc`, interleaved.
    let single = engine.clone().with_threads_exact(1);
    let (mut one, mut many) = (Vec::new(), Vec::new());
    for k in 0..2 {
        for threads_one in [k == 0, k == 1] {
            let t = Instant::now();
            let r = solve(if threads_one { &single } else { &engine }, &g);
            if threads_one { &mut one } else { &mut many }.push(secs_since(t));
            report.op(matches(&r));
        }
    }
    report.set("engine.pool_speedup", median(&one) / median(&many));

    // One traced-only dense 3D product at this n, checked against the
    // host product.
    let rows: Vec<Vec<u64>> = (0..n).map(|v| g.row(v).to_vec()).collect();
    let sr = TropicalSemiring::for_max_value((n as u64 - 1) * MAX_W);
    trace::enable(true);
    let mut mm = Span::root("cc_matmul::mm_three_d");
    let mut session = Session::new(engine.clone());
    let product = mm_three_d(&mut session, &sr, &rows, &rows);
    mm.count("engine_ns", session.stats().timing.total_ns());
    mm.end();
    trace::enable(false);
    let host = mm_local(
        &sr,
        &Matrix::from_rows(rows.clone()),
        &Matrix::from_rows(rows),
    );
    report.gate(
        "mm_three_d == host product",
        product.is_ok_and(|p| p == host.to_rows()),
    );

    let spans = trace::spans();
    record_common_layers(
        &mut report,
        &spans,
        ROOT,
        &round_walls,
        (&walls.0, &walls.1),
    );
    report.set("delivery.footprint_slots", footprint as f64);
    report.set("delivery.peak_live_bytes", peak_live as f64);
    let calls = trace::named(&spans, "cc_paths::apsp_exact");
    let host_ns: f64 = calls
        .iter()
        .map(|s| s.dur_ns() as f64 - s.counter("engine_ns") as f64)
        .sum();
    report.set("paths.host_s", host_ns / calls.len().max(1) as f64 / 1e9);
    let mm = trace::named(&spans, "cc_matmul::mm_three_d");
    if let Some(s) = mm.first() {
        report.set("matmul.mm3d_s", s.dur_ns() as f64 / 1e9);
        let planner = s.dur_ns() as f64 - s.counter("engine_ns") as f64;
        report.set("matmul.mm3d_planner_s", planner / 1e9);
    }
    Ok(report)
}
