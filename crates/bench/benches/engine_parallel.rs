//! Engine ablation: sequential vs multi-threaded node stepping, and dense
//! vs sparse delivery backends. Outputs, round counts, and all model-level
//! [`RunStats`] fields are bit-identical by construction (asserted below
//! over pool shapes the host may not even have cores for, and across both
//! backends); only wall time and buffer footprint differ, which is what
//! this harness measures.
//!
//! Recorded medians for `apsp_n64_threads4` on the same host, runs
//! interleaved (per-round-spawn engine vs persistent pool with
//! double-buffered delivery): 457.4 ms → 169.9 ms and 405.0 ms →
//! 169.2 ms, i.e. a 2.4–2.7× improvement (threads1: ~292–331 ms →
//! ~182–190 ms). Replacing that persistent barrier-parked pool with
//! scoped threads spawned each round (no `unsafe`) cost, on a 2-vCPU host,
//! medians of 5 interleaved runs × 5 solves: `with_threads(2)` 356.0 ms →
//! 397.2 ms and `with_threads_exact(4)` 398.4 ms → 509.0 ms — a thread
//! spawn per chunk per round costs more than a barrier round trip there.
//! The broadcast sweep below extends the envelope from
//! n = 64 to n = 1024 and writes machine-readable results to
//! `BENCH_engine.json` (see `Cargo.toml`'s bench notes).
//!
//! Environment knobs (all optional):
//! - `BENCH_ENGINE_JSON`: output path for the JSON report
//!   (default `BENCH_engine.json` in the working directory).
//! - `BENCH_SMOKE=1`: reduced sizes/repetitions for CI smoke runs.
//! - `BENCH_ENFORCE_SPARSE=1`: exit non-zero if the sparse backend is
//!   slower than dense on the broadcast-only workload (the workload it
//!   exists for).

use cc_bench::SEED;
use cliquesim::{
    BitString, DeliveryMode, Engine, Inbox, NodeCtx, NodeProgram, Outbox, RunStats, Session, Status,
};
use criterion::{criterion_group, Criterion};
use std::time::Instant;

/// Run seeded APSP (n = 64 takes 1044 rounds) and return the session
/// stats. `exact` pins the pool shape regardless of host cores (used for
/// the bit-identity assertions); the timed benchmarks use the default
/// host-capped pool, which is what callers get.
fn apsp_stats(n: usize, threads: usize, exact: bool) -> RunStats {
    let wg = cc_graph::gen::gnp_weighted(n, 0.2, 20, SEED);
    let engine = match (threads, exact) {
        (1, _) => Engine::new(n),
        (t, true) => Engine::new(n).with_threads_exact(t),
        (t, false) => Engine::new(n).with_threads(t),
    };
    let mut s = Session::new(engine);
    cc_paths::apsp_exact(&mut s, &wg).unwrap();
    s.stats()
}

/// `rounds` rounds of id gossip under the broadcast-only restriction —
/// the workload the sparse backend is built for: one payload per sender
/// per round instead of n-1 materialised copies.
struct Gossip {
    rounds: usize,
    acc: u64,
}

impl NodeProgram for Gossip {
    type Output = u64;
    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<u64> {
        for (u, m) in inbox.iter() {
            self.acc = self
                .acc
                .wrapping_add(u.0 as u64 ^ m.reader().read_uint(ctx.id_width()).unwrap_or(0));
        }
        if round >= self.rounds {
            return Status::Halt(self.acc);
        }
        let mut m = BitString::new();
        m.push_uint(
            (ctx.id.0 as u64 + round as u64) & ((1 << ctx.id_width()) - 1),
            ctx.id_width(),
        );
        outbox.broadcast(&m);
        Status::Continue
    }
}

/// One timed broadcast-gossip session: `phases` engine runs against a
/// single warm arena (steady-state rounds and steady-state *phases*
/// allocate nothing). Returns (wall seconds, stats, arena footprint).
fn gossip_run(
    n: usize,
    rounds: usize,
    phases: usize,
    mode: DeliveryMode,
) -> (f64, RunStats, usize) {
    let engine = Engine::new(n).broadcast_only(true).with_delivery(mode);
    let mut s = Session::new(engine);
    let start = Instant::now();
    for _ in 0..phases {
        let programs = (0..n).map(|_| Gossip { rounds, acc: 0 }).collect();
        s.run(programs).unwrap();
    }
    (
        start.elapsed().as_secs_f64(),
        s.stats(),
        s.delivery_footprint(),
    )
}

/// Median wall seconds of `reps` repetitions of `f` (first call doubles
/// as warm-up and is kept — the arena makes later phases the steady state
/// we care about anyway).
fn median_secs(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

struct SweepRow {
    n: usize,
    rounds: usize,
    dense_ms: f64,
    sparse_ms: f64,
    dense_slots: usize,
    sparse_slots: usize,
}

/// Dense-vs-sparse broadcast sweep. Asserts bit-identical stats between
/// the backends at every size before recording a single number.
fn broadcast_sweep(sizes: &[usize], rounds: usize, phases: usize, reps: usize) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &n in sizes {
        let (_, dense_stats, dense_slots) = gossip_run(n, rounds, phases, DeliveryMode::Dense);
        let (_, sparse_stats, sparse_slots) = gossip_run(n, rounds, phases, DeliveryMode::Sparse);
        assert_eq!(
            dense_stats, sparse_stats,
            "broadcast n={n}: sparse backend changed model-level stats"
        );
        let dense_ms = median_secs(reps, || {
            gossip_run(n, rounds, phases, DeliveryMode::Dense).0
        }) * 1e3;
        let sparse_ms = median_secs(reps, || {
            gossip_run(n, rounds, phases, DeliveryMode::Sparse).0
        }) * 1e3;
        println!(
            "broadcast n={n:<5} rounds={rounds} phases={phases}: dense {dense_ms:8.2} ms \
             ({dense_slots:>8} slots) | sparse {sparse_ms:8.2} ms ({sparse_slots:>6} slots) \
             | {:.2}x time, {:.0}x footprint",
            dense_ms / sparse_ms,
            dense_slots as f64 / sparse_slots as f64,
        );
        rows.push(SweepRow {
            n,
            rounds,
            dense_ms,
            sparse_ms,
            dense_slots,
            sparse_slots,
        });
    }
    rows
}

/// Hand-rolled JSON (the vendored criterion stand-in has no machine
/// output; this file is the recorded trajectory CI and EXPERIMENTS.md
/// consume).
fn write_json(path: &str, smoke: bool, rows: &[SweepRow]) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"engine_parallel\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(
        "  \"history\": [\n    {\"pr\": 1, \"id\": \"apsp_n64_threads4\", \
         \"median_ms_before\": 457.4, \"median_ms_after\": 169.9,\n     \
         \"note\": \"per-round thread spawn -> persistent pool + double-buffered delivery\"},\n    \
         {\"id\": \"apsp_n64_scoped_step\", \"host_parallelism\": 2,\n     \
         \"threads2_median_ms_before\": 356.0, \"threads2_median_ms_after\": 397.2,\n     \
         \"exact4_median_ms_before\": 398.4, \"exact4_median_ms_after\": 509.0,\n     \
         \"note\": \"persistent barrier pool -> scoped threads spawned per round, no unsafe\"}\n  ],\n",
    );
    out.push_str("  \"broadcast_sweep\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"n\": {}, \"rounds\": {}, \"dense_median_ms\": {:.3}, \
             \"sparse_median_ms\": {:.3}, \"dense_arena_slots\": {}, \"sparse_arena_slots\": {}}}{}\n",
            r.n,
            r.rounds,
            r.dense_ms,
            r.sparse_ms,
            r.dense_slots,
            r.sparse_slots,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    // Determinism check first: the full model-level stats (rounds,
    // messages, bits, undelivered accounting, peak buffer residency —
    // everything except wall clock) must not depend on the pool shape.
    let n = if smoke { 16 } else { 64 };
    let seq = apsp_stats(n, 1, true);
    for threads in [2usize, 3, 4, 7] {
        let par = apsp_stats(n, threads, true);
        assert_eq!(
            seq, par,
            "stepping on {threads} threads changed model-level stats"
        );
    }
    println!(
        "\n=== engine ablation: APSP n={n} | rounds={} messages={} bits={} \
         undelivered={} peak_live={}B | seq step={:.1}ms delivery={:.1}ms ===",
        seq.rounds,
        seq.messages,
        seq.bits,
        seq.undelivered_messages,
        seq.peak_live_payload_bytes,
        seq.timing.step_ns as f64 / 1e6,
        seq.timing.delivery_ns as f64 / 1e6,
    );

    if !smoke {
        let mut group = c.benchmark_group("engine");
        group.sample_size(10);
        for threads in [1usize, 2, 4] {
            group.bench_function(format!("apsp_n64_threads{threads}"), |b| {
                b.iter(|| apsp_stats(64, threads, false).rounds);
            });
        }
        group.finish();
    }

    // Dense-vs-sparse broadcast sweep, n = 64 … 1024 (reduced under
    // BENCH_SMOKE so the CI job stays in seconds).
    let (sizes, rounds, phases, reps): (&[usize], usize, usize, usize) = if smoke {
        (&[64, 256], 4, 2, 3)
    } else {
        (&[64, 256, 1024], 8, 3, 5)
    };
    let rows = broadcast_sweep(sizes, rounds, phases, reps);

    let path =
        std::env::var("BENCH_ENGINE_JSON").unwrap_or_else(|_| "BENCH_engine.json".to_string());
    write_json(&path, smoke, &rows);

    if std::env::var("BENCH_ENFORCE_SPARSE").is_ok_and(|v| v == "1") {
        for r in &rows {
            assert!(
                r.sparse_ms <= r.dense_ms,
                "sparse backend slower than dense on its target workload: \
                 broadcast n={} dense {:.2} ms vs sparse {:.2} ms",
                r.n,
                r.dense_ms,
                r.sparse_ms
            );
        }
        println!("BENCH_ENFORCE_SPARSE: sparse <= dense at every size");
    }
}

criterion_group!(benches, bench);

fn main() {
    benches();
}
