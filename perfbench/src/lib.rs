//! End-to-end and per-layer benchmark of the congested-clique workspace.
//!
//! One binary per mode: `perfbench` measures the end-to-end metrics with
//! tracing compiled out of the hot paths, `perfbench-traced` installs the
//! counting allocator and the span recorder and reports the per-layer
//! metrics. `run.py` builds both and dispatches on `--trace`. See
//! `README.md` for the workloads, the metric map and the baselines.

pub mod alloc;
mod apsp;
mod fleet;
pub mod programs;
pub mod trace;
mod wire;

use std::collections::{BTreeMap, BinaryHeap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Barrier;
use std::time::Instant;

use cliquesim::RunStats;

/// Seed reserved for confirming a claimed gain; never tune on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// End-to-end metrics and units, as listed in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_per_probe", "x"),
    ("rounds", "count"),
    ("sim_bits", "bit"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics and units, as listed in `BENCHMARK.json`. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.timed_s", "s"),
    ("engine.step_s", "s"),
    ("engine.close_s", "s"),
    ("engine.ns_per_msg", "ns"),
    ("engine.round_us_p50", "us"),
    ("engine.round_us_p99", "us"),
    ("engine.untimed_s", "s"),
    ("engine.pool_speedup", "x"),
    ("msg.allocs_per_msg", "count"),
    ("msg.alloc_bytes_per_msg", "B"),
    ("msg.send_ns", "ns"),
    ("msg.read_ns_per_msg", "ns"),
    ("node.program_self_s", "s"),
    ("delivery.footprint_slots", "count"),
    ("delivery.peak_live_bytes", "B"),
    ("wire.byzantine_ns_per_msg", "ns"),
    ("wire.auth_ns_per_msg", "ns"),
    ("wire.faults_ns_per_msg", "ns"),
    ("wire.churn_ns_per_msg", "ns"),
    ("wire.signed", "count"),
    ("wire.rejected", "count"),
    ("wire.forged", "count"),
    ("wire.dropped", "count"),
    ("wire.sync_messages", "count"),
    ("wire.reject_ratio", "ratio"),
    ("routing.call_s", "s"),
    ("routing.planner_s", "s"),
    ("routing.rounds", "count"),
    ("matmul.mm3d_s", "s"),
    ("matmul.mm3d_planner_s", "s"),
    ("paths.host_s", "s"),
    ("matmul.sparse_s", "s"),
    ("service.busy_frac", "ratio"),
    ("service.overhead_us_per_job", "us"),
    ("service.speedup_vs_serial", "x"),
    ("service.arena_slots", "count"),
    ("trace.overhead_frac", "ratio"),
    ("host.wall_s", "s"),
    ("host.sim_msgs_per_s", "1/s"),
];

pub const WORKLOADS: &[&str] = &["apsp-dense", "wire-null", "fleet-mixed"];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-check sizes: every gate and metric, a fraction of the work.
    pub tiny: bool,
    pub trace_out: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let (mut tiny, mut trace_out) = (false, None);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                "--size" => {
                    tiny = match value()?.as_str() {
                        "tiny" => true,
                        "full" => false,
                        other => return Err(format!("--size must be tiny or full, got {other}")),
                    }
                }
                "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            tiny,
            trace_out,
        })
    }
}

/// What a workload hands back: operation tallies, gate verdicts, metric
/// values and size notes for the report.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<(String, bool)>,
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// An empty report; in a traced run every per-layer metric starts at 0,
    /// the value of a layer the workload does not exercise.
    pub fn new(args: &Args) -> Report {
        let values = if args.trace {
            PER_LAYER.iter().map(|(name, _)| (*name, 0.0)).collect()
        } else {
            BTreeMap::new()
        };
        Report {
            attempted: 0,
            failed: 0,
            gates: Vec::new(),
            values,
            notes: Vec::new(),
        }
    }

    /// A correctness gate: one attempted operation, failed unless `ok`.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("gate FAILED: {name}");
        }
        self.gates.push((name, ok));
        self.op(ok);
    }

    /// One checked operation of the measured loop.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        // `+ 0.0` turns an empty float sum's -0.0 into 0.
        self.values.insert(name, value + 0.0);
    }

    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Worker threads the benchmark may use in total.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `a / b`, or 0 when `b` is 0 (a layer the workload does not exercise).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 31;

/// Run `build` [`SETUP_REPS`] times; keep the last result and report the
/// median seconds.
pub fn setup_median<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(secs_since(t));
    }
    (last.expect("at least one set-up"), median(&times))
}

/// One measured call: its wall seconds and the operations it checked
/// against the gate's reference.
pub struct Checked {
    pub wall: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Checked {
    pub fn one(wall: f64, ok: bool) -> Checked {
        Checked {
            wall,
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}

impl Report {
    fn tally(&mut self, c: &Checked) {
        self.attempted += c.attempted;
        self.failed += c.failed;
    }
}

/// Words one probe thread sorts at a time (256 KiB: the probe adds little
/// to the process's peak memory).
const PROBE_SORT_WORDS: usize = 1 << 15;
/// Timed sorts one probe thread makes.
const PROBE_SORTS: usize = 80;
/// Entries of one probe thread's priority queue.
const PROBE_HEAP: usize = 1 << 12;
/// Timed push/pop pairs on that queue.
const PROBE_HEAP_OPS: usize = 400_000;

/// Pseudo-random words (an LCG with its high bits folded down).
struct ProbeRng(u64);

impl ProbeRng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(0x5851_F42D_4C95_7F2D)
            .wrapping_add(0x1405_7B7E_F767_814F);
        self.0 ^ (self.0 >> 29)
    }
}

/// One probe thread's fixed work on buffers it owns: `sorts` sorts of
/// pseudo-random words, then push/pop pairs on a full priority queue.
/// Branchy and cache-bound like the simulator, and allocation-free, so the
/// state the code under test leaves in the allocator cannot move it.
fn probe_work(
    rng: &mut ProbeRng,
    words: &mut [u64],
    heap: &mut BinaryHeap<u64>,
    sorts: usize,
    heap_ops: usize,
) -> u64 {
    let mut acc = 0u64;
    for _ in 0..sorts {
        words.iter_mut().for_each(|w| *w = rng.next());
        words.sort_unstable();
        acc = acc.wrapping_add(words[words.len() / 2]);
    }
    for _ in 0..heap_ops {
        heap.push(rng.next());
        acc = acc.wrapping_add(heap.pop().unwrap_or(0));
    }
    acc
}

/// Wall seconds of one host probe: [`probe_work`] on `nproc` threads at
/// once, as many as a workload uses; the mean of the threads' timed
/// sections. Each thread first allocates its buffers and warms its caches
/// with a tenth of the work, and the threads start the timed part
/// together. The probe's code and work never change, so its wall tracks
/// only how fast the shared host runs at that moment.
pub fn host_probe() -> f64 {
    let threads = nproc();
    let start = Barrier::new(threads);
    let total: f64 = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|k| {
                let start = &start;
                s.spawn(move || {
                    let mut rng = ProbeRng(0x9E37_79B9_7F4A_7C15 ^ k);
                    let mut words = vec![0u64; PROBE_SORT_WORDS];
                    let mut heap = BinaryHeap::with_capacity(PROBE_HEAP + 1);
                    heap.extend((0..PROBE_HEAP).map(|_| rng.next()));
                    let (sorts, ops) = (PROBE_SORTS / 10, PROBE_HEAP_OPS / 10);
                    std::hint::black_box(probe_work(&mut rng, &mut words, &mut heap, sorts, ops));
                    start.wait();
                    let t = Instant::now();
                    let (sorts, ops) = (PROBE_SORTS, PROBE_HEAP_OPS);
                    std::hint::black_box(probe_work(&mut rng, &mut words, &mut heap, sorts, ops));
                    secs_since(t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread"))
            .sum()
    });
    total / threads as f64
}

/// Walls of the timed iterations and of the host probes between them.
pub struct Timed {
    pub walls: Vec<f64>,
    /// One probe before the first iteration and one after each.
    pub probes: Vec<f64>,
}

impl Timed {
    /// Each iteration's wall over the mean of the probes on either side:
    /// the iteration's cost in units of fixed work at the host's speed of
    /// that moment.
    pub fn per_probe(&self) -> Vec<f64> {
        self.walls
            .iter()
            .zip(self.probes.windows(2))
            .map(|(w, p)| w / ((p[0] + p[1]) / 2.0))
            .collect()
    }
}

/// Call `iter` until `seconds` have passed and at least `min_iters` calls
/// were made, with a host probe before the first call and after each;
/// tallies the checks in `report`.
pub fn run_for(
    report: &mut Report,
    seconds: f64,
    min_iters: usize,
    mut iter: impl FnMut() -> Checked,
) -> Timed {
    let t = Instant::now();
    let mut timed = Timed {
        walls: Vec::new(),
        probes: vec![host_probe()],
    };
    while timed.walls.len() < min_iters || secs_since(t) < seconds {
        let c = iter();
        report.tally(&c);
        timed.walls.push(c.wall);
        timed.probes.push(host_probe());
    }
    timed
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated work of one iteration plus its measured walls: the inputs of
/// the end-to-end metrics.
pub struct E2e {
    pub setup_s: f64,
    pub timed: Timed,
    pub messages: u64,
    pub rounds: u64,
    pub bits: u64,
    /// Jobs completed per iteration (one for a single-run workload).
    pub jobs: u64,
}

impl E2e {
    pub fn record(self, report: &mut Report) {
        report.set("wall_per_probe", median(&self.timed.per_probe()));
        report.set("rounds", self.rounds as f64);
        report.set("sim_bits", self.bits as f64);
        report.set("setup_s", self.setup_s);
        report.set("peak_rss_mb", peak_rss_mb());
        // Host seconds, for reading; they carry the shared host's drift.
        let wall = median(&self.timed.walls);
        report.note("iterations", self.timed.walls.len());
        report.note("wall_s", format!("{wall:.6}"));
        report.note("probe_s", format!("{:.6}", median(&self.timed.probes)));
        let per_s = |n: u64| format!("{:.4}", n as f64 / wall);
        report.note("sim_msgs_per_s", per_s(self.messages));
        report.note("jobs_per_s", per_s(self.jobs));
        let spaced = |v: &[f64]| v.iter().map(|w| format!("{w:.4}")).collect::<Vec<_>>();
        report.note("walls_s", spaced(&self.timed.walls).join(" "));
        report.note("probes_s", spaced(&self.timed.probes).join(" "));
    }
}

/// Counters attached to a traced iteration's root span: engine time and
/// simulated totals from `RunStats`, allocations, and the node programs'
/// probe totals.
pub fn count_stats(span: &mut trace::Span, stats: &RunStats) {
    span.count("engine_ns", stats.timing.total_ns());
    span.count("step_ns", stats.timing.step_ns);
    span.count("close_ns", stats.timing.delivery_ns);
    span.count("messages", stats.messages);
    span.count("bits", stats.bits);
    span.count("rounds", stats.rounds as u64);
}

pub fn count_probe(span: &mut trace::Span, p: &programs::ProbeTotals) {
    span.count("sends", p.sends);
    span.count("send_ns", p.send_ns);
    span.count("reads", p.reads);
    span.count("read_ns", p.read_ns);
    span.count("program_ns", p.step_ns);
}

/// Snapshot of the allocation counters, to attach as a delta.
pub struct AllocMark((u64, u64));

impl AllocMark {
    pub fn now() -> AllocMark {
        AllocMark(alloc::totals())
    }

    pub fn count_into(self, span: &mut trace::Span) {
        let (a, b) = alloc::totals();
        span.count("allocs", a - self.0 .0);
        span.count("alloc_bytes", b - self.0 .1);
    }
}

/// Interleave untraced and traced iterations until `seconds` have passed
/// (at least `min_pairs` pairs), alternating which goes first. Returns the
/// walls of each side; the untraced side runs with recording and
/// allocation counting off.
pub fn overhead_pairs(
    report: &mut Report,
    seconds: f64,
    min_pairs: usize,
    mut iter: impl FnMut(bool) -> Checked,
) -> (Vec<f64>, Vec<f64>) {
    let t = Instant::now();
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut k = 0;
    while on.len() < min_pairs || secs_since(t) < seconds {
        for traced in [k % 2 == 1, k % 2 == 0] {
            trace::enable(traced);
            alloc::set_counting(traced);
            let c = iter(traced);
            trace::enable(false);
            alloc::set_counting(false);
            report.tally(&c);
            if traced { &mut on } else { &mut off }.push(c.wall);
        }
        k += 1;
    }
    (off, on)
}

/// Per-layer metrics every workload derives the same way from its traced
/// iterations' root spans (named `root`) and the engine's per-round walls.
pub fn record_common_layers(
    report: &mut Report,
    spans: &[trace::SpanRecord],
    root: &str,
    round_walls_ns: &[u64],
    walls: (&[f64], &[f64]),
) {
    let roots = trace::named(spans, root);
    let iters = roots.len().max(1) as f64;
    let sum = |k: &str| roots.iter().map(|s| s.counter(k)).sum::<u64>() as f64;
    let msgs = sum("messages");
    report.set("engine.timed_s", sum("engine_ns") / iters / 1e9);
    report.set("engine.step_s", sum("step_ns") / iters / 1e9);
    report.set("engine.close_s", sum("close_ns") / iters / 1e9);
    report.set("engine.ns_per_msg", ratio(sum("engine_ns"), msgs));
    let rounds_us: Vec<f64> = round_walls_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    report.set("engine.round_us_p50", quantile(&rounds_us, 0.5));
    report.set("engine.round_us_p99", quantile(&rounds_us, 0.99));
    // Host time inside the benchmark's own `Session::run*` calls that the
    // engine's round timers do not see.
    let runs: Vec<_> = spans
        .iter()
        .filter(|s| s.name.starts_with("cliquesim::Session::run"))
        .collect();
    let untimed: f64 = runs
        .iter()
        .map(|s| s.dur_ns() as f64 - s.counter("engine_ns") as f64)
        .sum();
    report.set("engine.untimed_s", untimed / iters / 1e9);
    report.set("msg.allocs_per_msg", ratio(sum("allocs"), msgs));
    report.set("msg.alloc_bytes_per_msg", ratio(sum("alloc_bytes"), msgs));
    report.set("msg.send_ns", ratio(sum("send_ns"), sum("sends")));
    report.set("msg.read_ns_per_msg", ratio(sum("read_ns"), sum("reads")));
    let self_ns = sum("program_ns") - sum("send_ns") - sum("read_ns");
    report.set("node.program_self_s", self_ns / iters / 1e9);
    let (off, on) = walls;
    report.set("trace.overhead_frac", median(on) / median(off) - 1.0);
    // Untraced iterations of this run, in host seconds.
    report.set("host.wall_s", median(off));
    report.set("host.sim_msgs_per_s", msgs / iters / median(off));
    report.note("traced_iterations", roots.len());
}

/// Run the named workload to a report.
fn run_workload(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "apsp-dense" => apsp::run(args),
        "wire-null" => wire::run(args),
        "fleet-mixed" => fleet::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Git revision if the checkout is a repository, else "unknown". Asks git
/// only when `.git` is here, so it never searches the parent directories.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// FNV-1a digest of the sources under test (`crates/`, `vendor/`,
/// `Cargo.lock`) and of the benchmark's own sources: identifies the code
/// measured even where the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, files);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    for d in ["crates", "vendor", "perfbench/src"] {
        walk(std::path::Path::new(d), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn emit(args: &Args, report: &Report) -> Result<(), String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for (name, unit) in table {
        let v = *report
            .values
            .get(name)
            .ok_or(format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "{}:{{\"value\":{v:?},\"unit\":{}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    let correct = report.failed == 0 && report.gates.iter().all(|(_, ok)| *ok);
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;

    // Human-readable table and the provenance line first; the result
    // object is the last line of standard output.
    eprintln!("{} seed={} trace={}", args.workload, args.seed, args.trace);
    for (name, unit) in table {
        eprintln!("  {:<28} {:>16.6} {unit}", name, report.values[name]);
    }
    eprintln!("  {:<28} {:>16.6} ratio", "fail_frac", fail_frac);
    let gates: Vec<String> = report
        .gates
        .iter()
        .map(|(g, ok)| format!("{{\"gate\":{},\"ok\":{ok}}}", json_str(g)))
        .collect();
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    println!(
        "{{\"report\":{{\"workload\":{},\"seed\":{},\"held_out_seed\":{HELD_OUT_SEED},\
         \"git_revision\":{},\"source_digest\":{},\"host_parallelism\":{},\"rustc\":{},\
         \"profile\":{},\"trace\":{},\"size\":{},\"fail_frac\":{fail_frac:?},\
         \"gates\":[{}],\"notes\":{{{}}}}}}}",
        json_str(&args.workload),
        args.seed,
        json_str(&git_revision()),
        json_str(&source_digest()),
        nproc(),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        args.trace,
        json_str(if args.tiny { "tiny" } else { "full" }),
        gates.join(","),
        notes.join(","),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    Ok(())
}

/// Entry point of both binaries. `traced_binary` says whether the counting
/// allocator is installed, which the traced run requires.
pub fn main(traced_binary: bool) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--size tiny|full] [--trace-out <file>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_binary {
        eprintln!(
            "error: --trace {} needs the other binary",
            u8::from(args.trace)
        );
        return ExitCode::from(2);
    }
    let result = run_workload(&args).and_then(|report| {
        if args.trace {
            if let Some(path) = &args.trace_out {
                trace::write_jsonl(path, &trace::spans())
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
        }
        emit(&args, &report)
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
