//! The benchmark's own node programs, generic over `TRACE`.
//!
//! With `TRACE = false` they do no timing at all. With `TRACE = true` each
//! step times its inbox loop, its send loop and the whole step, and adds
//! the per-step totals to its node's slot in a shared [`Probe`]: counts
//! and nanoseconds per boundary, never one record per message.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cliquesim::{BitString, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Status};

/// One node's counters, written only by that node's program.
#[derive(Default)]
#[repr(align(64))]
struct NodeSlot {
    sends: AtomicU64,
    send_ns: AtomicU64,
    reads: AtomicU64,
    read_ns: AtomicU64,
    step_ns: AtomicU64,
}

/// Per-node message-boundary counters for one run.
pub struct Probe {
    nodes: Vec<NodeSlot>,
}

/// Sum of a [`Probe`] over nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProbeTotals {
    pub sends: u64,
    pub send_ns: u64,
    pub reads: u64,
    pub read_ns: u64,
    pub step_ns: u64,
}

impl ProbeTotals {
    pub fn add(&mut self, o: &ProbeTotals) {
        self.sends += o.sends;
        self.send_ns += o.send_ns;
        self.reads += o.reads;
        self.read_ns += o.read_ns;
        self.step_ns += o.step_ns;
    }
}

impl Probe {
    pub fn new(n: usize) -> Arc<Probe> {
        Arc::new(Probe {
            nodes: (0..n).map(|_| NodeSlot::default()).collect(),
        })
    }

    pub fn totals(&self) -> ProbeTotals {
        let mut t = ProbeTotals::default();
        for s in &self.nodes {
            t.sends += s.sends.load(Ordering::Relaxed);
            t.send_ns += s.send_ns.load(Ordering::Relaxed);
            t.reads += s.reads.load(Ordering::Relaxed);
            t.read_ns += s.read_ns.load(Ordering::Relaxed);
            t.step_ns += s.step_ns.load(Ordering::Relaxed);
        }
        t
    }

    fn record(&self, v: usize, sends: u64, reads: u64, [t0, t1, t2, t3]: [Instant; 4]) {
        let s = &self.nodes[v];
        let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
        s.reads.fetch_add(reads, Ordering::Relaxed);
        s.read_ns.fetch_add(ns(t0, t1), Ordering::Relaxed);
        s.sends.fetch_add(sends, Ordering::Relaxed);
        s.send_ns.fetch_add(ns(t1, t2), Ordering::Relaxed);
        s.step_ns.fetch_add(ns(t0, t3), Ordering::Relaxed);
    }
}

/// A fresh [`Probe`] when tracing, else a shared empty one that is never
/// touched.
pub fn probe_for<const TRACE: bool>(n: usize) -> Arc<Probe> {
    Probe::new(if TRACE { n } else { 0 })
}

/// SplitMix64 finaliser: the payload and digest mixer.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold every inbox message into `acc` (frames may carry an auth tag or
/// adversarial damage; only the first word is read). Returns messages read.
fn fold_inbox(acc: &mut u64, inbox: &Inbox<'_>) -> u64 {
    let mut reads = 0;
    for (from, msg) in inbox.iter() {
        let word = msg.reader().read_uint(msg.len().min(64)).unwrap_or(0);
        *acc = mix(*acc ^ word ^ ((from.0 as u64) << 40));
        reads += 1;
    }
    reads
}

fn word(bandwidth: usize, key: u64) -> BitString {
    let w = bandwidth.min(64);
    let mut m = BitString::with_capacity(w);
    m.push_uint(mix(key) & (u64::MAX >> (64 - w)), w);
    m
}

/// Null program: for `rounds` rounds every node sends a distinct one-word
/// message to every other node, then halts with a digest of all it read.
pub struct NullUnicast<const TRACE: bool> {
    rounds: usize,
    acc: u64,
    probe: Arc<Probe>,
}

impl<const TRACE: bool> NullUnicast<TRACE> {
    pub fn programs(n: usize, rounds: usize, probe: &Arc<Probe>) -> Vec<Self> {
        (0..n)
            .map(|_| NullUnicast {
                rounds,
                acc: 0,
                probe: Arc::clone(probe),
            })
            .collect()
    }
}

impl<const TRACE: bool> NodeProgram for NullUnicast<TRACE> {
    type Output = u64;

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<u64> {
        let t0 = TRACE.then(Instant::now);
        let reads = fold_inbox(&mut self.acc, inbox);
        let t1 = TRACE.then(Instant::now);
        let me = ctx.id.index();
        let mut sends = 0;
        if round < self.rounds {
            for u in (0..ctx.n).filter(|&u| u != me) {
                let key = ((round as u64) << 42) ^ ((me as u64) << 21) ^ u as u64;
                outbox.send(NodeId::from(u), word(ctx.bandwidth, key));
                sends += 1;
            }
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = Instant::now();
            self.probe
                .record(me, sends, reads, [t0, t1, t2, Instant::now()]);
        }
        if round < self.rounds {
            Status::Continue
        } else {
            Status::Halt(self.acc)
        }
    }
}

/// Null program for the broadcast congested clique: every round each node
/// broadcasts one word, then halts with a digest of all it read.
pub struct NullBroadcast<const TRACE: bool> {
    rounds: usize,
    acc: u64,
    probe: Arc<Probe>,
}

impl<const TRACE: bool> NullBroadcast<TRACE> {
    pub fn programs(n: usize, rounds: usize, probe: &Arc<Probe>) -> Vec<Self> {
        (0..n)
            .map(|_| NullBroadcast {
                rounds,
                acc: 0,
                probe: Arc::clone(probe),
            })
            .collect()
    }
}

impl<const TRACE: bool> NodeProgram for NullBroadcast<TRACE> {
    type Output = u64;

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<u64> {
        let t0 = TRACE.then(Instant::now);
        let reads = fold_inbox(&mut self.acc, inbox);
        let t1 = TRACE.then(Instant::now);
        let me = ctx.id.index();
        let mut sends = 0;
        if round < self.rounds {
            let key = ((round as u64) << 42) ^ me as u64;
            outbox.broadcast(&word(ctx.bandwidth, key));
            // One broadcast puts n − 1 copies on the wire.
            sends = ctx.n as u64 - 1;
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = Instant::now();
            self.probe
                .record(me, sends, reads, [t0, t1, t2, Instant::now()]);
        }
        if round < self.rounds {
            Status::Continue
        } else {
            Status::Halt(self.acc)
        }
    }
}

/// Broadcast-only max gossip: each node starts from a value and broadcasts
/// the largest value it knows every round; after `rounds` rounds all nodes
/// output the global maximum.
pub struct Gossip<const TRACE: bool> {
    rounds: usize,
    best: u64,
    probe: Arc<Probe>,
}

impl<const TRACE: bool> Gossip<TRACE> {
    pub fn programs(values: &[u64], rounds: usize, probe: &Arc<Probe>) -> Vec<Self> {
        values
            .iter()
            .map(|&best| Gossip {
                rounds,
                best,
                probe: Arc::clone(probe),
            })
            .collect()
    }
}

impl<const TRACE: bool> NodeProgram for Gossip<TRACE> {
    type Output = u64;

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<u64> {
        let t0 = TRACE.then(Instant::now);
        let mut reads = 0;
        for (_, msg) in inbox.iter() {
            self.best = self.best.max(msg.as_uint());
            reads += 1;
        }
        let t1 = TRACE.then(Instant::now);
        let mut sends = 0;
        if round < self.rounds {
            let mut m = BitString::with_capacity(ctx.bandwidth);
            m.push_uint(self.best, ctx.bandwidth);
            outbox.broadcast(&m);
            sends = ctx.n as u64 - 1;
        }
        if let (Some(t0), Some(t1)) = (t0, t1) {
            let t2 = Instant::now();
            self.probe
                .record(ctx.id.index(), sends, reads, [t0, t1, t2, Instant::now()]);
        }
        if round < self.rounds {
            Status::Continue
        } else {
            Status::Halt(self.best)
        }
    }
}
