//! The synchronous lockstep engine.
//!
//! Executes `n` copies of a [`NodeProgram`] in rounds, enforcing the model of
//! §3 of the paper: per round, every ordered pair of nodes may exchange at
//! most `bandwidth` bits (default `⌈log₂ n⌉`), local computation is free, and
//! the complexity of a run is its number of communication rounds.
//!
//! # Execution strategy
//!
//! One round driver runs every round the same way: a main-thread prologue
//! (crashes, rejoins, activity snapshot), the step phase, and a main-thread
//! epilogue (round close, the wire pipeline, deadline and cancel checks).
//! Node steps within a round are independent — each node reads only its own
//! state and last round's messages — so the step phase can split the nodes
//! into **disjoint chunks**: each chunk mutably borrows its nodes' state and
//! their rows of the write buffer, all chunks share the read buffer, and
//! every chunk but the first is stepped on a scoped thread spawned for that
//! round. The borrow checker proves the chunks disjoint. Without chunking
//! the main thread runs the same step function inline over all nodes.
//!
//! Message delivery is **double-buffered** behind a pluggable backend (see
//! [`DeliveryMode`]): the dense backend keeps a sender-major `n × n` matrix,
//! the sparse backend a per-sender edge list with a shared broadcast
//! payload. Either way nodes write sends into one buffer while reading the
//! previous round's through a receiver-oriented inbox view, so delivery is
//! a buffer swap (no O(n²) transpose, and steady-state rounds allocate
//! nothing — slots are cleared in place, retaining capacity, and persist
//! across runs via [`DeliveryArena`]).
//!
//! Chunked and inline execution produce bit-identical outputs, transcripts,
//! and [`RunStats`] (wall-clock timing excluded).

use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::auth::{AuthKeyring, AuthLedger};
use crate::bits::BitString;
use crate::byzantine::{ByzantinePlan, ByzantineReport};
use crate::delivery::{BufView, DeliveryArena, DeliveryBuf, DeliveryMode, DenseBuf, SparseBuf};
use crate::fault::{FaultEvent, FaultPlan, FaultReport};
use crate::node::{Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Status};
use crate::stats::RunStats;
use crate::transcript::{RoundTranscript, Transcript};

/// Errors surfaced by a run. Bandwidth violations are *bugs in the algorithm
/// under test* — the engine's job is to catch them, not to work around them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// In broadcast mode, a node sent different messages to different
    /// peers in the same round.
    BroadcastViolated {
        /// Offending sender.
        from: NodeId,
        /// Round in which the violation happened.
        round: usize,
    },
    /// In CONGEST mode, a node addressed a non-neighbour.
    TopologyViolated {
        /// Offending sender.
        from: NodeId,
        /// Illegal recipient (not adjacent in the communication graph).
        to: NodeId,
        /// Round in which the violation happened.
        round: usize,
    },
    /// A node emitted a message wider than the model allows.
    BandwidthExceeded {
        /// Offending sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Round in which the violation happened.
        round: usize,
        /// Size of the offending message.
        bits: usize,
        /// The engine's per-message budget.
        limit: usize,
    },
    /// The run did not terminate within the configured round limit.
    RoundLimit {
        /// The configured limit.
        limit: usize,
    },
    /// `run` was called with the wrong number of programs.
    WrongProgramCount {
        /// Number of nodes in the clique.
        expected: usize,
        /// Number of programs supplied.
        got: usize,
    },
    /// A node program panicked during its step. The engine converts the
    /// panic into this structured error whichever thread stepped the node,
    /// so a buggy program cannot tear down the run — the engine stays
    /// reusable.
    NodeProgramPanicked {
        /// The panicking node.
        node: NodeId,
        /// Round in which the panic happened.
        round: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The run exceeded the wall-clock budget set with
    /// [`Engine::with_deadline`]. Checked at round boundaries, so a single
    /// round's step phase can overshoot the limit before being caught.
    DeadlineExceeded {
        /// The configured budget.
        limit: Duration,
    },
    /// A node crash-stopped under a [`FaultPlan`], so [`Engine::run`] cannot
    /// produce an output for every node. Use [`Engine::run_in`] to observe
    /// the partial outputs of the surviving nodes instead.
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
        /// Round at whose start it stopped participating for good (its
        /// last crash, if churn crashed it more than once).
        round: usize,
    },
    /// The run was aborted through the cooperative cancellation flag set
    /// with [`Engine::with_cancel`] (e.g. a batch service tearing down its
    /// in-flight jobs). Checked at round boundaries, like
    /// [`SimError::DeadlineExceeded`].
    Cancelled {
        /// Round after which the cancellation was observed.
        round: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BroadcastViolated { from, round } => write!(
                f,
                "broadcast mode violated in round {round}: node {} sent distinct messages",
                from.display()
            ),
            SimError::TopologyViolated { from, to, round } => write!(
                f,
                "CONGEST topology violated in round {round}: node {} sent to non-neighbour {}",
                from.display(),
                to.display()
            ),
            SimError::BandwidthExceeded { from, to, round, bits, limit } => write!(
                f,
                "bandwidth exceeded in round {round}: node {} sent {bits} bits to node {} (limit {limit})",
                from.display(),
                to.display()
            ),
            SimError::RoundLimit { limit } => {
                write!(f, "run exceeded the round limit of {limit}")
            }
            SimError::WrongProgramCount { expected, got } => {
                write!(f, "expected {expected} node programs, got {got}")
            }
            SimError::NodeProgramPanicked {
                node,
                round,
                message,
            } => write!(
                f,
                "node {} panicked in round {round}: {message}",
                node.display()
            ),
            SimError::DeadlineExceeded { limit } => {
                write!(f, "run exceeded the wall-clock deadline of {limit:?}")
            }
            SimError::NodeCrashed { node, round } => write!(
                f,
                "node {} crash-stopped in round {round} under the fault plan; \
                 use Engine::run_in or Session::run_byzantine to observe partial outputs",
                node.display()
            ),
            SimError::Cancelled { round } => {
                write!(f, "run cancelled cooperatively after round {round}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a run: per-node outputs plus everything the run recorded.
///
/// [`Engine::run_in`] returns `Outcome<Option<O>>`: a node the attached
/// [`FaultPlan`] crash-stopped before it halted has no output.
/// [`Outcome::complete`] restricts that to `Outcome<O>`, which is what
/// [`Engine::run`] returns.
///
/// Traitor nodes under a [`ByzantinePlan`] still run their (honest)
/// programs and still produce outputs — it is their *outbound messages*
/// the adversary rewrote — so agreement claims about Byzantine-tolerant
/// protocols should be stated over the honest nodes only: see
/// [`Outcome::honest_unanimous`].
#[derive(Debug, PartialEq)]
pub struct Outcome<T> {
    /// Local output of each node, indexed by node.
    pub outputs: Vec<T>,
    /// Accounting for the run, including the fault, Byzantine and
    /// authentication counters.
    pub stats: RunStats,
    /// Per-node communication transcripts, if recording was enabled.
    /// Transcripts record what each program *sent* — a traitor's lies are
    /// visible only in its recipients' inboxes and in the event log — and
    /// a crashed node's transcript simply ends at its crash round.
    pub transcripts: Option<Vec<Transcript>>,
    /// Every link/crash fault the [`FaultPlan`] applied, in deterministic
    /// order (empty when no plan was attached — and for link-only plans in
    /// which no coin came up).
    pub faults: FaultReport,
    /// Every rewrite the [`ByzantinePlan`] applied, in deterministic order.
    pub byzantine: ByzantineReport,
}

/// The common item if every item agrees (and there is at least one).
fn agreed<'a, T: PartialEq + 'a>(mut items: impl Iterator<Item = &'a T>) -> Option<&'a T> {
    let first = items.next()?;
    items.all(|o| o == first).then_some(first)
}

impl<T: PartialEq> Outcome<T> {
    /// The common output if all nodes agree (the paper requires decision
    /// algorithms to be unanimous), `None` otherwise. On an
    /// `Outcome<Option<O>>` this compares the `Option`s themselves; use
    /// [`Outcome::survivor_unanimous`] for agreement among survivors.
    pub fn unanimous(&self) -> Option<&T> {
        agreed(self.outputs.iter())
    }
}

impl<T> Outcome<Option<T>> {
    /// The crash-intolerant restriction: every node's output, or
    /// [`SimError::NodeCrashed`] naming the first node (by id) that has
    /// none and the round of the crash that stopped it for good.
    pub fn complete(self) -> Result<Outcome<T>, SimError> {
        // Every node without an output crashed (all others halt before a
        // run completes). Under churn it may have crashed, rejoined and
        // crashed again: the crash that stopped it for good is its last.
        let crashed = |v: usize| {
            let node = NodeId::from(v);
            let last = self.faults.events.iter().rev().find_map(|e| match e {
                FaultEvent::Crashed { node: u, round, .. } if *u == node => Some(*round),
                _ => None,
            });
            let round =
                last.unwrap_or_else(|| unreachable!("node without output must have crashed"));
            SimError::NodeCrashed { node, round }
        };
        let outputs = (self.outputs.into_iter().enumerate())
            .map(|(v, o)| o.ok_or_else(|| crashed(v)))
            .collect::<Result<_, _>>()?;
        Ok(Outcome {
            outputs,
            stats: self.stats,
            transcripts: self.transcripts,
            faults: self.faults,
            byzantine: self.byzantine,
        })
    }

    /// Outputs of the nodes that survived to halt, with their ids.
    pub fn survivors(&self) -> impl Iterator<Item = (NodeId, &T)> + '_ {
        self.outputs
            .iter()
            .enumerate()
            .filter_map(|(v, o)| o.as_ref().map(|o| (NodeId::from(v), o)))
    }
}

impl<T: PartialEq> Outcome<Option<T>> {
    /// The common output if every *surviving* node agrees (and at least one
    /// node survived), `None` otherwise. Includes traitors — use
    /// [`Outcome::honest_unanimous`] for the guarantee Byzantine-tolerant
    /// protocols actually make.
    pub fn survivor_unanimous(&self) -> Option<&T> {
        agreed(self.survivors().map(|(_, o)| o))
    }

    /// The common output if every surviving node *not marked as a traitor
    /// in `plan`* agrees (and at least one honest node survived), `None`
    /// otherwise. This is the agreement relation under which Bracha-style
    /// reliable broadcast is correct for `f < n/3`.
    pub fn honest_unanimous(&self, plan: &ByzantinePlan) -> Option<&T> {
        agreed(
            self.survivors()
                .filter(|(v, _)| !plan.is_traitor(*v))
                .map(|(_, o)| o),
        )
    }
}

/// Engine configuration and entry point. Construct with [`Engine::new`] and
/// customise with the builder methods.
#[derive(Clone, Debug)]
pub struct Engine {
    n: usize,
    bandwidth: usize,
    max_rounds: usize,
    record_transcripts: bool,
    threads: usize,
    cap_threads_to_host: bool,
    broadcast_only: bool,
    /// CONGEST mode: `topology[v*n + u]` = v may send to u. Empty = clique.
    topology: Arc<[bool]>,
    /// Number of `true` entries in `topology` (0 for the clique); cached so
    /// [`Engine::resolved_delivery`] can judge link density without a scan.
    topology_edges: usize,
    /// Which delivery backend to use; `Auto` decides per run.
    delivery: DeliveryMode,
    /// Adversary schedule; `None` (and the empty plan) leave runs
    /// byte-identical to the fault-free engine.
    fault_plan: Option<Arc<FaultPlan>>,
    /// Shift applied to the fault plan's round addressing: local round `r`
    /// consults plan round `fault_offset + r`. Lets multi-phase sessions
    /// run one continuous churn timeline even though each phase restarts
    /// its round count at 0.
    fault_offset: usize,
    /// Byzantine sender schedule; `None` (and the empty plan) leave runs
    /// byte-identical to the honest engine.
    byzantine_plan: Option<Arc<ByzantinePlan>>,
    /// Authenticated-envelope keyring; `None` leaves runs byte-identical
    /// to the unauthenticated engine (see [`crate::auth`]).
    auth: Option<Arc<AuthKeyring>>,
    /// Wall-clock budget for a whole run, checked at round boundaries.
    deadline: Option<Duration>,
    /// Cooperative cancellation flag, checked at round boundaries; shared
    /// with whoever may want to abort the run (see [`Engine::with_cancel`]).
    cancel: Option<Arc<AtomicBool>>,
}

/// Default cap on rounds; generous enough for every algorithm in this
/// workspace while still catching livelocks quickly.
const DEFAULT_MAX_ROUNDS: usize = 1 << 20;

impl Engine {
    /// An engine for an `n`-node clique with the standard bandwidth of
    /// `⌈log₂ n⌉` bits per ordered pair per round.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a clique needs at least one node");
        Self {
            n,
            bandwidth: BitString::width_for(n),
            max_rounds: DEFAULT_MAX_ROUNDS,
            record_transcripts: false,
            threads: 1,
            cap_threads_to_host: true,
            broadcast_only: false,
            topology: Arc::from(Vec::new().into_boxed_slice()),
            topology_edges: 0,
            delivery: DeliveryMode::Auto,
            fault_plan: None,
            fault_offset: 0,
            byzantine_plan: None,
            auth: None,
            deadline: None,
            cancel: None,
        }
    }

    /// Restrict communication to the edges of a graph — the classic
    /// **CONGEST** model, of which the congested clique is the
    /// fully-connected special case (§3 of the paper). `adjacent[v*n+u]`
    /// must be true iff `{u, v}` is a communication link; sending to a
    /// non-neighbour becomes a runtime error. Used by the workbench to
    /// contrast bottlenecked topologies with the clique (§2).
    pub fn with_topology(mut self, adjacent: Vec<bool>) -> Self {
        assert_eq!(
            adjacent.len(),
            self.n * self.n,
            "need an n×n adjacency table"
        );
        for v in 0..self.n {
            for u in 0..self.n {
                assert_eq!(
                    adjacent[v * self.n + u],
                    adjacent[u * self.n + v],
                    "must be symmetric"
                );
            }
            assert!(!adjacent[v * self.n + v], "no self-loops");
        }
        self.topology_edges = adjacent.iter().filter(|a| **a).count();
        self.topology = Arc::from(adjacent.into_boxed_slice());
        self
    }

    /// Select the per-round message-delivery backend (see [`DeliveryMode`]).
    /// The default, [`DeliveryMode::Auto`], picks the sparse backend for
    /// broadcast-only engines, sparse CONGEST topologies, and crash-heavy
    /// fault plans, and the dense `n × n` matrices otherwise. Whatever the
    /// choice, outputs, transcripts, reports, and [`RunStats`] are
    /// bit-identical — only memory footprint and wall-clock differ.
    pub fn with_delivery(mut self, mode: DeliveryMode) -> Self {
        self.delivery = mode;
        self
    }

    /// The configured delivery mode (possibly [`DeliveryMode::Auto`]).
    pub fn delivery(&self) -> DeliveryMode {
        self.delivery
    }

    /// The backend a run would use right now: resolves
    /// [`DeliveryMode::Auto`] against the engine's configuration (never
    /// returns `Auto`). The heuristic prefers sparse whenever per-sender
    /// traffic is structurally far below `n - 1` distinct payloads:
    /// broadcast-only mode (one payload per sender), a CONGEST topology
    /// with at most 25% of ordered pairs adjacent, or a fault plan that
    /// leaves at least half the nodes *permanently* dead — net of rejoins
    /// (`dead_at(usize::MAX)` collapses crash/rejoin pairs), so a high-churn
    /// plan whose nodes keep coming back does not over-select Sparse.
    pub fn resolved_delivery(&self) -> DeliveryMode {
        match self.delivery {
            DeliveryMode::Dense => DeliveryMode::Dense,
            DeliveryMode::Sparse => DeliveryMode::Sparse,
            DeliveryMode::Auto => {
                let sparse_topology =
                    !self.topology.is_empty() && self.topology_edges * 4 <= self.n * self.n;
                let crash_heavy = self
                    .fault_plan
                    .as_deref()
                    .is_some_and(|p| p.dead_at(usize::MAX).len() * 2 >= self.n);
                if self.broadcast_only || sparse_topology || crash_heavy {
                    DeliveryMode::Sparse
                } else {
                    DeliveryMode::Dense
                }
            }
        }
    }

    /// Attach a fault-injection adversary (see [`crate::fault`]). The plan
    /// is applied identically whatever the pool shape; an empty plan is
    /// guaranteed byte-identical to no plan at all. Runs whose plan crashes
    /// nodes should use [`Engine::run_in`] to observe partial outputs —
    /// [`Engine::run`] turns a crash into [`SimError::NodeCrashed`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Shift the fault plan's round addressing: local round `r` consults
    /// plan round `offset + r` for crashes, rejoins, and link-fault coins,
    /// and [`crate::FaultReport`] events carry plan rounds. The default
    /// offset 0 is today's behaviour exactly. A multi-phase
    /// [`crate::Session`] advances the offset between phases (see
    /// `Session::align_fault_clock`) so one continuous churn timeline spans
    /// phases that each restart their round count at 0.
    pub fn with_fault_offset(mut self, offset: usize) -> Self {
        self.fault_offset = offset;
        self
    }

    /// The configured fault-clock offset (see
    /// [`Engine::with_fault_offset`]).
    pub fn fault_offset(&self) -> usize {
        self.fault_offset
    }

    /// Attach a Byzantine sender adversary (see [`crate::byzantine`]): the
    /// plan's traitor nodes get their outbound messages rewritten per
    /// recipient. Applied identically whatever the pool shape; an empty
    /// plan is guaranteed byte-identical to no plan at all. Composes with
    /// [`Engine::with_fault_plan`]: each round, traitors lie first, then
    /// link faults damage what was actually transmitted. The per-event
    /// rewrite log is [`Outcome::byzantine`].
    pub fn with_byzantine_plan(mut self, plan: ByzantinePlan) -> Self {
        self.byzantine_plan = Some(Arc::new(plan));
        self
    }

    /// Attach an authenticated-message keyring (see [`crate::auth`]):
    /// every round the engine appends a [`crate::auth::TAG_BITS`]-bit tag
    /// to each non-empty outbound message after the Byzantine rewrites
    /// (lies are validly signed with the traitor's own key) and verifies
    /// every frame after the link faults, clearing the ones whose tag
    /// fails. Inboxes then hold `payload ‖ tag` frames. The envelope's
    /// work is charged to `RunStats.signed_messages` / `auth_bits` /
    /// `rejected_tags`; an engine without a keyring takes the exact
    /// unauthenticated path.
    pub fn with_auth(mut self, keyring: AuthKeyring) -> Self {
        assert_eq!(
            keyring.n(),
            self.n,
            "keyring covers {} identities but the clique has {} nodes",
            keyring.n(),
            self.n
        );
        self.auth = Some(Arc::new(keyring));
        self
    }

    /// The attached keyring, if any (see [`Engine::with_auth`]).
    pub fn auth_keyring(&self) -> Option<&AuthKeyring> {
        self.auth.as_deref()
    }

    /// The attached fault plan, if any (see [`Engine::with_fault_plan`]).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_deref()
    }

    /// The attached Byzantine plan, if any (see
    /// [`Engine::with_byzantine_plan`]).
    pub fn byzantine_plan(&self) -> Option<&ByzantinePlan> {
        self.byzantine_plan.as_deref()
    }

    /// Abort the run with [`SimError::DeadlineExceeded`] once `limit` of
    /// wall-clock time has elapsed (a watchdog for runaway protocols, e.g.
    /// in CI). The check runs at round boundaries, so granularity is one
    /// round's step phase. Complements [`Engine::with_max_rounds`], which
    /// bounds rounds rather than time.
    pub fn with_deadline(mut self, limit: Duration) -> Self {
        self.deadline = Some(limit);
        self
    }

    /// Share a cooperative cancellation flag with the run: once any holder
    /// stores `true`, the run aborts with [`SimError::Cancelled`] at the
    /// next round boundary. This is the hook a multi-run host (e.g. the
    /// `cc-service` batch scheduler) uses to tear down in-flight
    /// simulations without killing the worker thread they run on. The
    /// check sits next to the [`Engine::with_deadline`] watchdog, so
    /// granularity is one round's step phase.
    pub fn with_cancel(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Restrict the engine to the **broadcast congested clique** (§2 of
    /// the paper): each round every node must send the *same* message to
    /// every other node (or nothing at all). Violations are runtime
    /// errors, so a unicast algorithm cannot silently pass as a broadcast
    /// one.
    pub fn broadcast_only(mut self, on: bool) -> Self {
        self.broadcast_only = on;
        self
    }

    /// Override the per-message bit budget.
    ///
    /// The paper normalises algorithms to exactly `⌈log₂ n⌉` bits by moving
    /// constant factors into the round count; passing a multiple of
    /// `⌈log₂ n⌉` here models an `O(log n)`-bandwidth algorithm directly.
    pub fn with_bandwidth(mut self, bits: usize) -> Self {
        assert!(bits >= 1, "bandwidth must be at least one bit");
        self.bandwidth = bits;
        self
    }

    /// Bandwidth `c · ⌈log₂ n⌉` for an algorithm using `O(log n)`-bit
    /// messages with constant `c`.
    pub fn with_bandwidth_multiplier(self, c: usize) -> Self {
        let b = BitString::width_for(self.n) * c;
        self.with_bandwidth(b)
    }

    /// Cap the number of communication rounds (defense against
    /// non-terminating programs).
    ///
    /// `with_max_rounds(L)` means *at most `L` communication rounds*: a
    /// program that has not halted by step index `L` fails with
    /// [`SimError::RoundLimit`] before any further exchange, so every
    /// successful run satisfies `stats.rounds <= L`. A program halting at
    /// exactly step `L` (i.e. using exactly `L` exchanges) succeeds.
    pub fn with_max_rounds(mut self, limit: usize) -> Self {
        self.max_rounds = limit;
        self
    }

    /// Record full per-node communication transcripts (memory-heavy; used
    /// by the Theorem 3 normal-form machinery and by debugging).
    pub fn with_transcripts(mut self, on: bool) -> Self {
        self.record_transcripts = on;
        self
    }

    /// Step nodes on up to `threads` OS threads: each round the nodes are
    /// split into `threads` contiguous chunks, the main thread steps the
    /// first and a scoped thread spawned for that round steps each of the
    /// others. Results are identical to an inline run; only wall-clock
    /// changes.
    ///
    /// Chunking engages only when `threads > 1` and `n ≥ 2·threads` (every
    /// chunk gets at least two nodes); otherwise the main thread steps
    /// every node inline.
    ///
    /// The count is capped at the host's available parallelism: threads
    /// beyond the core count cannot execute concurrently and would only add
    /// spawn and join latency. Use [`Engine::with_threads_exact`] when a
    /// test or benchmark must exercise a specific pool shape (thread count)
    /// regardless of host.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1);
        self.threads = threads;
        self.cap_threads_to_host = true;
        self
    }

    /// Like [`Engine::with_threads`] but without the host-parallelism cap:
    /// the step phase uses exactly this many threads (pool-shape
    /// determinism for tests and benchmarks; on an undersized host this
    /// only costs wall-clock, never correctness).
    pub fn with_threads_exact(mut self, threads: usize) -> Self {
        assert!(threads >= 1);
        self.threads = threads;
        self.cap_threads_to_host = false;
        self
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-message bit budget.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    /// Run one program instance per node to completion, promising an
    /// output for every node: if the attached [`FaultPlan`] leaves a node
    /// crash-stopped, the run fails with [`SimError::NodeCrashed`]. This is
    /// [`Engine::run_in`] on a fresh arena, restricted by
    /// [`Outcome::complete`].
    pub fn run<P: NodeProgram>(&self, programs: Vec<P>) -> Result<Outcome<P::Output>, SimError> {
        self.run_in(programs, &mut DeliveryArena::new())?.complete()
    }

    /// The engine's one general entry point: run one program instance per
    /// node under whatever adversaries are attached, reporting crashed
    /// nodes as `None` outputs and returning the fault report and the
    /// Byzantine rewrite log alongside the stats.
    ///
    /// Delivery buffers are checked out of (and back into) `arena`, so
    /// repeated runs reuse allocations instead of re-allocating per run;
    /// [`crate::Session`] routes every phase through its own arena. Stats
    /// are unaffected by reuse (all accounting is in logical messages,
    /// never retained capacity).
    pub fn run_in<P: NodeProgram>(
        &self,
        programs: Vec<P>,
        arena: &mut DeliveryArena,
    ) -> Result<Outcome<Option<P::Output>>, SimError> {
        // Validate before any buffer checkout: rejecting a wrong-sized
        // program vector must not cost 2·n² message slots.
        if programs.len() != self.n {
            return Err(SimError::WrongProgramCount {
                expected: self.n,
                got: programs.len(),
            });
        }
        match self.resolved_delivery() {
            DeliveryMode::Sparse => self.run_core::<P, SparseBuf>(programs, arena),
            _ => self.run_core::<P, DenseBuf>(programs, arena),
        }
    }

    /// Set up a run on delivery backend `B`, drive it, and collect the
    /// outcome.
    fn run_core<P: NodeProgram, B: DeliveryBuf>(
        &self,
        mut programs: Vec<P>,
        arena: &mut DeliveryArena,
    ) -> Result<Outcome<Option<P::Output>>, SimError> {
        let n = self.n;
        let ctxs: Vec<NodeCtx> = (0..n)
            .map(|v| NodeCtx {
                id: NodeId::from(v),
                n,
                bandwidth: self.bandwidth,
            })
            .collect();
        for (p, ctx) in programs.iter_mut().zip(&ctxs) {
            p.init(ctx);
        }

        // Double-buffered sender-major delivery buffers: in round r the
        // nodes write sender rows of buffer `r % 2` and read buffer
        // `1 - r % 2` (written in round r-1) through an Inbox view.
        // Delivery is the implicit swap; rows are cleared in place at the
        // start of the round that rewrites them. The pair comes out of the
        // arena, so repeated runs reuse the allocations.
        let mut bufs = B::take(arena, n);
        let mut halted = vec![false; n];
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let mut book = RoundBook::new(self);
        let result = self.drive(
            &mut programs,
            &mut halted,
            &mut outputs,
            &mut bufs,
            &ctxs,
            &mut book,
        );
        // Return the buffers even on a failed run, so the next run through
        // the same arena still reuses the allocations.
        B::put(arena, bufs);
        result?;
        Ok(book.finish(outputs))
    }

    /// Drive a run round by round until every node halts or the run
    /// fails. Every main-thread section appears here once.
    fn drive<P: NodeProgram, B: DeliveryBuf>(
        &self,
        programs: &mut [P],
        halted: &mut [bool],
        outputs: &mut [Option<P::Output>],
        bufs: &mut [B; 2],
        ctxs: &[NodeCtx],
        book: &mut RoundBook<'_>,
    ) -> Result<(), SimError> {
        let n = self.n;
        let threads = self.step_threads();
        // Chunked only when every thread gets at least two nodes.
        let chunk = (threads > 1 && n >= 2 * threads).then(|| n.div_ceil(threads));
        let started = Instant::now();
        let mut active = vec![true; n];
        let mut round = 0usize;
        loop {
            let [a, b] = &mut *bufs;
            let (cur, prev) = match round % 2 {
                0 => (a, b),
                _ => (b, a),
            };
            let mut all = Nodes::<P, B> {
                lo: 0,
                programs: &mut *programs,
                halted: &mut *halted,
                outputs: &mut *outputs,
                cur: cur.slots_mut(),
                prev: prev.slots_mut(),
            };
            if let Some(plan) = book.plan {
                // Churn prologue. Crashes fire before the activity
                // snapshot: a node crashing in round r never steps in it,
                // and the messages it was due to read this round (written
                // last round) are lost. Rejoins fire right after: a node
                // due back this round is replayed over its missed window
                // and steps again from this round on. Running only here on
                // the main thread (plus address-keyed coins) keeps the
                // adversary pool-shape independent.
                let inbound = B::view(all.prev, n);
                plan.apply_crashes(
                    book.fault_offset + round,
                    all.halted,
                    &inbound,
                    &mut book.faults,
                );
                book.process_churn(round, plan, ctxs, &mut all, &inbound)?;
            }
            for (a, h) in active.iter_mut().zip(all.halted.iter()) {
                *a = !*h;
            }

            let step_start = Instant::now();
            let acc = match chunk {
                Some(chunk) => self.step_chunks(&mut all, chunk, ctxs, round)?,
                None => self.step_chunk(&mut all, ctxs, round)?,
            };
            let step_end = Instant::now();

            if book.close_round::<P, B>(round, acc, &all, &active, step_start, step_end)? {
                return Ok(());
            }
            book.wire::<B>(round, all.cur, all.prev);
            self.check_interrupt(round, started)?;
            round += 1;
        }
    }

    /// Thread count the step phase may use: the configured thread count,
    /// capped at the host's parallelism unless set exactly.
    fn step_threads(&self) -> usize {
        if self.cap_threads_to_host {
            let host = std::thread::available_parallelism().map_or(1, |p| p.get());
            self.threads.min(host)
        } else {
            self.threads
        }
    }

    /// The parallel step phase: split `all` into disjoint chunks of
    /// `chunk` nodes and their write rows, step chunk 0 on this thread and
    /// every other chunk on its own scoped thread, and fold the results in
    /// chunk order. The lowest chunk's error wins, which is the lowest
    /// node's: the same error an inline step surfaces. Program panics are
    /// already errors by then, so a panicking chunk thread is an engine
    /// bug and is re-thrown here.
    fn step_chunks<P: NodeProgram, B: DeliveryBuf>(
        &self,
        all: &mut Nodes<'_, P, B>,
        chunk: usize,
        ctxs: &[NodeCtx],
        round: usize,
    ) -> Result<ChunkAcc, SimError> {
        let prev = all.prev;
        let mut chunks = all
            .programs
            .chunks_mut(chunk)
            .zip(all.halted.chunks_mut(chunk))
            .zip(all.outputs.chunks_mut(chunk))
            .zip(all.cur.chunks_mut(B::slot_range(self.n, 0, chunk).len()))
            .enumerate()
            .map(|(i, (((programs, halted), outputs), cur))| Nodes::<P, B> {
                lo: i * chunk,
                programs,
                halted,
                outputs,
                cur,
                prev,
            });
        let Some(mut first) = chunks.next() else {
            return Ok(ChunkAcc::default());
        };
        std::thread::scope(|s| {
            let rest: Vec<_> = chunks
                .map(|mut nodes| s.spawn(move || self.step_chunk(&mut nodes, ctxs, round)))
                .collect();
            let mut acc = self.step_chunk(&mut first, ctxs, round)?;
            for h in rest {
                acc.fold(&h.join().unwrap_or_else(|payload| resume_unwind(payload))?);
            }
            Ok(acc)
        })
    }

    /// The one step function: step nodes `nodes.lo..` for one round and
    /// validate what they sent. The parallel step phase runs it on each
    /// chunk; otherwise the main thread runs it inline over every node.
    fn step_chunk<P: NodeProgram, B: DeliveryBuf>(
        &self,
        nodes: &mut Nodes<'_, P, B>,
        ctxs: &[NodeCtx],
        round: usize,
    ) -> Result<ChunkAcc, SimError> {
        let (n, lo, prev) = (self.n, nodes.lo, nodes.prev);
        let cur = &mut *nodes.cur;
        let mut acc = ChunkAcc::default();
        let mine = nodes
            .programs
            .iter_mut()
            .zip(nodes.halted.iter_mut())
            .zip(nodes.outputs.iter_mut());
        // `row` is relative to the chunk's write rows `cur`; `ctx.id` is
        // the node's absolute id.
        for (row, ((prog, halted), output)) in mine.enumerate() {
            B::clear_row(cur, n, row);
            if *halted {
                continue;
            }
            let ctx = &ctxs[lo + row];
            let inbox = B::inbox(prev, n, ctx.id.index());
            let status = {
                let mut outbox = B::outbox(cur, n, row, ctx.id.index());
                // A panicking program becomes a structured error, not a
                // torn-down run: the engine (and its caller) must stay
                // usable after a buggy algorithm.
                catch_unwind(AssertUnwindSafe(|| {
                    prog.step(ctx, round, &inbox, &mut outbox)
                }))
                .map_err(|payload| SimError::NodeProgramPanicked {
                    node: ctx.id,
                    round,
                    message: panic_message(payload),
                })?
            };
            if let Status::Halt(out) = status {
                *halted = true;
                *output = Some(out);
            }
            B::seal_row(cur, n, row);
            self.admit_row::<B>(cur, row, ctx, round, &mut acc)?;
        }
        Ok(acc)
    }

    /// Check node `ctx.id`'s sealed sender row against the model (CONGEST
    /// topology, broadcast restriction, bandwidth) and charge it to `acc`.
    fn admit_row<B: DeliveryBuf>(
        &self,
        cur: &[B::Slot],
        row: usize,
        ctx: &NodeCtx,
        round: usize,
        acc: &mut ChunkAcc,
    ) -> Result<(), SimError> {
        let n = self.n;
        let v = ctx.id.index();
        if !self.topology.is_empty() {
            for (u, _m) in B::row_iter(cur, n, row, v) {
                if !self.topology[v * n + u] {
                    return Err(SimError::TopologyViolated {
                        from: ctx.id,
                        to: NodeId::from(u),
                        round,
                    });
                }
            }
        }
        if self.broadcast_only {
            // All non-empty outgoing messages must be identical, and a node
            // either addresses everyone or no one.
            let mut common: Option<&BitString> = None;
            let mut nonempty = 0;
            for (_u, m) in B::row_iter(cur, n, row, v) {
                nonempty += 1;
                match common {
                    None => common = Some(m),
                    Some(c) if c == m => {}
                    _ => {
                        return Err(SimError::BroadcastViolated {
                            from: ctx.id,
                            round,
                        })
                    }
                }
            }
            if nonempty != 0 && nonempty != n - 1 {
                return Err(SimError::BroadcastViolated {
                    from: ctx.id,
                    round,
                });
            }
        }
        for (u, m) in B::row_iter(cur, n, row, v) {
            if m.len() > self.bandwidth {
                return Err(SimError::BandwidthExceeded {
                    from: ctx.id,
                    to: NodeId::from(u),
                    round,
                    bits: m.len(),
                    limit: self.bandwidth,
                });
            }
            acc.messages += 1;
            acc.bits += m.len() as u64;
            acc.max_message_bits = acc.max_message_bits.max(m.len());
        }
        Ok(())
    }

    /// The round-boundary watchdog: the [`Engine::with_deadline`] budget
    /// and the [`Engine::with_cancel`] flag.
    fn check_interrupt(&self, round: usize, started: Instant) -> Result<(), SimError> {
        if let Some(limit) = self.deadline.filter(|&l| started.elapsed() >= l) {
            return Err(SimError::DeadlineExceeded { limit });
        }
        match &self.cancel {
            Some(flag) if flag.load(Ordering::Relaxed) => Err(SimError::Cancelled { round }),
            _ => Ok(()),
        }
    }
}

/// Nodes `lo..lo + programs.len()` in one round: their programs, halt
/// flags and outputs, their rows `cur` of the write buffer, and the whole
/// buffer `prev` written last round.
struct Nodes<'v, P: NodeProgram, B: DeliveryBuf> {
    lo: usize,
    programs: &'v mut [P],
    halted: &'v mut [bool],
    outputs: &'v mut [Option<P::Output>],
    cur: &'v mut [B::Slot],
    prev: &'v [B::Slot],
}

#[derive(Default, Clone, Copy)]
struct ChunkAcc {
    messages: u64,
    bits: u64,
    max_message_bits: usize,
}

impl ChunkAcc {
    fn fold(&mut self, other: &ChunkAcc) {
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_message_bits = self.max_message_bits.max(other.max_message_bits);
    }
}

/// State-sync bookkeeping for one crash the plan will later rejoin.
struct PendingRejoin {
    /// Engine-local round the crash fired at the start of.
    crash_round: usize,
    /// Engine-local round the rejoin is due at the start of.
    rejoin_round: usize,
    /// Inbound columns for the missed rounds, recorded at each round start
    /// while the node is down: entry `j` is what the node would have read
    /// in round `crash_round + j` (entry 0 is the in-flight traffic at
    /// crash time).
    window: Vec<Vec<BitString>>,
    /// Per-round traffic sent *to* the node while down, keyed by the round
    /// it was written in — diverted from the undelivered counters until the
    /// rejoin settles whether the replay delivered it.
    diverted: Vec<(usize, u64, u64)>,
}

/// The run's main-thread state: the adversaries, the stats and transcripts,
/// and the event logs. Only the driver's main-thread sections touch it.
struct RoundBook<'e> {
    n: usize,
    max_rounds: usize,
    /// The fault plan, `None` when absent or empty: an empty plan must be
    /// transparent, so it skips every fault hook.
    plan: Option<&'e FaultPlan>,
    /// Shift applied to the fault plan's round addressing.
    fault_offset: usize,
    /// The Byzantine plan, `None` when absent or empty.
    byz: Option<&'e ByzantinePlan>,
    /// The signed-message envelope, if any.
    auth: Option<&'e AuthKeyring>,
    stats: RunStats,
    transcripts: Option<Vec<Transcript>>,
    faults: FaultReport,
    byzantine: ByzantineReport,
    auth_ledger: AuthLedger,
    /// Payload bits written in the previous round, still live in the read
    /// buffer during this round's step phase.
    prev_round_bits: u64,
    /// Whether any node has halted so far; skips the undelivered scan on
    /// the all-active prefix of a run (the common case).
    any_halted: bool,
    /// One pending-rejoin slot per node. Only allocated when the plan
    /// schedules rejoins, so crash-only plans take the exact pre-churn
    /// code path.
    churn: Option<Vec<Option<PendingRejoin>>>,
}

impl<'e> RoundBook<'e> {
    fn new(engine: &'e Engine) -> Self {
        let n = engine.n;
        let plan = engine.fault_plan.as_deref().filter(|p| !p.is_empty());
        Self {
            n,
            max_rounds: engine.max_rounds,
            plan,
            fault_offset: engine.fault_offset,
            byz: engine.byzantine_plan.as_deref().filter(|p| !p.is_empty()),
            auth: engine.auth.as_deref(),
            stats: RunStats::default(),
            transcripts: engine
                .record_transcripts
                .then(|| vec![Transcript::default(); n]),
            faults: FaultReport::default(),
            byzantine: ByzantineReport::default(),
            auth_ledger: AuthLedger::default(),
            prev_round_bits: 0,
            any_halted: false,
            churn: plan
                .filter(|p| p.has_rejoins())
                .map(|_| (0..n).map(|_| None).collect()),
        }
    }

    /// Fold the event logs into the stats and assemble the outcome.
    fn finish<T>(mut self, outputs: Vec<Option<T>>) -> Outcome<Option<T>> {
        self.faults.tally_into(&mut self.stats);
        self.byzantine.tally_into(&mut self.stats);
        self.auth_ledger.tally_into(&mut self.stats);
        Outcome {
            outputs,
            stats: self.stats,
            transcripts: self.transcripts,
            faults: self.faults,
            byzantine: self.byzantine,
        }
    }

    /// Round-start churn pass, right after `apply_crashes`: register fresh
    /// crash victims the plan will rejoin, replay the missed window to
    /// nodes due back this round, and record the inbound column for every
    /// node still down.
    fn process_churn<P: NodeProgram, B: DeliveryBuf>(
        &mut self,
        round: usize,
        plan: &FaultPlan,
        ctxs: &[NodeCtx],
        all: &mut Nodes<'_, P, B>,
        inbound: &BufView<'_>,
    ) -> Result<(), SimError> {
        let n = self.n;
        let plan_round = self.fault_offset + round;
        let Self {
            churn,
            transcripts,
            stats,
            faults,
            ..
        } = self;
        let Some(pending) = churn.as_mut() else {
            return Ok(());
        };
        // 1. Fresh crashes: `apply_crashes` just appended this round's
        // Crashed events at the report's tail. A victim with a scheduled
        // future rejoin gets a pending window; one without follows the
        // plain crash path untouched.
        for e in faults.events.iter().rev() {
            let FaultEvent::Crashed { node, round: r, .. } = e else {
                break;
            };
            if *r != plan_round {
                break;
            }
            if let Some(pr) = plan.next_rejoin_after(*node, plan_round) {
                pending[node.index()] = Some(PendingRejoin {
                    crash_round: round,
                    rejoin_round: round + (pr - plan_round),
                    window: Vec::new(),
                    diverted: Vec::new(),
                });
            }
        }
        // 2. Rejoins due at this round start, in node order (deterministic
        // across pool shapes by construction: main thread only).
        for v in 0..n {
            if let Some(p) = pending[v].take_if(|p| p.rejoin_round == round) {
                replay_rejoin::<P>(
                    v,
                    plan_round,
                    p,
                    &mut all.programs[v],
                    &ctxs[v],
                    &mut all.halted[v],
                    &mut all.outputs[v],
                    transcripts.as_mut(),
                    stats,
                    faults,
                )?;
            }
        }
        // 3. Record the inbound column (what the node would have read this
        // round) for every node still awaiting its rejoin.
        for (v, p) in pending.iter_mut().enumerate() {
            if let Some(p) = p {
                let mut column = Vec::with_capacity(n);
                for u in 0..n {
                    column.push(if u == v {
                        BitString::new()
                    } else {
                        inbound.get(u, v).clone()
                    });
                }
                p.window.push(column);
            }
        }
        Ok(())
    }

    /// Account for one completed step phase: `all.cur` is the buffer the
    /// nodes just wrote, `all.prev` the one they read, `all.halted` the
    /// post-step halt flags, `active` the pre-step activity mask. Returns
    /// whether the run is complete (every node halted), or
    /// [`SimError::RoundLimit`] once nodes outlive the limit.
    fn close_round<P: NodeProgram, B: DeliveryBuf>(
        &mut self,
        round: usize,
        acc: ChunkAcc,
        all: &Nodes<'_, P, B>,
        active: &[bool],
        step_start: Instant,
        step_end: Instant,
    ) -> Result<bool, SimError> {
        let n = self.n;
        let cur = B::view(all.cur, n);
        self.stats.messages += acc.messages;
        self.stats.bits += acc.bits;
        self.stats.max_message_bits = self.stats.max_message_bits.max(acc.max_message_bits);
        let live_bits = self.prev_round_bits + acc.bits;
        self.stats.peak_live_payload_bytes = self
            .stats
            .peak_live_payload_bytes
            .max((live_bits as usize).div_ceil(8));
        self.prev_round_bits = acc.bits;

        if let Some(ts) = self.transcripts.as_deref_mut() {
            record_round(ts, active, &B::view(all.prev, n), &cur, n);
        }

        let mut all_halted = true;
        for h in all.halted.iter() {
            all_halted &= *h;
            self.any_halted |= *h;
        }
        // Sends towards nodes that will never step again are dead on the
        // wire; charge them to the undelivered counters (they remain part of
        // `messages`/`bits` — see stats module docs for the semantics). A
        // receiver with a pending rejoin is *not* charged yet: its traffic
        // is diverted into the pending ledger, and the rejoin (or the run's
        // end) settles whether the replay actually delivered it.
        if self.any_halted && acc.messages > 0 {
            for (u, h) in all.halted.iter().enumerate() {
                if !*h {
                    continue;
                }
                let mut msgs = 0u64;
                let mut bits = 0u64;
                for v in 0..n {
                    let m = cur.get(v, u);
                    if !m.is_empty() {
                        msgs += 1;
                        bits += m.len() as u64;
                    }
                }
                if msgs == 0 {
                    continue;
                }
                match self.churn.as_mut().and_then(|p| p[u].as_mut()) {
                    Some(p) => p.diverted.push((round, msgs, bits)),
                    None => {
                        self.stats.undelivered_messages += msgs;
                        self.stats.undelivered_bits += bits;
                    }
                }
            }
        }

        let now = Instant::now();
        self.stats.timing.step_ns += nanos(step_start, step_end);
        self.stats.timing.delivery_ns += nanos(step_end, now);
        self.stats.timing.round_wall_ns.push(nanos(step_start, now));

        if all_halted {
            self.stats.rounds = round;
            // Traffic diverted to nodes whose rejoin never fired (the run
            // completed first) was never replayed: it really was
            // undelivered.
            for p in self.churn.iter_mut().flatten().filter_map(Option::take) {
                for (_, msgs, bits) in p.diverted {
                    self.stats.undelivered_messages += msgs;
                    self.stats.undelivered_bits += bits;
                }
            }
            return Ok(true);
        }
        if round >= self.max_rounds {
            return Err(SimError::RoundLimit {
                limit: self.max_rounds,
            });
        }
        Ok(false)
    }

    /// The wire pipeline, applied to the buffer the nodes just wrote once
    /// the round has closed, in its fixed order: Byzantine rewrite → sign
    /// → tag forgery → link faults → verify. Stats and transcripts already
    /// hold what the programs *sent*; next round's inboxes see what
    /// survives the wire. Running only on the main thread (plus
    /// address-keyed coins) keeps every stage pool-shape independent.
    fn wire<B: DeliveryBuf>(&mut self, round: usize, cur: &mut [B::Slot], prev: &[B::Slot]) {
        let mut cur = B::view_mut(cur, self.n);
        if let Some(byz) = self.byz {
            // Traitors lie first; `prev` is what each traitor received
            // this round — the adaptive-lying input.
            byz.apply_rewrites(round, &mut cur, &B::view(prev, self.n), &mut self.byzantine);
        }
        if let Some(keyring) = self.auth {
            // Signing follows the rewrites: a traitor's lies are validly
            // signed with its own key (it owns it), while everything
            // downstream — forged tags, wire damage — breaks the tag.
            keyring.sign_round(round, &mut cur, &mut self.auth_ledger);
            if let Some(byz) = self.byz {
                byz.apply_tag_forgeries(round, &mut cur, &mut self.byzantine);
            }
        }
        if let Some(plan) = self.plan {
            plan.apply_link_faults(self.fault_offset + round, &mut cur, &mut self.faults);
        }
        if let Some(keyring) = self.auth {
            // Verification is the last word on the wire: any frame whose
            // tag fails (forged or damaged after signing) is cleared before
            // delivery.
            keyring.verify_round(round, &mut cur, &mut self.auth_ledger);
        }
    }
}

fn nanos(from: Instant, to: Instant) -> u64 {
    to.saturating_duration_since(from).as_nanos() as u64
}

/// Best-effort extraction of a panic payload's message (the payloads of
/// `panic!("…")` are `&str` or `String`; anything else is opaque).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "<non-string panic payload>".to_string(),
        },
    }
}

/// Replay a rejoining node's missed window as state-sync rounds.
///
/// Each recorded column is re-delivered through an [`Inbox`] with the
/// *original* round index, so the program observes exactly the rounds it
/// missed; its sends go into discarded scratch (a dead node put nothing on
/// the wire, and the live cluster already ran those rounds without it). The
/// replay's bandwidth is charged to the `sync_*` counters and its receives
/// are backfilled into the node's transcript as received-only rounds, so
/// cc-testkit's auditor can price and cross-check the sync protocol.
///
/// A program may legitimately halt (or panic) mid-replay; the rounds it
/// never re-read stay on the undelivered ledger via the diverted tuples.
#[allow(clippy::too_many_arguments)]
fn replay_rejoin<P: NodeProgram>(
    v: usize,
    rejoin_plan_round: usize,
    p: PendingRejoin,
    prog: &mut P,
    ctx: &NodeCtx,
    halted: &mut bool,
    output: &mut Option<P::Output>,
    mut transcripts: Option<&mut Vec<Transcript>>,
    stats: &mut RunStats,
    report: &mut FaultReport,
) -> Result<(), SimError> {
    let n = ctx.n;
    let PendingRejoin {
        crash_round,
        window,
        diverted,
        ..
    } = p;
    let mut scratch = vec![BitString::new(); n];
    let mut sync_rounds = 0u64;
    let mut sync_messages = 0u64;
    let mut sync_bits = 0u64;
    let mut halted_at: Option<usize> = None;
    for (j, column) in window.into_iter().enumerate() {
        let t = crash_round + j;
        sync_rounds += 1;
        for m in column.iter() {
            if !m.is_empty() {
                sync_messages += 1;
                sync_bits += m.len() as u64;
            }
        }
        if let Some(ts) = transcripts.as_deref_mut() {
            let mut rt = RoundTranscript::default();
            for (u, m) in column.iter().enumerate() {
                if !m.is_empty() {
                    rt.received.push((NodeId::from(u), m.clone()));
                }
            }
            ts[v].rounds.push(rt);
        }
        for s in scratch.iter_mut() {
            s.clear();
        }
        let inbox = Inbox::from_slots(&column, v);
        let status = {
            let mut outbox = Outbox::new(&mut scratch, v);
            catch_unwind(AssertUnwindSafe(|| prog.step(ctx, t, &inbox, &mut outbox))).map_err(
                |payload| SimError::NodeProgramPanicked {
                    node: NodeId::from(v),
                    round: t,
                    message: panic_message(payload),
                },
            )?
        };
        if let Status::Halt(out) = status {
            *output = Some(out);
            halted_at = Some(t);
            break;
        }
    }
    if halted_at.is_none() {
        *halted = false;
    }
    // Settle the diverted ledger: a full replay re-delivered everything, a
    // mid-replay halt leaves the rounds written at or after the halt unread
    // (the halt round itself read the column written one round earlier).
    if let Some(t) = halted_at {
        for (written, msgs, bits) in diverted {
            if written >= t {
                stats.undelivered_messages += msgs;
                stats.undelivered_bits += bits;
            }
        }
    }
    // The sync counters flow into `RunStats` when the run's report is
    // tallied (`FaultReport::tally_into`), exactly like the crash counters.
    report.events.push(FaultEvent::Rejoined {
        node: NodeId::from(v),
        round: rejoin_plan_round,
        sync_rounds,
        sync_messages,
        sync_bits,
    });
    Ok(())
}

/// Append this round's sends and receives to the transcripts of the nodes
/// that were active when the round started. Both views are sender-major:
/// this round node `v` received `prev.get(u, v)` from `u` and sent
/// `cur.get(v, u)` to `u`.
fn record_round(
    transcripts: &mut [Transcript],
    active: &[bool],
    prev: &BufView<'_>,
    cur: &BufView<'_>,
    n: usize,
) {
    for v in 0..n {
        if !active[v] {
            continue;
        }
        let mut rt = RoundTranscript::default();
        for u in 0..n {
            let got = prev.get(u, v);
            if !got.is_empty() {
                rt.received.push((NodeId::from(u), got.clone()));
            }
            let put = cur.get(v, u);
            if !put.is_empty() {
                rt.sent.push((NodeId::from(u), put.clone()));
            }
        }
        transcripts[v].rounds.push(rt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Inbox, Outbox};

    /// Every node broadcasts its id, collects everyone else's, outputs the sum.
    struct SumIds {
        seen: u64,
    }

    impl NodeProgram for SumIds {
        type Output = u64;

        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            outbox: &mut Outbox<'_>,
        ) -> Status<u64> {
            match round {
                0 => {
                    let mut m = BitString::new();
                    m.push_uint(ctx.id.0 as u64, ctx.id_width());
                    outbox.broadcast(&m);
                    self.seen = ctx.id.0 as u64;
                    Status::Continue
                }
                _ => {
                    for (_, msg) in inbox.iter() {
                        self.seen += msg.reader().read_uint(ctx.id_width()).unwrap();
                    }
                    Status::Halt(self.seen)
                }
            }
        }
    }

    fn sum_ids(n: usize) -> Vec<SumIds> {
        (0..n).map(|_| SumIds { seen: 0 }).collect()
    }

    #[test]
    fn broadcast_sum_of_ids() {
        let n = 8;
        let out = Engine::new(n).run(sum_ids(n)).unwrap();
        let expect = (0..n as u64).sum::<u64>();
        assert_eq!(out.outputs, vec![expect; n]);
        assert_eq!(out.stats.rounds, 1);
        assert_eq!(out.stats.messages, (n * (n - 1)) as u64);
        assert_eq!(out.stats.max_message_bits, 3);
        assert_eq!(*out.unanimous().unwrap(), expect);
        // Nobody halts while payloads are in flight here.
        assert_eq!(out.stats.undelivered_messages, 0);
        assert_eq!(out.stats.undelivered_bits, 0);
        // 56 three-bit messages live at once: ceil(168/8) bytes.
        assert_eq!(out.stats.peak_live_payload_bytes, 21);
    }

    #[test]
    fn parallel_matches_sequential() {
        let n = 23;
        let seq = Engine::new(n).run(sum_ids(n)).unwrap();
        let par = Engine::new(n)
            .with_threads_exact(4)
            .run(sum_ids(n))
            .unwrap();
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
    }

    struct Silent;
    impl NodeProgram for Silent {
        type Output = ();
        fn step(&mut self, _: &NodeCtx, _: usize, _: &Inbox<'_>, _: &mut Outbox<'_>) -> Status<()> {
            Status::Halt(())
        }
    }

    #[test]
    fn zero_round_algorithm() {
        let out = Engine::new(5)
            .run(vec![Silent, Silent, Silent, Silent, Silent])
            .unwrap();
        assert_eq!(out.stats.rounds, 0);
        assert_eq!(out.stats.messages, 0);
    }

    struct TooWide;
    impl NodeProgram for TooWide {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            _: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            if ctx.id.0 == 0 {
                ob.send(NodeId(1), BitString::zeros(ctx.bandwidth + 1));
            }
            Status::Halt(())
        }
    }

    #[test]
    fn bandwidth_violation_detected() {
        let err = Engine::new(4)
            .run(vec![TooWide, TooWide, TooWide, TooWide])
            .unwrap_err();
        match err {
            SimError::BandwidthExceeded {
                from,
                to,
                bits,
                limit,
                ..
            } => {
                assert_eq!(from, NodeId(0));
                assert_eq!(to, NodeId(1));
                assert_eq!(bits, limit + 1);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parallel_surfaces_the_same_error_as_sequential() {
        let seq = Engine::new(8)
            .run((0..8).map(|_| TooWide).collect::<Vec<_>>())
            .unwrap_err();
        let par = Engine::new(8)
            .with_threads_exact(4)
            .run((0..8).map(|_| TooWide).collect::<Vec<_>>())
            .unwrap_err();
        assert_eq!(seq, par);

        // Two violators in two different chunks, neither of them chunk 0
        // at 3, 4 or 7 threads: the lowest node's error still wins.
        let run = |threads| {
            Engine::new(16)
                .with_threads_exact(threads)
                .run((0..16).map(|_| TwoTooWide).collect::<Vec<_>>())
                .unwrap_err()
        };
        let seq = run(1);
        assert!(
            matches!(
                seq,
                SimError::BandwidthExceeded {
                    from: NodeId(6),
                    ..
                }
            ),
            "{seq:?}"
        );
        for threads in [2, 3, 4, 7] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    /// Nodes 6 and 13 overflow the bandwidth.
    struct TwoTooWide;
    impl NodeProgram for TwoTooWide {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            _: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            if matches!(ctx.id.0, 6 | 13) {
                ob.send(NodeId(0), BitString::zeros(ctx.bandwidth + 1));
            }
            Status::Halt(())
        }
    }

    struct Forever;
    impl NodeProgram for Forever {
        type Output = ();
        fn step(&mut self, _: &NodeCtx, _: usize, _: &Inbox<'_>, _: &mut Outbox<'_>) -> Status<()> {
            Status::Continue
        }
    }

    #[test]
    fn round_limit_enforced() {
        let err = Engine::new(2)
            .with_max_rounds(10)
            .run(vec![Forever, Forever])
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 10 });
    }

    #[test]
    fn round_limit_enforced_in_parallel() {
        let err = Engine::new(8)
            .with_threads_exact(4)
            .with_max_rounds(3)
            .run((0..8).map(|_| Forever).collect::<Vec<_>>())
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 3 });
    }

    #[test]
    fn wrong_program_count_rejected() {
        let err = Engine::new(3).run(vec![Silent, Silent]).unwrap_err();
        assert_eq!(
            err,
            SimError::WrongProgramCount {
                expected: 3,
                got: 2
            }
        );
    }

    /// Two nodes ping-pong a counter for a fixed number of rounds; checks
    /// that messages cross exactly one round later.
    struct PingPong {
        rounds: usize,
    }
    impl NodeProgram for PingPong {
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<u64> {
            let peer = NodeId(1 - ctx.id.0);
            let got = if round == 0 {
                0
            } else {
                inbox
                    .from(peer)
                    .reader()
                    .read_uint(ctx.bandwidth.min(8))
                    .unwrap_or(0)
            };
            if round == self.rounds {
                return Status::Halt(got);
            }
            let mut m = BitString::new();
            m.push_uint((got + 1).min(255), 8.min(ctx.bandwidth));
            ob.send(peer, m);
            Status::Continue
        }
    }

    #[test]
    fn ping_pong_counts_rounds() {
        let n = 2;
        let out = Engine::new(n)
            .with_bandwidth(8)
            .run(vec![PingPong { rounds: 5 }, PingPong { rounds: 5 }])
            .unwrap();
        // After 5 exchanges each node has seen a counter of 5.
        assert_eq!(out.outputs, vec![5, 5]);
        assert_eq!(out.stats.rounds, 5);
    }

    #[test]
    fn max_rounds_boundary_is_exact() {
        // A program halting at step index 5 uses exactly 5 communication
        // rounds; a limit of 5 must admit it...
        let out = Engine::new(2)
            .with_bandwidth(8)
            .with_max_rounds(5)
            .run(vec![PingPong { rounds: 5 }, PingPong { rounds: 5 }])
            .unwrap();
        assert_eq!(out.stats.rounds, 5);
        // ...and a limit of 4 must reject it before a sixth exchange.
        let err = Engine::new(2)
            .with_bandwidth(8)
            .with_max_rounds(4)
            .run(vec![PingPong { rounds: 5 }, PingPong { rounds: 5 }])
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 4 });
    }

    #[test]
    fn max_rounds_zero_admits_zero_round_algorithms() {
        let out = Engine::new(3)
            .with_max_rounds(0)
            .run(vec![Silent, Silent, Silent])
            .unwrap();
        assert_eq!(out.stats.rounds, 0);
        let err = Engine::new(2)
            .with_max_rounds(0)
            .run(vec![Forever, Forever])
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 0 });
    }

    /// Node 0 halts immediately; node 1 sends it a 3-bit payload in round 0
    /// (accepted on the wire, never read) and halts one round later.
    struct EagerAndSender;
    impl NodeProgram for EagerAndSender {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            if ctx.id.0 == 0 {
                return Status::Halt(());
            }
            if round == 0 {
                ob.send(NodeId(0), BitString::from_bits([true, false, true]));
                Status::Continue
            } else {
                Status::Halt(())
            }
        }
    }

    #[test]
    fn undelivered_payloads_are_accounted() {
        let out = Engine::new(2)
            .with_bandwidth(3)
            .run(vec![EagerAndSender, EagerAndSender])
            .unwrap();
        // The payload is charged at send time...
        assert_eq!(out.stats.messages, 1);
        assert_eq!(out.stats.bits, 3);
        // ...and also recognised as dead on the wire: its recipient halted
        // in the same round it was sent.
        assert_eq!(out.stats.undelivered_messages, 1);
        assert_eq!(out.stats.undelivered_bits, 3);
        assert_eq!(out.stats.rounds, 1);
    }

    /// Node v halts at step v, counting every message it received; active
    /// nodes broadcast every round. Staggered halting exercises undelivered
    /// accounting and the clearing of halted nodes' buffer rows.
    struct Staggered {
        received: u64,
    }
    impl NodeProgram for Staggered {
        type Output = u64;
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<u64> {
            self.received += inbox.iter().count() as u64;
            if round >= ctx.id.index() {
                return Status::Halt(self.received);
            }
            let mut m = BitString::new();
            m.push_uint(round as u64 & 0xff, 8);
            ob.broadcast(&m);
            Status::Continue
        }
    }

    /// Expected receive count for node v: at step r (1 ≤ r ≤ v) it hears
    /// from every u ≠ v that was still sending in round r-1, i.e. u > r-1.
    fn staggered_expect(n: usize) -> Vec<u64> {
        (0..n)
            .map(|v| {
                (1..=v)
                    .map(|r| (r..n).filter(|u| *u != v).count() as u64)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn staggered_halts_are_bit_identical_across_thread_counts() {
        let n = 9;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        let run = |threads: usize| {
            Engine::new(n)
                .with_bandwidth(8)
                .with_threads_exact(threads)
                .with_transcripts(true)
                .run(mk())
                .unwrap()
        };
        let seq = run(1);
        assert_eq!(seq.outputs, staggered_expect(n), "ghost or lost deliveries");
        assert!(seq.stats.undelivered_messages > 0, "halted receivers exist");
        for threads in [2, 3, 4] {
            let par = run(threads);
            assert_eq!(seq.outputs, par.outputs, "threads={threads}");
            assert_eq!(seq.stats, par.stats, "threads={threads}");
            assert_eq!(seq.transcripts, par.transcripts, "threads={threads}");
        }
    }

    #[test]
    fn timing_is_recorded_but_ignored_by_equality() {
        let out = Engine::new(8).run(sum_ids(8)).unwrap();
        // One wall-time entry per step phase: rounds + the halting step.
        assert_eq!(out.stats.timing.round_wall_ns.len(), out.stats.rounds + 1);
        assert_eq!(
            out.stats.timing.total_ns(),
            out.stats.timing.step_ns + out.stats.timing.delivery_ns
        );
        let mut other = out.stats.clone();
        other.timing = Default::default();
        assert_eq!(out.stats, other);
    }

    struct Bomb;
    impl NodeProgram for Bomb {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            _: &Inbox<'_>,
            _: &mut Outbox<'_>,
        ) -> Status<()> {
            if round == 1 && ctx.id.0 == 7 {
                panic!("node exploded");
            }
            if round >= 2 {
                return Status::Halt(());
            }
            Status::Continue
        }
    }

    #[test]
    fn node_panic_is_a_structured_error_and_engine_stays_usable() {
        // The same engine value must survive a panicking program: run clean,
        // panic, then run clean again — inline and on scoped threads.
        for threads in [1usize, 4] {
            let engine = Engine::new(16).with_threads_exact(threads);
            let n = 16;
            engine.run(sum_ids(n)).unwrap();
            let err = engine
                .run((0..n).map(|_| Bomb).collect::<Vec<_>>())
                .unwrap_err();
            match &err {
                SimError::NodeProgramPanicked {
                    node,
                    round,
                    message,
                } => {
                    assert_eq!(*node, NodeId(7), "threads={threads}");
                    assert_eq!(*round, 1, "threads={threads}");
                    assert!(message.contains("node exploded"), "got {message:?}");
                }
                other => panic!("unexpected error {other:?} (threads={threads})"),
            }
            let out = engine.run(sum_ids(n)).unwrap();
            assert_eq!(out.outputs, vec![(0..n as u64).sum::<u64>(); n]);
        }
    }

    #[test]
    fn panic_error_is_identical_across_pool_shapes() {
        let seq = Engine::new(16)
            .run((0..16).map(|_| Bomb).collect::<Vec<_>>())
            .unwrap_err();
        let par = Engine::new(16)
            .with_threads_exact(4)
            .run((0..16).map(|_| Bomb).collect::<Vec<_>>())
            .unwrap_err();
        assert_eq!(seq, par);
    }

    /// Spends real wall-clock every round and never halts.
    struct Sleeper;
    impl NodeProgram for Sleeper {
        type Output = ();
        fn step(&mut self, _: &NodeCtx, _: usize, _: &Inbox<'_>, _: &mut Outbox<'_>) -> Status<()> {
            std::thread::sleep(Duration::from_millis(2));
            Status::Continue
        }
    }

    #[test]
    fn deadline_aborts_runaway_programs() {
        for threads in [1usize, 4] {
            let limit = Duration::from_millis(20);
            let err = Engine::new(8)
                .with_threads_exact(threads)
                .with_deadline(limit)
                .run((0..8).map(|_| Sleeper).collect::<Vec<_>>())
                .unwrap_err();
            assert_eq!(
                err,
                SimError::DeadlineExceeded { limit },
                "threads={threads}"
            );
        }
        // A fast run under a generous deadline is unaffected.
        Engine::new(8)
            .with_deadline(Duration::from_secs(60))
            .run(sum_ids(8))
            .unwrap();
    }

    #[test]
    fn cancel_flag_aborts_at_the_next_round_boundary() {
        for threads in [1usize, 4] {
            // Pre-set flag: the run aborts after its very first round.
            let flag = Arc::new(AtomicBool::new(true));
            let err = Engine::new(8)
                .with_threads_exact(threads)
                .with_cancel(Arc::clone(&flag))
                .run((0..8).map(|_| Sleeper).collect::<Vec<_>>())
                .unwrap_err();
            assert_eq!(err, SimError::Cancelled { round: 0 }, "threads={threads}");
        }
        // An unset flag is transparent: the run completes normally.
        let flag = Arc::new(AtomicBool::new(false));
        let out = Engine::new(8).with_cancel(flag).run(sum_ids(8)).unwrap();
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn cancel_flag_set_from_another_thread_stops_a_running_sim() {
        let flag = Arc::new(AtomicBool::new(false));
        let trigger = Arc::clone(&flag);
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            trigger.store(true, Ordering::Relaxed);
        });
        let err = Engine::new(8)
            .with_cancel(flag)
            .run((0..8).map(|_| Sleeper).collect::<Vec<_>>())
            .unwrap_err();
        killer.join().unwrap();
        assert!(matches!(err, SimError::Cancelled { .. }), "got {err:?}");
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        let n = 9;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        for threads in [1usize, 4] {
            let base = Engine::new(n)
                .with_bandwidth(8)
                .with_threads_exact(threads)
                .with_transcripts(true);
            let plain = base.clone().run(mk()).unwrap();
            let planned = base
                .with_fault_plan(crate::fault::FaultPlan::new(99))
                .run(mk())
                .unwrap();
            assert_eq!(plain.outputs, planned.outputs, "threads={threads}");
            assert_eq!(plain.stats, planned.stats, "threads={threads}");
            assert_eq!(plain.transcripts, planned.transcripts, "threads={threads}");
            assert!(planned.faults.is_empty());
        }
    }

    #[test]
    fn crashed_node_fails_run_but_not_run_in() {
        use crate::fault::FaultPlan;
        let n = 8;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        let engine = Engine::new(n)
            .with_bandwidth(8)
            .with_fault_plan(FaultPlan::new(1).crash(NodeId(6), 2));
        let err = engine.run(mk()).unwrap_err();
        assert_eq!(
            err,
            SimError::NodeCrashed {
                node: NodeId(6),
                round: 2
            }
        );
        let out = engine.run_in(mk(), &mut DeliveryArena::new()).unwrap();
        assert!(out.outputs[6].is_none(), "crashed node has no output");
        assert_eq!(out.outputs.iter().filter(|o| o.is_some()).count(), n - 1);
        assert_eq!(out.stats.dead_nodes, 1);
        assert_eq!(out.faults.crashed_nodes(), vec![NodeId(6)]);
        // The crash victim was still being broadcast to: its unread inbound
        // payloads are charged as undelivered.
        assert!(out.stats.undelivered_messages > 0);
    }

    #[test]
    fn dropping_every_message_silences_the_clique() {
        use crate::fault::FaultPlan;
        let n = 8;
        let out = Engine::new(n)
            .with_fault_plan(FaultPlan::new(3).drop_messages(1.0))
            .run(sum_ids(n))
            .unwrap();
        // Round-1 inboxes are empty, so every node only sees its own id.
        assert_eq!(out.outputs, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(out.stats.dropped_messages, (n * (n - 1)) as u64);
        // Sent-based accounting still charges the wire for what was sent.
        assert_eq!(out.stats.messages, (n * (n - 1)) as u64);
    }

    #[test]
    fn faulted_runs_are_identical_across_pool_shapes() {
        use crate::fault::FaultPlan;
        let n = 12;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        let plan = FaultPlan::new(2024)
            .crash(NodeId(9), 3)
            .drop_messages(0.2)
            .corrupt_messages(0.1)
            .truncate_messages(0.1);
        let run = |threads: usize| {
            Engine::new(n)
                .with_bandwidth(8)
                .with_threads_exact(threads)
                .with_transcripts(true)
                .with_fault_plan(plan.clone())
                .run_in(mk(), &mut DeliveryArena::new())
                .unwrap()
        };
        let seq = run(1);
        assert!(
            seq.stats.dropped_messages > 0 && seq.stats.corrupted_messages > 0,
            "plan too weak to exercise the sweeps: {:?}",
            seq.stats
        );
        for threads in [4usize, 7] {
            let par = run(threads);
            assert_eq!(seq.outputs, par.outputs, "threads={threads}");
            assert_eq!(seq.stats, par.stats, "threads={threads}");
            assert_eq!(seq.faults, par.faults, "threads={threads}");
            assert_eq!(seq.transcripts, par.transcripts, "threads={threads}");
        }
    }

    /// Every node broadcasts an 8-bit payload each round and halts at a
    /// fixed round with its receive count — the probe for rejoin state
    /// sync: a full replay must leave the rejoiner's count equal to an
    /// uncrashed node's.
    struct Chatter {
        received: u64,
        halt_round: usize,
    }
    impl NodeProgram for Chatter {
        type Output = u64;
        fn step(
            &mut self,
            _ctx: &NodeCtx,
            round: usize,
            inbox: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<u64> {
            self.received += inbox.iter().count() as u64;
            if round >= self.halt_round {
                return Status::Halt(self.received);
            }
            let mut m = BitString::new();
            m.push_uint(round as u64 & 0xff, 8);
            ob.broadcast(&m);
            Status::Continue
        }
    }

    #[test]
    fn rejoined_node_is_state_synced_from_the_missed_window() {
        use crate::fault::FaultPlan;
        let n = 12;
        let halt_round = 6usize;
        let mk = || {
            (0..n)
                .map(|_| Chatter {
                    received: 0,
                    halt_round,
                })
                .collect::<Vec<_>>()
        };
        let plan = FaultPlan::new(7)
            .crash(NodeId(2), 2)
            .rejoin(NodeId(2), 4)
            .expect("crash precedes rejoin");
        let run = |threads: usize, mode: DeliveryMode| {
            Engine::new(n)
                .with_bandwidth(8)
                .with_threads_exact(threads)
                .with_transcripts(true)
                .with_delivery(mode)
                .with_fault_plan(plan.clone())
                .run_in(mk(), &mut DeliveryArena::new())
                .unwrap()
        };
        let seq = run(1, DeliveryMode::Dense);
        let peers = (n - 1) as u64;
        // The replay re-delivered rounds 2 and 3, so the rejoiner's count
        // matches a node that never crashed; everyone else is short exactly
        // the two broadcasts node 2 never put on the wire while down.
        assert_eq!(seq.outputs[2], Some(halt_round as u64 * peers));
        for v in (0..n).filter(|v| *v != 2) {
            assert_eq!(
                seq.outputs[v],
                Some(halt_round as u64 * peers - 2),
                "node {v}"
            );
        }
        assert_eq!(seq.stats.dead_nodes, 1);
        assert_eq!(seq.stats.rejoined_nodes, 1);
        assert_eq!(seq.stats.sync_rounds, 2);
        assert_eq!(seq.stats.sync_messages, 2 * peers);
        assert_eq!(seq.stats.sync_bits, 2 * peers * 8);
        // The in-flight column charged at crash time stays on the
        // undelivered ledger (see fault module docs); the diverted
        // down-window traffic was re-delivered by the replay and is not.
        assert_eq!(seq.stats.undelivered_messages, peers);
        assert_eq!(seq.stats.undelivered_bits, peers * 8);
        assert!(
            seq.faults.events.iter().any(|e| matches!(
                e,
                FaultEvent::Rejoined {
                    node: NodeId(2),
                    round: 4,
                    sync_rounds: 2,
                    ..
                }
            )),
            "missing Rejoined event: {:?}",
            seq.faults.events
        );
        // Transcript backfill: the rejoiner's missed rounds appear as
        // received-only entries, leaving every transcript the same length
        // and every index aligned with its round number.
        let ts = seq.transcripts.as_ref().unwrap();
        assert_eq!(ts[2].rounds.len(), ts[0].rounds.len());
        for r in [2usize, 3] {
            assert!(ts[2].rounds[r].sent.is_empty(), "round {r} was a replay");
            assert_eq!(ts[2].rounds[r].received.len(), n - 1, "round {r}");
        }
        // Bit-identical across pool shapes and delivery backends.
        for threads in [1usize, 4, 7] {
            for mode in [DeliveryMode::Dense, DeliveryMode::Sparse] {
                let got = run(threads, mode);
                assert_eq!(seq.outputs, got.outputs, "threads={threads} {mode:?}");
                assert_eq!(seq.stats, got.stats, "threads={threads} {mode:?}");
                assert_eq!(seq.faults, got.faults, "threads={threads} {mode:?}");
                assert_eq!(
                    seq.transcripts, got.transcripts,
                    "threads={threads} {mode:?}"
                );
            }
        }
    }

    #[test]
    fn mid_replay_halt_keeps_unread_sync_traffic_undelivered() {
        use crate::fault::FaultPlan;
        // Node 5 halts at round 3, its peers at round 8. Crashing it at
        // round 1 with a rejoin at round 6 puts its halt round strictly
        // inside the replay window: the replay steps rounds 1, 2 and halts
        // at 3, so the columns written in rounds 3..6 are never read and
        // must land back on the undelivered ledger.
        let n = 8;
        let mk = || {
            (0..n)
                .map(|v| Chatter {
                    received: 0,
                    halt_round: if v == 5 { 3 } else { 8 },
                })
                .collect::<Vec<_>>()
        };
        let plan = FaultPlan::new(1)
            .crash(NodeId(5), 1)
            .rejoin(NodeId(5), 6)
            .expect("crash precedes rejoin");
        let out = Engine::new(n)
            .with_bandwidth(8)
            .with_fault_plan(plan)
            .run_in(mk(), &mut DeliveryArena::new())
            .unwrap();
        let peers = (n - 1) as u64;
        // The replay stepped rounds 1, 2, 3 and halted at 3 — the node
        // still produced an output (its three replayed inboxes) and counts
        // as rejoined; sync priced all three replayed rounds.
        assert_eq!(out.outputs[5], Some(3 * peers));
        assert_eq!(out.stats.rejoined_nodes, 1);
        assert_eq!(out.stats.sync_rounds, 3);
        // Undelivered: the in-flight column charged at crash time (written
        // round 0), the diverted columns written in rounds 3, 4, 5 the
        // replay never reached, and the post-halt columns written in rounds
        // 6 and 7 while the peers kept broadcasting — six peer-columns in
        // all. The diverted rounds 1 and 2 were re-read by the replay.
        assert_eq!(out.stats.undelivered_messages, 6 * peers);
        assert_eq!(out.stats.undelivered_bits, 6 * peers * 8);
    }

    #[test]
    fn faulted_unanimity_is_over_survivors() {
        use crate::fault::FaultPlan;
        let n = 6;
        let out = Engine::new(n)
            .with_fault_plan(FaultPlan::new(0).crash(NodeId(2), 1))
            .run_in(sum_ids(n), &mut DeliveryArena::new())
            .unwrap();
        // Node 2 received round-0 broadcasts but crashed before reading
        // them; survivors all computed the full sum.
        let expect = (0..n as u64).sum::<u64>();
        assert_eq!(out.survivor_unanimous(), Some(&expect));
        assert_eq!(out.survivors().count(), n - 1);
    }

    #[test]
    fn transcripts_record_both_directions() {
        let n = 4;
        let out = Engine::new(n)
            .with_transcripts(true)
            .run(sum_ids(n))
            .unwrap();
        let ts = out.transcripts.unwrap();
        assert_eq!(ts.len(), n);
        for (v, t) in ts.iter().enumerate() {
            assert_eq!(t.rounds.len(), 2, "node {v} took part in 2 step phases");
            assert_eq!(t.rounds[0].sent.len(), n - 1);
            assert_eq!(t.rounds[0].received.len(), 0);
            assert_eq!(t.rounds[1].sent.len(), 0);
            assert_eq!(t.rounds[1].received.len(), n - 1);
        }
        // Sent/received must be symmetric across nodes.
        for v in 0..n {
            for (dst, msg) in &ts[v].rounds[0].sent {
                let got = ts[dst.index()].rounds[1]
                    .received
                    .iter()
                    .find(|(src, _)| src.index() == v)
                    .expect("matching receive");
                assert_eq!(&got.1, msg);
            }
        }
    }

    /// Broadcasts its id (legal in broadcast mode).
    struct Broadcaster;
    impl NodeProgram for Broadcaster {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            round: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            if round == 0 {
                let mut m = BitString::new();
                m.push_uint(ctx.id.0 as u64, ctx.id_width());
                ob.broadcast(&m);
                Status::Continue
            } else {
                Status::Halt(())
            }
        }
    }

    /// Sends distinct messages (illegal in broadcast mode).
    struct Unicaster;
    impl NodeProgram for Unicaster {
        type Output = ();
        fn step(
            &mut self,
            ctx: &NodeCtx,
            _: usize,
            _: &Inbox<'_>,
            ob: &mut Outbox<'_>,
        ) -> Status<()> {
            for u in 0..ctx.n {
                if u != ctx.id.index() {
                    let mut m = BitString::new();
                    m.push_uint((u % 2) as u64, 1);
                    ob.send(NodeId::from(u), m);
                }
            }
            Status::Halt(())
        }
    }

    #[test]
    fn broadcast_mode_accepts_broadcasts() {
        let out = Engine::new(5)
            .broadcast_only(true)
            .run((0..5).map(|_| Broadcaster).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn broadcast_mode_rejects_unicasts() {
        let err = Engine::new(5)
            .broadcast_only(true)
            .run((0..5).map(|_| Unicaster).collect::<Vec<_>>())
            .unwrap_err();
        assert!(
            matches!(err, SimError::BroadcastViolated { .. }),
            "got {err:?}"
        );
        // The same program is fine in the unrestricted model.
        Engine::new(5)
            .run((0..5).map(|_| Unicaster).collect::<Vec<_>>())
            .unwrap();
    }

    #[test]
    fn congest_topology_enforced() {
        // A 4-path topology: node 0 may talk to 1 only.
        let n = 4;
        let mut adj = vec![false; n * n];
        for v in 1..n {
            adj[(v - 1) * n + v] = true;
            adj[v * n + (v - 1)] = true;
        }
        struct SendTo(u32);
        impl NodeProgram for SendTo {
            type Output = ();
            fn step(
                &mut self,
                ctx: &NodeCtx,
                _: usize,
                _: &Inbox<'_>,
                ob: &mut Outbox<'_>,
            ) -> Status<()> {
                if ctx.id.0 == 0 {
                    let mut m = BitString::new();
                    m.push(true);
                    ob.send(NodeId(self.0), m);
                }
                Status::Halt(())
            }
        }
        // Legal: 0 → 1.
        Engine::new(n)
            .with_topology(adj.clone())
            .run(vec![SendTo(1), SendTo(1), SendTo(1), SendTo(1)])
            .unwrap();
        // Illegal: 0 → 3 (not adjacent on the path).
        let err = Engine::new(n)
            .with_topology(adj)
            .run(vec![SendTo(3), SendTo(3), SendTo(3), SendTo(3)])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::TopologyViolated {
                from: NodeId(0),
                to: NodeId(3),
                ..
            }
        ));
    }

    #[test]
    fn broadcast_mode_rejects_partial_addressing() {
        struct Partial;
        impl NodeProgram for Partial {
            type Output = ();
            fn step(
                &mut self,
                ctx: &NodeCtx,
                _: usize,
                _: &Inbox<'_>,
                ob: &mut Outbox<'_>,
            ) -> Status<()> {
                if ctx.id.0 == 0 {
                    let mut m = BitString::new();
                    m.push(true);
                    ob.send(NodeId(1), m); // only one recipient
                }
                Status::Halt(())
            }
        }
        let err = Engine::new(4)
            .broadcast_only(true)
            .run((0..4).map(|_| Partial).collect::<Vec<_>>())
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::BroadcastViolated {
                from: NodeId(0),
                ..
            }
        ));
    }

    #[test]
    fn single_node_clique_is_degenerate_but_legal() {
        struct Lonely;
        impl NodeProgram for Lonely {
            type Output = u32;
            fn step(
                &mut self,
                ctx: &NodeCtx,
                _: usize,
                _: &Inbox<'_>,
                _: &mut Outbox<'_>,
            ) -> Status<u32> {
                Status::Halt(ctx.id.0)
            }
        }
        let out = Engine::new(1).run(vec![Lonely]).unwrap();
        assert_eq!(out.outputs, vec![0]);
        assert_eq!(out.stats.rounds, 0);
    }

    #[test]
    fn empty_byzantine_plan_is_transparent() {
        use crate::byzantine::ByzantinePlan;
        let n = 9;
        let bare = Engine::new(n)
            .with_transcripts(true)
            .run(sum_ids(n))
            .unwrap();
        let planned = Engine::new(n)
            .with_transcripts(true)
            .with_byzantine_plan(ByzantinePlan::new(99))
            .run_in(sum_ids(n), &mut DeliveryArena::new())
            .unwrap();
        assert_eq!(
            planned
                .outputs
                .iter()
                .flatten()
                .copied()
                .collect::<Vec<_>>(),
            bare.outputs
        );
        assert_eq!(planned.stats, bare.stats);
        assert_eq!(planned.transcripts, bare.transcripts);
        assert!(planned.byzantine.is_empty());
        assert_eq!(planned.stats.forged_messages, 0);
        assert_eq!(planned.stats.traitor_nodes, 0);
    }

    #[test]
    fn byzantine_garble_disrupts_recipients_not_the_traitor() {
        use crate::byzantine::ByzantinePlan;
        let n = 8;
        let honest = Engine::new(n).run(sum_ids(n)).unwrap();
        let expect = (0..n as u64).sum::<u64>();
        assert_eq!(honest.outputs, vec![expect; n]);

        let plan = ByzantinePlan::new(17).traitor(NodeId(2)).garble(1.0);
        let out = Engine::new(n)
            .with_byzantine_plan(plan.clone())
            .run_in(sum_ids(n), &mut DeliveryArena::new())
            .unwrap();
        // Transcripts/stats still record the traitor's honest sends; the
        // rewrite log records the lies.
        assert_eq!(out.stats.messages, honest.stats.messages);
        assert_eq!(out.stats.forged_messages, (n - 1) as u64);
        assert_eq!(out.stats.traitor_nodes, 1);
        assert_eq!(out.byzantine.liars(), vec![NodeId(2)]);
        // The traitor itself read honest messages, so it still sums right.
        assert_eq!(out.outputs[2], Some(expect));
        // The paper's all-node unanimity fails; only honest agreement is a
        // meaningful question under this adversary.
        assert!(out.survivor_unanimous().is_none() || out.honest_unanimous(&plan).is_some());
    }

    #[test]
    fn byzantine_rewrites_are_pool_shape_independent() {
        use crate::byzantine::ByzantinePlan;
        let n = 15; // ≥ 2·7 keeps the 7-worker pool genuinely engaged
        let plan = ByzantinePlan::new(31)
            .with_random_traitors(n, 4, &[])
            .garble(0.5)
            .replay(0.3)
            .silence(0.2);
        let run = |threads: usize| {
            Engine::new(n)
                .with_transcripts(true)
                .with_threads_exact(threads)
                .with_byzantine_plan(plan.clone())
                .run_in(sum_ids(n), &mut DeliveryArena::new())
                .unwrap()
        };
        let base = run(1);
        assert!(!base.byzantine.is_empty());
        for threads in [4, 7] {
            let other = run(threads);
            assert_eq!(base.outputs, other.outputs, "{threads} workers");
            assert_eq!(base.stats, other.stats, "{threads} workers");
            assert_eq!(base.transcripts, other.transcripts, "{threads} workers");
            assert_eq!(base.byzantine, other.byzantine, "{threads} workers");
        }
    }

    #[test]
    fn byzantine_composes_with_link_faults() {
        use crate::byzantine::ByzantinePlan;
        let n = 10;
        let byz = ByzantinePlan::new(1).traitor(NodeId(0)).garble(1.0);
        let faults = FaultPlan::new(2).drop_messages(0.3);
        let out = Engine::new(n)
            .with_byzantine_plan(byz)
            .with_fault_plan(faults)
            .run_in(sum_ids(n), &mut DeliveryArena::new())
            .unwrap();
        assert_eq!(out.stats.forged_messages, (n - 1) as u64);
        assert!(out.stats.dropped_messages > 0, "both adversaries fired");
        assert!(!out.faults.is_empty());
        assert!(!out.byzantine.is_empty());
    }

    #[test]
    fn sparse_and_dense_backends_are_bit_identical() {
        use crate::byzantine::ByzantinePlan;
        let n = 15;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        // Staggered halting + link faults + Byzantine rewrites on the same
        // run is the adversarial worst case for the sparse override logic.
        let faults = FaultPlan::new(2024)
            .crash(NodeId(9), 3)
            .drop_messages(0.2)
            .corrupt_messages(0.1)
            .truncate_messages(0.1);
        let byz = ByzantinePlan::new(31)
            .with_random_traitors(n, 3, &[])
            .garble(0.5)
            .replay(0.3)
            .silence(0.2);
        let run = |mode: DeliveryMode, threads: usize| {
            Engine::new(n)
                .with_bandwidth(8)
                .with_threads_exact(threads)
                .with_transcripts(true)
                .with_fault_plan(faults.clone())
                .with_byzantine_plan(byz.clone())
                .with_delivery(mode)
                .run_in(mk(), &mut DeliveryArena::new())
                .unwrap()
        };
        let base = run(DeliveryMode::Dense, 1);
        assert!(base.stats.dropped_messages > 0, "faults fired");
        assert!(!base.byzantine.is_empty(), "rewrites fired");
        for mode in [
            DeliveryMode::Dense,
            DeliveryMode::Sparse,
            DeliveryMode::Auto,
        ] {
            for threads in [1usize, 4, 7] {
                let other = run(mode, threads);
                let tag = mode.tag();
                assert_eq!(base.outputs, other.outputs, "{tag}/{threads}");
                assert_eq!(base.stats, other.stats, "{tag}/{threads}");
                assert_eq!(base.transcripts, other.transcripts, "{tag}/{threads}");
                assert_eq!(base.faults, other.faults, "{tag}/{threads}");
                assert_eq!(base.byzantine, other.byzantine, "{tag}/{threads}");
            }
        }
    }

    #[test]
    fn auto_delivery_resolution_follows_the_density_heuristic() {
        let n = 16;
        // Unrestricted clique: every pair may exchange messages — dense.
        assert_eq!(Engine::new(n).resolved_delivery(), DeliveryMode::Dense);
        // Broadcast-only runs carry one payload per sender — sparse.
        assert_eq!(
            Engine::new(n).broadcast_only(true).resolved_delivery(),
            DeliveryMode::Sparse
        );
        // A ring keeps 2 of n-1 potential edges per node — sparse.
        let mut ring = vec![false; n * n];
        for v in 0..n {
            ring[v * n + (v + 1) % n] = true;
            ring[v * n + (v + n - 1) % n] = true;
        }
        assert_eq!(
            Engine::new(n).with_topology(ring).resolved_delivery(),
            DeliveryMode::Sparse
        );
        // A crash-heavy fault plan empties half the rows — sparse.
        let mut plan = FaultPlan::new(0);
        for v in 0..n / 2 {
            plan = plan.crash(NodeId::from(v), 1);
        }
        assert_eq!(
            Engine::new(n)
                .with_fault_plan(plan.clone())
                .resolved_delivery(),
            DeliveryMode::Sparse
        );
        // Regression: the same crashes all rejoining leave zero nodes
        // permanently dead, so the heuristic must count net-dead and stay
        // dense — high churn is not the same as a half-empty matrix.
        for v in 0..n / 2 {
            plan = plan.rejoin(NodeId::from(v), 4).expect("crash precedes");
        }
        assert_eq!(
            Engine::new(n).with_fault_plan(plan).resolved_delivery(),
            DeliveryMode::Dense
        );
        // Explicit modes always win over the heuristic.
        assert_eq!(
            Engine::new(n)
                .broadcast_only(true)
                .with_delivery(DeliveryMode::Dense)
                .resolved_delivery(),
            DeliveryMode::Dense
        );
    }

    #[test]
    fn arena_reuse_leaves_run_stats_untouched() {
        // RunStats counts logical messages, so a warm arena (whatever
        // capacity the previous run left behind) must report exactly what a
        // cold one does — on both backends.
        let n = 9;
        let mk = || {
            (0..n)
                .map(|_| Staggered { received: 0 })
                .collect::<Vec<_>>()
        };
        for mode in [DeliveryMode::Dense, DeliveryMode::Sparse] {
            let engine = Engine::new(n)
                .with_bandwidth(8)
                .with_transcripts(true)
                .with_delivery(mode);
            let cold = engine.run(mk()).unwrap();
            let mut arena = DeliveryArena::new();
            let first = engine.run_in(mk(), &mut arena).unwrap().complete().unwrap();
            assert!(arena.slot_footprint() > 0, "arena retained the buffers");
            let warm = engine.run_in(mk(), &mut arena).unwrap().complete().unwrap();
            let tag = mode.tag();
            assert_eq!(cold.outputs, warm.outputs, "{tag}");
            assert_eq!(cold.stats, first.stats, "{tag}");
            assert_eq!(cold.stats, warm.stats, "{tag}");
            assert_eq!(cold.transcripts, warm.transcripts, "{tag}");
        }
    }

    #[test]
    fn wrong_program_count_is_rejected_before_buffers_are_allocated() {
        // n = 2²¹ would need 2·n² ≈ 8.8e12 message slots; this only passes
        // (quickly, without OOM) because validation precedes the checkout.
        let n = 1 << 21;
        let err = Engine::new(n).run(vec![Silent, Silent]).unwrap_err();
        assert_eq!(
            err,
            SimError::WrongProgramCount {
                expected: n,
                got: 2
            }
        );
    }

    #[test]
    fn sparse_backend_still_enforces_the_model() {
        // Broadcast violations...
        let err = Engine::new(5)
            .broadcast_only(true)
            .with_delivery(DeliveryMode::Sparse)
            .run((0..5).map(|_| Unicaster).collect::<Vec<_>>())
            .unwrap_err();
        assert!(
            matches!(err, SimError::BroadcastViolated { .. }),
            "got {err:?}"
        );
        // ...bandwidth violations...
        let err = Engine::new(4)
            .with_bandwidth(2)
            .with_delivery(DeliveryMode::Sparse)
            .run(vec![TooWide, TooWide, TooWide, TooWide])
            .unwrap_err();
        assert!(
            matches!(err, SimError::BandwidthExceeded { .. }),
            "got {err:?}"
        );
        // ...and round limits are all detected behind the sparse buffer.
        let err = Engine::new(4)
            .with_max_rounds(3)
            .with_delivery(DeliveryMode::Sparse)
            .run(vec![Forever, Forever, Forever, Forever])
            .unwrap_err();
        assert_eq!(err, SimError::RoundLimit { limit: 3 });
    }

    #[test]
    fn sparse_broadcast_footprint_is_linear_in_n() {
        let n = 256;
        let run = |mode: DeliveryMode| {
            let mut arena = DeliveryArena::new();
            Engine::new(n)
                .with_delivery(mode)
                .run_in(sum_ids(n), &mut arena)
                .unwrap();
            arena.slot_footprint()
        };
        let dense = run(DeliveryMode::Dense);
        let sparse = run(DeliveryMode::Sparse);
        assert_eq!(dense, 2 * n * n);
        // One broadcast payload per sender per buffer; no overrides.
        assert!(
            sparse <= 4 * n,
            "sparse footprint {sparse} should be O(n), not O(n²)"
        );
    }
}
