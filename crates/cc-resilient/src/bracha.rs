//! Byzantine-tolerant reliable broadcast (Bracha-style echo/ready quorums).
//!
//! Per-link majority votes ([`crate::RepeatBroadcast`]) assume the *sender*
//! is honest and only the wire lies. A Byzantine sender equivocates — it
//! sends different payloads to different peers — so every copy on a link can
//! agree and still be a lie. Bracha's reliable broadcast (1987) defeats this
//! with two all-to-all vote layers: a value is only accepted once enough
//! *distinct* nodes vouch for it that any two quorums overlap in an honest
//! node.
//!
//! # Protocol (synchronous rendering, fixed schedule)
//!
//! For `n` nodes tolerating `f` traitors, with `E = ⌊(n+f)/2⌋ + 1` the echo
//! quorum:
//!
//! * **Round 0** — the source broadcasts `INIT(v)`.
//! * **Round 1** — every node that decoded the source's `INIT` broadcasts
//!   `ECHO(w)` for the value it saw.
//! * **Round 2** — a node seeing `E` distinct `ECHO` votes for one value
//!   broadcasts `READY(w)`.
//! * **Rounds 3 … 2f+5** (amplification) — a node seeing `f + 1` distinct
//!   `READY` votes for `w` joins with its own `READY(w)`.
//! * **Round 2f+6** (decision) — deliver the smallest `w` with at least
//!   `2f + 1` distinct `READY` votes, or `None` when no value reached that
//!   threshold.
//!
//! ## Why the amplification window is `2f + 6` rounds long
//!
//! The earlier `f + 4` schedule had a split-brain: by drip-feeding traitor
//! `READY` votes the adversary can push one honest node over `2f + 1` on
//! the very last round while the rest sit at `f + 1` with no rounds left to
//! join — one honest node delivers, the others deliver `None`. The fix is a
//! window long enough that *any* completed quorum has time to amplify:
//!
//! * After round 1 the only sends are first-time `READY` broadcasts, so the
//!   rounds containing at least one send are *consecutive* — a silent round
//!   freezes every vote count, hence every later round, forever.
//! * All honest `READY`s name a single value (the echo quorum intersects
//!   any two vote sets in an honest node), so honest joins never split.
//! * If fewer than `f + 1` honest nodes ever join, no honest count reaches
//!   `2f + 1` and every honest node delivers `None` together. Otherwise the
//!   `(f+1)`-th honest join lands at some round `j`; at most `f` honest and
//!   `f` traitor first-sends precede it on the consecutive send schedule,
//!   so `j ≤ 2f + 3`. Every honest node then holds `f + 1` honest votes and
//!   joins by `j + 1`, and counts all `n − f ≥ 2f + 1` honest votes by
//!   `j + 2 ≤ 2f + 5` — strictly before the decision round.
//!
//! **Guarantee** (`f < n/3` Byzantine senders): all honest nodes halt with
//! the *same* `Option<u64>`; if the source is honest, that output is
//! `Some(its value)`. The workspace checks this property over seeded
//! adversary plans (`tests/byzantine_suite.rs`), including the forced-lie
//! drip-feed regression above, rather than claiming a mechanised proof.
//!
//! **Cost**: `2f + 6` communication rounds and, fault-free,
//! `(n-1)(2n+1)` messages of `width + 2` bits (a 2-bit tag frames each
//! payload) — [`bracha_overhead`] prices this analytically for
//! [`cliquesim::Session::charge`].

use std::collections::{BTreeMap, BTreeSet};

use cliquesim::{
    BitString, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Outcome, RunStats, Session, SimError,
    Status,
};

/// Message tags; a decoded tag outside this set is ignored (a garbled
/// frame cannot smuggle in a new message kind).
const TAG_INIT: u64 = 1;
const TAG_ECHO: u64 = 2;
const TAG_READY: u64 = 3;

/// Encode `tag` + `value` as a `width + 2`-bit frame.
fn encode_tagged(tag: u64, value: u64, width: usize) -> BitString {
    let mut m = BitString::new();
    m.push_uint(tag, 2);
    m.push_uint(value, width);
    m
}

/// Decode a frame into `(tag, value)`; anything that is not exactly
/// `width + 2` bits is rejected outright.
fn decode_tagged(m: &BitString, width: usize) -> Option<(u64, u64)> {
    if m.len() != width + 2 {
        return None;
    }
    let mut r = m.reader();
    let tag = r.read_uint(2).ok()?;
    let value = r.read_uint(width).ok()?;
    Some((tag, value))
}

/// One node's program for Bracha-style reliable broadcast. See the module
/// docs for the schedule and the `f < n/3` guarantee.
#[derive(Clone, Debug)]
pub struct BrachaBroadcast {
    source: NodeId,
    /// The source's input; ignored on other nodes.
    value: u64,
    width: usize,
    f: usize,
    n: usize,
    /// The value decoded from the source's `INIT`, if any.
    init: Option<u64>,
    /// The value this node has committed its `READY` to, if any.
    ready_sent: Option<u64>,
    /// Senders whose (first) `ECHO` vote has been counted.
    echo_voters: BTreeSet<u32>,
    /// Senders whose (first) `READY` vote has been counted.
    ready_voters: BTreeSet<u32>,
    /// Distinct-sender `ECHO` votes per value.
    echo_votes: BTreeMap<u64, usize>,
    /// Distinct-sender `READY` votes per value.
    ready_votes: BTreeMap<u64, usize>,
}

impl BrachaBroadcast {
    /// Program for one node: `source`'s `width`-bit `value` is reliably
    /// broadcast tolerating up to `f` Byzantine senders. `value` is only
    /// read on the source node.
    pub fn new(source: NodeId, value: u64, width: usize, f: usize) -> Self {
        assert!((1..=62).contains(&width), "width {width} out of range");
        Self {
            source,
            value,
            width,
            f,
            n: 0,
            init: None,
            ready_sent: None,
            echo_voters: BTreeSet::new(),
            ready_voters: BTreeSet::new(),
            echo_votes: BTreeMap::new(),
            ready_votes: BTreeMap::new(),
        }
    }

    /// Count one distinct-sender vote; the sender's later votes (of the
    /// same kind) are ignored, so an equivocating traitor gets at most one
    /// vote per layer per recipient.
    fn count_vote(
        voters: &mut BTreeSet<u32>,
        votes: &mut BTreeMap<u64, usize>,
        sender: u32,
        value: u64,
    ) {
        if voters.insert(sender) {
            *votes.entry(value).or_insert(0) += 1;
        }
    }

    fn absorb(&mut self, inbox: &Inbox<'_>) {
        for (u, m) in inbox.iter() {
            let Some((tag, w)) = decode_tagged(m, self.width) else {
                continue;
            };
            match tag {
                // Only the source's INIT is meaningful; first one wins.
                TAG_INIT if u == self.source && self.init.is_none() => {
                    self.init = Some(w);
                }
                TAG_ECHO => {
                    Self::count_vote(&mut self.echo_voters, &mut self.echo_votes, u.0, w);
                }
                TAG_READY => {
                    Self::count_vote(&mut self.ready_voters, &mut self.ready_votes, u.0, w);
                }
                _ => {}
            }
        }
    }

    /// The smallest value whose distinct-sender vote count reaches
    /// `threshold` (smallest-first keeps all honest nodes deterministic).
    fn quorum(votes: &BTreeMap<u64, usize>, threshold: usize) -> Option<u64> {
        votes
            .iter()
            .find(|(_, c)| **c >= threshold)
            .map(|(w, _)| *w)
    }
}

impl NodeProgram for BrachaBroadcast {
    type Output = Option<u64>;

    fn init(&mut self, ctx: &NodeCtx) {
        self.n = ctx.n;
    }

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output> {
        self.absorb(inbox);
        let decision_round = 2 * self.f + 6;
        match round {
            0 => {
                if ctx.id == self.source {
                    self.init = Some(self.value);
                    outbox.broadcast(&encode_tagged(TAG_INIT, self.value, self.width));
                }
                Status::Continue
            }
            1 => {
                if let Some(w) = self.init {
                    // A broadcaster never hears itself, so its own vote is
                    // counted locally.
                    Self::count_vote(&mut self.echo_voters, &mut self.echo_votes, ctx.id.0, w);
                    outbox.broadcast(&encode_tagged(TAG_ECHO, w, self.width));
                }
                Status::Continue
            }
            r if r < decision_round => {
                if self.ready_sent.is_none() {
                    let echo_quorum = (self.n + self.f) / 2 + 1;
                    let cand = Self::quorum(&self.echo_votes, echo_quorum)
                        .or_else(|| Self::quorum(&self.ready_votes, self.f + 1));
                    if let Some(w) = cand {
                        self.ready_sent = Some(w);
                        Self::count_vote(
                            &mut self.ready_voters,
                            &mut self.ready_votes,
                            ctx.id.0,
                            w,
                        );
                        outbox.broadcast(&encode_tagged(TAG_READY, w, self.width));
                    }
                }
                Status::Continue
            }
            _ => Status::Halt(Self::quorum(&self.ready_votes, 2 * self.f + 1)),
        }
    }
}

/// Run [`BrachaBroadcast`] as one session phase under the engine's
/// [`cliquesim::ByzantinePlan`] (and fault plan, if any): `source`'s
/// `width`-bit `value` is reliably broadcast tolerating up to `f` Byzantine
/// senders. The phase's rounds/bits and all adversary counters land in the
/// session ledger; agreement should be asserted with
/// [`Outcome::honest_unanimous`].
pub fn bracha_broadcast(
    session: &mut Session,
    source: NodeId,
    value: u64,
    width: usize,
    f: usize,
) -> Result<Outcome<Option<Option<u64>>>, SimError> {
    assert!(
        width + 2 <= session.bandwidth(),
        "a {width}-bit value plus 2 tag bits exceeds the engine bandwidth of {}",
        session.bandwidth()
    );
    let n = session.n();
    assert!(
        3 * f < n,
        "Bracha broadcast requires f < n/3 (got n={n}, f={f})"
    );
    let programs = (0..n)
        .map(|_| BrachaBroadcast::new(source, value, width, f))
        .collect();
    session.run_byzantine(programs)
}

/// Analytic cost of one fault-free [`BrachaBroadcast`] phase, for
/// [`Session::charge`]: `2f + 6` rounds, `(n-1)(2n+1)` messages (one INIT
/// broadcast plus full ECHO and READY rounds) of `width + 2` bits each.
/// Faults only ever *remove* messages from this bound.
pub fn bracha_overhead(n: usize, f: usize, width: usize) -> RunStats {
    let frame = (width + 2) as u64;
    let messages = (n as u64 - 1) * (2 * n as u64 + 1);
    // The busiest boundary holds the full ECHO round in one buffer and the
    // full READY round in the other.
    let peak_bits = 2 * (n as u64) * (n as u64 - 1) * frame;
    RunStats {
        rounds: 2 * f + 6,
        messages,
        bits: messages * frame,
        max_message_bits: width + 2,
        peak_live_payload_bytes: (peak_bits as usize).div_ceil(8),
        ..RunStats::default()
    }
}

/// Byzantine-tolerant maximum aggregation: `n` sequential
/// [`BrachaBroadcast`] phases (one per input holder) followed by a local
/// maximum over the *delivered* values.
///
/// Plain [`crate::MaxGossip`] trusts every sender, so one traitor forging a
/// too-large value poisons the whole clique. Here a value only enters a
/// node's maximum after surviving a reliable-broadcast quorum, and because
/// every honest node delivers the *same* `Option` per phase, all honest
/// survivors end with the same maximum — even a traitor's phase can only
/// contribute one agreed-upon value (or nothing), never different values to
/// different nodes. Nodes deliberately do *not* shortcut with their own raw
/// input: using only delivered values is what makes the result unanimous.
///
/// **Cost**: `n(2f + 6)` rounds — Byzantine tolerance is priced at a factor
/// `n` over the single gossip round, visible in the session ledger (or
/// chargeable as `n ×` [`bracha_overhead`]).
///
/// Returns one slot per node: the agreed maximum, or `None` for nodes that
/// crashed in some phase (and for everyone in the degenerate case where no
/// phase delivered).
pub fn byzantine_max_gossip(
    session: &mut Session,
    values: &[u64],
    width: usize,
    f: usize,
) -> Result<Vec<Option<u64>>, SimError> {
    assert_eq!(values.len(), session.n(), "one value per node");
    let n = session.n();
    let mut best: Vec<Option<u64>> = vec![None; n];
    let mut dead = vec![false; n];
    for (src, &v) in values.iter().enumerate() {
        let out = bracha_broadcast(session, NodeId::from(src), v, width, f)?;
        for (u, slot) in out.outputs.iter().enumerate() {
            match slot {
                None => dead[u] = true,
                Some(Some(w)) => best[u] = Some(best[u].map_or(*w, |b: u64| b.max(*w))),
                Some(None) => {}
            }
        }
    }
    for (b, d) in best.iter_mut().zip(&dead) {
        if *d {
            *b = None;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{ByzantinePlan, Engine};

    #[test]
    fn fault_free_bracha_delivers_to_everyone() {
        let n = 7;
        let mut session = Session::new(Engine::new(n).with_bandwidth(10));
        let out = bracha_broadcast(&mut session, NodeId(2), 0x5A, 8, 2).unwrap();
        assert_eq!(out.survivor_unanimous(), Some(&Some(0x5A)));
        assert_eq!(out.stats.rounds, 2 * 2 + 6, "2f + 6 rounds");
        let analytic = bracha_overhead(n, 2, 8);
        assert_eq!(out.stats.rounds, analytic.rounds);
        assert_eq!(out.stats.messages, analytic.messages);
        assert_eq!(out.stats.bits, analytic.bits);
        assert_eq!(out.stats.max_message_bits, analytic.max_message_bits);
        assert_eq!(
            out.stats.peak_live_payload_bytes,
            analytic.peak_live_payload_bytes
        );
    }

    #[test]
    fn equivocating_source_cannot_split_honest_nodes() {
        // The source itself is the traitor: a full per-recipient garble of
        // its INIT (and everything else it sends). Honest nodes must still
        // agree — here on delivering nothing, since no forged value can
        // assemble an echo quorum.
        let n = 7;
        let f = 1;
        let plan = ByzantinePlan::new(404).traitor(NodeId(0)).garble(1.0);
        let mut session = Session::new(
            Engine::new(n)
                .with_bandwidth(10)
                .with_byzantine_plan(plan.clone()),
        );
        let out = bracha_broadcast(&mut session, NodeId(0), 0x33, 8, f).unwrap();
        assert!(out.stats.forged_messages > 0, "{plan}: traitor never lied");
        assert!(
            out.honest_unanimous(&plan).is_some(),
            "{plan}: honest nodes split"
        );
    }

    #[test]
    fn honest_source_beats_a_lying_bystander() {
        let n = 7;
        let f = 1;
        let plan = ByzantinePlan::new(8).traitor(NodeId(3)).garble(1.0);
        let mut session = Session::new(
            Engine::new(n)
                .with_bandwidth(10)
                .with_byzantine_plan(plan.clone()),
        );
        let out = bracha_broadcast(&mut session, NodeId(0), 0x42, 8, f).unwrap();
        assert_eq!(
            out.honest_unanimous(&plan),
            Some(&Some(0x42)),
            "{plan}: an honest source's value must survive one traitor"
        );
    }

    #[test]
    fn byzantine_max_agrees_despite_a_forging_traitor() {
        // The traitor garbles everything it sends; plain max_gossip would
        // let a forged huge value win. The quorum-gated max keeps honest
        // nodes unanimous on the true maximum of the honestly-held values.
        let n = 7;
        let f = 1;
        let values: Vec<u64> = vec![3, 99, 7, 12, 0, 42, 57];
        let plan = ByzantinePlan::new(21).traitor(NodeId(4)).garble(1.0);
        let mut session = Session::new(
            Engine::new(n)
                .with_bandwidth(10)
                .with_byzantine_plan(plan.clone()),
        );
        let best = byzantine_max_gossip(&mut session, &values, 8, f).unwrap();
        let honest: Vec<&Option<u64>> = (0..n)
            .filter(|v| !plan.is_traitor(NodeId::from(*v)))
            .map(|v| &best[v])
            .collect();
        assert!(
            honest.windows(2).all(|w| w[0] == w[1]),
            "{plan}: honest maxima diverge: {best:?}"
        );
        // Every honestly-broadcast value reaches a quorum, so the agreed
        // maximum is at least the honest maximum (the traitor's own phase
        // may or may not deliver, but delivers *consistently*).
        let honest_max = values
            .iter()
            .enumerate()
            .filter(|(v, _)| !plan.is_traitor(NodeId::from(*v)))
            .map(|(_, x)| *x)
            .max()
            .unwrap();
        assert!(honest[0].unwrap() >= honest_max);
        assert_eq!(session.phases(), n, "one Bracha phase per input holder");
        assert_eq!(session.stats().rounds, n * (2 * f + 6));
    }

    #[test]
    fn frames_reject_wrong_lengths_and_tags() {
        let m = encode_tagged(TAG_ECHO, 9, 8);
        assert_eq!(m.len(), 10);
        assert_eq!(decode_tagged(&m, 8), Some((TAG_ECHO, 9)));
        assert_eq!(decode_tagged(&m, 7), None, "width mismatch");
        let mut t = m.clone();
        t.truncate(5);
        assert_eq!(decode_tagged(&t, 8), None, "truncated frame");
    }

    #[test]
    #[should_panic(expected = "requires f < n/3")]
    fn bracha_rejects_too_many_traitors() {
        let mut session = Session::new(Engine::new(6).with_bandwidth(10));
        let _ = bracha_broadcast(&mut session, NodeId(0), 1, 8, 2);
    }
}
