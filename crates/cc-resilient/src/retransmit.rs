//! Drop-tolerant all-to-all exchange via k-fold retransmission.
//!
//! **Guarantee**: a link's exchange fails only if all `k` copies on it are
//! lost (probability `p^k` under independent drop `p`), and a corrupted
//! copy is outvoted while a majority of copies on the link arrive intact.
//!
//! **Fault assumptions**: oblivious per-link drop/corrupt/truncate faults
//! ([`cliquesim::FaultPlan`]) with *honest senders*. A Byzantine sender
//! defeats this primitive outright: every copy on a link carries the same
//! per-recipient lie, so the per-link majority votes unanimously for a
//! forgery (`cc-testkit`'s `equivocation_witness` exhibits this).
//!
//! **Overhead**: `k` rounds and `k·n(n-1)` messages of `width` bits — a
//! factor `k` over the one-round exchange; [`retry_overhead`] prices extra
//! repeats analytically.

use cliquesim::{
    Inbox, NodeCtx, NodeProgram, Outbox, Outcome, RunStats, Session, SimError, Status,
};

use crate::{decode_exact, encode, majority};

/// All-to-all broadcast repeated `repeats` times, with a per-link majority
/// vote: every node ends up with its best estimate of every other node's
/// `width`-bit value.
///
/// A link loses the exchange only if *all* `repeats` copies on it are
/// dropped (probability `p^k` under independent per-message drop `p`), and
/// a corrupted copy is outvoted as long as most copies on that link arrive
/// intact. The output is one slot per peer: `Some(majority)` or `None` when
/// nothing decodable ever arrived on that link; a node's own slot holds its
/// own value.
#[derive(Clone, Debug)]
pub struct RepeatBroadcast {
    value: u64,
    width: usize,
    repeats: usize,
    /// `copies[u]` = decodable values received from node `u` so far.
    copies: Vec<Vec<u64>>,
}

impl RepeatBroadcast {
    /// Program for one node broadcasting `value` (`width` bits) `repeats`
    /// times.
    pub fn new(value: u64, width: usize, repeats: usize) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of range");
        assert!(repeats >= 1, "at least one transmission is required");
        Self {
            value,
            width,
            repeats,
            copies: Vec::new(),
        }
    }

    fn absorb(&mut self, inbox: &Inbox<'_>) {
        for (u, m) in inbox.iter() {
            if let Some(v) = decode_exact(m, self.width) {
                self.copies[u.index()].push(v);
            }
        }
    }
}

impl NodeProgram for RepeatBroadcast {
    type Output = Vec<Option<u64>>;

    fn init(&mut self, ctx: &NodeCtx) {
        self.copies = vec![Vec::new(); ctx.n];
    }

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output> {
        if round > 0 {
            self.absorb(inbox);
        }
        if round < self.repeats {
            outbox.broadcast(&encode(self.value, self.width));
            return Status::Continue;
        }
        let me = ctx.id.index();
        let decided = self
            .copies
            .iter()
            .enumerate()
            .map(|(u, c)| {
                if u == me {
                    Some(self.value)
                } else {
                    majority(c)
                }
            })
            .collect();
        Status::Halt(decided)
    }
}

/// Run [`RepeatBroadcast`] as one session phase; `values[v]` is node `v`'s
/// input.
pub fn repeat_broadcast(
    session: &mut Session,
    values: &[u64],
    width: usize,
    repeats: usize,
) -> Result<Outcome<Option<Vec<Option<u64>>>>, SimError> {
    assert_eq!(values.len(), session.n(), "one value per node");
    assert!(
        width <= session.bandwidth(),
        "value of {width} bits exceeds the engine bandwidth of {}",
        session.bandwidth()
    );
    let programs = values
        .iter()
        .map(|&v| RepeatBroadcast::new(v, width, repeats))
        .collect();
    session.run_byzantine(programs)
}

/// Analytic round-budget for `extra` additional retransmissions of a phase
/// that cost `base`: every model-level quantity scales linearly (each rerun
/// resends everything). Pass the result to [`Session::charge`] when the
/// retries are accounted rather than simulated — e.g. pricing a retry
/// budget for a phase whose fault-free transcript is already known.
pub fn retry_overhead(base: &RunStats, extra: usize) -> RunStats {
    let k = extra as u64;
    RunStats {
        rounds: base.rounds * extra,
        messages: base.messages * k,
        bits: base.bits * k,
        max_message_bits: base.max_message_bits,
        peak_live_payload_bytes: base.peak_live_payload_bytes,
        ..RunStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{Engine, FaultPlan};

    #[test]
    fn fault_free_exchange_learns_everyone() {
        let n = 5;
        let mut session = Session::new(Engine::new(n).with_bandwidth(8));
        let values: Vec<u64> = (0..n as u64).map(|v| v * 3).collect();
        let out = repeat_broadcast(&mut session, &values, 8, 2).unwrap();
        let expect: Vec<Option<u64>> = values.iter().map(|&v| Some(v)).collect();
        for (v, got) in out.outputs.iter().enumerate() {
            assert_eq!(got.as_ref().unwrap(), &expect, "node {v}");
        }
        assert_eq!(out.stats.rounds, 2);
    }

    #[test]
    fn repetition_beats_a_lossy_link() {
        // Drop 40% of messages; with 7 repeats every link still gets a copy
        // through for this seed, which a single transmission does not.
        let n = 6;
        let values: Vec<u64> = (0..n as u64).collect();
        let lossy = |repeats: usize| {
            let mut session = Session::new(
                Engine::new(n)
                    .with_bandwidth(8)
                    .with_fault_plan(FaultPlan::new(11).drop_messages(0.4)),
            );
            repeat_broadcast(&mut session, &values, 8, repeats).unwrap()
        };
        let once = lossy(1);
        let holes = once
            .outputs
            .iter()
            .flat_map(|o| o.as_ref().unwrap())
            .filter(|s| s.is_none())
            .count();
        assert!(holes > 0, "seed 11 must actually drop something");
        let many = lossy(7);
        assert!(many.stats.dropped_messages > 0);
        for (v, got) in many.outputs.iter().enumerate() {
            let expect: Vec<Option<u64>> = values.iter().map(|&x| Some(x)).collect();
            assert_eq!(got.as_ref().unwrap(), &expect, "node {v}");
        }
    }

    #[test]
    fn retry_overhead_scales_linearly() {
        let base = RunStats {
            rounds: 3,
            messages: 10,
            bits: 80,
            max_message_bits: 8,
            peak_live_payload_bytes: 20,
            ..RunStats::default()
        };
        let extra = retry_overhead(&base, 2);
        assert_eq!(extra.rounds, 6);
        assert_eq!(extra.messages, 20);
        assert_eq!(extra.bits, 160);
        assert_eq!(extra.max_message_bits, 8);
        // Charging a session folds it into the ledger.
        let mut s = Session::new(Engine::new(2));
        s.charge(&extra);
        assert_eq!(s.stats().rounds, 6);
    }
}
