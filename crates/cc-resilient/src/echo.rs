//! Crash-tolerant single-source broadcast via echo and majority vote.
//!
//! **Guarantee**: if the source survives round 0 (or any node that received
//! the direct copy survives round 1), every surviving node outputs
//! `Some(value)`; a node that never sees a copy outputs `None` rather than
//! guessing.
//!
//! **Fault assumptions**: crash-stop nodes and (for the majority step)
//! per-link corruption with `f < n/3` faults, per [`cliquesim::FaultPlan`].
//! The sender is trusted — a Byzantine source defeats the vote; use
//! [`crate::BrachaBroadcast`] for that tier.
//!
//! **Overhead**: exactly 2 rounds and up to `(n-1)(n+1)` messages of
//! `width` bits — one echo round over the one-round bare broadcast.

use cliquesim::{Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Outcome, Session, SimError, Status};

use crate::{decode_exact, encode, majority};

/// Echo-broadcast: the source's `width`-bit value reaches every surviving
/// node in two communication rounds despite crash faults.
///
/// * Round 0 — the source broadcasts its value.
/// * Round 1 — every node that holds a copy (the source included)
///   echo-broadcasts it.
/// * Round 2 — every node majority-votes over its direct copy plus all
///   echoes (ties to the smallest value) and halts.
///
/// **Guarantee** (crash-stop faults): if the source survives round 0, or at
/// least one node both received the direct copy and survived round 1, every
/// surviving node outputs `Some(value)`. Under `f < n/3` crashes the vote
/// also has a 2-to-1 honest majority against *corrupted* echoes, since a
/// corrupted copy must out-vote `n - 1 - f` intact ones. A node that never
/// sees any copy outputs `None` rather than guessing.
///
/// Cost: two communication rounds and up to `(n-1)(n+1)` messages of
/// `width` bits — the overhead over a bare one-round broadcast is exactly
/// the echo round, visible in [`cliquesim::RunStats`].
#[derive(Clone, Debug)]
pub struct EchoBroadcast {
    source: NodeId,
    /// The source's input; ignored on other nodes.
    value: u64,
    width: usize,
    copy: Option<u64>,
}

impl EchoBroadcast {
    /// Program for one node. `value` is only read on the source node.
    pub fn new(source: NodeId, value: u64, width: usize) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of range");
        Self {
            source,
            value,
            width,
            copy: None,
        }
    }
}

impl NodeProgram for EchoBroadcast {
    type Output = Option<u64>;

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output> {
        match round {
            0 => {
                if ctx.id == self.source {
                    self.copy = Some(self.value);
                    outbox.broadcast(&encode(self.value, self.width));
                }
                Status::Continue
            }
            1 => {
                if ctx.id != self.source {
                    self.copy = decode_exact(inbox.from(self.source), self.width);
                }
                if let Some(v) = self.copy {
                    outbox.broadcast(&encode(v, self.width));
                }
                Status::Continue
            }
            _ => {
                let mut copies: Vec<u64> = inbox
                    .iter()
                    .filter_map(|(_, m)| decode_exact(m, self.width))
                    .collect();
                copies.extend(self.copy);
                Status::Halt(majority(&copies))
            }
        }
    }
}

/// Run [`EchoBroadcast`] as one session phase: `source`'s `width`-bit
/// `value` is voted to every surviving node. Crashed nodes report `None`
/// slots in the outcome; the phase's rounds/bits/fault counters land in the
/// session ledger.
pub fn echo_broadcast(
    session: &mut Session,
    source: NodeId,
    value: u64,
    width: usize,
) -> Result<Outcome<Option<Option<u64>>>, SimError> {
    assert!(
        width <= session.bandwidth(),
        "echo value of {width} bits exceeds the engine bandwidth of {}",
        session.bandwidth()
    );
    let n = session.n();
    let programs = (0..n)
        .map(|_| EchoBroadcast::new(source, value, width))
        .collect();
    session.run_byzantine(programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::Engine;

    #[test]
    fn fault_free_echo_reaches_everyone() {
        let n = 7;
        let mut session = Session::new(Engine::new(n).with_bandwidth(8));
        let out = echo_broadcast(&mut session, NodeId(2), 0xA5, 8).unwrap();
        assert_eq!(out.survivor_unanimous(), Some(&Some(0xA5)));
        assert_eq!(out.stats.rounds, 2, "broadcast + echo exchanges");
        assert!(out.faults.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the engine bandwidth")]
    fn echo_rejects_overwide_values() {
        let mut session = Session::new(Engine::new(4));
        let _ = echo_broadcast(&mut session, NodeId(0), 1, 40);
    }
}
