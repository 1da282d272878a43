//! Crash-tolerant aggregation by idempotent gossip.
//!
//! **Guarantee**: `max` is idempotent and monotone, so crashes, drops, and
//! duplicate deliveries can only delay convergence, never corrupt a correct
//! estimate downwards; with `r` rounds any value can hop `r` links around
//! failures.
//!
//! **Fault assumptions**: crash-stop and message-drop faults
//! ([`cliquesim::FaultPlan`]) with honest senders and intact payloads.
//! Corruption or a Byzantine sender can forge a too-large value that `max`
//! then propagates forever — for that tier use
//! [`crate::byzantine_max_gossip`], which gates every value behind a
//! reliable-broadcast quorum.
//!
//! **Overhead**: `r` rounds and at most `r·n(n-1)` messages of `width`
//! bits; one round suffices fault-free.

use cliquesim::{Inbox, NodeCtx, NodeProgram, Outbox, Outcome, Session, SimError, Status};

use crate::{decode_exact, encode};

/// Gossip the maximum of all inputs for a fixed number of rounds.
///
/// Every round each node broadcasts its current estimate and absorbs the
/// maximum of what it hears. Because `max` is idempotent and monotone, the
/// primitive degrades gracefully: crashes and drops can only delay
/// convergence, never corrupt a correct estimate downwards, and duplicated
/// deliveries are harmless. On a fault-free clique one round suffices; each
/// extra round lets estimates hop around failed links or dead nodes.
///
/// Corruption is the one adversary this primitive does *not* absorb: a
/// bit-flip can forge a too-large value that `max` then propagates. Pair it
/// with [`crate::RepeatBroadcast`]-style voting when links corrupt.
#[derive(Clone, Debug)]
pub struct MaxGossip {
    estimate: u64,
    width: usize,
    rounds: usize,
}

impl MaxGossip {
    /// Program for one node with local input `value` (`width` bits),
    /// gossiping for `rounds` rounds.
    pub fn new(value: u64, width: usize, rounds: usize) -> Self {
        assert!((1..=64).contains(&width), "width {width} out of range");
        assert!(rounds >= 1, "gossip needs at least one round");
        Self {
            estimate: value,
            width,
            rounds,
        }
    }
}

impl NodeProgram for MaxGossip {
    type Output = u64;

    fn step(
        &mut self,
        _ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output> {
        for (_, m) in inbox.iter() {
            if let Some(v) = decode_exact(m, self.width) {
                self.estimate = self.estimate.max(v);
            }
        }
        if round < self.rounds {
            outbox.broadcast(&encode(self.estimate, self.width));
            return Status::Continue;
        }
        Status::Halt(self.estimate)
    }
}

/// Run [`MaxGossip`] as one session phase; `values[v]` is node `v`'s input.
pub fn max_gossip(
    session: &mut Session,
    values: &[u64],
    width: usize,
    rounds: usize,
) -> Result<Outcome<Option<u64>>, SimError> {
    assert_eq!(values.len(), session.n(), "one value per node");
    assert!(
        width <= session.bandwidth(),
        "value of {width} bits exceeds the engine bandwidth of {}",
        session.bandwidth()
    );
    let programs = values
        .iter()
        .map(|&v| MaxGossip::new(v, width, rounds))
        .collect();
    session.run_byzantine(programs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{Engine, FaultPlan, NodeId};

    #[test]
    fn one_round_suffices_without_faults() {
        let n = 6;
        let mut session = Session::new(Engine::new(n).with_bandwidth(8));
        let values = [3u64, 99, 7, 12, 0, 42];
        let out = max_gossip(&mut session, &values, 8, 1).unwrap();
        assert_eq!(out.survivor_unanimous(), Some(&99));
        assert_eq!(out.stats.rounds, 1);
    }

    #[test]
    fn survivors_agree_despite_a_crashed_maximum_holder() {
        // Node 1 holds the maximum and crashes right after its first
        // broadcast; the value still spreads because every survivor
        // re-gossips it.
        let n = 6;
        let values = [3u64, 99, 7, 12, 0, 42];
        let mut session = Session::new(
            Engine::new(n)
                .with_bandwidth(8)
                .with_fault_plan(FaultPlan::new(0).crash(NodeId(1), 1)),
        );
        let out = max_gossip(&mut session, &values, 8, 3).unwrap();
        assert_eq!(out.survivor_unanimous(), Some(&99));
        assert!(out.outputs[1].is_none());
        assert_eq!(out.stats.dead_nodes, 1);
    }
}
