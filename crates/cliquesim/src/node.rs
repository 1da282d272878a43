//! The node-side programming interface.
//!
//! A congested clique algorithm is given as a [`NodeProgram`]: a state
//! machine that the engine steps once per synchronous round. Within a round
//! the node reads its [`Inbox`] (one message slot per other node), performs
//! unlimited local computation, and fills its [`Outbox`] (at most one
//! bandwidth-bounded message per other node).

use crate::bits::BitString;
use crate::delivery::{Row, SparseRow};

/// Identity of a node. The paper numbers nodes `1..=n`; internally we use
/// `0..n` and expose [`NodeId::display`] for one-based reporting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// One-based id as in the paper.
    pub fn display(self) -> u32 {
        self.0 + 1
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        match u32::try_from(i) {
            Ok(v) => NodeId(v),
            Err(_) => panic!("node index {i} does not fit in u32"),
        }
    }
}

/// Static per-node context, fixed for the whole execution.
#[derive(Clone, Debug)]
pub struct NodeCtx {
    /// This node's identity.
    pub id: NodeId,
    /// Total number of nodes in the clique.
    pub n: usize,
    /// Message size bound in bits (per ordered pair per round).
    pub bandwidth: usize,
}

impl NodeCtx {
    /// Bits needed to name a node, `ceil(log2 n)` (at least 1).
    pub fn id_width(&self) -> usize {
        BitString::width_for(self.n)
    }
}

/// What a node decided to do after a round.
#[derive(Debug)]
pub enum Status<T> {
    /// Keep participating in subsequent rounds.
    Continue,
    /// Stop; the node's local output is `T`. Messages placed in the outbox
    /// during the halting round are still delivered, but a halted node never
    /// sends again.
    Halt(T),
}

/// A congested clique node program.
///
/// All nodes run the *same* program (the paper's uniformity assumption); the
/// program may branch on `ctx.id`. Programs must be deterministic —
/// randomised algorithms model their coins as part of the program state,
/// seeded deterministically from the id, which keeps every run replayable.
pub trait NodeProgram: Send {
    /// The node's local output when it halts.
    type Output: Send;

    /// Called once before round 0.
    fn init(&mut self, _ctx: &NodeCtx) {}

    /// Execute one synchronous round.
    ///
    /// `round` counts from 0. `inbox` holds the messages sent to this node
    /// in the previous round (empty on round 0). Messages for the *next*
    /// round are placed in `outbox`.
    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output>;
}

impl<T: NodeProgram + ?Sized> NodeProgram for Box<T> {
    type Output = T::Output;

    fn init(&mut self, ctx: &NodeCtx) {
        (**self).init(ctx);
    }

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output> {
        (**self).step(ctx, round, inbox, outbox)
    }
}

/// Messages received by one node in one round.
///
/// Logically, slot `u` holds the message from node `u`; an empty
/// [`BitString`] means node `u` sent nothing. Inside the engine the inbox
/// is a view over last round's sender rows — the message from `u` is read
/// out of `u`'s row in whichever format the run uses — so delivery is a
/// buffer swap, never an O(n²) transpose. Standalone harnesses hand in one
/// flat slot per sender via [`Inbox::from_slots`].
pub struct Inbox<'a> {
    inner: InboxInner<'a>,
    n: usize,
    me: usize,
}

/// Storage behind an [`Inbox`].
#[derive(Clone, Copy)]
enum InboxInner<'a> {
    /// One flat slot per sender (harnesses).
    Slots(&'a [BitString]),
    /// The engine's sealed sender rows.
    Rows(&'a [Row]),
}

impl<'a> Inbox<'a> {
    /// Build an inbox from raw slots (slot `u` = message from node `u`).
    ///
    /// Intended for harnesses that execute node programs *outside* the
    /// engine: the virtual-clique simulation of Theorem 10 and the
    /// transcript replay of Theorem 3's normal form.
    pub fn from_slots(slots: &'a [BitString], me: usize) -> Self {
        Self {
            inner: InboxInner::Slots(slots),
            n: slots.len(),
            me,
        }
    }

    /// Build node `me`'s view over a buffer of sealed sender rows (row `u`
    /// = what node `u` sent).
    pub(crate) fn rows(rows: &'a [Row], me: usize) -> Self {
        Self {
            inner: InboxInner::Rows(rows),
            n: rows.len(),
            me,
        }
    }

    /// The message from node `from` (empty if none). A node never receives
    /// from itself; that slot is always empty.
    // Inlined into programs in other crates, which call it once per sender
    // per round.
    #[inline]
    pub fn from(&self, from: NodeId) -> &'a BitString {
        match self.inner {
            InboxInner::Slots(slots) => &slots[from.index()],
            InboxInner::Rows(rows) => rows[from.index()].get(from.index(), self.me),
        }
    }

    /// Iterate over `(sender, message)` for all non-empty messages.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &'a BitString)> + '_ {
        let me = self.me;
        (0..self.n)
            .filter(move |u| *u != me)
            .map(move |u| (u, self.from(NodeId::from(u))))
            .filter(|(_, m)| !m.is_empty())
            .map(|(u, m)| (NodeId::from(u), m))
    }

    /// Number of nodes in the clique.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// Messages sent by one node in one round: at most one per other node, each
/// at most `bandwidth` bits (the engine enforces the bound on delivery).
///
/// Borrows its sender row from the engine's send buffer so that node steps
/// can run in parallel without per-round allocation.
pub struct Outbox<'a> {
    inner: OutboxInner<'a>,
    n: usize,
    me: usize,
}

/// Storage behind an [`Outbox`].
enum OutboxInner<'a> {
    /// One flat slot per recipient (dense rows and harnesses).
    Slots(&'a mut [BitString]),
    /// A sparse row.
    Sparse(&'a mut SparseRow),
}

impl<'a> Outbox<'a> {
    /// Build an outbox over raw slots (slot `u` = message to node `u`).
    ///
    /// Public for the same out-of-engine harnesses as
    /// [`Inbox::from_slots`]; inside the engine the slots are a dense
    /// sender row.
    pub fn new(slots: &'a mut [BitString], me: usize) -> Self {
        let n = slots.len();
        Self {
            inner: OutboxInner::Slots(slots),
            n,
            me,
        }
    }

    /// Build an outbox over a cleared sparse row.
    pub(crate) fn sparse(row: &'a mut SparseRow, me: usize) -> Self {
        Self {
            n: row.n(),
            inner: OutboxInner::Sparse(row),
            me,
        }
    }

    /// Queue `msg` for delivery to `to` next round. Replaces any message
    /// already queued for `to` this round. Sending to oneself or to a node
    /// outside the clique is a programming error.
    pub fn send(&mut self, to: NodeId, msg: BitString) {
        assert_ne!(
            to.index(),
            self.me,
            "node {} attempted to send to itself",
            self.me
        );
        assert!(
            to.index() < self.n,
            "node {} attempted to send to nonexistent node {}",
            self.me,
            to.index()
        );
        match &mut self.inner {
            OutboxInner::Slots(slots) => slots[to.index()] = msg,
            OutboxInner::Sparse(row) => row.send(to.0, msg),
        }
    }

    /// Send the same message to every other node (the broadcast primitive;
    /// costs the same as n-1 unicasts in this model).
    pub fn broadcast(&mut self, msg: &BitString) {
        match &mut self.inner {
            OutboxInner::Slots(slots) => {
                for (u, slot) in slots.iter_mut().enumerate() {
                    if u != self.me {
                        slot.copy_from(msg);
                    }
                }
            }
            OutboxInner::Sparse(row) => row.set_broadcast(msg),
        }
    }

    /// The number of destination slots (= n).
    pub fn n(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::DeliveryMode;

    #[test]
    fn node_id_display_is_one_based() {
        assert_eq!(NodeId(0).display(), 1);
        assert_eq!(NodeId(6).display(), 7);
        assert_eq!(NodeId::from(3usize).index(), 3);
    }

    #[test]
    fn outbox_send_and_broadcast() {
        let mut slots = vec![BitString::new(); 4];
        let m = BitString::from_bits([true]);
        {
            let mut ob = Outbox::new(&mut slots, 1);
            ob.send(NodeId(0), m.clone());
        }
        assert_eq!(slots[0], m);
        assert!(slots[2].is_empty());
        {
            let mut ob = Outbox::new(&mut slots, 1);
            ob.broadcast(&m);
        }
        for u in [0usize, 2, 3] {
            assert_eq!(slots[u], m);
        }
        assert!(slots[1].is_empty(), "broadcast must skip self");
    }

    #[test]
    #[should_panic(expected = "nonexistent node")]
    fn outbox_rejects_out_of_range_send() {
        let mut slots = vec![BitString::new(); 3];
        let mut ob = Outbox::new(&mut slots, 0);
        ob.send(NodeId(7), BitString::new());
    }

    #[test]
    fn sparse_outbox_and_inbox_round_trip() {
        let n = 4;
        let mut rows: Vec<Row> = (0..n).map(|_| Row::new(DeliveryMode::Sparse, n)).collect();
        {
            let mut ob = rows[1].outbox(1);
            assert_eq!(ob.n(), n);
            ob.broadcast(&BitString::from_bits([true, false]));
            ob.send(NodeId(3), BitString::from_bits([false]));
        }
        for r in &mut rows {
            r.seal();
        }
        let ib = Inbox::rows(&rows, 3);
        assert_eq!(ib.from(NodeId(1)), &BitString::from_bits([false]));
        assert!(ib.from(NodeId(3)).is_empty(), "self slot is empty");
        let ib0 = Inbox::rows(&rows, 0);
        assert_eq!(ib0.from(NodeId(1)), &BitString::from_bits([true, false]));
        let got: Vec<_> = ib0.iter().map(|(u, m)| (u.index(), m.len())).collect();
        assert_eq!(got, vec![(1, 2)]);
    }

    #[test]
    #[should_panic(expected = "send to itself")]
    fn outbox_rejects_self_send() {
        let mut slots = vec![BitString::new(); 3];
        let mut ob = Outbox::new(&mut slots, 2);
        ob.send(NodeId(2), BitString::new());
    }

    #[test]
    fn inbox_iter_skips_empty() {
        let slots = vec![
            BitString::from_bits([true]),
            BitString::new(),
            BitString::from_bits([false, true]),
        ];
        let ib = Inbox::from_slots(&slots, 1);
        let got: Vec<_> = ib.iter().map(|(u, m)| (u.index(), m.len())).collect();
        assert_eq!(got, vec![(0, 1), (2, 2)]);
        assert_eq!(ib.from(NodeId(0)).len(), 1);
        assert!(ib.from(NodeId(1)).is_empty());
    }
}
