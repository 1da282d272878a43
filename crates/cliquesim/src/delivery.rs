//! Per-round message delivery: one sender row per node and round.
//!
//! The model gives every ordered pair of nodes one message slot per round,
//! so a round's traffic is `n` sender rows. The engine double-buffers them:
//! nodes write round `r`'s sends into buffer `r % 2` and read round `r-1`'s
//! from the other, so delivery is a buffer swap, never a transpose.
//!
//! A `Row` is one sender's messages for one round, in one of two formats
//! the engine picks per run (see [`DeliveryMode`]):
//!
//! * dense — one slot per recipient. Best when most ordered pairs exchange
//!   a message most rounds (all-to-all routing).
//! * sparse — a `SparseRow`: a shared broadcast payload plus sorted
//!   `(recipient, payload)` override entries. A broadcast round stores
//!   **one** payload per sender instead of `n - 1` clones, and a ring round
//!   stores two entries per sender, so the footprint is `O(edges)` rather
//!   than `O(n²)`.
//!
//! The format is decided here and nowhere else: outboxes, inboxes, the
//! engine's admission checks and bookkeeping, and the wire stages all go
//! through `Row`'s methods. Both formats produce bit-identical outputs,
//! transcripts, reports, and [`crate::RunStats`] — cc-testkit's
//! differential runners check every conformance family against both
//! across pool shapes.
//!
//! Buffers are checked out of a [`DeliveryArena`] at the start of a run and
//! returned at the end, so repeated runs (a [`crate::Session`]'s phases)
//! reuse the same allocations: steady-state rounds allocate nothing in
//! either format.

use crate::bits::{BitString, EMPTY};
use crate::node::Outbox;

/// Which delivery format the engine uses for a run.
///
/// Attach with [`crate::Engine::with_delivery`]; the default is
/// [`DeliveryMode::Auto`]. Whatever the choice, results are bit-identical —
/// only memory footprint and wall-clock differ.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DeliveryMode {
    /// Decide per run from the engine's configuration: broadcast-only mode,
    /// a sparse CONGEST topology (≤ 25% of ordered pairs adjacent), or a
    /// fault plan that crashes at least half the nodes select
    /// [`DeliveryMode::Sparse`]; everything else gets
    /// [`DeliveryMode::Dense`].
    #[default]
    Auto,
    /// Always use dense rows: one slot per ordered pair.
    Dense,
    /// Always use the compacted per-sender edge lists.
    Sparse,
}

impl DeliveryMode {
    /// Short lowercase name (`"auto"`, `"dense"`, `"sparse"`), used in
    /// replayable test labels such as `apsp[64, 7]@sparse`.
    pub fn tag(self) -> &'static str {
        match self {
            DeliveryMode::Auto => "auto",
            DeliveryMode::Dense => "dense",
            DeliveryMode::Sparse => "sparse",
        }
    }
}

/// Reusable backing storage for the engine's delivery buffers.
///
/// A run checks its buffer pair out at the start and returns it at the end,
/// so the arena holds at most one dense pair and one sparse pair. Entry
/// points that take an arena ([`crate::Engine::run_in`] and friends, or a
/// [`crate::Session`], which owns one) make every run after the first
/// allocation-free in steady state; the plain entry points create a fresh
/// arena per run. Statistics are unaffected by reuse: all accounting is in
/// terms of logical messages, never retained capacity.
#[derive(Debug, Default)]
pub struct DeliveryArena {
    dense: Option<[Vec<Row>; 2]>,
    sparse: Option<[Vec<Row>; 2]>,
}

impl DeliveryArena {
    /// An empty arena; buffers are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of retained message slots across both formats and both
    /// buffers of each pair — the delivery-buffer footprint in units of
    /// payload slots. A dense pair contributes `2·n²`; a sparse pair
    /// contributes one broadcast slot plus the override entries per sender
    /// row, i.e. `O(n + edges)`.
    pub fn slot_footprint(&self) -> usize {
        [&self.dense, &self.sparse]
            .into_iter()
            .flatten()
            .flatten()
            .flatten()
            .map(Row::footprint)
            .sum()
    }

    /// The parked pair for `mode` (anything but sparse is dense).
    fn pair(&mut self, mode: DeliveryMode) -> &mut Option<[Vec<Row>; 2]> {
        match mode {
            DeliveryMode::Sparse => &mut self.sparse,
            _ => &mut self.dense,
        }
    }

    /// Check out a buffer pair of `n` rows in `mode`'s format, reusing the
    /// parked pair if it has the right size, and reset it: round 0 reads
    /// the previous-round buffer without clearing it first, so stale
    /// content from an earlier run must be gone.
    pub(crate) fn take(&mut self, mode: DeliveryMode, n: usize) -> [Vec<Row>; 2] {
        match self.pair(mode).take() {
            Some(mut bufs) if bufs[0].len() == n => {
                bufs.iter_mut().flatten().for_each(Row::clear);
                bufs
            }
            _ => {
                let fresh = || (0..n).map(|_| Row::new(mode, n)).collect();
                [fresh(), fresh()]
            }
        }
    }

    /// Park a pair taken with [`DeliveryArena::take`] for the next run.
    pub(crate) fn put(&mut self, mode: DeliveryMode, bufs: [Vec<Row>; 2]) {
        *self.pair(mode) = Some(bufs);
    }
}

/// One sender's messages for one round, in either format. Callers name the
/// sender `me` where a method needs it; a row never holds a message to its
/// own sender.
#[derive(Debug)]
pub(crate) enum Row {
    /// One slot per recipient: slot `u` is the message to `u`.
    Dense(Vec<BitString>),
    /// A shared broadcast payload plus per-recipient overrides.
    Sparse(SparseRow),
}

impl Row {
    /// An empty row of width `n` in `mode`'s format (anything but sparse is
    /// dense).
    pub(crate) fn new(mode: DeliveryMode, n: usize) -> Self {
        match mode {
            DeliveryMode::Sparse => Row::Sparse(SparseRow::new(n)),
            _ => Row::Dense(vec![BitString::new(); n]),
        }
    }

    /// Retained payload slots (see [`DeliveryArena::slot_footprint`]).
    fn footprint(&self) -> usize {
        match self {
            Row::Dense(slots) => slots.len(),
            Row::Sparse(r) => 1 + r.slots.len(),
        }
    }

    /// Reset for a new round in place, retaining capacity.
    pub(crate) fn clear(&mut self) {
        match self {
            Row::Dense(slots) => slots.iter_mut().for_each(BitString::clear),
            Row::Sparse(r) => r.clear(),
        }
    }

    /// Finish the row after its sender stepped (a sparse row sorts its
    /// override entries so later reads can binary-search).
    pub(crate) fn seal(&mut self) {
        if let Row::Sparse(r) = self {
            r.seal();
        }
    }

    /// An outbox for sender `me` over this cleared row.
    pub(crate) fn outbox(&mut self, me: usize) -> Outbox<'_> {
        match self {
            Row::Dense(slots) => Outbox::new(slots, me),
            Row::Sparse(r) => Outbox::sparse(r, me),
        }
    }

    /// The message from sender `me` to `u` in this sealed row (empty if
    /// none; the diagonal `u == me` is always empty).
    #[inline]
    pub(crate) fn get(&self, me: usize, u: usize) -> &BitString {
        if u == me {
            return &EMPTY;
        }
        match self {
            Row::Dense(slots) => &slots[u],
            Row::Sparse(r) => r.get(u),
        }
    }

    /// The non-empty messages of this sealed row from sender `me`, as
    /// `(recipient, payload)` with recipients ascending — the order the
    /// validation passes and accounting rely on.
    pub(crate) fn iter(&self, me: usize) -> RowIter<'_> {
        match self {
            Row::Dense(slots) => RowIter::Dense { slots, u: 0 },
            Row::Sparse(r) if r.bcast.is_empty() => RowIter::Entries {
                entries: r.entries(),
                i: 0,
            },
            Row::Sparse(row) => RowIter::Broadcast {
                row,
                me,
                u: 0,
                e: 0,
            },
        }
    }

    /// Visit the non-empty messages of this sealed row from sender `me` in
    /// ascending recipient order, mutably — the adversary sweep order both
    /// formats share. A sparse row hands out a scratch copy of its shared
    /// broadcast payload per recipient and materialises changed copies as
    /// overrides: the adversary damages *copies per link*, never the shared
    /// payload.
    pub(crate) fn for_each_msg_mut(&mut self, me: usize, mut f: impl FnMut(usize, &mut BitString)) {
        match self {
            Row::Dense(slots) => {
                for (u, m) in slots.iter_mut().enumerate() {
                    if u != me && !m.is_empty() {
                        f(u, m);
                    }
                }
            }
            Row::Sparse(r) => r.for_each_msg_mut(me, f),
        }
    }

    /// Visit the distinct non-empty payloads of this sealed row with their
    /// recipient multiplicities (dense: each slot once; sparse: the shared
    /// broadcast payload once with its coverage, then each override). The
    /// sweep for per-payload rewrites that must treat every copy
    /// identically — equal payloads stay equal, so dense and sparse remain
    /// bit-identical while a sparse row keeps its sharing.
    pub(crate) fn for_each_payload_mut(&mut self, mut f: impl FnMut(usize, &mut BitString)) {
        match self {
            Row::Dense(slots) => {
                for m in slots.iter_mut().filter(|m| !m.is_empty()) {
                    f(1, m);
                }
            }
            Row::Sparse(r) => r.for_each_payload_mut(f),
        }
    }
}

/// A sparse row: an optional broadcast payload shared by every recipient,
/// plus per-recipient override entries. An override (even an empty one)
/// beats the broadcast payload for its recipient, mirroring a dense row's
/// last-write-wins slots; the broadcast payload being empty means "no
/// broadcast".
#[derive(Debug)]
pub(crate) struct SparseRow {
    /// Number of nodes (the row's width).
    n: usize,
    /// Payload sent to every non-overridden recipient (empty = none).
    bcast: BitString,
    /// Number of live entries at the front of `slots`.
    live: usize,
    /// Override entries `(recipient, payload)`. `[..live]` is this round's
    /// data (sorted by recipient once sealed); the tail is spare capacity
    /// retained across rounds so steady-state sends allocate nothing.
    slots: Vec<(u32, BitString)>,
}

impl SparseRow {
    /// An empty row of width `n`.
    fn new(n: usize) -> Self {
        Self {
            n,
            bcast: BitString::new(),
            live: 0,
            slots: Vec::new(),
        }
    }

    /// Number of nodes (the row's width).
    pub(crate) fn n(&self) -> usize {
        self.n
    }

    /// Reset for a new round, retaining all payload allocations.
    fn clear(&mut self) {
        self.bcast.clear();
        self.live = 0;
    }

    /// Record a unicast (last write to a recipient wins, like a dense slot).
    pub(crate) fn send(&mut self, to: u32, msg: BitString) {
        for e in &mut self.slots[..self.live] {
            if e.0 == to {
                e.1 = msg;
                return;
            }
        }
        if self.live < self.slots.len() {
            self.slots[self.live] = (to, msg);
        } else {
            self.slots.push((to, msg));
        }
        self.live += 1;
    }

    /// Record a broadcast: one shared payload, all previous overrides
    /// discarded (a dense broadcast overwrites every slot).
    pub(crate) fn set_broadcast(&mut self, msg: &BitString) {
        self.bcast.copy_from(msg);
        self.live = 0;
    }

    /// Sort the live entries by recipient so reads can binary-search.
    fn seal(&mut self) {
        self.slots[..self.live].sort_unstable_by_key(|e| e.0);
    }

    /// The message to `u` (requires a sealed row; `u` must not be the
    /// sender itself — [`Row::get`] guards the diagonal).
    fn get(&self, u: usize) -> &BitString {
        match self.entries().binary_search_by_key(&(u as u32), |e| e.0) {
            Ok(i) => &self.slots[i].1,
            Err(_) => &self.bcast,
        }
    }

    /// The live (sealed) override entries.
    fn entries(&self) -> &[(u32, BitString)] {
        &self.slots[..self.live]
    }

    /// See [`Row::for_each_msg_mut`].
    fn for_each_msg_mut(&mut self, me: usize, mut f: impl FnMut(usize, &mut BitString)) {
        if self.bcast.is_empty() {
            for e in &mut self.slots[..self.live] {
                if !e.1.is_empty() {
                    f(e.0 as usize, &mut e.1);
                }
            }
            return;
        }
        let mut pending: Vec<(u32, BitString)> = Vec::new();
        let mut scratch = BitString::new();
        let mut e = 0usize;
        for u in 0..self.n {
            if u == me {
                continue;
            }
            while e < self.live && (self.slots[e].0 as usize) < u {
                e += 1;
            }
            if e < self.live && self.slots[e].0 as usize == u {
                let m = &mut self.slots[e].1;
                if !m.is_empty() {
                    f(u, m);
                }
            } else {
                scratch.copy_from(&self.bcast);
                f(u, &mut scratch);
                if scratch != self.bcast {
                    pending.push((u as u32, scratch.clone()));
                }
            }
        }
        for (u, payload) in pending {
            match self.entries().binary_search_by_key(&u, |e| e.0) {
                Ok(_) => unreachable!("pending overrides never duplicate an existing entry"),
                Err(i) => {
                    self.slots.insert(i, (u, payload));
                    self.live += 1;
                }
            }
        }
    }

    /// See [`Row::for_each_payload_mut`]. The shared broadcast payload is
    /// handed to the visitor **once** (with multiplicity `n − 1 − live`),
    /// in place: for sweeps that rewrite every copy identically (message
    /// signing/verification) mutating the shared storage is both correct
    /// and keeps the sharing. Overrides never target the sender
    /// ([`crate::node::Outbox::send`] rejects self-sends), so the
    /// multiplicity arithmetic needs no diagonal adjustment.
    fn for_each_payload_mut(&mut self, mut f: impl FnMut(usize, &mut BitString)) {
        if !self.bcast.is_empty() {
            let covered = self.n - 1 - self.live;
            if covered > 0 {
                f(covered, &mut self.bcast);
            }
        }
        for e in &mut self.slots[..self.live] {
            if !e.1.is_empty() {
                f(1, &mut e.1);
            }
        }
    }
}

/// Iterator over the non-empty `(recipient, payload)` messages of one
/// sealed row, recipients ascending (see [`Row::iter`]).
pub(crate) enum RowIter<'a> {
    /// Dense slots; empty slots (including the diagonal) are skipped.
    Dense {
        /// The sender's `n` slots.
        slots: &'a [BitString],
        /// Next recipient to inspect.
        u: usize,
    },
    /// Sparse row with no broadcast payload: walk the sorted entries.
    Entries {
        /// The sealed override entries.
        entries: &'a [(u32, BitString)],
        /// Next entry to inspect.
        i: usize,
    },
    /// Sparse row with a broadcast payload: merge the shared payload with
    /// the sorted overrides, two-pointer style.
    Broadcast {
        /// The sealed row.
        row: &'a SparseRow,
        /// The sender (skipped).
        me: usize,
        /// Next recipient to inspect.
        u: usize,
        /// Cursor into the sorted entries.
        e: usize,
    },
}

impl<'a> Iterator for RowIter<'a> {
    type Item = (usize, &'a BitString);

    fn next(&mut self) -> Option<(usize, &'a BitString)> {
        match self {
            RowIter::Dense { slots, u } => {
                let slots: &'a [BitString] = slots;
                while *u < slots.len() {
                    let i = *u;
                    *u += 1;
                    if !slots[i].is_empty() {
                        return Some((i, &slots[i]));
                    }
                }
                None
            }
            RowIter::Entries { entries, i } => {
                let entries: &'a [(u32, BitString)] = entries;
                while *i < entries.len() {
                    let j = *i;
                    *i += 1;
                    if !entries[j].1.is_empty() {
                        return Some((entries[j].0 as usize, &entries[j].1));
                    }
                }
                None
            }
            RowIter::Broadcast { row, me, u, e } => {
                let row: &'a SparseRow = row;
                let entries = row.entries();
                while *u < row.n {
                    let cur = *u;
                    *u += 1;
                    if cur == *me {
                        continue;
                    }
                    while *e < entries.len() && (entries[*e].0 as usize) < cur {
                        *e += 1;
                    }
                    let m = if *e < entries.len() && entries[*e].0 as usize == cur {
                        &entries[*e].1
                    } else {
                        &row.bcast
                    };
                    if !m.is_empty() {
                        return Some((cur, m));
                    }
                }
                None
            }
        }
    }
}

/// Turn a flat sender-major `n × n` matrix (slot `v*n + u` = message
/// `v → u`) into dense rows, run `f` over them, and write the rows back, so
/// in-crate tests can drive the wire stages on a plain matrix.
#[cfg(test)]
pub(crate) fn with_rows<T>(
    matrix: &mut [BitString],
    n: usize,
    f: impl FnOnce(&mut [Row]) -> T,
) -> T {
    assert_eq!(matrix.len(), n * n);
    let mut rows: Vec<Row> = matrix
        .chunks_mut(n)
        .map(|r| Row::Dense(r.iter_mut().map(std::mem::take).collect()))
        .collect();
    let out = f(&mut rows);
    for (dst, row) in matrix.chunks_mut(n).zip(rows) {
        let Row::Dense(slots) = row else {
            unreachable!("dense rows stay dense")
        };
        for (d, m) in dst.iter_mut().zip(slots) {
            *d = m;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Inbox, NodeId};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn bits(s: &[bool]) -> BitString {
        BitString::from_bits(s.iter().copied())
    }

    #[test]
    fn sparse_row_send_overrides_and_seals() {
        let mut r = SparseRow::new(5);
        r.send(3, bits(&[true]));
        r.send(1, bits(&[false, true]));
        r.send(3, bits(&[true, true])); // last write wins
        r.seal();
        assert_eq!(r.get(1), &bits(&[false, true]));
        assert_eq!(r.get(3), &bits(&[true, true]));
        assert!(r.get(2).is_empty(), "no broadcast, no entry");
        // Clear retains the entry allocations but drops the content.
        r.clear();
        r.seal();
        assert!(r.get(1).is_empty());
        assert!(r.get(3).is_empty());
    }

    #[test]
    fn sparse_row_broadcast_then_override() {
        let n = 5;
        let mut r = SparseRow::new(n);
        r.send(4, bits(&[true, true, true]));
        r.set_broadcast(&bits(&[true, false])); // discards the earlier send
        r.send(2, bits(&[false])); // override one copy
        r.send(3, BitString::new()); // empty override = no message to 3
        r.seal();
        assert_eq!(r.get(1), &bits(&[true, false]));
        assert_eq!(r.get(2), &bits(&[false]));
        assert!(r.get(3).is_empty());
        assert_eq!(r.get(4), &bits(&[true, false]), "broadcast override gone");
        // Row iteration merges broadcast and overrides, recipients ascending.
        let row = Row::Sparse(r);
        let got: Vec<(usize, usize)> = row.iter(0).map(|(u, m)| (u, m.len())).collect();
        assert_eq!(got, vec![(1, 2), (2, 1), (4, 2)]);
    }

    #[test]
    fn sparse_row_iter_without_broadcast_skips_empties() {
        let mut r = SparseRow::new(6);
        r.send(2, bits(&[true]));
        r.send(0, BitString::new());
        r.send(4, bits(&[false, false]));
        r.seal();
        let row = Row::Sparse(r);
        let got: Vec<usize> = row.iter(1).map(|(u, _)| u).collect();
        assert_eq!(got, vec![2, 4]);
    }

    #[test]
    fn for_each_msg_mut_materialises_changed_broadcast_copies() {
        let n = 4;
        let me = 0;
        let mut r = SparseRow::new(n);
        r.set_broadcast(&bits(&[true, true]));
        r.seal();
        // Damage only recipient 2's copy.
        r.for_each_msg_mut(me, |u, m| {
            if u == 2 {
                m.set(0, false);
            }
        });
        assert_eq!(r.get(1), &bits(&[true, true]), "shared payload untouched");
        assert_eq!(r.get(2), &bits(&[false, true]), "changed copy materialised");
        assert_eq!(r.get(3), &bits(&[true, true]));
        // A second sweep sees the override in place of the broadcast copy.
        let mut seen = Vec::new();
        r.for_each_msg_mut(me, |u, m| seen.push((u, m.get(0))));
        assert_eq!(seen, vec![(1, true), (2, false), (3, true)]);
    }

    /// The non-empty messages of sender `v` in the flat model, recipients
    /// ascending.
    fn model_row(want: &[BitString], n: usize, v: usize) -> Vec<(usize, BitString)> {
        (0..n)
            .filter(|&u| !want[v * n + u].is_empty())
            .map(|u| (u, want[v * n + u].clone()))
            .collect()
    }

    /// Every read of `buf` — `get` on every pair (diagonal included), the
    /// ascending row iterator, and each node's inbox — agrees with the flat
    /// sender-major model `want`.
    fn reads_match(buf: &[Row], want: &[BitString]) -> Result<(), TestCaseError> {
        let n = buf.len();
        for (v, row) in buf.iter().enumerate() {
            for u in 0..n {
                prop_assert_eq!(row.get(v, u), &want[v * n + u], "get({}, {})", v, u);
            }
            let got: Vec<(usize, BitString)> = row.iter(v).map(|(u, m)| (u, m.clone())).collect();
            prop_assert_eq!(got, model_row(want, n, v), "iter({})", v);
        }
        for me in 0..n {
            let inbox = Inbox::rows(buf, me);
            for u in 0..n {
                prop_assert_eq!(inbox.from(NodeId::from(u)), &want[u * n + me]);
            }
            let got: Vec<(usize, BitString)> =
                inbox.iter().map(|(u, m)| (u.index(), m.clone())).collect();
            let column: Vec<(usize, BitString)> = (0..n)
                .filter(|&u| !want[u * n + me].is_empty())
                .map(|u| (u, want[u * n + me].clone()))
                .collect();
            prop_assert_eq!(got, column, "inbox of {}", me);
        }
        Ok(())
    }

    /// A link-level rewrite chosen by `damage` per `(v, u)`: keep, invert,
    /// clear, or lengthen the copy.
    fn damage_one(damage: u64, n: usize, v: usize, u: usize, m: &mut BitString) {
        match (damage >> (2 * ((v * n + u) % 32))) & 3 {
            0 => {}
            1 => m.invert(),
            2 => m.clear(),
            _ => m.push(true),
        }
    }

    proptest! {
        #[test]
        fn dense_and_sparse_rows_agree_on_random_scripts(
            n in 2usize..7,
            scripts in vec(vec((0u8..4, any::<usize>(), vec(any::<bool>(), 0..4)), 0..8), 6),
            damage in any::<u64>(),
        ) {
            // Each sender runs its script (op 3 broadcasts, the rest send
            // to a non-self recipient; repeats, empty payloads and
            // overrides after a broadcast all occur) on a dense row, a
            // sparse row, and the flat sender-major model.
            let mut want = vec![BitString::new(); n * n];
            let mut bufs = [DeliveryMode::Dense, DeliveryMode::Sparse]
                .map(|mode| (0..n).map(|_| Row::new(mode, n)).collect::<Vec<_>>());
            for (v, script) in scripts.iter().take(n).enumerate() {
                for (op, to, payload) in script {
                    let msg = bits(payload);
                    let to = (v + 1 + to % (n - 1)) % n;
                    for buf in &mut bufs {
                        let mut outbox = buf[v].outbox(v);
                        match op {
                            3 => outbox.broadcast(&msg),
                            _ => outbox.send(NodeId::from(to), msg.clone()),
                        }
                    }
                    match op {
                        3 => (0..n).filter(|&u| u != v).for_each(|u| want[v * n + u] = msg.clone()),
                        _ => want[v * n + to] = msg,
                    }
                }
            }
            bufs.iter_mut().flatten().for_each(Row::seal);
            for buf in &bufs {
                reads_match(buf, &want)?;
            }

            // The adversary sweep visits the model's messages in order and
            // materialises exactly the copies it changed.
            for buf in &mut bufs {
                for (v, row) in buf.iter_mut().enumerate() {
                    let mut seen = Vec::new();
                    row.for_each_msg_mut(v, |u, m| {
                        seen.push((u, m.clone()));
                        damage_one(damage, n, v, u, m);
                    });
                    prop_assert_eq!(seen, model_row(&want, n, v), "msg sweep of {}", v);
                }
            }
            for (i, m) in want.iter_mut().enumerate().filter(|(_, m)| !m.is_empty()) {
                damage_one(damage, n, i / n, i % n, m);
            }
            for buf in &bufs {
                reads_match(buf, &want)?;
            }

            // The payload sweep covers the same multiset of copies, and a
            // payload-keyed rewrite (as signing is) lands on every copy.
            for buf in &mut bufs {
                for (v, row) in buf.iter_mut().enumerate() {
                    let mut copies = Vec::new();
                    row.for_each_payload_mut(|k, m| {
                        copies.extend(std::iter::repeat_n(m.iter().collect::<Vec<bool>>(), k));
                        m.push(m.len() % 2 == 0);
                    });
                    copies.sort();
                    let mut model: Vec<Vec<bool>> =
                        model_row(&want, n, v).into_iter().map(|(_, m)| m.iter().collect()).collect();
                    model.sort();
                    prop_assert_eq!(copies, model, "payload sweep of {}", v);
                }
            }
            for m in want.iter_mut().filter(|m| !m.is_empty()) {
                m.push(m.len() % 2 == 0);
            }
            for buf in &bufs {
                reads_match(buf, &want)?;
            }
        }
    }

    #[test]
    fn arena_reuses_and_reports_footprint() {
        let mut arena = DeliveryArena::new();
        assert_eq!(arena.slot_footprint(), 0);
        let bufs = arena.take(DeliveryMode::Sparse, 4);
        arena.put(DeliveryMode::Sparse, bufs);
        // 2 buffers × 4 rows × (1 broadcast slot + 0 entries).
        assert_eq!(arena.slot_footprint(), 8);
        // Same n: the pair is reused, cleared.
        let bufs = arena.take(DeliveryMode::Sparse, 4);
        assert_eq!(arena.slot_footprint(), 0, "checked out");
        assert!(bufs[0]
            .iter()
            .all(|r| matches!(r, Row::Sparse(r) if r.bcast.is_empty() && r.live == 0)));
        arena.put(DeliveryMode::Sparse, bufs);
        // Different n: a fresh pair replaces the stale one.
        let bufs = arena.take(DeliveryMode::Sparse, 2);
        assert_eq!(bufs[0].len(), 2);
        arena.put(DeliveryMode::Sparse, bufs);
        assert_eq!(arena.slot_footprint(), 4);

        let dense = arena.take(DeliveryMode::Dense, 3);
        arena.put(DeliveryMode::Dense, dense);
        assert_eq!(arena.slot_footprint(), 4 + 2 * 9);
    }

    #[test]
    fn delivery_mode_tags() {
        assert_eq!(DeliveryMode::Auto.tag(), "auto");
        assert_eq!(DeliveryMode::Dense.tag(), "dense");
        assert_eq!(DeliveryMode::Sparse.tag(), "sparse");
        assert_eq!(DeliveryMode::default(), DeliveryMode::Auto);
    }
}
