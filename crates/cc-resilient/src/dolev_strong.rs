//! Authenticated reliable broadcast (Dolev–Strong signature chains).
//!
//! [`crate::BrachaBroadcast`] is capped at `f < n/3` because an
//! unauthenticated recipient cannot *transfer* what it heard: "the source
//! told me `x`" is hearsay, so every claim must be re-established by
//! distinct-sender quorums, and quorum intersection needs `n > 3f`.
//! Signatures (cliquesim's [`AuthKeyring`] envelope, see `cliquesim::auth`)
//! remove the cap: a signed value is a certificate any third node can
//! check, so a recipient can *prove* what the source said by forwarding
//! the signature chain. Dolev & Strong (1983) turn that into broadcast
//! with agreement for **any** number of traitors.
//!
//! # Protocol (synchronous rendering, fixed schedule)
//!
//! For `n` nodes tolerating `f` traitors, with `id_width = ⌈log₂ n⌉` and
//! chains of `(signer, signature)` entries over the content
//! `(source, value)`:
//!
//! * **Round 0** — the source broadcasts `[value ‖ (source, sig)]`, a
//!   chain of one signature, and *extracts* its own value.
//! * **Round `r` (1 ≤ r ≤ f)** — a node accepts an inbound frame iff it
//!   carries a valid chain: `k ≥ r` entries, pairwise-distinct signers
//!   starting with the source, every signature valid for
//!   `(source, value)`. A newly extracted value is countersigned and
//!   relayed (chain grows to `k + 1 ≥ r + 1` entries, meeting the next
//!   round's threshold by construction).
//! * **Round `f + 1`** (decision) — accept a final time with threshold
//!   `f + 1`, then halt with `Some(v)` if exactly one value was ever
//!   extracted, `None` otherwise.
//!
//! The `k ≥ r` rule is the heart of the argument: a chain of `k` valid
//! entries contains `k` distinct signers, so a value first reaching an
//! honest node at the decision round arrives with `f + 1` signatures —
//! at least one from an honest node, which (being honest) relayed it to
//! *everyone* no later than round `f`, so every honest node extracted it
//! by the decision round too. Honest nodes therefore hold identical
//! extraction sets and decide identically, for any `f < n` — traitors
//! can withhold or garble, but garbling breaks the chain signatures and
//! withholding cannot un-extract.
//!
//! **Guarantee:** all honest nodes halt with the same `Option<u64>`; if
//! the source is honest, that output is `Some(its value)`. Checked over
//! seeded adversary plans across the full backends × pool-shapes grid
//! (`tests/auth_suite.rs`), for every `f < n/2` via
//! [`dolev_strong_broadcast`] and all `f < n` via
//! [`dolev_strong_broadcast_classic`] — not claimed as a mechanised
//! proof.
//!
//! **Assumptions:** the engine carries the keyring that signed the
//! chains ([`cliquesim::Engine::with_auth`]); the adversary rewrites
//! payloads but cannot mint a valid signature for an identity it does
//! not own (the keyring's substitution contract). One rendering
//! simplification is documented on [`DolevStrongBroadcast`]: a node
//! relays at most one newly-extracted value per round (the congested
//! clique sends one message per link per round), which is lossless under
//! the modeled adversary because it cannot forge the second valid value
//! a same-round double-relay would be needed for.
//!
//! **Overhead:** `f + 1` rounds. Fault-free, `(n−1) + (n−1)²` messages
//! (`n−1` for `f = 0`): the source's round-0 broadcast of
//! `width + id_width + TAG_BITS` bits and, for `f ≥ 1`, one relay
//! broadcast per non-source node of `width + 2(id_width + TAG_BITS)`
//! bits. Chain signatures ride *inside* the payload (charged to
//! `RunStats.bits`); the engine's envelope tags land in `auth_bits`.
//! [`dolev_strong_overhead`] prices this analytically and is asserted
//! against simulation field by field.

use std::collections::{BTreeSet, VecDeque};

use cliquesim::{
    strip_tag, AuthKeyring, BitString, Inbox, NodeCtx, NodeId, NodeProgram, Outbox, Outcome,
    RunStats, Session, SimError, Status, TAG_BITS,
};

/// Round context for chain signatures: a constant no engine round
/// reaches (the engine's default round cap is far below it), so a chain
/// entry stays verifiable in every round without colliding with the
/// engine's per-round envelope tags.
const CHAIN_CONTEXT: usize = usize::MAX;

/// Sign the chain content `(source, value)` as `signer`.
fn chain_sig(
    keyring: &AuthKeyring,
    signer: NodeId,
    source: NodeId,
    value: u64,
    width: usize,
    id_width: usize,
) -> u64 {
    let mut content = BitString::new();
    content.push_uint(source.0 as u64, id_width);
    content.push_uint(value, width);
    keyring.sign(signer, CHAIN_CONTEXT, &content)
}

/// A parsed and fully validated signature chain.
struct ValidChain {
    value: u64,
    signers: Vec<u32>,
}

/// Parse `payload` as `[value ‖ k × (signer, sig)]` and validate every
/// chain rule except the round threshold (checked by the caller): at
/// least one entry, signers in range and pairwise distinct, first signer
/// the source, every signature valid for `(source, value)`.
fn parse_chain(
    payload: &BitString,
    keyring: &AuthKeyring,
    source: NodeId,
    width: usize,
    id_width: usize,
    n: usize,
) -> Option<ValidChain> {
    let entry = id_width + TAG_BITS;
    if payload.len() < width + entry || !(payload.len() - width).is_multiple_of(entry) {
        return None;
    }
    let k = (payload.len() - width) / entry;
    let mut r = payload.reader();
    let value = r.read_uint(width).ok()?;
    let mut signers: Vec<u32> = Vec::with_capacity(k);
    for _ in 0..k {
        let signer = r.read_uint(id_width).ok()?;
        let sig = r.read_uint(TAG_BITS).ok()?;
        if signer as usize >= n || signers.contains(&(signer as u32)) {
            return None;
        }
        let signer_id = NodeId(signer as u32);
        if chain_sig(keyring, signer_id, source, value, width, id_width) != sig {
            return None;
        }
        signers.push(signer as u32);
    }
    if signers.first() != Some(&source.0) {
        return None;
    }
    Some(ValidChain { value, signers })
}

/// One node's program for Dolev–Strong authenticated broadcast. See the
/// module docs for the schedule and guarantees.
///
/// Requires an engine with the same [`AuthKeyring`] attached (the
/// [`dolev_strong_broadcast`] wrapper enforces this): inbox frames carry
/// the engine's envelope tag, which this program strips before parsing
/// the chain — a frame that failed envelope verification never arrives
/// at all.
///
/// Rendering simplification: at most one newly-extracted value is
/// relayed per round (one message per link per round), at most two in
/// total (a third value cannot change a decision that is already
/// `None`). Under the modeled adversary this loses nothing — forging
/// the *second* validly-signed value that a same-round double-relay
/// would propagate requires minting a signature the adversary does not
/// have.
#[derive(Clone, Debug)]
pub struct DolevStrongBroadcast {
    source: NodeId,
    /// The source's input; ignored on other nodes.
    value: u64,
    width: usize,
    f: usize,
    keyring: AuthKeyring,
    n: usize,
    id_width: usize,
    /// Values extracted so far (accepted via a valid, on-time chain).
    extracted: BTreeSet<u64>,
    /// Relay frames queued for the next send opportunity.
    pending: VecDeque<BitString>,
    /// Relays actually sent (capped at 2, see above).
    relays_sent: usize,
}

impl DolevStrongBroadcast {
    /// Program for one node: `source`'s `width`-bit `value` is broadcast
    /// tolerating up to `f` Byzantine senders, under `keyring` — which
    /// must be the engine's keyring for the chains to verify.
    pub fn new(source: NodeId, value: u64, width: usize, f: usize, keyring: AuthKeyring) -> Self {
        assert!((1..=62).contains(&width), "width {width} out of range");
        Self {
            source,
            value,
            width,
            f,
            keyring,
            n: 0,
            id_width: 0,
            extracted: BTreeSet::new(),
            pending: VecDeque::new(),
            relays_sent: 0,
        }
    }

    /// Absorb the round's inbox: accept chains meeting this round's
    /// threshold, extract their values, and queue countersigned relays
    /// for values seen for the first time.
    fn absorb(&mut self, ctx: &NodeCtx, round: usize, inbox: &Inbox<'_>) {
        for (_, frame) in inbox.iter() {
            // The envelope already authenticated (sender, engine round);
            // the chain inside authenticates (source, value) transitively.
            let Some(payload) = strip_tag(frame) else {
                continue;
            };
            let Some(chain) = parse_chain(
                &payload,
                &self.keyring,
                self.source,
                self.width,
                self.id_width,
                self.n,
            ) else {
                continue;
            };
            if chain.signers.len() < round {
                continue; // Too few signatures for this round: stale.
            }
            if !self.extracted.insert(chain.value) {
                continue; // Already extracted; nothing new to relay.
            }
            let relay_budget = self.relays_sent + self.pending.len() < 2;
            if round <= self.f && relay_budget && !chain.signers.contains(&ctx.id.0) {
                let mut relay = payload.clone();
                relay.push_uint(ctx.id.0 as u64, self.id_width);
                relay.push_uint(
                    chain_sig(
                        &self.keyring,
                        ctx.id,
                        self.source,
                        chain.value,
                        self.width,
                        self.id_width,
                    ),
                    TAG_BITS,
                );
                self.pending.push_back(relay);
            }
        }
    }
}

impl NodeProgram for DolevStrongBroadcast {
    type Output = Option<u64>;

    fn init(&mut self, ctx: &NodeCtx) {
        self.n = ctx.n;
        self.id_width = BitString::width_for(ctx.n);
    }

    fn step(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &Inbox<'_>,
        outbox: &mut Outbox<'_>,
    ) -> Status<Self::Output> {
        if round > 0 {
            self.absorb(ctx, round, inbox);
        }
        if round > self.f {
            // Decision round f + 1: exactly one extracted value is a
            // delivery; zero or several is the agreed-upon ⊥.
            let decision = match self.extracted.len() {
                1 => self.extracted.iter().next().copied(),
                _ => None,
            };
            return Status::Halt(decision);
        }
        if round == 0 {
            if ctx.id == self.source {
                self.extracted.insert(self.value);
                let mut init = BitString::new();
                init.push_uint(self.value, self.width);
                init.push_uint(self.source.0 as u64, self.id_width);
                init.push_uint(
                    chain_sig(
                        &self.keyring,
                        self.source,
                        self.source,
                        self.value,
                        self.width,
                        self.id_width,
                    ),
                    TAG_BITS,
                );
                outbox.broadcast(&init);
            }
        } else if let Some(relay) = self.pending.pop_front() {
            self.relays_sent += 1;
            outbox.broadcast(&relay);
        }
        Status::Continue
    }
}

/// Largest chain frame a run with parameters `(n, f, width)` can carry
/// (a chain of `f + 1` entries), excluding the engine's envelope tag.
fn max_frame_bits(n: usize, f: usize, width: usize) -> usize {
    width + (f + 1) * (BitString::width_for(n) + TAG_BITS)
}

/// Run [`DolevStrongBroadcast`] as one session phase in the
/// honest-majority regime `f < n/2` — the tolerance the workspace's
/// seeded acceptance sweep pins (Bracha stops at `f < n/3`; see
/// docs/THREAT-MODEL.md). Use [`dolev_strong_broadcast_classic`] for the
/// full `f < n` range of the classic result. Agreement should be
/// asserted with [`Outcome::honest_unanimous`].
///
/// Panics if the session's engine has no keyring, if `f ≥ n/2`, or if
/// the engine bandwidth cannot carry a full `f + 1`-entry chain.
pub fn dolev_strong_broadcast(
    session: &mut Session,
    source: NodeId,
    value: u64,
    width: usize,
    f: usize,
) -> Result<Outcome<Option<Option<u64>>>, SimError> {
    let n = session.n();
    assert!(
        2 * f < n,
        "dolev_strong_broadcast covers the honest-majority regime f < n/2 \
         (got n={n}, f={f}); use dolev_strong_broadcast_classic for f < n"
    );
    dolev_strong_broadcast_classic(session, source, value, width, f)
}

/// Run [`DolevStrongBroadcast`] for any `f < n` — the classic
/// Dolev–Strong tolerance. With signatures, agreement needs no honest
/// majority at all; the permissive wrapper exists so tests can pin the
/// claim, while [`dolev_strong_broadcast`] documents the regime the
/// acceptance sweep covers.
///
/// Panics if the session's engine has no keyring, if `f ≥ n`, or if the
/// engine bandwidth cannot carry a full `f + 1`-entry chain.
pub fn dolev_strong_broadcast_classic(
    session: &mut Session,
    source: NodeId,
    value: u64,
    width: usize,
    f: usize,
) -> Result<Outcome<Option<Option<u64>>>, SimError> {
    let n = session.n();
    assert!(f < n, "f={f} traitors need at least f+1={} nodes", f + 1);
    let keyring = session
        .keyring()
        .unwrap_or_else(|| {
            panic!("dolev_strong_broadcast needs an engine keyring (Engine::with_auth)")
        })
        .clone();
    let frame = max_frame_bits(n, f, width);
    assert!(
        frame <= session.bandwidth(),
        "an f+1-entry chain needs {frame} bits but the engine bandwidth is {}",
        session.bandwidth()
    );
    let programs = (0..n)
        .map(|_| DolevStrongBroadcast::new(source, value, width, f, keyring.clone()))
        .collect();
    session.run_byzantine(programs)
}

/// Analytic cost of one fault-free [`DolevStrongBroadcast`] phase, for
/// [`Session::charge`]: `f + 1` rounds; the source's round-0 broadcast
/// (`n − 1` one-entry frames) plus, for `f ≥ 1`, one two-entry relay
/// broadcast per non-source node (`(n − 1)²` frames). Every copy is
/// envelope-signed, so `signed_messages = messages` and
/// `auth_bits = messages · TAG_BITS`; adversaries only ever *remove*
/// messages from this bound. Asserted against simulation field by field
/// in this module's tests and `tests/auth_suite.rs`.
pub fn dolev_strong_overhead(n: usize, f: usize, width: usize) -> RunStats {
    let entry = (BitString::width_for(n) + TAG_BITS) as u64;
    let frame1 = width as u64 + entry;
    let frame2 = width as u64 + 2 * entry;
    let init_msgs = n as u64 - 1;
    let relay_msgs = if f == 0 { 0 } else { init_msgs * init_msgs };
    let messages = init_msgs + relay_msgs;
    let bits = init_msgs * frame1 + relay_msgs * frame2;
    let max_message_bits = if relay_msgs > 0 {
        frame2 as usize
    } else if init_msgs > 0 {
        frame1 as usize
    } else {
        0
    };
    // Busiest boundary: the INIT round still live in one buffer while the
    // relay round fills the other (for f = 0, the INIT round alone).
    let peak_bits = init_msgs * frame1 + relay_msgs * frame2;
    RunStats {
        rounds: f + 1,
        messages,
        bits,
        max_message_bits,
        peak_live_payload_bytes: (peak_bits as usize).div_ceil(8),
        signed_messages: messages,
        auth_bits: messages * TAG_BITS as u64,
        ..RunStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cliquesim::{ByzantinePlan, Engine, Lie};

    const WIDTH: usize = 8;
    const VALUE: u64 = 0xAB;

    fn engine(n: usize, f: usize, seed: u64) -> Engine {
        Engine::new(n)
            .with_auth(AuthKeyring::from_seed(n, seed))
            .with_bandwidth(max_frame_bits(n, f, WIDTH))
    }

    #[test]
    fn fault_free_dolev_strong_delivers_to_everyone() {
        for (n, f) in [(6, 0), (6, 2), (9, 4)] {
            let mut session = Session::new(engine(n, f, 7));
            let out = dolev_strong_broadcast(&mut session, NodeId(2), VALUE, WIDTH, f).unwrap();
            assert_eq!(out.outputs, vec![Some(Some(VALUE)); n], "n={n} f={f}");
            let predicted = dolev_strong_overhead(n, f, WIDTH);
            let got = out.stats;
            assert_eq!(got.rounds, predicted.rounds, "rounds n={n} f={f}");
            assert_eq!(got.messages, predicted.messages, "messages n={n} f={f}");
            assert_eq!(got.bits, predicted.bits, "bits n={n} f={f}");
            assert_eq!(
                got.max_message_bits, predicted.max_message_bits,
                "max_message_bits n={n} f={f}"
            );
            assert_eq!(
                got.peak_live_payload_bytes, predicted.peak_live_payload_bytes,
                "peak n={n} f={f}"
            );
            assert_eq!(
                got.signed_messages, predicted.signed_messages,
                "signed n={n} f={f}"
            );
            assert_eq!(got.auth_bits, predicted.auth_bits, "auth_bits n={n} f={f}");
            assert_eq!(got.rejected_tags, 0, "honest traffic never fails");
            assert_eq!(got.undelivered_messages, 0);
        }
    }

    #[test]
    fn garbling_traitors_cannot_break_agreement_on_an_honest_source() {
        // f = 4 traitors out of n = 9 — far beyond Bracha's n/3 ceiling.
        let n = 9;
        let f = 4;
        let plan = ByzantinePlan::new(404)
            .with_random_traitors(n, f, &[NodeId(0)])
            .garble(1.0)
            .silence(0.3);
        let mut session = Session::new(engine(n, f, 42).with_byzantine_plan(plan.clone()));
        let out = dolev_strong_broadcast(&mut session, NodeId(0), VALUE, WIDTH, f).unwrap();
        assert_eq!(
            out.honest_unanimous(&plan),
            Some(&Some(VALUE)),
            "honest nodes must deliver the honest source's value"
        );
    }

    #[test]
    fn classic_variant_agrees_with_a_traitor_majority() {
        // f = 5 of n = 7 traitors: impossible unauthenticated, fine here.
        let n = 7;
        let f = 5;
        let plan = ByzantinePlan::new(1313)
            .with_random_traitors(n, f, &[NodeId(3)])
            .garble(0.8)
            .silence(0.5);
        let mut session = Session::new(
            Engine::new(n)
                .with_auth(AuthKeyring::from_seed(n, 9))
                .with_bandwidth(max_frame_bits(n, f, WIDTH))
                .with_byzantine_plan(plan.clone()),
        );
        let out = dolev_strong_broadcast_classic(&mut session, NodeId(3), VALUE, WIDTH, f).unwrap();
        assert_eq!(out.honest_unanimous(&plan), Some(&Some(VALUE)));
    }

    #[test]
    fn a_silent_traitor_source_yields_unanimous_none() {
        let n = 8;
        let f = 3;
        let plan = ByzantinePlan::new(55)
            .traitor(NodeId(1))
            .force(0, NodeId(1), NodeId(2), Lie::Silence)
            .silence(1.0);
        let mut session = Session::new(engine(n, f, 3).with_byzantine_plan(plan.clone()));
        let out = dolev_strong_broadcast(&mut session, NodeId(1), VALUE, WIDTH, f).unwrap();
        // The traitor source sends nothing usable; every honest node must
        // land on the same ⊥ — agreement without validity.
        assert_eq!(out.honest_unanimous(&plan), Some(&None));
    }

    #[test]
    fn stale_chains_are_rejected_by_the_round_threshold() {
        // A one-entry chain parsed at round 2 is stale (threshold 2).
        let n = 5;
        let keyring = AuthKeyring::from_seed(n, 1);
        let mut payload = BitString::new();
        payload.push_uint(VALUE, WIDTH);
        payload.push_uint(0, BitString::width_for(n));
        payload.push_uint(
            chain_sig(
                &keyring,
                NodeId(0),
                NodeId(0),
                VALUE,
                WIDTH,
                BitString::width_for(n),
            ),
            TAG_BITS,
        );
        let chain = parse_chain(
            &payload,
            &keyring,
            NodeId(0),
            WIDTH,
            BitString::width_for(n),
            n,
        )
        .unwrap();
        assert_eq!(chain.value, VALUE);
        assert_eq!(chain.signers, vec![0]);
        assert!(chain.signers.len() < 2, "round-2 threshold rejects it");

        // Tampered value: the source signature no longer verifies.
        let mut bent = BitString::new();
        bent.push_uint(VALUE ^ 1, WIDTH);
        let mut r = payload.reader();
        r.skip(WIDTH).unwrap();
        bent.push_uint(
            r.read_uint(BitString::width_for(n)).unwrap(),
            BitString::width_for(n),
        );
        bent.push_uint(r.read_uint(TAG_BITS).unwrap(), TAG_BITS);
        assert!(parse_chain(
            &bent,
            &keyring,
            NodeId(0),
            WIDTH,
            BitString::width_for(n),
            n
        )
        .is_none());
    }

    #[test]
    #[should_panic(expected = "honest-majority regime")]
    fn default_wrapper_rejects_f_at_or_beyond_half() {
        let n = 6;
        let f = 3;
        let mut session = Session::new(engine(n, f, 1));
        let _ = dolev_strong_broadcast(&mut session, NodeId(0), VALUE, WIDTH, f);
    }

    #[test]
    #[should_panic(expected = "needs an engine keyring")]
    fn wrapper_rejects_an_unauthenticated_engine() {
        let mut session = Session::new(Engine::new(6).with_bandwidth(128));
        let _ = dolev_strong_broadcast(&mut session, NodeId(0), VALUE, WIDTH, 1);
    }
}
