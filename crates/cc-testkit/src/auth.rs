//! Authenticated-tier conformance runners: the signed-message envelope
//! (`cliquesim::auth`) must be as schedule-independent as everything
//! beneath it. A tag is a pure function of `(key, round, sender,
//! payload)`, so a run with a keyring attached — even one where traitors
//! forge tags — must be byte-identical across every pool shape in
//! [`crate::POOL_SHAPES`] and every delivery backend in
//! [`crate::BACKENDS`]: [`crate::differential()`] replays an engine
//! carrying the `(keyring, plan)` pair over the whole grid. This module
//! gives the acceptance sweep [`AuthCase`]s: seed-addressed
//! honest-majority adversaries with replayable `auth[n=…, f=…, seed=…]`
//! labels.
//!
//! The authenticated tier's extra obligations, pinned in
//! `tests/auth_suite.rs` at the workspace root:
//!
//! * **honest agreement past `n/3`** — Dolev–Strong delivers for every
//!   seeded `f < n/2` case here (and all `f < n` via the classic
//!   wrapper), on plans that defeat Bracha;
//! * **forgery accounting** — `RunStats.rejected_tags` counts exactly the
//!   adversary's forged or damaged signed frames, never honest traffic;
//! * **transparency** — an engine *without* a keyring reports every auth
//!   counter as zero and behaves bit-identically to one that never heard
//!   of signing.

use std::fmt;

use cliquesim::{AuthKeyring, ByzantinePlan, NodeId};

/// A seed-addressed authenticated-adversary case: `n` nodes, `f`
/// traitors (honest-majority regime, `f < n/2`), and one seed driving
/// *both* the keyring and the traitor plan — printing as
/// `auth[n=…, f=…, seed=…]`, the label every suite panic leads with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuthCase {
    /// Clique size.
    pub n: usize,
    /// Traitor count; construction asserts `f < n/2`.
    pub f: usize,
    /// Seed for the keyring and the adversary plan.
    pub seed: u64,
}

impl AuthCase {
    /// A new case; asserts the honest-majority regime `f < n/2` the
    /// acceptance sweep covers.
    pub fn new(n: usize, f: usize, seed: u64) -> Self {
        assert!(2 * f < n, "auth cases cover f < n/2 (got n={n}, f={f})");
        Self { n, f, seed }
    }

    /// The case's keyring: `AuthKeyring::from_seed(n, seed)`.
    pub fn keyring(&self) -> AuthKeyring {
        AuthKeyring::from_seed(self.n, self.seed)
    }

    /// The case's adversary: `f` seed-drawn traitors (never drafting
    /// `spare`, e.g. the broadcast source) that garble every payload,
    /// stay silent on a quarter of links, and forge tags on another
    /// quarter — each lie tier the authenticated envelope must absorb.
    pub fn plan(&self, spare: &[NodeId]) -> ByzantinePlan {
        ByzantinePlan::new(self.seed)
            .with_random_traitors(self.n, self.f, spare)
            .garble(1.0)
            .silence(0.25)
            .forge(0.25)
    }
}

impl fmt::Display for AuthCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "auth[n={}, f={}, seed={}]", self.n, self.f, self.seed)
    }
}

/// The acceptance sweep's corpus: for each clique size, every rung of
/// the tolerated range — no traitors, the old `f < n/3` ceiling, and the
/// honest-majority maximum `⌈n/2⌉ − 1` — across a couple of seeds.
pub fn auth_corpus() -> Vec<AuthCase> {
    let mut cases = Vec::new();
    for n in [6usize, 9, 13] {
        let rungs = [0, n.div_ceil(3).saturating_sub(1), n.div_ceil(2) - 1];
        for f in rungs {
            for seed in [1, 2] {
                let case = AuthCase::new(n, f, seed);
                if !cases.contains(&case) {
                    cases.push(case);
                }
            }
        }
    }
    cases
}

/// Shared `proptest` strategies over authenticated adversary cases.
pub mod strategies {
    use super::*;
    use proptest::strategy::Strategy;
    use proptest::test_runner::TestRng;

    /// Strategy drawing a random [`AuthCase`] for an `n`-node clique:
    /// any seed, any traitor count in the full honest-majority range
    /// `f ∈ [0, ⌈n/2⌉ − 1]`.
    #[derive(Clone, Debug)]
    pub struct ArbAuthCase {
        n: usize,
    }

    /// See [`ArbAuthCase`].
    pub fn arb_auth_case(n: usize) -> ArbAuthCase {
        assert!(n >= 3, "need n ≥ 3 for a non-trivial honest majority");
        ArbAuthCase { n }
    }

    impl Strategy for ArbAuthCase {
        type Value = AuthCase;
        fn sample(&self, rng: &mut TestRng) -> AuthCase {
            let max_f = self.n.div_ceil(2) - 1;
            let f = rng.below(max_f as u64 + 1) as usize;
            AuthCase::new(self.n, f, rng.next_u64() % 1_000_000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::differential::differential;
    use crate::differential::tests::gossip;
    use cliquesim::Engine;

    #[test]
    fn authenticated_differential_is_stable_across_shapes() {
        // n = 15 ≥ 2·7, so the 7-worker pooled path really engages.
        let n = 15;
        let case = AuthCase::new(n, 5, 42);
        let engine = Engine::new(n)
            .with_auth(case.keyring())
            .with_byzantine_plan(case.plan(&[]));
        let out = differential("gossip", &engine, || gossip(n));
        assert!(
            out.outputs.iter().all(|o| o.is_some()),
            "no one crashes here"
        );
        assert!(out.stats.signed_messages > 0, "{case}: nothing was signed");
        assert!(
            out.stats.rejected_tags > 0,
            "{case}: garbled+forged traffic must fail verification"
        );
        assert!(!out.byzantine.is_empty());
        assert_eq!(out.transcripts.unwrap().len(), n);
    }

    #[test]
    fn corpus_cases_are_distinct_and_honest_majority() {
        let corpus = auth_corpus();
        assert!(corpus.len() >= 12, "the sweep covers all three rungs");
        for (i, case) in corpus.iter().enumerate() {
            assert!(2 * case.f < case.n, "{case}: not honest-majority");
            assert!(!corpus[i + 1..].contains(case), "{case}: duplicated");
        }
        assert_eq!(format!("{}", corpus[0]), "auth[n=6, f=0, seed=1]");
    }

    #[test]
    fn sampled_auth_cases_respect_the_bound() {
        use proptest::strategy::Strategy;
        use proptest::test_runner::TestRng;
        let strat = strategies::arb_auth_case(9);
        let mut rng = TestRng::deterministic("sampled_auth_cases_respect_the_bound");
        for _ in 0..50 {
            let case = strat.sample(&mut rng);
            assert!(2 * case.f < 9, "{case}: f too large");
            assert!(case.f <= 4, "⌈9/2⌉ - 1 = 4 is the cap");
        }
    }
}
