//! # cc-core — complexity theory for the congested clique
//!
//! The primary contribution of Korhonen & Suomela, *"Towards a complexity
//! theory for the congested clique"* (SPAA 2018), implemented on the
//! bandwidth-exact simulator of `cliquesim`:
//!
//! | Paper | Module |
//! |---|---|
//! | §5.1 nondeterministic congested clique, `NCLIQUE(T)` | [`nondet`] |
//! | §6.1 concrete NCLIQUE(1) members (k-colouring, Hamiltonian path, …) | [`problems`] |
//! | §5.2 Theorem 3: transcript normal form | [`normal_form`] |
//! | §6.1 Theorem 6: canonical edge-labelling problems | [`labelling`] |
//! | §6.2 Σk/Πk hierarchy; Theorem 7: Σ₂ collapse protocol | [`hierarchy`] |
//! | §3–§5.3, §6.2: Lemma 1 counting, Theorems 2/4/8 inequalities, toy-scale diagonalisation | [`counting`] |
//! | §7 problem exponents `δ(L)` and log-log fitting | [`exponent`] |
//!
//! The non-constructive results (hard functions `f_n`) are evaluated two
//! ways: their existence inequalities numerically for the theorems' exact
//! parameter ranges, and a complete protocol census at `n = 2` that makes
//! the diagonal language concrete end-to-end (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod counting;
pub mod exponent;
pub mod hierarchy;
pub mod labelling;
pub mod nondet;
pub mod normal_form;
pub mod problems;
pub mod randomized;
pub mod search;

pub use counting::{
    census_two_nodes, functions_loglog, hard_function_exists, lemma1_loglog, sufficient_threshold,
    thm2_condition, thm4_condition, thm8_condition, ToyCensus, ToyHardLanguage,
};
pub use exponent::{fit_exponent, measure_rounds, ExponentFit, ExponentFitError};
pub use hierarchy::{
    eval_alternating, log_hierarchy_label_budget, run_klabelling, KLabelling, Negation,
    Sigma2Universal,
};
pub use labelling::{canonical_labelling, check_labelling, constraint_holds, EdgeLabelling};
pub use nondet::{
    exists_certificate, prove_and_verify, verify, BoolNode, Labelling, NondetProblem, Verdict,
};
pub use normal_form::{local_search, replay_matches, NormalForm};
pub use problems::{
    all_problems, Connectivity, HamiltonianPath, KColoring, PerfectMatching, SetKind, SetProblem,
    TriangleExists,
};
pub use randomized::{MonteCarloAdapter, OneSidedMonteCarlo, RandomizedColoring};
pub use search::{
    solve_by_gather, ColoringSearch, LabellingSearch, SearchOutcome, SpanningTreeSearch,
};
