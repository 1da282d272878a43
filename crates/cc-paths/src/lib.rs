//! # cc-paths — shortest paths on the congested clique
//!
//! Implements the shortest-path problems of Figure 1 in Korhonen & Suomela
//! (SPAA 2018):
//!
//! * exact weighted/unweighted APSP via `(min,+)` matrix squaring
//!   (`O(n^{1/3} log n)` rounds on top of `cc-matmul`'s 3D algorithm);
//! * `(1+ε)`-approximate APSP via scale-wise weight rounding;
//! * transitive closure via Boolean squaring;
//! * direct SSSP algorithms (BFS flooding, distributed Bellman–Ford) as
//!   baselines for the trivial `δ(SSSP) ≤ δ(APSP)` arrows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod apsp;
pub mod sssp;

pub use apsp::{
    apsp_approx, apsp_approx_with, apsp_directed, apsp_directed_with, apsp_exact, apsp_exact_with,
    apsp_unweighted, apsp_unweighted_with, diameter, transitive_closure, transitive_closure_with,
};
pub use sssp::{bellman_ford, bfs, bfs_tree};
