//! # cc-graph — graph substrate for the congested clique workbench
//!
//! Graphs, weighted graphs, deterministic workload generators, and the
//! centralised reference solvers that every distributed algorithm in the
//! workspace is validated against.
//!
//! The paper (Korhonen & Suomela, SPAA 2018, §3) studies decision problems
//! on undirected, unweighted graphs whose vertices coincide with the clique
//! nodes; [`Graph::input_row`] and [`Graph::private_input`] implement the
//! paper's two input encodings exactly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod gen;
pub mod graph;
pub mod reference;
pub mod weighted;

pub use graph::Graph;
pub use weighted::{dist_add, DistMatrix, WeightedGraph, INF};
