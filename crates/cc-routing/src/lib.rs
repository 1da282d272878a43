//! # cc-routing — routing substrate for the congested clique
//!
//! Stand-in for Lenzen's `O(1)`-round deterministic routing and sorting
//! protocol (reference \[43\] of Korhonen & Suomela, SPAA 2018), which the
//! paper's Theorem 9 invokes as a black box.
//!
//! Two primitives are provided:
//!
//! * [`route`] — the oblivious **static direct schedule**: every ordered
//!   pair ships its (length-framed) stream over its private link, all links
//!   in parallel; the phase costs exactly the maximum per-link load in
//!   messages. This is optimal for the globally predictable, per-link
//!   balanced patterns used by every algorithm in this workspace.
//! * [`relay_broadcast`] / [`all_to_all_broadcast`] — collective operations
//!   built on `route`, including the classic scatter-then-rebroadcast
//!   doubling trick for large single-source broadcasts.
//!
//! The [`fault`] module is the **fault-aware planning layer**: a
//! [`CrashSet`] (derived from a `cliquesim::FaultPlan` or a live
//! `FaultReport`) lets [`route_faulted`] and [`route_balanced_faulted`]
//! re-plan demands around dead nodes — dropping demands to or from dead
//! endpoints as structured [`Undeliverable`] records and remapping
//! balanced-schedule segments away from dead intermediates — while
//! [`route_resilient`] retransmits chunks over lossy links with a
//! per-chunk majority vote, priced by [`resilient_overhead`].
//!
//! [`lenzen_round_bound`] gives the accounting bound of the full Lenzen
//! protocol for per-node balanced instances; the substitution rationale is
//! documented in DESIGN.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-driven loops over multiple parallel per-node arrays are the
// dominant shape in this codebase; the iterator rewrites clippy suggests
// obscure the node-id arithmetic.
#![allow(clippy::needless_range_loop)]

pub mod balanced;
pub mod fault;
pub mod frames;
pub mod router;
pub mod sized;

pub use balanced::{route_balanced, route_balanced_faulted};
pub use fault::{
    resilient_overhead, route_faulted, route_resilient, CrashSet, DeliveryFailure, RoutedOutcome,
    Undeliverable,
};
pub use frames::{frame, frame_all, parse_frames, rounds_for, LEN_HEADER_BITS};
pub use router::{
    all_to_all_broadcast, lenzen_round_bound, relay_broadcast, route, Delivered, RouteError,
};
pub use sized::{
    all_to_all_sized, all_to_all_sized_cost, demand_sizes, route_balanced_sized,
    route_balanced_sized_cost, route_sized, route_sized_cost, DemandSizes,
};
