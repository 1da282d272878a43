//! # cc-routing — routing substrate for the congested clique
//!
//! Stand-in for Lenzen's `O(1)`-round deterministic routing and sorting
//! protocol (reference \[43\] of Korhonen & Suomela, SPAA 2018), which the
//! paper's Theorem 9 invokes as a black box.
//!
//! Two oblivious schedules, each in two link formats:
//!
//! | schedule | length-framed | sized (header-free) |
//! |---|---|---|
//! | **direct**: every ordered pair ships its stream over its private link, all links in parallel; costs the maximum per-link load | [`route`] | [`route_sized`] |
//! | **balanced**: two-phase megastream scatter/forward; costs about the maximum per-node load over `n−1` links | [`route_balanced`] | [`route_balanced_sized`] |
//!
//! A length-framed link stream carries each payload behind a
//! [`LEN_HEADER_BITS`]-bit length header; a sized one concatenates payloads
//! raw, which is legitimate only when every payload's size is global
//! knowledge (see [`sized`], which also has the exact analytic cost twins).
//! Both formats go through one crate-private link codec, and each
//! schedule has one plan that takes the format as data. The direct schedule is optimal for the globally
//! predictable, per-link balanced patterns used by most algorithms in this
//! workspace; the balanced one serves per-link-skewed patterns.
//!
//! Collectives built on the direct schedule: [`all_to_all_broadcast`],
//! [`all_to_all_sized`], and [`relay_broadcast`] (the classic
//! scatter-then-rebroadcast doubling trick for large single-source
//! broadcasts).
//!
//! The [`fault`] module holds the crash-aware and resilient variants: a
//! [`CrashSet`] (derived from a `cliquesim::FaultPlan` or a live
//! `FaultReport`) lets [`route_faulted`] and [`route_balanced_faulted`]
//! re-plan demands around dead nodes — dropping demands to or from dead
//! endpoints as structured [`Undeliverable`] records and remapping
//! balanced-schedule segments away from dead intermediates — while
//! [`route_resilient`] retransmits chunks over lossy links with a
//! per-chunk majority vote, priced by [`resilient_overhead`].
//!
//! Every router taking a demand set rejects a demand to a node outside
//! `0..n`, or from a node to itself, as [`RouteError::BadDemand`] before
//! anything runs.
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
