//! `uts` — the Unbalanced Tree Search benchmark (§6 of the paper).
//!
//! UTS "measures the rate of traversal of a tree generated on the fly using
//! a splittable random number generator". The tree is wildly unbalanced, so
//! static partitioning is hopeless; the paper's contribution is a lifeline
//! work-stealing scheduler that keeps 55,680 cores busy at 98% efficiency —
//! the first UTS implementation to scale to petaflop systems.
//!
//! This crate provides:
//! * [`sha1`] — from-scratch SHA-1 (the tree generator's mixing function),
//!   compressed with the CPU's SHA extensions when present and a portable
//!   scalar loop otherwise; tests run the FIPS vectors and a differential
//!   property test through both on every host;
//! * [`rng`] — the splittable node-state RNG;
//! * [`tree::GeoTree`] — the geometric tree law (`b0 = 4`, `r = 19`,
//!   depth 14–22 in the paper; smaller here);
//! * [`sequential::traverse`] — the verification oracle / 1-place baseline;
//! * [`bag::UtsBag`] — interval work representation implementing
//!   [`glb::TaskBag`] with fragment-of-every-interval stealing;
//! * [`distributed::run_distributed`] — the full distributed traversal on
//!   the APGAS runtime under GLB.

pub mod bag;
pub mod distributed;
pub mod rng;
pub mod sequential;
pub mod sha1;
pub mod tree;

pub use bag::{Interval, UtsBag};
pub use distributed::{run_distributed, DistributedRun};
pub use sequential::{num_children_at, subtree_nodes, traverse, TreeStats};
pub use tree::GeoTree;
