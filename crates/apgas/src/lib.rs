//! `apgas` — the Asynchronous Partitioned Global Address Space runtime from
//! "X10 and APGAS at Petascale" (PPoPP'14), reimplemented in Rust.
//!
//! The APGAS model has two key concepts — **places** and **asynchronous
//! activities** — plus a few coordination mechanisms. This crate provides
//! Rust spellings of the X10 constructs used throughout the paper:
//!
//! | X10 | here |
//! |---|---|
//! | `async S` | [`Ctx::spawn`] |
//! | `at(p) async S` | [`Ctx::at_async`] |
//! | `val v = at(p) e` | [`Ctx::at`] (blocking remote eval, a FINISH_HERE round trip) |
//! | `finish S` | [`Ctx::finish`] / [`Ctx::finish_pragma`] |
//! | `@Pragma(FINISH_SPMD) finish ...` | [`Ctx::finish_pragma`]`(`[`FinishKind::Spmd`]`, ...)` |
//! | `atomic S` / `when(c) S` | [`Ctx::atomic`] / [`Ctx::when`] |
//! | `GlobalRef(obj)` | [`GlobalRef`] |
//! | `PlaceLocalHandle` | [`PlaceLocalHandle`] |
//! | `x10.util.Team` | [`Team`] |
//! | `Clock` | [`Clock`] |
//! | `PlaceGroup.broadcastFlat` | [`PlaceGroup::broadcast`] (spawning tree) |
//! | `Array.asyncCopy` | [`GlobalRail::async_copy_to`] on [`GlobalRail`] |
//!
//! Every place runs its own scheduler thread(s); *all* semantics-bearing
//! inter-place interaction flows through the [`x10rt`] transport as
//! messages, so the distributed-termination-detection protocols of §3.1
//! (the paper's headline runtime contribution) execute the same message
//! exchanges they would on a cluster and their costs are observable through
//! [`x10rt::NetStats`].
//!
//! # Quick start
//!
//! ```
//! use apgas::{Config, Runtime};
//!
//! let rt = Runtime::new(Config::new(4));
//! let total = rt.run(|ctx| {
//!     // Sum place ids by evaluating remotely at every place.
//!     let mut sum = 0u32;
//!     for p in ctx.places() {
//!         sum += ctx.at(p, move |ctx| ctx.here().0);
//!     }
//!     sum
//! });
//! assert_eq!(total, 0 + 1 + 2 + 3);
//! ```

pub mod clock;
pub mod config;
pub(crate) mod context;
pub mod ctx;
pub mod error;
pub(crate) mod executor;
pub mod finish;
pub mod global_ref;
pub mod place_group;
pub(crate) mod place_state;
pub mod rail;
pub mod runtime;
pub mod status;
pub mod step;
pub(crate) mod task;
pub mod team;
pub mod wire;
pub(crate) mod worker;

pub use clock::Clock;
pub use config::{Config, RedundancyMode};
pub use ctx::Ctx;
pub use error::ApgasError;
pub use finish::{BackupSnapshot, CmdDescriptor, FinishKind};
pub use global_ref::{GlobalRef, PlaceLocalHandle};
pub use place_group::PlaceGroup;
pub use rail::GlobalRail;
pub use runtime::{FinishResidue, Runtime};
pub use status::StatusHandle;
pub use step::StepGate;
pub use team::{Team, TeamOp};
pub use worker::panic_message;
pub use x10rt::{
    ClassFaults, CodecMode, FaultEvent, FaultPlan, HandlerId, MsgClass, PlaceId, Topology,
};

/// Run `body` as the main activity of a fresh runtime with `cfg` and return
/// its result. Convenience for examples and tests; reuse a [`Runtime`] when
/// running many rounds.
pub fn launch<R: Send + 'static>(cfg: Config, body: impl FnOnce(&Ctx) -> R + Send + 'static) -> R {
    Runtime::new(cfg).run(body)
}
