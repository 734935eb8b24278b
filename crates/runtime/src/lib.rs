//! # sa-runtime — shared execution runtime
//!
//! * [`parallel`] — **trial fan-out**: experiment sweeps run thousands of
//!   *independent* executions (one per seed); [`parallel::par_map`] spreads
//!   them across OS threads with an atomic work cursor, and
//!   [`parallel::CancelToken`] lets the sweep and daemon layers stop a unit
//!   at a step boundary.
//! * [`faultfs`] — the deterministic filesystem fault-injection seam the
//!   job layer's durability tests drive.
//!
//! The build environment has no access to crates.io (so no `rayon`); the
//! fan-out is built on `std::thread` only. A `rayon` upgrade remains a
//! drop-in once a registry is available.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod faultfs;
pub mod parallel;
