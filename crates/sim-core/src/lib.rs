//! Virtual-time simulation substrate for the SCFS reproduction.
//!
//! The SCFS paper evaluates a cloud-backed file system against real cloud
//! providers accessed over the Internet. This crate provides the substrate
//! that lets us reproduce the *shape* of those experiments entirely
//! in-process and deterministically:
//!
//! * [`time`] — virtual instants, durations and per-client clocks. Every
//!   simulated remote access charges its latency to a [`time::Clock`] instead
//!   of sleeping.
//! * [`rng`] — a small deterministic random number generator (SplitMix64)
//!   plus the distributions used by the latency models.
//! * [`latency`] — latency and bandwidth models for cloud accesses,
//!   coordination-service accesses, local disk and memory.
//! * [`parallel`] — fork/join helpers for concurrent requests on virtual
//!   time (quorum waits, bounded-parallel chunk transfers).
//! * [`background`] — completion tokens ([`background::Pending`]) and the
//!   lane-based [`background::BackgroundScheduler`] for work that outlives
//!   the call that started it (write-back uploads, prefetch, GC).
//! * [`schedule`] — the [`schedule::ScheduleController`] seam: every
//!   instrumented nondeterminism point (lane dispatch, replica delivery,
//!   journal replay) asks an optional controller how to order candidates,
//!   which is what the `scfs-check` model checker drives. Empty slots are
//!   inert and keep traces byte-identical.
//! * [`fault`] — fault injection: outage windows, drop probabilities and
//!   data corruption, used to exercise the Byzantine-fault-tolerant paths.
//! * [`stats`] — mean/percentile summaries used when reporting the paper's
//!   tables and figures.
//! * [`units`] — byte-size and micro-dollar helpers shared across crates.
//!
//! Everything here is deterministic given a seed, which makes the reproduced
//! tables stable across runs.

pub mod background;
pub mod fault;
pub mod latency;
pub mod parallel;
pub mod rng;
pub mod schedule;
pub mod stats;
pub mod time;
pub mod units;

pub use background::{BackgroundScheduler, Pending};
pub use fault::{FaultInjector, FaultPlan, OutageWindow};
pub use latency::{BandwidthModel, LatencyModel, LatencyProfile};
pub use parallel::ForkedRun;
pub use rng::DetRng;
pub use schedule::{
    ChoiceKind, ChoicePoint, ControllerSlot, DeterministicController, ScheduleController,
};
pub use stats::Summary;
pub use time::{Clock, SimDuration, SimInstant};
pub use units::{Bytes, MicroDollars};
