//! Deterministic discrete-event simulation engine.
//!
//! The sharded admission fleet in `rthv-admit` keeps its time-ordered
//! events in an [`EngineQueue`]. The hypervisor machine in
//! `rthv-hypervisor` uses no engine: its arrivals wait in one sorted
//! stream and its timers in fixed slots. Every engine guarantees:
//!
//! * **monotonic time** — events pop in non-decreasing timestamp order and
//!   scheduling in the past is an error;
//! * **deterministic tie-breaking** — events with equal timestamps pop in the
//!   order they were scheduled (FIFO), so a simulation is a pure function of
//!   its inputs;
//! * **stable identifiers under lazy cancellation** — cancelling leaves a
//!   tombstone that is drained (and, past 2× the live population, compacted)
//!   later, so ids never dangle.
//!
//! Two engines satisfy the contract: [`WheelEngine`], a hierarchical
//! timing wheel with `O(1)` amortised operations and closed-form
//! fast-forward across empty virtual time (the production default), and
//! [`EventQueue`], the `O(log n)` binary-heap reference the cross-engine
//! tests compare it against. [`EngineQueue`] selects between them from
//! configuration; the two are observation-equivalent bit for bit (see
//! [`engine`] for the exact obligations). The [`digest`] module holds the
//! streaming hashes that checkpoint state-hashing builds on.
//!
//! # Examples
//!
//! ```
//! use rthv_sim::EventQueue;
//! use rthv_time::{Duration, Instant};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { SlotEnd, Irq(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule_at(Instant::from_micros(10), Ev::Irq(7)).expect("in the future");
//! q.schedule_at(Instant::from_micros(5), Ev::SlotEnd).expect("in the future");
//!
//! let (t, ev) = q.pop().expect("two events queued");
//! assert_eq!((t, ev), (Instant::from_micros(5), Ev::SlotEnd));
//! assert_eq!(q.now(), Instant::from_micros(5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod engine;
mod queue;
mod wheel;

pub use digest::{ElementHash, Fnv1a, SetDigest};
pub use engine::{EngineKind, EngineQueue, EngineStats};
pub use queue::{EventId, EventQueue, SchedulePastError, SimError};
pub use wheel::WheelEngine;
