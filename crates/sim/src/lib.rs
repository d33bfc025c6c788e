//! A minimal deterministic event queue, and the digests that checkpoint
//! state-hashing builds on.
//!
//! No production path runs an event queue. The hypervisor machine in
//! `rthv-hypervisor` keeps its pending arrivals in one sorted stream and
//! its timers in fixed slots; the admission fleet in `rthv-admit` reads its
//! sorted inputs through cursors. [`EventQueue`] is left for the benchmark
//! package's engine probe, which calls it as [`EngineQueue`]. It
//! guarantees:
//!
//! * **monotonic time** — events pop in non-decreasing timestamp order and
//!   scheduling in the past is an error;
//! * **deterministic tie-breaking** — events with equal timestamps pop in the
//!   order they were scheduled (FIFO), so a simulation is a pure function of
//!   its inputs.
//!
//! The [`digest`] module holds the streaming hashes that machine and
//! platform state hashing use.
//!
//! # Examples
//!
//! ```
//! use rthv_sim::EventQueue;
//! use rthv_time::Instant;
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
mod engine;
mod queue;

pub use digest::{ElementHash, Fnv1a, SetDigest};
pub use engine::{EngineKind, EngineQueue};
pub use queue::{EventQueue, SchedulePastError};
