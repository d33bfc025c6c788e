//! The engine names the benchmark package compiles against.
//!
//! The benchmark's engine probe replays a machine's events through an
//! [`EngineQueue`] of the machine's [`EngineKind`]. There is one engine,
//! the heap [`EventQueue`], so both names forward to it. Both go with
//! ROADMAP item 7, when the benchmark stops naming them.

use rthv_time::{Duration, Instant};

use crate::queue::{EventQueue, SchedulePastError};

/// The event engine a run names: always the heap [`EventQueue`]. It goes
/// with ROADMAP item 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The binary-heap [`EventQueue`].
    Heap,
}

impl EngineKind {
    /// Stable lower-case name: `"heap"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        "heap"
    }
}

/// An [`EventQueue`] under the name and constructor the benchmark's engine
/// probe calls. It goes with ROADMAP item 7.
pub struct EngineQueue<E>(EventQueue<E>);

impl<E> EngineQueue<E> {
    /// An empty queue at time zero. Both arguments are ignored: there is
    /// one engine, and a heap needs no tick size.
    #[must_use]
    pub fn new(_kind: EngineKind, _tick_hint: Duration) -> Self {
        EngineQueue(EventQueue::new())
    }

    /// See [`EventQueue::reserve`].
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// See [`EventQueue::now`].
    #[must_use]
    pub fn now(&self) -> Instant {
        self.0.now()
    }

    /// See [`EventQueue::schedule_at`].
    ///
    /// # Errors
    ///
    /// [`SchedulePastError`] if `at` is strictly before `now`.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> Result<(), SchedulePastError> {
        self.0.schedule_at(at, event)
    }

    /// See [`EventQueue::advance_to`].
    pub fn advance_to(&mut self, limit: Instant) -> Option<(Instant, E)> {
        self.0.advance_to(limit)
    }
}
