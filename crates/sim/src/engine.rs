//! The two event engines and the runtime choice between them.
//!
//! Two schedulers hold a simulation's time-ordered events:
//!
//! * [`WheelEngine`] — the **hierarchical timing wheel**, the production
//!   engine: `O(1)` amortised per operation with closed-form fast-forward
//!   over empty stretches of virtual time.
//! * [`EventQueue`] — the reference **heap engine**: a binary heap with
//!   packed `(time, seq)` keys, `O(log n)` per operation, trivially correct.
//!   The cross-engine differential suites compare the wheel against it.
//!
//! The contract both must honour, bit for bit:
//!
//! * identical [`EventId`] issuance for identical schedule streams (dense
//!   sequence numbers, generations bumped by `clear`);
//! * identical pop streams — ascending time, FIFO within a timestamp;
//! * `for_each_live` walks over the same set of live events, each in its
//!   own storage order, so an order-independent state hash over queue
//!   content cannot tell the engines apart;
//! * identical error behaviour (`SchedulePast`, stale-id detection) and
//!   identical lazy-cancellation observables (`len`, cancel return values).
//!
//! [`EngineQueue`] packages the two behind an enum, so a machine can pick
//! its engine at construction time from configuration without making every
//! downstream type generic.

use rthv_time::{Duration, Instant};

use crate::queue::{EventId, EventQueue, SchedulePastError};
use crate::wheel::WheelEngine;

/// Which event-queue engine backs a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Binary-heap reference engine ([`EventQueue`]).
    Heap,
    /// Hierarchical timing wheel ([`WheelEngine`]), the production default.
    #[default]
    Wheel,
}

impl EngineKind {
    /// Stable lower-case name (`"heap"` / `"wheel"`), as written in
    /// configuration (the admission fleet's `engine` field) and in
    /// benchmark exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Heap => "heap",
            EngineKind::Wheel => "wheel",
        }
    }

    /// Parses a case-insensitive engine name; `None` for anything else.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "heap" => Some(EngineKind::Heap),
            "wheel" => Some(EngineKind::Wheel),
            _ => None,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine health and fast-forward counters.
///
/// Purely observational: none of these feed back into scheduling decisions,
/// so they are excluded from machine state hashing (two engines with
/// different counters still hash identically when their live event content
/// matches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Live (scheduled, not cancelled) events currently queued.
    pub live: usize,
    /// Cancelled entries still occupying storage (lazy-deletion debt).
    /// The compaction guard keeps this ≤ 2 × `live` after every cancel.
    pub stale: usize,
    /// Times the compaction guard rebuilt storage to shed tombstones.
    pub compactions: u64,
    /// Closed-form fast-forward jumps: advances that skipped more than one
    /// empty time granule in a single bitmap/overflow step (wheel only).
    pub fast_forward_jumps: u64,
    /// Bucket cascades: higher-level buckets exploded into finer levels as
    /// the wheel rotated (wheel only).
    pub cascades: u64,
    /// Occupied wheel buckets across all levels (wheel only).
    pub occupied_buckets: u32,
    /// Events parked on the far-future overflow level (wheel only).
    pub overflow_len: usize,
}

/// An engine chosen at runtime: the heap or the wheel behind one concrete
/// type, so embedding types (the hypervisor machine, its snapshots) stay
/// non-generic while still selecting the engine from configuration.
///
/// Dispatch is a two-way branch per operation — measured noise next to the
/// queue work itself — and every method forwards to the engine's inherent
/// implementation.
pub enum EngineQueue<E> {
    /// Reference binary-heap engine.
    Heap(EventQueue<E>),
    /// Hierarchical timing-wheel engine.
    Wheel(WheelEngine<E>),
}

macro_rules! dispatch {
    ($self:expr, $q:ident => $body:expr) => {
        match $self {
            EngineQueue::Heap($q) => $body,
            EngineQueue::Wheel($q) => $body,
        }
    };
}

impl<E> EngineQueue<E> {
    /// A fresh engine of `kind` at time zero. The wheel's level geometry is
    /// sized by `tick_hint` (see [`WheelEngine::with_tick_hint`]); the heap
    /// ignores it.
    #[must_use]
    pub fn new(kind: EngineKind, tick_hint: Duration) -> Self {
        match kind {
            EngineKind::Heap => EngineQueue::Heap(EventQueue::new()),
            EngineKind::Wheel => EngineQueue::Wheel(WheelEngine::with_tick_hint(tick_hint)),
        }
    }

    /// Which engine is running.
    #[must_use]
    pub fn kind(&self) -> EngineKind {
        match self {
            EngineQueue::Heap(_) => EngineKind::Heap,
            EngineQueue::Wheel(_) => EngineKind::Wheel,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    #[must_use]
    pub fn now(&self) -> Instant {
        dispatch!(self, q => q.now())
    }

    /// Pre-sizes storage for `additional` more live events.
    pub fn reserve(&mut self, additional: usize) {
        dispatch!(self, q => q.reserve(additional));
    }

    /// Resets to time zero under a fresh id generation, keeping capacity.
    pub fn clear(&mut self) {
        dispatch!(self, q => q.clear());
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Errors
    ///
    /// [`SchedulePastError`] if `at` is strictly before `now`.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> Result<EventId, SchedulePastError> {
        dispatch!(self, q => q.schedule_at(at, event))
    }

    /// Cancels a scheduled event; `false` if it already fired, was already
    /// cancelled, or the id is stale.
    pub fn cancel(&mut self, id: EventId) -> bool {
        dispatch!(self, q => q.cancel(id))
    }

    /// Pops the earliest live event, advancing `now`.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        dispatch!(self, q => q.pop())
    }

    /// Timestamp and sequence number of the earliest live event, without
    /// popping: the `(time, seq)` key the next [`pop`](Self::pop) is
    /// ordered by.
    pub fn peek_key(&mut self) -> Option<(Instant, u64)> {
        dispatch!(self, q => q.peek_key())
    }

    /// Pops the earliest live event **iff** it fires at or before `limit`.
    pub fn advance_to(&mut self, limit: Instant) -> Option<(Instant, E)> {
        match self.peek_key() {
            Some((t, _)) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Visits every live event once, in the engine's storage order, without
    /// allocating. The order is engine-specific: consumers must not depend
    /// on it.
    pub fn for_each_live<'a>(&'a self, f: impl FnMut(Instant, u64, &'a E)) {
        dispatch!(self, q => q.for_each_live(f));
    }

    /// Health and fast-forward counters.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        dispatch!(self, q => q.stats())
    }
}

impl<E: Clone> Clone for EngineQueue<E> {
    /// Deep copy preserving the engine kind, event ids and generations —
    /// the clone pops exactly the stream the original would.
    fn clone(&self) -> Self {
        match self {
            EngineQueue::Heap(q) => EngineQueue::Heap(q.clone()),
            EngineQueue::Wheel(q) => EngineQueue::Wheel(q.clone()),
        }
    }
}

impl<E> std::fmt::Debug for EngineQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineQueue")
            .field("kind", &self.kind().name())
            .field("now", &self.now())
            .field("pending", &dispatch!(self, q => q.len()))
            .finish()
    }
}
