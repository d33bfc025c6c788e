//! The engine abstraction: one contract, two schedulers.
//!
//! [`Engine`] is the trait extracted from [`EventQueue`]'s public surface —
//! everything the hypervisor machine's stepping loop needs from a
//! time-ordered event store: schedule, cancel, pop, bounded advance, the
//! canonical-state walk and a content digest. Two implementations satisfy
//! it:
//!
//! * [`EventQueue`] — the reference **heap engine**: a binary heap with
//!   packed `(time, seq)` keys, `O(log n)` per operation, trivially correct.
//! * [`WheelEngine`](crate::WheelEngine) — the **hierarchical timing
//!   wheel**: `O(1)` amortised per operation with closed-form fast-forward
//!   over empty stretches of virtual time.
//!
//! The contract both must honour, bit for bit:
//!
//! * identical [`EventId`] issuance for identical schedule streams (dense
//!   sequence numbers, generations bumped by `clear`);
//! * identical pop streams — ascending time, FIFO within a timestamp;
//! * identical [`for_each_scheduled`](Engine::for_each_scheduled) walks —
//!   ascending `(time, seq)` over live events only — and
//!   [`for_each_live`](Engine::for_each_live) walks over the same set of
//!   live events in storage order, so an order-independent state hash over
//!   queue content cannot tell the engines apart;
//! * identical error behaviour (`SchedulePast`, stale-id detection) and
//!   identical lazy-cancellation observables (`len`, cancel return values).
//!
//! [`EngineQueue`] packages the two behind an enum, so a machine can pick
//! its engine at construction time from configuration without making every
//! downstream type generic.

use rthv_time::{Duration, Instant};

use crate::digest::{ElementHash, Fnv1a, SetDigest};
use crate::queue::{EventId, EventQueue, SchedulePastError, SimError};
use crate::wheel::WheelEngine;

/// Which event-queue engine backs a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Binary-heap reference engine ([`EventQueue`]).
    #[default]
    Heap,
    /// Hierarchical timing wheel ([`WheelEngine`](crate::WheelEngine)).
    Wheel,
}

impl EngineKind {
    /// Stable lower-case name (`"heap"` / `"wheel"`), as used by the
    /// `RTHV_ENGINE` environment selector and benchmark exports.
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

/// The scheduler contract extracted from [`EventQueue`] (see the
/// [module docs](self) for the cross-engine equivalence obligations).
pub trait Engine<E> {
    /// Current virtual time: timestamp of the last popped event.
    fn now(&self) -> Instant;

    /// Number of live (non-cancelled) events still queued.
    fn len(&self) -> usize;

    /// `true` if no live events are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-sizes storage for `additional` more live events.
    fn reserve(&mut self, additional: usize);

    /// Resets to time zero under a fresh id generation, keeping capacity.
    fn clear(&mut self);

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Errors
    ///
    /// [`SchedulePastError`] if `at` is strictly before [`now`](Self::now).
    fn schedule_at(&mut self, at: Instant, event: E) -> Result<EventId, SchedulePastError>;

    /// Schedules `event` `delay` after the current time (never fails).
    fn schedule_in(&mut self, delay: Duration, event: E) -> EventId;

    /// Cancels a scheduled event; `false` if it already fired, was already
    /// cancelled, or the id is stale.
    fn cancel(&mut self, id: EventId) -> bool;

    /// Cancels with typed stale-id reporting.
    ///
    /// # Errors
    ///
    /// [`SimError::StaleEventId`] for ids from a previous generation.
    fn try_cancel(&mut self, id: EventId) -> Result<bool, SimError>;

    /// Pops the earliest live event, advancing [`now`](Self::now).
    fn pop(&mut self) -> Option<(Instant, E)>;

    /// Timestamp of the earliest live event, without popping.
    fn peek_time(&mut self) -> Option<Instant>;

    /// Pops the earliest live event **iff** it fires at or before `limit` —
    /// the machine stepping loop's single-call advance.
    fn advance_to(&mut self, limit: Instant) -> Option<(Instant, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// Visits every live event once, in storage order, without allocating.
    /// The order is engine-specific: consumers must not depend on it.
    fn for_each_live<'a>(&'a self, f: &mut dyn FnMut(Instant, u64, &'a E));

    /// Visits every live event in canonical `(time, seq)` order. Collects
    /// and sorts the live events on every call: this is the reference walk
    /// the cross-engine tests compare, not a hot path.
    fn for_each_scheduled(&self, f: &mut dyn FnMut(Instant, u64, &E)) {
        let mut live = Vec::with_capacity(self.len());
        self.for_each_live(&mut |at, seq, event| live.push((at, seq, event)));
        live.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        for (at, seq, event) in live {
            f(at, seq, event);
        }
    }

    /// Sheds lazy-deletion debt now instead of at the next guard trip.
    fn compact(&mut self);

    /// Health and fast-forward counters.
    fn stats(&self) -> EngineStats;

    /// A resumable copy of the engine (checkpointing primitive).
    fn snapshot(&self) -> Self
    where
        Self: Clone,
    {
        self.clone()
    }

    /// Restores this engine from a [`snapshot`](Self::snapshot).
    fn restore(&mut self, snapshot: &Self)
    where
        Self: Clone,
    {
        self.clone_from(snapshot);
    }

    /// Digest of the engine's observable timeline state: FNV-1a over `now`,
    /// the live count and the [`SetDigest`] sum of every live `(time, seq)`
    /// pair. Order-independent, so it costs one allocation-free walk. Event
    /// payloads are hashed by the embedding machine (which knows their
    /// encoding); this digest is the engine-level slice of that hash and
    /// must agree between any two engines holding the same timeline.
    fn state_hash(&self) -> u64 {
        let mut live = SetDigest::default();
        self.for_each_live(&mut |at, seq, _| {
            let mut element = ElementHash::default();
            element.word(at.as_nanos());
            element.word(seq);
            live.insert(element);
        });
        let mut hash = Fnv1a::new();
        hash.word(self.now().as_nanos());
        hash.word(live.count());
        hash.word(live.sum());
        hash.finish()
    }
}

impl<E> Engine<E> for EventQueue<E> {
    fn now(&self) -> Instant {
        EventQueue::now(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn reserve(&mut self, additional: usize) {
        EventQueue::reserve(self, additional);
    }

    fn clear(&mut self) {
        EventQueue::clear(self);
    }

    fn schedule_at(&mut self, at: Instant, event: E) -> Result<EventId, SchedulePastError> {
        EventQueue::schedule_at(self, at, event)
    }

    fn schedule_in(&mut self, delay: Duration, event: E) -> EventId {
        EventQueue::schedule_in(self, delay, event)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        EventQueue::cancel(self, id)
    }

    fn try_cancel(&mut self, id: EventId) -> Result<bool, SimError> {
        EventQueue::try_cancel(self, id)
    }

    fn pop(&mut self) -> Option<(Instant, E)> {
        EventQueue::pop(self)
    }

    fn peek_time(&mut self) -> Option<Instant> {
        EventQueue::peek_time(self)
    }

    fn for_each_live<'a>(&'a self, f: &mut dyn FnMut(Instant, u64, &'a E)) {
        EventQueue::for_each_live(self, f);
    }

    fn compact(&mut self) {
        EventQueue::compact(self);
    }

    fn stats(&self) -> EngineStats {
        EventQueue::stats(self)
    }
}

impl<E> Engine<E> for WheelEngine<E> {
    fn now(&self) -> Instant {
        WheelEngine::now(self)
    }

    fn len(&self) -> usize {
        WheelEngine::len(self)
    }

    fn reserve(&mut self, additional: usize) {
        WheelEngine::reserve(self, additional);
    }

    fn clear(&mut self) {
        WheelEngine::clear(self);
    }

    fn schedule_at(&mut self, at: Instant, event: E) -> Result<EventId, SchedulePastError> {
        WheelEngine::schedule_at(self, at, event)
    }

    fn schedule_in(&mut self, delay: Duration, event: E) -> EventId {
        WheelEngine::schedule_in(self, delay, event)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        WheelEngine::cancel(self, id)
    }

    fn try_cancel(&mut self, id: EventId) -> Result<bool, SimError> {
        WheelEngine::try_cancel(self, id)
    }

    fn pop(&mut self) -> Option<(Instant, E)> {
        WheelEngine::pop(self)
    }

    fn peek_time(&mut self) -> Option<Instant> {
        WheelEngine::peek_time(self)
    }

    fn for_each_live<'a>(&'a self, f: &mut dyn FnMut(Instant, u64, &'a E)) {
        WheelEngine::for_each_live(self, f);
    }

    fn compact(&mut self) {
        WheelEngine::compact(self);
    }

    fn stats(&self) -> EngineStats {
        WheelEngine::stats(self)
    }
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

    /// See [`Engine::now`].
    #[must_use]
    pub fn now(&self) -> Instant {
        dispatch!(self, q => q.now())
    }

    /// See [`Engine::len`].
    #[must_use]
    pub fn len(&self) -> usize {
        dispatch!(self, q => q.len())
    }

    /// See [`Engine::is_empty`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// See [`Engine::reserve`].
    pub fn reserve(&mut self, additional: usize) {
        dispatch!(self, q => q.reserve(additional));
    }

    /// See [`Engine::clear`].
    pub fn clear(&mut self) {
        dispatch!(self, q => q.clear());
    }

    /// See [`Engine::schedule_at`].
    ///
    /// # Errors
    ///
    /// [`SchedulePastError`] if `at` is strictly before `now`.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> Result<EventId, SchedulePastError> {
        dispatch!(self, q => q.schedule_at(at, event))
    }

    /// See [`Engine::schedule_in`].
    pub fn schedule_in(&mut self, delay: Duration, event: E) -> EventId {
        dispatch!(self, q => q.schedule_in(delay, event))
    }

    /// See [`Engine::cancel`].
    pub fn cancel(&mut self, id: EventId) -> bool {
        dispatch!(self, q => q.cancel(id))
    }

    /// See [`Engine::try_cancel`].
    ///
    /// # Errors
    ///
    /// [`SimError::StaleEventId`] for ids from a previous generation.
    pub fn try_cancel(&mut self, id: EventId) -> Result<bool, SimError> {
        dispatch!(self, q => q.try_cancel(id))
    }

    /// See [`Engine::pop`].
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        dispatch!(self, q => q.pop())
    }

    /// See [`Engine::peek_time`].
    pub fn peek_time(&mut self) -> Option<Instant> {
        dispatch!(self, q => q.peek_time())
    }

    /// See [`Engine::advance_to`].
    pub fn advance_to(&mut self, limit: Instant) -> Option<(Instant, E)> {
        match self.peek_time() {
            Some(t) if t <= limit => self.pop(),
            _ => None,
        }
    }

    /// See [`Engine::for_each_live`].
    pub fn for_each_live<'a>(&'a self, mut f: impl FnMut(Instant, u64, &'a E)) {
        dispatch!(self, q => q.for_each_live(&mut f));
    }

    /// See [`Engine::compact`].
    pub fn compact(&mut self) {
        dispatch!(self, q => q.compact());
    }

    /// See [`Engine::stats`].
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        dispatch!(self, q => q.stats())
    }

    /// See [`Engine::state_hash`].
    #[must_use]
    pub fn state_hash(&self) -> u64 {
        dispatch!(self, q => Engine::state_hash(q))
    }
}

impl<E> Default for EngineQueue<E> {
    fn default() -> Self {
        EngineQueue::Heap(EventQueue::new())
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
            .field("pending", &self.len())
            .finish()
    }
}
