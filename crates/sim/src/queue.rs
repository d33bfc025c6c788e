//! Time-ordered event queue with stable FIFO tie-breaking and lazy
//! cancellation.
//!
//! # Allocation behaviour
//!
//! The queue is built for batch simulation: its schedule/pop steady state
//! performs **no heap allocation** once warmed up. Event ids are dense
//! sequence numbers, so cancellation and consumption bookkeeping lives in
//! a watermarked ring ([`IdTable`]) indexed by `id − base` instead of
//! hashed tombstone sets; both the ring and the binary heap retain their
//! capacity across [`clear`](EventQueue::clear), so a reused queue runs
//! allocation-free after the first warm-up run.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use rthv_time::Instant;

/// Identifier of a scheduled event, usable to [cancel](EventQueue::cancel) it
/// before it fires.
///
/// Ids carry the queue **generation** that issued them: every
/// [`EventQueue::clear`] starts a new generation, so an id kept across a
/// clear is *detected* as stale — [`cancel`](EventQueue::cancel) treats it
/// as a no-op and [`try_cancel`](EventQueue::try_cancel) reports a typed
/// [`SimError::StaleEventId`] — instead of silently cancelling an unrelated
/// event of the restarted sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId {
    /// Queue lifetime that issued this id (incremented by `clear`).
    generation: u32,
    /// Dense per-generation sequence number.
    seq: u64,
}

impl EventId {
    /// Assembles an id from its raw parts (engine-internal: both engines
    /// must mint identical ids for identical schedule streams).
    pub(crate) fn from_parts(generation: u32, seq: u64) -> Self {
        EventId { generation, seq }
    }

    /// The queue generation that issued this id.
    #[must_use]
    pub fn generation(self) -> u32 {
        self.generation
    }

    /// The dense per-generation sequence number.
    #[must_use]
    pub fn seq(self) -> u64 {
        self.seq
    }
}

/// Error returned when scheduling an event strictly before the queue's
/// current time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePastError {
    /// The queue's current time when scheduling was attempted.
    pub now: Instant,
    /// The (rejected) requested firing time.
    pub at: Instant,
}

impl fmt::Display for SchedulePastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot schedule event at {} — simulation time is already {}",
            self.at, self.now
        )
    }
}

impl std::error::Error for SchedulePastError {}

/// Typed error hierarchy of the simulation queue.
///
/// Library paths of this crate never panic on bad inputs; they either
/// return one of these variants or document the operation as a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// An event was scheduled strictly before the queue's current time.
    SchedulePast(SchedulePastError),
    /// An [`EventId`] from a previous queue lifetime (before a
    /// [`EventQueue::clear`]) was passed to [`EventQueue::try_cancel`].
    StaleEventId {
        /// The generation that issued the id.
        id_generation: u32,
        /// The queue's current generation.
        queue_generation: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::SchedulePast(e) => e.fmt(f),
            SimError::StaleEventId {
                id_generation,
                queue_generation,
            } => write!(
                f,
                "stale event id from queue generation {id_generation} \
                 (queue is at generation {queue_generation})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<SchedulePastError> for SimError {
    fn from(e: SchedulePastError) -> Self {
        SimError::SchedulePast(e)
    }
}

/// Packs an event's firing time and dense sequence number into one `u128`
/// sort key: `(time << 64) | seq`. Comparing keys is a single wide integer
/// compare, yet orders exactly like lexicographic `(time, seq)` — earliest
/// time first, FIFO within a timestamp.
#[inline]
pub(crate) fn pack_key(at: Instant, seq: u64) -> u128 {
    ((at.as_nanos() as u128) << 64) | u128::from(seq)
}

/// The firing time half of a packed key.
#[inline]
pub(crate) fn key_time(key: u128) -> Instant {
    Instant::from_nanos((key >> 64) as u64)
}

/// The sequence-number half of a packed key.
#[inline]
pub(crate) fn key_seq(key: u128) -> u64 {
    key as u64
}

/// One heap entry. Ordered by the packed `(time, seq)` key so the
/// [`BinaryHeap`] (a max-heap with a reversed `Ord`) pops the earliest event
/// first and breaks ties in scheduling order with a single `u128` compare.
pub(crate) struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn at(&self) -> Instant {
        key_time(self.key)
    }

    #[inline]
    fn seq(&self) -> u64 {
        key_seq(self.key)
    }
}

impl<E: Clone> Clone for Entry<E> {
    fn clone(&self) -> Self {
        Entry {
            key: self.key,
            event: self.event.clone(),
        }
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the binary heap is a max-heap, we want earliest first.
        other.key.cmp(&self.key)
    }
}

/// Lifecycle state of one issued event id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IdState {
    /// Scheduled and not yet cancelled or popped.
    Pending,
    /// Cancelled but still in the heap (drained lazily).
    Cancelled,
    /// Left the heap (fired or drained after cancellation).
    Consumed,
}

/// Dense-id state table with a consumed watermark.
///
/// Sequence numbers are dense, so the state of id `base + i` lives at ring
/// slot `i`; once the oldest ids are consumed the watermark `base` advances
/// and their slots are recycled. Memory is O(live ids), with no hashing and
/// no per-operation allocation once the ring capacity covers the peak
/// number of simultaneously live ids.
#[derive(Debug, Default, Clone)]
pub(crate) struct IdTable {
    /// Every id strictly below this watermark has been consumed.
    base: u64,
    /// `states[i]` is the state of id `base + i`.
    states: VecDeque<IdState>,
    /// Number of ids currently in [`IdState::Cancelled`].
    cancelled: usize,
}

impl IdTable {
    /// A table whose ring starts with room for `capacity` live ids.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        IdTable {
            base: 0,
            states: VecDeque::with_capacity(capacity),
            cancelled: 0,
        }
    }

    /// Grows the ring to hold `additional` more live ids without moving.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.states.reserve(additional);
    }

    /// Number of ids currently marked [`IdState::Cancelled`].
    pub(crate) fn cancelled(&self) -> usize {
        self.cancelled
    }

    /// Registers the next dense id (the caller allocates them in order).
    pub(crate) fn push_pending(&mut self) {
        self.states.push_back(IdState::Pending);
    }

    pub(crate) fn state(&self, seq: u64) -> IdState {
        if seq < self.base {
            return IdState::Consumed;
        }
        let offset = (seq - self.base) as usize;
        self.states
            .get(offset)
            .copied()
            // Never-issued ids are treated as consumed: not cancellable.
            .unwrap_or(IdState::Consumed)
    }

    /// Marks a pending id cancelled. Returns `false` if it was not pending.
    pub(crate) fn cancel(&mut self, seq: u64) -> bool {
        if seq < self.base {
            return false;
        }
        let offset = (seq - self.base) as usize;
        match self.states.get_mut(offset) {
            Some(state @ IdState::Pending) => {
                *state = IdState::Cancelled;
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Marks an id consumed (popped or drained) and advances the watermark
    /// over the consumed prefix, recycling ring slots.
    ///
    /// A stale `seq` below the watermark is already consumed, so this is a
    /// no-op for it — the same tolerance [`state`](Self::state) and
    /// [`cancel`](Self::cancel) already have. Without the guard the offset
    /// subtraction underflows (panicking in debug builds) if a stale id
    /// ever reaches this path; staleness across [`clear`](Self::clear) is
    /// reported upstream through the `SimError::StaleEventId` typed error,
    /// and the table itself must stay total over all inputs.
    pub(crate) fn consume(&mut self, seq: u64) {
        if seq < self.base {
            return;
        }
        let offset = (seq - self.base) as usize;
        if let Some(state) = self.states.get_mut(offset) {
            if *state == IdState::Cancelled {
                self.cancelled -= 1;
            }
            *state = IdState::Consumed;
        }
        while self.states.front() == Some(&IdState::Consumed) {
            self.states.pop_front();
            self.base += 1;
        }
    }

    /// Forgets every id but keeps the ring's capacity for reuse.
    pub(crate) fn clear(&mut self) {
        self.base = 0;
        self.states.clear();
        self.cancelled = 0;
    }
}

/// A deterministic, time-ordered event queue.
///
/// See the [crate-level docs](crate) for the guarantees and a usage example.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Per-id lifecycle states (dense, watermarked).
    ids: IdTable,
    next_seq: u64,
    /// Bumped by [`clear`](Self::clear) so stale ids are detectable.
    generation: u32,
    now: Instant,
    /// Times the compaction guard rebuilt the heap to shed tombstones.
    compactions: u64,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time [`Instant::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue pre-sized for `capacity` simultaneously live
    /// events: both the binary heap and the id-state ring allocate up front,
    /// so a scenario whose peak event population is known (e.g. a
    /// pre-scheduled arrival trace) never reallocates mid-run.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            ids: IdTable::with_capacity(capacity),
            next_seq: 0,
            generation: 0,
            now: Instant::ZERO,
            compactions: 0,
        }
    }

    /// Grows the heap and the id ring to hold `additional` more live events
    /// without reallocating on the scheduling path.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
        self.ids.reserve(additional);
    }

    /// The queue's current time: the timestamp of the last popped event (or
    /// [`Instant::ZERO`] before the first pop).
    #[must_use]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of live (non-cancelled) events still queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len() - self.ids.cancelled
    }

    /// Returns `true` if no live events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resets the queue to its initial state — time zero, no events, a
    /// fresh id sequence — while keeping the heap's and the id table's
    /// allocated capacity, so the next run schedules and pops without heap
    /// allocation.
    ///
    /// Starts a new id **generation**: [`EventId`]s issued before the reset
    /// are recognised as stale afterwards — [`cancel`](Self::cancel) on one
    /// is a no-op returning `false`, and [`try_cancel`](Self::try_cancel)
    /// returns [`SimError::StaleEventId`] — they can never alias an event of
    /// the restarted sequence.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.ids.clear();
        self.next_seq = 0;
        self.generation = self.generation.wrapping_add(1);
        self.now = Instant::ZERO;
        // Perf counters restart too: a cleared queue must be
        // indistinguishable from a fresh one, gauge included.
        self.compactions = 0;
    }

    /// Allocates the next id and pushes the entry; `at` must already be
    /// validated as not-in-the-past.
    fn push_entry(&mut self, at: Instant, event: E) -> EventId {
        let id = EventId {
            generation: self.generation,
            seq: self.next_seq,
        };
        self.heap.push(Entry {
            key: pack_key(at, self.next_seq),
            event,
        });
        self.ids.push_pending();
        self.next_seq += 1;
        id
    }

    /// Schedules `event` to fire at the absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulePastError`] if `at` is strictly before
    /// [`now`](Self::now). Scheduling *at* the current time is permitted and
    /// fires after every already-queued event with the same timestamp.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> Result<EventId, SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { now: self.now, at });
        }
        Ok(self.push_entry(at, event))
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired, was already cancelled, was never issued by this queue, or is
    /// stale (issued before the last [`clear`](Self::clear)). Use
    /// [`try_cancel`](Self::try_cancel) to distinguish staleness.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.try_cancel(id).unwrap_or(false)
    }

    /// Cancels a previously scheduled event, reporting stale ids as a typed
    /// error.
    ///
    /// Returns `Ok(true)` if the event was still pending and `Ok(false)` if
    /// it already fired or was already cancelled.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StaleEventId`] when `id` was issued before the
    /// last [`clear`](Self::clear) — such ids are from a finished lifetime
    /// and must not act on the current one.
    pub fn try_cancel(&mut self, id: EventId) -> Result<bool, SimError> {
        if id.generation != self.generation {
            return Err(SimError::StaleEventId {
                id_generation: id.generation,
                queue_generation: self.generation,
            });
        }
        if id.seq >= self.next_seq {
            return Ok(false);
        }
        let cancelled = self.ids.cancel(id.seq);
        // Compaction guard: lazy deletion may never let tombstones outgrow
        // 2× the live population, or a cancel storm would drag every later
        // heap operation through a graveyard. The 2× threshold amortises:
        // by the time it trips, at least two thirds of the heap is stale,
        // so the O(n) rebuild is paid for by the Ω(n) cancels since the
        // last one.
        if cancelled && self.ids.cancelled() > 2 * self.len() {
            self.compact();
        }
        Ok(cancelled)
    }

    /// Rebuilds the heap without the cancelled entries, consuming their
    /// ids. Invoked automatically by the compaction guard; callable
    /// directly before a long idle stretch.
    pub fn compact(&mut self) {
        if self.ids.cancelled() == 0 {
            return;
        }
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        let ids = &mut self.ids;
        entries.retain(|entry| {
            if ids.state(entry.seq()) == IdState::Cancelled {
                ids.consume(entry.seq());
                false
            } else {
                true
            }
        });
        // `From<Vec>` heapifies in place, keeping the allocation.
        self.heap = BinaryHeap::from(entries);
        self.compactions += 1;
    }

    /// Engine health counters: live population, tombstone debt, compaction
    /// and (for the wheel engine) fast-forward activity.
    #[must_use]
    pub fn stats(&self) -> crate::engine::EngineStats {
        crate::engine::EngineStats {
            live: self.len(),
            stale: self.ids.cancelled(),
            compactions: self.compactions,
            ..crate::engine::EngineStats::default()
        }
    }

    /// Pops the earliest live event, advancing [`now`](Self::now) to its
    /// timestamp.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        // Mirror of the cancel-time guard: pops shrink the live population
        // without touching tombstones buried below the heap top, so a
        // cancel burst followed by a drain would otherwise leave stale
        // entries outnumbering live ones unboundedly.
        if self.ids.cancelled() > 2 * self.len() {
            self.compact();
        }
        while let Some(entry) = self.heap.pop() {
            if self.ids.state(entry.seq()) == IdState::Cancelled {
                self.ids.consume(entry.seq());
                continue;
            }
            let at = entry.at();
            debug_assert!(at >= self.now, "heap yielded an event in the past");
            self.now = at;
            self.ids.consume(entry.seq());
            return Some((at, entry.event));
        }
        None
    }

    /// Visits every live (scheduled, not cancelled) event once, in heap
    /// storage order, without allocating or disturbing the queue.
    ///
    /// The callback receives the firing time, the dense sequence number and
    /// the event payload. Two queues that would pop the same event stream
    /// visit the same set of `(time, seq, event)` triples, but in an
    /// unspecified order: consumers must be order-independent, as
    /// checkpoint state-hashing is. Sort the visited keys for firing
    /// order.
    pub fn for_each_live<'a>(&'a self, mut f: impl FnMut(Instant, u64, &'a E)) {
        for entry in &self.heap {
            if self.ids.state(entry.seq()) != IdState::Cancelled {
                f(entry.at(), entry.seq(), &entry.event);
            }
        }
    }

    /// Timestamp of the earliest live event without popping it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<Instant> {
        self.peek_key().map(|(at, _)| at)
    }

    /// Timestamp and sequence number of the earliest live event without
    /// popping it: the `(time, seq)` key the next [`pop`](Self::pop) is
    /// ordered by.
    #[must_use]
    pub fn peek_key(&mut self) -> Option<(Instant, u64)> {
        loop {
            match self.heap.peek() {
                None => return None,
                Some(entry) if self.ids.state(entry.seq()) != IdState::Cancelled => {
                    return Some((entry.at(), entry.seq()));
                }
                Some(_) => {
                    // Drain the cancelled head lazily.
                    if let Some(entry) = self.heap.pop() {
                        self.ids.consume(entry.seq());
                    }
                }
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E: Clone> Clone for EventQueue<E> {
    /// Deep-copies the queue, preserving event ids, generations and the
    /// lazy-cancellation bookkeeping: the clone pops exactly the same
    /// `(time, event)` stream as the original would, and ids issued by the
    /// original remain valid (cancellable) on the clone. This is the
    /// foundation of machine checkpointing.
    fn clone(&self) -> Self {
        EventQueue {
            heap: self.heap.clone(),
            ids: self.ids.clone(),
            next_seq: self.next_seq,
            generation: self.generation,
            now: self.now,
            compactions: self.compactions,
        }
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rthv_time::Duration;

    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    enum Ev {
        A,
        B,
        C,
    }

    fn eid(generation: u32, seq: u64) -> EventId {
        EventId { generation, seq }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_nanos(30), Ev::C)
            .expect("future");
        q.schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        q.schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        assert_eq!(q.pop(), Some((Instant::from_nanos(10), Ev::A)));
        assert_eq!(q.pop(), Some((Instant::from_nanos(20), Ev::B)));
        assert_eq!(q.pop(), Some((Instant::from_nanos(30), Ev::C)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = Instant::from_nanos(5);
        q.schedule_at(t, Ev::A).expect("future");
        q.schedule_at(t, Ev::B).expect("future");
        q.schedule_at(t, Ev::C).expect("future");
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::A));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::B));
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::C));
    }

    #[test]
    fn rejects_scheduling_in_the_past() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        let _ = q.pop();
        let err = q.schedule_at(Instant::from_nanos(5), Ev::B).unwrap_err();
        assert_eq!(err.now, Instant::from_nanos(10));
        assert_eq!(err.at, Instant::from_nanos(5));
        assert!(err.to_string().contains("cannot schedule"));
        // Scheduling *at* now is fine.
        assert!(q.schedule_at(Instant::from_nanos(10), Ev::B).is_ok());
    }

    #[test]
    fn cancel_removes_pending_event() {
        let mut q = EventQueue::new();
        let a = q
            .schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        q.schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((Instant::from_nanos(20), Ev::B)));
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut q = EventQueue::new();
        let a = q
            .schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        let _ = q.pop();
        assert!(!q.cancel(a));
        // Double cancel also reports false.
        let b = q
            .schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        assert!(q.cancel(b));
        assert!(!q.cancel(b));
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        assert!(!q.cancel(eid(0, 99)));
    }

    #[test]
    fn stale_id_after_clear_is_detected() {
        let mut q = EventQueue::new();
        let stale = q
            .schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        q.clear();
        // The restarted sequence reuses seq 0, but under a new generation.
        let fresh = q
            .schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        assert_ne!(stale, fresh, "stale id must not alias the fresh event");
        // cancel() is a documented no-op on stale ids…
        assert!(!q.cancel(stale));
        // …and try_cancel() names the staleness.
        assert_eq!(
            q.try_cancel(stale),
            Err(SimError::StaleEventId {
                id_generation: 0,
                queue_generation: 1,
            })
        );
        // The fresh event is untouched and still cancellable.
        assert_eq!(q.len(), 1);
        assert_eq!(q.try_cancel(fresh), Ok(true));
        assert!(q.is_empty());
    }

    #[test]
    fn consume_below_watermark_is_a_noop_at_the_wrap_boundary() {
        // Regression: `IdTable::consume` computed `(seq - base)` without the
        // stale-seq guard that `state`/`cancel` carry, so a seq below the
        // advanced watermark underflowed the offset (a debug-build panic).
        let mut ids = IdTable::default();
        for _ in 0..3 {
            ids.push_pending();
        }
        ids.consume(0);
        ids.consume(1);
        assert_eq!(ids.base, 2, "watermark advances over the consumed prefix");
        // Seqs 0 and 1 sit below the watermark now: consuming them again
        // must be a total no-op, not an underflow.
        ids.consume(0);
        ids.consume(1);
        assert_eq!(ids.base, 2);
        assert_eq!(ids.state(0), IdState::Consumed);
        assert_eq!(ids.state(2), IdState::Pending);
        // A cancelled id drained below the watermark keeps the tombstone
        // accounting exact.
        assert!(ids.cancel(2));
        assert_eq!(ids.cancelled, 1);
        ids.consume(2);
        assert_eq!(ids.cancelled, 0);
        assert_eq!(ids.base, 3);
        ids.consume(2);
        assert_eq!(ids.cancelled, 0, "stale consume must not touch counters");
    }

    #[test]
    fn stale_seq_reaching_consume_through_the_queue_does_not_panic() {
        // Drive the same boundary through the public queue API: pop events
        // (advancing the watermark past their seqs), then verify operations
        // on the now-below-watermark ids stay total and typed.
        let mut q = EventQueue::new();
        let a = q
            .schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        let b = q
            .schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        assert_eq!(q.pop(), Some((Instant::from_nanos(10), Ev::A)));
        assert_eq!(q.pop(), Some((Instant::from_nanos(20), Ev::B)));
        // Both seqs are below the watermark; same-generation stale handles
        // answer through the normal (non-panicking) paths.
        assert!(!q.cancel(a));
        assert_eq!(q.try_cancel(b), Ok(false));
        // And cross-generation staleness still surfaces as the typed error.
        q.clear();
        assert_eq!(
            q.try_cancel(a),
            Err(SimError::StaleEventId {
                id_generation: 0,
                queue_generation: 1,
            })
        );
    }

    #[test]
    fn sim_error_display_names_generations() {
        let err = SimError::StaleEventId {
            id_generation: 2,
            queue_generation: 5,
        };
        let text = err.to_string();
        assert!(text.contains("generation 2"));
        assert!(text.contains("generation 5"));
        let past = SimError::from(SchedulePastError {
            now: Instant::from_nanos(10),
            at: Instant::from_nanos(5),
        });
        assert!(past.to_string().contains("cannot schedule"));
    }

    #[test]
    fn cancelled_then_drained_id_stays_cancelled() {
        let mut q = EventQueue::new();
        let a = q
            .schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        q.schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        q.cancel(a);
        // Draining pops past the tombstone.
        assert_eq!(q.pop(), Some((Instant::from_nanos(20), Ev::B)));
        assert!(
            !q.cancel(a),
            "drained tombstone must not be cancellable again"
        );
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q
            .schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        q.schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(Instant::from_nanos(20)));
        assert_eq!(q.peek_key(), Some((Instant::from_nanos(20), 1)));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_nanos(100), Ev::A)
            .expect("future");
        let _ = q.pop();
        q.schedule_at(q.now() + Duration::from_nanos(5), Ev::B)
            .expect("now is never in the past");
        assert_eq!(q.pop(), Some((Instant::from_nanos(105), Ev::B)));
    }

    #[test]
    fn len_accounts_for_tombstones() {
        let mut q = EventQueue::new();
        let a = q
            .schedule_at(Instant::from_nanos(1), Ev::A)
            .expect("future");
        q.schedule_at(Instant::from_nanos(2), Ev::B)
            .expect("future");
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        let _ = q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn id_table_watermark_advances_densely() {
        let mut t = IdTable::default();
        t.push_pending();
        t.push_pending();
        t.push_pending();
        t.consume(0);
        t.consume(2);
        assert_eq!(t.state(0), IdState::Consumed);
        assert_eq!(t.state(1), IdState::Pending);
        assert_eq!(t.state(2), IdState::Consumed);
        assert_eq!(t.base, 1, "watermark stops at the pending id");
        t.consume(1);
        assert_eq!(t.base, 3);
        assert!(t.states.is_empty());
    }

    #[test]
    fn memory_stays_bounded_over_long_runs() {
        // After consuming everything, the id table collapses to a watermark.
        let mut q = EventQueue::new();
        for i in 0..10_000u64 {
            q.schedule_at(Instant::from_nanos(i), Ev::A)
                .expect("future");
        }
        while q.pop().is_some() {}
        assert!(q.ids.states.is_empty());
        assert_eq!(q.ids.cancelled, 0);
        assert_eq!(q.ids.base, 10_000);
    }

    #[test]
    fn clear_resets_but_keeps_capacity() {
        let mut q = EventQueue::new();
        for i in 0..1_000u64 {
            let id = q
                .schedule_at(Instant::from_nanos(i), Ev::A)
                .expect("future");
            if i % 3 == 0 {
                q.cancel(id);
            }
        }
        while q.pop().is_some() {}
        let heap_cap = q.heap.capacity();
        let ring_cap = q.ids.states.capacity();
        q.clear();
        assert_eq!(q.now(), Instant::ZERO);
        assert!(q.is_empty());
        assert_eq!(q.heap.capacity(), heap_cap, "heap capacity survives clear");
        assert_eq!(
            q.ids.states.capacity(),
            ring_cap,
            "ring capacity survives clear"
        );
        // The id sequence restarts — under a fresh generation.
        let id = q
            .schedule_at(Instant::from_nanos(1), Ev::B)
            .expect("future");
        assert_eq!(id, eid(1, 0));
        assert_eq!(q.pop(), Some((Instant::from_nanos(1), Ev::B)));
    }

    #[test]
    fn steady_state_schedule_pop_does_not_grow_capacity() {
        // Warm up, then run many schedule/pop cycles of the same working-set
        // size: capacities must not move (i.e. no reallocation on the hot
        // path).
        let mut q = EventQueue::new();
        let mut t = 0u64;
        for _ in 0..64 {
            for i in 0..32 {
                q.schedule_at(Instant::from_nanos(t + i), Ev::A)
                    .expect("future");
            }
            t += 32;
            while q.pop().is_some() {}
        }
        let heap_cap = q.heap.capacity();
        let ring_cap = q.ids.states.capacity();
        for _ in 0..1_000 {
            for i in 0..32 {
                q.schedule_at(Instant::from_nanos(t + i), Ev::A)
                    .expect("future");
            }
            t += 32;
            while q.pop().is_some() {}
        }
        assert_eq!(
            q.heap.capacity(),
            heap_cap,
            "steady state reallocated the heap"
        );
        assert_eq!(
            q.ids.states.capacity(),
            ring_cap,
            "steady state reallocated the ring"
        );
    }

    #[test]
    fn clone_pops_the_identical_stream() {
        let mut q = EventQueue::new();
        let mut cancels = Vec::new();
        for i in 0..200u64 {
            let id = q
                .schedule_at(Instant::from_nanos((i * 37) % 90), i)
                .expect("future");
            if i % 5 == 0 {
                cancels.push(id);
            }
        }
        for id in cancels {
            assert!(q.cancel(id));
        }
        let mut copy = q.clone();
        assert_eq!(copy.len(), q.len());
        loop {
            let a = q.pop();
            let b = copy.pop();
            assert_eq!(a, b, "clone diverged from original");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn clone_preserves_ids_and_generation() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_nanos(1), Ev::A)
            .expect("future");
        q.clear();
        let id = q
            .schedule_at(Instant::from_nanos(2), Ev::B)
            .expect("future");
        let mut copy = q.clone();
        // An id issued by the original cancels the cloned event: the clone
        // is the same queue lifetime, not a restarted one.
        assert_eq!(copy.try_cancel(id), Ok(true));
        assert!(copy.is_empty());
        assert_eq!(q.len(), 1, "original untouched by the clone's cancel");
    }

    #[test]
    fn for_each_scheduled_visits_live_events_in_pop_order() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_nanos(30), Ev::C)
            .expect("future");
        let b = q
            .schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        q.schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        q.schedule_at(Instant::from_nanos(10), Ev::B)
            .expect("future");
        q.cancel(b);
        let mut seen = Vec::new();
        q.for_each_live(|at, seq, e| seen.push((at, seq, *e)));
        seen.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        assert_eq!(
            seen,
            vec![
                (Instant::from_nanos(10), 2, Ev::A),
                (Instant::from_nanos(10), 3, Ev::B),
                (Instant::from_nanos(30), 0, Ev::C),
            ]
        );
        // The walk is read-only: popping still yields everything live.
        assert_eq!(q.pop().map(|(_, e)| e), Some(Ev::A));
    }

    #[test]
    fn event_id_exposes_raw_parts() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.clear();
        let id = q
            .schedule_at(Instant::from_nanos(1), Ev::A)
            .expect("future");
        assert_eq!(id.generation(), 1);
        assert_eq!(id.seq(), 0);
    }

    #[test]
    fn interleaved_cancel_consume_keeps_len_exact() {
        // Regression guard for the watermark bookkeeping: cancellations at
        // and around the watermark must keep `len` equal to the number of
        // events that will still pop.
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..100u64)
            .map(|i| {
                q.schedule_at(Instant::from_nanos(i / 7), i)
                    .expect("future")
            })
            .collect();
        for (k, id) in ids.iter().enumerate() {
            if k % 2 == 0 {
                assert!(q.cancel(*id));
            }
        }
        let mut popped = 0;
        for _ in 0..25 {
            q.pop().expect("live events remain");
            popped += 1;
        }
        assert_eq!(q.len(), 50 - popped);
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 50);
    }
}
