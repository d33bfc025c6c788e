//! Hierarchical timing-wheel engine with closed-form fast-forward.
//!
//! # Geometry
//!
//! Virtual time is quantised into **granules** of `2^tick_shift`
//! nanoseconds. Four wheel levels of 64 slots each cover nested spans:
//!
//! | level | slot width        | rotation span      |
//! |-------|-------------------|--------------------|
//! | 0     | 1 granule         | 64 granules        |
//! | 1     | 64 granules       | 4 096 granules     |
//! | 2     | 4 096 granules    | 262 144 granules   |
//! | 3     | 262 144 granules  | 16 777 216 granules|
//!
//! Events beyond the level-3 rotation park on a far-future **overflow
//! level** (an ordered map) and are pulled onto the wheel when the cursor
//! enters their rotation. The tick is sized from the TDMA cycle (see
//! [`WheelEngine::with_tick_hint`]) so one full hypervisor cycle fits in
//! the level-1 rotation: slot-boundary and handler events — the simulation
//! hot set — always live on the two cheapest levels.
//!
//! # Placement and the cursor
//!
//! `cursor` is the absolute granule index the wheel is positioned at. An
//! event with granule index `i` lives at the lowest level `l` whose
//! rotation currently contains it — the first `l` with
//! `i >> 6·(l+1) == cursor >> 6·(l+1)` — in slot `(i >> 6·l) & 63`.
//! Events at or before the cursor's granule go to a small sorted `staging`
//! array the pops are served from.
//!
//! # Closed-form fast-forward
//!
//! Each level keeps one `u64` occupancy bitmap, so "the next armed granule"
//! is a mask + `trailing_zeros` — **O(1) in the width of the gap**. The
//! proof obligation for every jump from granule `a` to granule `b` is that
//! no armed event exists in `(a, b)`:
//!
//! * a level-0 jump skips only slots whose occupancy bits are zero inside
//!   the current level-1 bucket — and every event of that bucket's span is
//!   on level 0 (placement invariant), so cleared bits really mean empty
//!   granules;
//! * a cascade to level `l` happens only when every level below had no
//!   armed slot after the cursor, i.e. the skipped remainder of the finer
//!   rotations was provably empty;
//! * an overflow jump happens only when all four bitmaps are empty, and it
//!   lands exactly on the earliest parked event (`BTreeMap` order).
//!
//! Jumps that skip more than one granule increment the
//! `fast_forward_jumps` counter surfaced through
//! [`stats`](WheelEngine::stats).
//!
//! # Equivalence to the heap engine
//!
//! The wheel shares the heap engine's id allocator ([`IdTable`]), packed
//! `(time, seq)` keys, lazy cancellation and compaction guard, so ids, pop
//! streams and error behaviour are byte-identical to
//! [`EventQueue`](crate::EventQueue), and
//! [`for_each_live`](WheelEngine::for_each_live) visits the same live set
//! (so the canonical
//! [`Engine::for_each_scheduled`](crate::Engine::for_each_scheduled) walk
//! is identical too) — asserted by the cross-engine differential suites in
//! `rthv-sim` and `rthv-faults`.

use std::collections::BTreeMap;
use std::fmt;

use rthv_time::{Duration, Instant};

use crate::engine::EngineStats;
use crate::queue::{
    key_seq, key_time, pack_key, EventId, IdState, IdTable, SchedulePastError, SimError,
};

/// Wheel levels (64 slots each); beyond level 3 lies the overflow map.
const LEVELS: usize = 4;
/// log2(slots per level).
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// log2(granules per full level-3 rotation).
const SPAN_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// One stored event: packed `(time, seq)` key plus the payload.
struct WheelEntry<E> {
    key: u128,
    event: E,
}

impl<E: Clone> Clone for WheelEntry<E> {
    fn clone(&self) -> Self {
        WheelEntry {
            key: self.key,
            event: self.event.clone(),
        }
    }
}

/// One wheel level: 64 buckets and their occupancy bitmap.
struct Level<E> {
    occupied: u64,
    slots: Vec<Vec<WheelEntry<E>>>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

impl<E: Clone> Clone for Level<E> {
    fn clone(&self) -> Self {
        Level {
            occupied: self.occupied,
            slots: self.slots.clone(),
        }
    }
}

/// Bits strictly above `pos` in a 64-bit occupancy word.
#[inline]
fn above_mask(pos: u32) -> u64 {
    if pos >= 63 {
        0
    } else {
        !0u64 << (pos + 1)
    }
}

/// A deterministic, time-ordered event queue backed by a hierarchical
/// timing wheel (see the [module docs](self) for geometry and invariants).
///
/// Drop-in equivalent of [`EventQueue`](crate::EventQueue): same API, same
/// observable behaviour, `O(1)` amortised operations and closed-form
/// fast-forward over empty virtual time.
pub struct WheelEngine<E> {
    /// log2 of the granule width in nanoseconds.
    tick_shift: u32,
    now: Instant,
    /// Absolute granule index the wheel is positioned at. Every event in
    /// `levels`/`overflow` has a strictly later granule; events at or
    /// before it live in `staging`.
    cursor: u64,
    /// Events due at or before the cursor's granule, sorted by key
    /// **descending** so the earliest is popped from the back.
    staging: Vec<WheelEntry<E>>,
    levels: [Level<E>; LEVELS],
    /// Far-future events outside the level-3 rotation, keyed by packed
    /// `(time, seq)`.
    overflow: BTreeMap<u128, E>,
    /// Per-id lifecycle states (shared scheme with the heap engine).
    ids: IdTable,
    next_seq: u64,
    generation: u32,
    /// Entries currently stored anywhere (live + not-yet-drained stale).
    stored: usize,
    fast_forward_jumps: u64,
    cascades: u64,
    compactions: u64,
}

impl<E> WheelEngine<E> {
    /// Creates an empty wheel with the default 4 096 ns granule.
    #[must_use]
    pub fn new() -> Self {
        Self::with_tick_shift(12)
    }

    /// Creates an empty wheel whose granule is sized from a busy-horizon
    /// hint — typically the TDMA cycle `T_TDMA`: the granule is the
    /// smallest power of two such that one full hint interval fits inside
    /// the level-1 rotation (4 096 granules), keeping every slot-boundary
    /// and handler event of a cycle on the two cheapest levels.
    #[must_use]
    pub fn with_tick_hint(hint: Duration) -> Self {
        let target = (hint.as_nanos().div_ceil(4096)).max(1);
        let shift = target.next_power_of_two().trailing_zeros();
        Self::with_tick_shift(shift.clamp(4, 24))
    }

    /// Creates an empty wheel with a `2^tick_shift`-nanosecond granule.
    ///
    /// The granule only affects performance, never observable behaviour.
    /// `tick_shift` is clamped to `[0, 40]`.
    #[must_use]
    pub fn with_tick_shift(tick_shift: u32) -> Self {
        WheelEngine {
            tick_shift: tick_shift.min(40),
            now: Instant::ZERO,
            cursor: 0,
            staging: Vec::new(),
            levels: std::array::from_fn(|_| Level::new()),
            overflow: BTreeMap::new(),
            ids: IdTable::default(),
            next_seq: 0,
            generation: 0,
            stored: 0,
            fast_forward_jumps: 0,
            cascades: 0,
            compactions: 0,
        }
    }

    /// The wheel's granule width in nanoseconds.
    #[must_use]
    pub fn tick_nanos(&self) -> u64 {
        1u64 << self.tick_shift
    }

    /// Current virtual time: the timestamp of the last popped event.
    #[must_use]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Number of live (non-cancelled) events still queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stored - self.ids.cancelled()
    }

    /// `true` if no live events are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-sizes the id ring and staging array for `additional` more live
    /// events.
    pub fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
    }

    /// Resets the wheel to time zero under a fresh id generation, keeping
    /// bucket capacity (mirrors [`EventQueue::clear`](crate::EventQueue::clear)).
    pub fn clear(&mut self) {
        self.now = Instant::ZERO;
        self.cursor = 0;
        self.staging.clear();
        for level in &mut self.levels {
            level.occupied = 0;
            for slot in &mut level.slots {
                slot.clear();
            }
        }
        self.overflow.clear();
        self.ids.clear();
        self.next_seq = 0;
        self.generation = self.generation.wrapping_add(1);
        self.stored = 0;
        // Perf counters restart too: a cleared wheel must be
        // indistinguishable from a fresh one, gauge included.
        self.fast_forward_jumps = 0;
        self.cascades = 0;
        self.compactions = 0;
    }

    /// Granule index of an absolute time.
    #[inline]
    fn granule(&self, at_nanos: u64) -> u64 {
        at_nanos >> self.tick_shift
    }

    /// Inserts into `staging`, keeping the descending key order.
    fn stage(&mut self, entry: WheelEntry<E>) {
        let key = entry.key;
        let pos = self.staging.partition_point(|e| e.key > key);
        self.staging.insert(pos, entry);
    }

    /// Files an entry at the lowest wheel level whose rotation currently
    /// contains its granule; at-or-before-cursor granules go to staging,
    /// beyond-span granules to the overflow map.
    fn place(&mut self, entry: WheelEntry<E>) {
        let i = self.granule(key_time(entry.key).as_nanos());
        if i <= self.cursor {
            self.stage(entry);
            return;
        }
        for (l, level) in self.levels.iter_mut().enumerate() {
            let shift = LEVEL_BITS * (l as u32 + 1);
            if (i >> shift) == (self.cursor >> shift) {
                let slot = ((i >> (LEVEL_BITS * l as u32)) & 63) as usize;
                level.slots[slot].push(entry);
                level.occupied |= 1u64 << slot;
                return;
            }
        }
        self.overflow.insert(entry.key, entry.event);
    }

    /// Allocates the next id and stores the entry; `at` is pre-validated.
    fn push_entry(&mut self, at: Instant, event: E) -> EventId {
        let id = EventId::from_parts(self.generation, self.next_seq);
        let key = pack_key(at, self.next_seq);
        self.ids.push_pending();
        self.next_seq += 1;
        self.stored += 1;
        self.place(WheelEntry { key, event });
        id
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulePastError`] if `at` is strictly before
    /// [`now`](Self::now); scheduling *at* the current time fires after
    /// every already-queued event with the same timestamp.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> Result<EventId, SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { now: self.now, at });
        }
        Ok(self.push_entry(at, event))
    }

    /// Schedules `event` to fire `delay` after the current time (never
    /// fails: the sum saturates at the far future).
    pub fn schedule_in(&mut self, delay: Duration, event: E) -> EventId {
        let at = self.now + delay;
        self.push_entry(at, event)
    }

    /// Cancels a previously scheduled event; `false` if it already fired,
    /// was already cancelled, or the id is stale.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.try_cancel(id).unwrap_or(false)
    }

    /// Cancels with typed stale-id reporting (see
    /// [`EventQueue::try_cancel`](crate::EventQueue::try_cancel) — the
    /// semantics are identical).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::StaleEventId`] for ids issued before the last
    /// [`clear`](Self::clear).
    pub fn try_cancel(&mut self, id: EventId) -> Result<bool, SimError> {
        if id.generation() != self.generation {
            return Err(SimError::StaleEventId {
                id_generation: id.generation(),
                queue_generation: self.generation,
            });
        }
        if id.seq() >= self.next_seq {
            return Ok(false);
        }
        let cancelled = self.ids.cancel(id.seq());
        // Same 2×-live compaction guard as the heap engine: tombstones are
        // drained lazily, but never allowed to outnumber live entries 2:1.
        if cancelled && self.ids.cancelled() > 2 * self.len() {
            self.compact();
        }
        Ok(cancelled)
    }

    /// Moves the cursor to the next armed granule and drains that bucket
    /// into staging. No-op if staging already holds entries; leaves staging
    /// empty only when no events are stored at all.
    fn refill_staging(&mut self) {
        while self.staging.is_empty() {
            // Level 0: the occupancy bitmap names the next armed granule in
            // the current level-1 bucket — a single trailing_zeros.
            let pos = (self.cursor & 63) as u32;
            let armed = self.levels[0].occupied & above_mask(pos);
            if armed != 0 {
                let slot = armed.trailing_zeros() as usize;
                let next = (self.cursor & !63) | slot as u64;
                if next > self.cursor + 1 {
                    self.fast_forward_jumps += 1;
                }
                self.cursor = next;
                self.levels[0].occupied &= !(1u64 << slot);
                let staging = &mut self.staging;
                staging.append(&mut self.levels[0].slots[slot]);
                staging.sort_unstable_by_key(|entry| std::cmp::Reverse(entry.key));
                return;
            }
            if !self.cascade() {
                return;
            }
        }
    }

    /// Advances the cursor past an exhausted level-0 rotation: explodes the
    /// next armed bucket of the lowest non-empty level down into finer
    /// levels, or — with all four bitmaps empty — jumps straight to the
    /// earliest overflow event. Returns `false` when nothing is stored
    /// beyond the cursor.
    fn cascade(&mut self) -> bool {
        for l in 1..LEVELS {
            let shift = LEVEL_BITS * l as u32;
            let pos = ((self.cursor >> shift) & 63) as u32;
            let armed = self.levels[l].occupied & above_mask(pos);
            if armed == 0 {
                continue;
            }
            let slot = armed.trailing_zeros() as usize;
            let group = ((self.cursor >> shift) & !63) | slot as u64;
            let next = group << shift;
            if next > self.cursor + 1 {
                self.fast_forward_jumps += 1;
            }
            self.cursor = next;
            self.cascades += 1;
            self.levels[l].occupied &= !(1u64 << slot);
            let bucket = std::mem::take(&mut self.levels[l].slots[slot]);
            for entry in bucket {
                self.place(entry);
            }
            return true;
        }
        // All four rotations are provably empty (bitmaps zero): the next
        // armed event, if any, is the overflow minimum. Jump to it.
        let Some((&key, _)) = self.overflow.first_key_value() else {
            return false;
        };
        let target = self.granule(key_time(key).as_nanos());
        if target > self.cursor + 1 {
            self.fast_forward_jumps += 1;
        }
        self.cursor = target;
        self.pull_overflow();
        true
    }

    /// Moves every overflow event whose granule now shares the cursor's
    /// level-3 rotation onto the wheel.
    fn pull_overflow(&mut self) {
        let rotation = self.cursor >> SPAN_BITS;
        let boundary_granule = (rotation + 1) << SPAN_BITS;
        let boundary_nanos = u128::from(boundary_granule) << self.tick_shift;
        let rest = if boundary_nanos > u128::from(u64::MAX) {
            BTreeMap::new()
        } else {
            self.overflow
                .split_off(&pack_key(Instant::from_nanos(boundary_nanos as u64), 0))
        };
        let pulled = std::mem::replace(&mut self.overflow, rest);
        for (key, event) in pulled {
            self.place(WheelEntry { key, event });
        }
    }

    /// Pops the earliest live event, advancing [`now`](Self::now) to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        // The cancel-time guard alone is not enough: once cancels stop,
        // pops keep shrinking the live population while tombstones parked
        // in the overflow map (or far-future buckets the cursor has not
        // rotated into) are never drained — the 2×-live bound would decay
        // into unbounded debt. Re-check it on the pop side too.
        if self.ids.cancelled() > 2 * self.len() {
            self.compact();
        }
        loop {
            if self.staging.is_empty() {
                self.refill_staging();
            }
            let entry = self.staging.pop()?;
            self.stored -= 1;
            let seq = key_seq(entry.key);
            if self.ids.state(seq) == IdState::Cancelled {
                self.ids.consume(seq);
                continue;
            }
            let at = key_time(entry.key);
            debug_assert!(at >= self.now, "wheel yielded an event in the past");
            self.now = at;
            self.ids.consume(seq);
            return Some((at, entry.event));
        }
    }

    /// Timestamp of the earliest live event without popping it.
    #[must_use]
    pub fn peek_time(&mut self) -> Option<Instant> {
        loop {
            if self.staging.is_empty() {
                self.refill_staging();
            }
            let entry = self.staging.last()?;
            let seq = key_seq(entry.key);
            if self.ids.state(seq) == IdState::Cancelled {
                self.staging.pop();
                self.stored -= 1;
                self.ids.consume(seq);
                continue;
            }
            return Some(key_time(entry.key));
        }
    }

    /// Visits every live event once, in storage order (staging, then each
    /// level's buckets, then the overflow map), without allocating or
    /// disturbing the wheel.
    ///
    /// The set of `(time, seq, event)` triples visited is the one
    /// [`EventQueue::for_each_live`](crate::EventQueue::for_each_live)
    /// visits for the same timeline; only the order differs, so consumers
    /// must be order-independent, as checkpoint state-hashing is.
    pub fn for_each_live<'a>(&'a self, mut f: impl FnMut(Instant, u64, &'a E)) {
        let is_live = |seq: u64| self.ids.state(seq) != IdState::Cancelled;
        let stored = self.staging.iter().chain(
            self.levels
                .iter()
                .flat_map(|level| level.slots.iter().flatten()),
        );
        for entry in stored {
            let seq = key_seq(entry.key);
            if is_live(seq) {
                f(key_time(entry.key), seq, &entry.event);
            }
        }
        for (&key, event) in &self.overflow {
            if is_live(key_seq(key)) {
                f(key_time(key), key_seq(key), event);
            }
        }
    }

    /// Drops every cancelled entry from staging, buckets and overflow,
    /// consuming their ids. Invoked automatically by the compaction guard.
    pub fn compact(&mut self) {
        if self.ids.cancelled() == 0 {
            return;
        }
        let ids = &mut self.ids;
        let stored = &mut self.stored;
        let mut sweep = |entries: &mut Vec<WheelEntry<E>>| {
            entries.retain(|entry| {
                let seq = key_seq(entry.key);
                if ids.state(seq) == IdState::Cancelled {
                    ids.consume(seq);
                    *stored -= 1;
                    false
                } else {
                    true
                }
            });
        };
        sweep(&mut self.staging);
        for level in &mut self.levels {
            for (slot, entries) in level.slots.iter_mut().enumerate() {
                sweep(entries);
                if entries.is_empty() {
                    level.occupied &= !(1u64 << slot);
                }
            }
        }
        self.overflow.retain(|&key, _| {
            let seq = key_seq(key);
            if ids.state(seq) == IdState::Cancelled {
                ids.consume(seq);
                *stored -= 1;
                false
            } else {
                true
            }
        });
        self.compactions += 1;
    }

    /// Engine health counters: live population, tombstone debt, cascade and
    /// fast-forward activity, bucket occupancy.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            live: self.len(),
            stale: self.ids.cancelled(),
            compactions: self.compactions,
            fast_forward_jumps: self.fast_forward_jumps,
            cascades: self.cascades,
            occupied_buckets: self
                .levels
                .iter()
                .map(|level| level.occupied.count_ones())
                .sum(),
            overflow_len: self.overflow.len(),
        }
    }
}

impl<E> Default for WheelEngine<E> {
    fn default() -> Self {
        WheelEngine::new()
    }
}

impl<E: Clone> Clone for WheelEngine<E> {
    /// Deep copy preserving ids, generations and lazy-cancellation state —
    /// the clone pops exactly the stream the original would (the machine
    /// checkpointing contract).
    fn clone(&self) -> Self {
        WheelEngine {
            tick_shift: self.tick_shift,
            now: self.now,
            cursor: self.cursor,
            staging: self.staging.clone(),
            levels: self.levels.clone(),
            overflow: self.overflow.clone(),
            ids: self.ids.clone(),
            next_seq: self.next_seq,
            generation: self.generation,
            stored: self.stored,
            fast_forward_jumps: self.fast_forward_jumps,
            cascades: self.cascades,
            compactions: self.compactions,
        }
    }
}

impl<E> fmt::Debug for WheelEngine<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WheelEngine")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("tick_nanos", &self.tick_nanos())
            .finish()
    }
}
