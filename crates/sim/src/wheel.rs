//! Hierarchical timing-wheel engine with closed-form fast-forward — the
//! production engine.
//!
//! Every machine and platform core keeps its pending IRQ arrivals on this
//! wheel, and every admission fleet all of its events, unless its
//! configuration pins the binary-heap [`EventQueue`](crate::EventQueue),
//! which stays as the reference the cross-engine differential suites
//! compare against. A machine's own
//! timers (hypervisor-block end, bottom-segment end, next TDMA boundary)
//! never enter the wheel: each has a fixed slot on the machine. While the
//! machine still queued those timers here, the wheel took 36 % less
//! `fig6c` wall time than the heap on the repo benchmark, and less on every
//! other workload too (see EXPERIMENTS.md § *Event-engine throughput*).
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
//! the level-1 rotation: the arrivals due within the current cycle — the
//! machine's hot set — always live on the two cheapest levels.
//!
//! # Storage: one node slab
//!
//! Every event filed in a bucket is a `Node` of one slab
//! (`nodes: Vec<Node<E>>`): its packed `(time, seq)` key, a `u32` link and
//! the payload. A bucket is a singly linked chain through those links,
//! rooted in a dense `[[u32; 64]; 4]` head table beside the occupancy
//! bitmaps; freed nodes are threaded onto a free list through the same
//! link, so the slab only grows when every node is filed, and a warmed-up
//! wheel schedules without allocating. For the hypervisor's 24-byte event
//! a node is 48 bytes, the size of the heap engine's entry.
//!
//! A cascade re-links nodes into finer chains without moving payloads;
//! only the level-0 drain moves payloads out, into the sorted `staging`
//! array the pops are served from. [`Clone`] copies the filed nodes alone,
//! chain by chain into a dense slab, so a checkpoint never carries the
//! free high-water mark.
//!
//! # Placement and the cursor
//!
//! `cursor` is the absolute granule index the wheel is positioned at. An
//! event with granule index `i` lives at the lowest level `l` whose
//! rotation currently contains it — the first `l` with
//! `i >> 6·(l+1) == cursor >> 6·(l+1)`, i.e. the level of the highest bit
//! in which `i` and `cursor` differ — in slot `(i >> 6·l) & 63`. Events at
//! or before the cursor's granule go to `staging`.
//!
//! The cursor only moves forward, within the rotations it shares with
//! every filed event, and a cascade re-files each node of the bucket it
//! explodes. So a filed node always sits in the bucket its key names for
//! the current cursor. Compaction relies on this: it rebuilds the chains
//! and the free list in one linear pass over the slab, linking each
//! surviving node by its key, instead of walking chains that jump across
//! the slab wherever events were scheduled out of time order.
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
//! (so the walks agree once sorted by `(time, seq)`) — asserted by the
//! cross-engine differential suites in `rthv-sim` and `rthv-faults`.

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
/// The null link: an empty bucket, the end of a chain or of the free list.
const NIL: u32 = u32::MAX;

/// One slab node: an event filed in a bucket, or a free node.
struct Node<E> {
    /// Packed `(time, seq)` key.
    key: u128,
    /// Next node of the same bucket chain, or of the free list.
    next: u32,
    /// The payload; `None` while the node is on the free list.
    event: Option<E>,
}

/// One staged event: packed `(time, seq)` key plus the payload.
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

/// Where an event with a given granule belongs right now.
enum Home {
    /// At or before the cursor's granule.
    Staging,
    /// Bucket `slot` of wheel level `level`.
    Bucket { level: usize, slot: usize },
    /// Beyond the level-3 rotation.
    Overflow,
}

/// Consumes the id of a stored entry if it was cancelled, accounting the
/// entry as gone from storage; `true` if so (the caller then drops it).
fn drain_cancelled(ids: &mut IdTable, stored: &mut usize, key: u128) -> bool {
    let seq = key_seq(key);
    if ids.state(seq) != IdState::Cancelled {
        return false;
    }
    ids.consume(seq);
    *stored -= 1;
    true
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
/// timing wheel: four 64-slot levels over one node slab, a far-future
/// overflow map, and closed-form fast-forward across empty virtual time.
///
/// Drop-in equivalent of [`EventQueue`](crate::EventQueue): same API, same
/// observable behaviour, `O(1)` amortised operations and closed-form
/// fast-forward over empty virtual time.
pub struct WheelEngine<E> {
    /// log2 of the granule width in nanoseconds.
    tick_shift: u32,
    now: Instant,
    /// Absolute granule index the wheel is positioned at. Every event in
    /// the buckets or `overflow` has a strictly later granule; events at or
    /// before it live in `staging`.
    cursor: u64,
    /// Events due at or before the cursor's granule, sorted by key
    /// **descending** so the earliest is popped from the back.
    staging: Vec<WheelEntry<E>>,
    /// The node slab behind every bucket chain and the free list.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list threaded through [`Node::next`].
    free: u32,
    /// `heads[level][slot]`: first node of that bucket's chain, or [`NIL`].
    /// Boxed so the engine stays small beside the heap engine inside
    /// `EngineQueue`.
    heads: Box<[[u32; SLOTS]; LEVELS]>,
    /// Per-level occupancy bitmaps: bit `slot` is set iff the chain at
    /// `heads[level][slot]` is non-empty.
    occupied: [u64; LEVELS],
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
    /// the level-1 rotation (4 096 granules), keeping every event due
    /// within one cycle on the two cheapest levels.
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
            nodes: Vec::new(),
            free: NIL,
            heads: Box::new([[NIL; SLOTS]; LEVELS]),
            occupied: [0; LEVELS],
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

    /// Pre-sizes the id ring and the node slab for `additional` more live
    /// events.
    pub fn reserve(&mut self, additional: usize) {
        self.ids.reserve(additional);
        self.nodes.reserve(additional);
    }

    /// Resets the wheel to time zero under a fresh id generation, keeping
    /// the slab's and staging's capacity (mirrors
    /// [`EventQueue::clear`](crate::EventQueue::clear)).
    pub fn clear(&mut self) {
        self.now = Instant::ZERO;
        self.cursor = 0;
        self.staging.clear();
        self.nodes.clear();
        self.free = NIL;
        *self.heads = [[NIL; SLOTS]; LEVELS];
        self.occupied = [0; LEVELS];
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

    /// Entries filed in bucket chains (the rest are staged or parked).
    fn filed(&self) -> usize {
        self.stored - self.staging.len() - self.overflow.len()
    }

    /// Granule index of an absolute time.
    #[inline]
    fn granule(&self, at_nanos: u64) -> u64 {
        at_nanos >> self.tick_shift
    }

    /// Where an event with packed `key` belongs at the current cursor.
    #[inline]
    fn home(&self, key: u128) -> Home {
        let i = self.granule(key_time(key).as_nanos());
        if i <= self.cursor {
            return Home::Staging;
        }
        // The lowest level whose rotation holds both `i` and the cursor is
        // the one containing the highest bit in which they differ.
        let level = ((63 - (i ^ self.cursor).leading_zeros()) / LEVEL_BITS) as usize;
        if level >= LEVELS {
            return Home::Overflow;
        }
        let slot = ((i >> (LEVEL_BITS * level as u32)) & 63) as usize;
        Home::Bucket { level, slot }
    }

    /// Inserts into `staging`, keeping the descending key order.
    fn stage(&mut self, key: u128, event: E) {
        let pos = self.staging.partition_point(|e| e.key > key);
        self.staging.insert(pos, WheelEntry { key, event });
    }

    /// Pushes node `n` onto the front of bucket `slot` of `level`.
    #[inline]
    fn link(&mut self, n: u32, level: usize, slot: usize) {
        self.nodes[n as usize].next = self.heads[level][slot];
        self.heads[level][slot] = n;
        self.occupied[level] |= 1u64 << slot;
    }

    /// Takes a node off the free list (or grows the slab) to hold `event`.
    fn alloc(&mut self, key: u128, event: E) -> u32 {
        if self.free == NIL {
            let n = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&n| n != NIL)
                .expect("the wheel's node slab holds fewer than 2^32 - 1 events");
            self.nodes.push(Node {
                key,
                next: NIL,
                event: Some(event),
            });
            return n;
        }
        let n = self.free;
        let node = &mut self.nodes[n as usize];
        self.free = node.next;
        node.key = key;
        node.event = Some(event);
        n
    }

    /// Returns node `n` to the free list, handing back its key and payload.
    fn release(&mut self, n: u32) -> (u128, Option<E>) {
        let node = &mut self.nodes[n as usize];
        node.next = self.free;
        self.free = n;
        (node.key, node.event.take())
    }

    /// Files a new entry where it belongs: a bucket chain, `staging`, or
    /// the overflow map.
    fn place(&mut self, key: u128, event: E) {
        match self.home(key) {
            Home::Staging => self.stage(key, event),
            Home::Bucket { level, slot } => {
                let n = self.alloc(key, event);
                self.link(n, level, slot);
            }
            Home::Overflow => {
                self.overflow.insert(key, event);
            }
        }
    }

    /// Re-files node `n` of an exploded bucket after the cursor moved to the
    /// bucket's start: a finer bucket keeps the node, or `staging` takes its
    /// payload and frees it.
    fn refile(&mut self, n: u32) {
        match self.home(self.nodes[n as usize].key) {
            Home::Bucket { level, slot } => self.link(n, level, slot),
            home => {
                // The bucket's events lie inside its span, which now starts
                // at the cursor: none of them can be beyond the wheel.
                debug_assert!(matches!(home, Home::Staging));
                if let (key, Some(event)) = self.release(n) {
                    self.stage(key, event);
                }
            }
        }
    }

    /// Allocates the next id and stores the entry; `at` is pre-validated.
    fn push_entry(&mut self, at: Instant, event: E) -> EventId {
        let id = EventId::from_parts(self.generation, self.next_seq);
        let key = pack_key(at, self.next_seq);
        self.ids.push_pending();
        self.next_seq += 1;
        self.stored += 1;
        self.place(key, event);
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
            let armed = self.occupied[0] & above_mask(pos);
            if armed != 0 {
                let slot = armed.trailing_zeros() as usize;
                let next = (self.cursor & !63) | slot as u64;
                if next > self.cursor + 1 {
                    self.fast_forward_jumps += 1;
                }
                self.cursor = next;
                self.occupied[0] &= !(1u64 << slot);
                let mut n = std::mem::replace(&mut self.heads[0][slot], NIL);
                while n != NIL {
                    let chained = self.nodes[n as usize].next;
                    if let (key, Some(event)) = self.release(n) {
                        self.staging.push(WheelEntry { key, event });
                    }
                    n = chained;
                }
                self.staging
                    .sort_unstable_by_key(|entry| std::cmp::Reverse(entry.key));
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
            let armed = self.occupied[l] & above_mask(pos);
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
            self.occupied[l] &= !(1u64 << slot);
            let mut n = std::mem::replace(&mut self.heads[l][slot], NIL);
            while n != NIL {
                let chained = self.nodes[n as usize].next;
                self.refile(n);
                n = chained;
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
            self.place(key, event);
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
        self.peek_key().map(|(at, _)| at)
    }

    /// Timestamp and sequence number of the earliest live event without
    /// popping it (see [`EventQueue::peek_key`](crate::EventQueue::peek_key)).
    #[must_use]
    pub fn peek_key(&mut self) -> Option<(Instant, u64)> {
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
            return Some((key_time(entry.key), seq));
        }
    }

    /// Visits every live event once, in storage order (staging, then the
    /// node slab, then the overflow map), without allocating or disturbing
    /// the wheel.
    ///
    /// The set of `(time, seq, event)` triples visited is the one
    /// [`EventQueue::for_each_live`](crate::EventQueue::for_each_live)
    /// visits for the same timeline; only the order differs, so consumers
    /// must be order-independent, as checkpoint state-hashing is.
    pub fn for_each_live<'a>(&'a self, mut f: impl FnMut(Instant, u64, &'a E)) {
        let mut visit = |key: u128, event: &'a E| {
            let seq = key_seq(key);
            if self.ids.state(seq) != IdState::Cancelled {
                f(key_time(key), seq, event);
            }
        };
        for entry in &self.staging {
            visit(entry.key, &entry.event);
        }
        // A linear pass over the slab, not a walk along the bucket chains:
        // free nodes carry no payload, and there are no dependent loads.
        for node in &self.nodes {
            if let Some(event) = &node.event {
                visit(node.key, event);
            }
        }
        for (&key, event) in &self.overflow {
            visit(key, event);
        }
    }

    /// Drops every cancelled entry from staging, bucket chains and
    /// overflow, consuming their ids. Invoked automatically by the
    /// compaction guard.
    pub fn compact(&mut self) {
        if self.ids.cancelled() == 0 {
            return;
        }
        let (ids, stored) = (&mut self.ids, &mut self.stored);
        self.staging
            .retain(|entry| !drain_cancelled(ids, stored, entry.key));
        self.overflow
            .retain(|&key, _| !drain_cancelled(ids, stored, key));
        // Rebuild every chain and the free list in one pass over the slab
        // (see § Placement and the cursor).
        *self.heads = [[NIL; SLOTS]; LEVELS];
        self.occupied = [0; LEVELS];
        self.free = NIL;
        for n in 0..self.nodes.len() as u32 {
            let node = &self.nodes[n as usize];
            let live =
                node.event.is_some() && !drain_cancelled(&mut self.ids, &mut self.stored, node.key);
            if live {
                self.refile(n);
            } else {
                self.release(n);
            }
        }
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
            occupied_buckets: self.occupied.iter().map(|bits| bits.count_ones()).sum(),
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
    ///
    /// Only filed nodes are copied: each bucket chain lands contiguously,
    /// in chain order, in a slab sized to fit, with an empty free list.
    fn clone(&self) -> Self {
        let mut nodes = Vec::with_capacity(self.filed());
        let mut heads = Box::new([[NIL; SLOTS]; LEVELS]);
        for (level, chains) in self.heads.iter().enumerate() {
            let mut armed = self.occupied[level];
            while armed != 0 {
                let slot = armed.trailing_zeros() as usize;
                armed &= armed - 1;
                // Slab indices stay below NIL (`alloc`), and the copy holds
                // no more nodes than the original.
                heads[level][slot] = nodes.len() as u32;
                let mut n = chains[slot];
                while n != NIL {
                    let node = &self.nodes[n as usize];
                    n = node.next;
                    let next = if n == NIL {
                        NIL
                    } else {
                        nodes.len() as u32 + 1
                    };
                    nodes.push(Node {
                        key: node.key,
                        next,
                        event: node.event.clone(),
                    });
                }
            }
        }
        WheelEngine {
            tick_shift: self.tick_shift,
            now: self.now,
            cursor: self.cursor,
            staging: self.staging.clone(),
            nodes,
            free: NIL,
            heads,
            occupied: self.occupied,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Entry;
    use crate::EventQueue;

    /// Small deterministic generator for interleaving decisions (SplitMix64).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// One randomized operation, applied to a wheel and a heap alike. The
    /// payload of each event is its own sequence number, so `live` — the
    /// ids still scheduled, at most `cap` of them — forgets popped ones.
    fn churn_step(
        rng: &mut Rng,
        wheel: &mut WheelEngine<u64>,
        heap: &mut EventQueue<u64>,
        live: &mut Vec<EventId>,
        cap: usize,
    ) {
        let roll = rng.next() % 100;
        if roll < 45 && live.len() < cap {
            // Gaps from one granule to far past the level-3 rotation.
            let gap = 1u64 << (rng.next() % 34);
            let at = heap.now() + Duration::from_nanos(gap + rng.next() % 97);
            let seq = wheel.next_seq;
            let id = wheel.schedule_at(at, seq).expect("future");
            assert_eq!(heap.schedule_at(at, seq), Ok(id));
            live.push(id);
        } else if roll < 65 && !live.is_empty() {
            let id = live.swap_remove((rng.next() as usize) % live.len());
            assert_eq!(wheel.cancel(id), heap.cancel(id));
        } else {
            let popped = wheel.pop();
            assert_eq!(popped, heap.pop());
            if let Some((_, seq)) = popped {
                live.retain(|id| id.seq() != seq);
            }
        }
    }

    #[test]
    fn slab_reuses_free_nodes_under_churn() {
        let mut rng = Rng(0x51ab);
        let mut wheel = WheelEngine::with_tick_shift(6);
        let mut heap = EventQueue::new();
        let mut live = Vec::new();
        let mut peak_filed = 0;
        for step in 0..50_000 {
            churn_step(&mut rng, &mut wheel, &mut heap, &mut live, 48);
            peak_filed = peak_filed.max(wheel.filed());
            // The slab grows only when every node is filed, so it never
            // outgrows the peak number of filed entries.
            assert!(
                wheel.nodes.len() <= peak_filed,
                "slab of {} nodes outgrew the filed peak {peak_filed} at step {step}",
                wheel.nodes.len()
            );
        }
        assert!(
            wheel.nodes.len() < 200,
            "a live set capped at 48 must recycle its nodes, slab holds {}",
            wheel.nodes.len()
        );
        assert!(wheel.stats().cascades > 0);
    }

    #[test]
    fn clone_after_churn_holds_exactly_the_filed_nodes() {
        let mut rng = Rng(0xc10e);
        let mut wheel = WheelEngine::with_tick_shift(5);
        let mut heap = EventQueue::new();
        let mut live = Vec::new();
        for _ in 0..20_000 {
            churn_step(&mut rng, &mut wheel, &mut heap, &mut live, 400);
        }
        // Grow the slab's free high-water, then drain part of it.
        for k in 0..1_000 {
            let at = heap.now() + Duration::from_nanos(1 + k * 4_999 % 5_000);
            let id = wheel.schedule_at(at, k).expect("future");
            assert_eq!(heap.schedule_at(at, k), Ok(id));
        }
        for _ in 0..900 {
            assert_eq!(wheel.pop(), heap.pop());
        }
        assert!(wheel.free != NIL, "the churn must leave free nodes behind");

        let mut copy = wheel.clone();
        assert_eq!(
            copy.nodes.len(),
            wheel.filed(),
            "clone copies filed nodes only"
        );
        assert!(copy.nodes.len() < wheel.nodes.len());
        assert_eq!(copy.free, NIL, "a clone carries no free list");
        assert!(copy.nodes.iter().all(|node| node.event.is_some()));
        assert_eq!(copy.stats(), wheel.stats());

        let mut streams = [Vec::new(), Vec::new(), Vec::new()];
        while let Some(popped) = wheel.pop() {
            streams[0].push(popped);
        }
        while let Some(popped) = copy.pop() {
            streams[1].push(popped);
        }
        while let Some(popped) = heap.pop() {
            streams[2].push(popped);
        }
        assert!(!streams[0].is_empty());
        assert_eq!(streams[1], streams[0], "clone diverged from the original");
        assert_eq!(streams[2], streams[0], "wheel diverged from the heap");
    }

    #[test]
    fn node_is_the_size_of_a_heap_entry() {
        // A 24-byte payload with a niche, like the hypervisor's tagged
        // event, so `Option` adds no byte to the node.
        type Event = (u64, u64, std::num::NonZeroU64);
        assert_eq!(std::mem::size_of::<Event>(), 24);
        assert_eq!(
            std::mem::size_of::<Node<Event>>(),
            std::mem::size_of::<Entry<Event>>()
        );
        assert_eq!(std::mem::size_of::<Node<Event>>(), 48);
    }
}
