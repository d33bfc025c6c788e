//! Wheel-engine unit suite: cascade boundaries, the far-future overflow
//! level, cancel-then-refire, the fast-forward proof obligation (no armed
//! event is ever skipped) and the cross-engine observation-equivalence the
//! rest of the workspace relies on.

use rthv_sim::{ElementHash, EngineKind, EngineQueue, EventQueue, Fnv1a, SetDigest, WheelEngine};
use rthv_time::{Duration, Instant};

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

/// A wheel with a 16 ns granule: level spans of 1 µs / 65.5 µs / 4.2 ms /
/// 268 ms, small enough that tests can cross every cascade boundary fast.
fn small_wheel() -> WheelEngine<u64> {
    WheelEngine::with_tick_shift(4)
}

#[test]
fn tick_hint_sizes_level_one_to_cover_the_hint() {
    // Paper TDMA cycle: 14 ms. Level-1 rotation = 4096 granules must cover
    // it, with the smallest power-of-two granule: 14e6 / 4096 = 3418 →
    // 4096 ns granule → 16.8 ms level-1 span.
    let wheel: WheelEngine<u64> = WheelEngine::with_tick_hint(Duration::from_micros(14_000));
    assert_eq!(wheel.tick_nanos(), 4096);
    assert!(4096 * wheel.tick_nanos() >= 14_000_000);
    assert!(4096 * (wheel.tick_nanos() / 2) < 14_000_000);
    // Degenerate hint falls back to the default granule.
    let tiny: WheelEngine<u64> = WheelEngine::with_tick_hint(Duration::ZERO);
    assert_eq!(tiny.tick_nanos(), 16, "clamped to the minimum shift");
}

#[test]
fn pops_across_every_cascade_boundary() {
    // One event per side of each level boundary: granule 63/64 (level 0→1),
    // 4095/4096 (level 1→2), 262_143/262_144 (level 2→3), and one far
    // beyond the level-3 rotation (overflow). Granule = 16 ns.
    let mut wheel = small_wheel();
    let granule = wheel.tick_nanos();
    let granules = [
        1u64, 63, 64, 65, 4095, 4096, 4097, 262_143, 262_144, 262_145, 16_777_215, 16_777_216,
        16_777_217, 50_000_000,
    ];
    let mut expect = Vec::new();
    for (i, &g) in granules.iter().enumerate() {
        // Offset inside the granule exercises sub-granule ordering too.
        let at = Instant::from_nanos(g * granule + (i as u64 % granule));
        wheel.schedule_at(at, i as u64).expect("future");
        expect.push((at, i as u64));
    }
    expect.sort();
    let mut got = Vec::new();
    while let Some((at, v)) = wheel.pop() {
        got.push((at, v));
    }
    assert_eq!(got, expect);
    assert!(wheel.is_empty());
    let stats = wheel.stats();
    assert!(
        stats.fast_forward_jumps > 0,
        "granule gaps this wide must fast-forward"
    );
    assert!(stats.cascades > 0, "crossing level boundaries must cascade");
}

#[test]
fn equal_times_pop_fifo_across_placement_paths() {
    // Same timestamp scheduled before and after a cursor advance: FIFO by
    // sequence number must hold even when one copy was staged directly and
    // the other travelled through a bucket.
    let mut wheel = small_wheel();
    let t = Instant::from_nanos(10_000);
    wheel.schedule_at(t, 0).expect("future");
    wheel
        .schedule_at(Instant::from_nanos(100), 99)
        .expect("future");
    assert_eq!(wheel.pop(), Some((Instant::from_nanos(100), 99)));
    // Cursor has moved; the same timestamp now lands in staging directly.
    wheel.schedule_at(t, 1).expect("future");
    wheel.schedule_at(t, 2).expect("future");
    assert_eq!(wheel.pop(), Some((t, 0)));
    assert_eq!(wheel.pop(), Some((t, 1)));
    assert_eq!(wheel.pop(), Some((t, 2)));
}

#[test]
fn far_future_overflow_level_holds_and_releases() {
    let mut wheel = small_wheel();
    // Far beyond the level-3 rotation: parks on the overflow level.
    let far = Instant::from_nanos(u64::MAX - 1);
    wheel.schedule_at(far, 1).expect("future");
    // The latest representable instant parks there too.
    wheel.schedule_at(Instant::MAX, 2).expect("future");
    assert_eq!(wheel.stats().overflow_len, 2);
    let near = Instant::from_nanos(500);
    wheel.schedule_at(near, 0).expect("future");
    assert_eq!(wheel.pop(), Some((near, 0)));
    // The overflow jump lands exactly on the earliest parked event.
    assert_eq!(wheel.pop(), Some((far, 1)));
    assert_eq!(wheel.pop(), Some((Instant::MAX, 2)));
    assert_eq!(wheel.pop(), None);
}

#[test]
fn cancel_then_refire_at_the_same_time() {
    let mut wheel = small_wheel();
    let t = Instant::from_nanos(5_000);
    let id = wheel.schedule_at(t, 7).expect("future");
    assert!(wheel.cancel(id));
    assert!(!wheel.cancel(id), "double cancel reports false");
    // Re-arm the same timestamp under a fresh id: only the refire pops.
    let id2 = wheel.schedule_at(t, 8).expect("future");
    assert_ne!(id, id2);
    assert_eq!(wheel.pop(), Some((t, 8)));
    assert_eq!(wheel.pop(), None);
    // The consumed refire id is no longer cancellable.
    assert!(!wheel.cancel(id2));
}

#[test]
fn fast_forward_never_skips_an_armed_event() {
    // Random schedule/pop/cancel interleaving with huge time gaps, checked
    // move-for-move against the reference heap engine. Any fast-forward
    // jump over an armed granule would pop out of order or drop an event.
    // At random cuts both engines are replaced by their clones, so the run
    // also continues from copies of a churned slab (free list, chains
    // re-linked by cascades, tombstones) that must stay equivalent.
    let mut rng = Rng(0x5eed_cafe);
    let mut wheel: WheelEngine<u64> = WheelEngine::with_tick_shift(6);
    let mut heap: EventQueue<u64> = EventQueue::new();
    let mut live_ids = Vec::new();
    let mut cuts = 0;
    for step in 0..20_000u64 {
        match rng.next() % 100 {
            // Mostly schedule: gaps spanning every level (1 ns .. ~1 s).
            0..=54 => {
                let gap = 1u64 << (rng.next() % 30);
                let at = heap.now() + Duration::from_nanos(gap + rng.next() % 17);
                let a = wheel.schedule_at(at, step).expect("future");
                let b = heap.schedule_at(at, step).expect("future");
                assert_eq!(a, b, "engines must mint identical ids");
                live_ids.push(a);
            }
            55..=69 => {
                if !live_ids.is_empty() {
                    let id = live_ids.swap_remove((rng.next() as usize) % live_ids.len());
                    assert_eq!(wheel.cancel(id), heap.cancel(id));
                }
            }
            70..=79 => {
                assert_eq!(wheel.peek_key(), heap.peek_key());
            }
            80..=98 => {
                assert_eq!(wheel.pop(), heap.pop(), "pop diverged at step {step}");
                assert_eq!(wheel.now(), heap.now());
            }
            _ => {
                let (wheel_copy, heap_copy) = (wheel.clone(), heap.clone());
                assert_eq!(wheel_copy.stats(), wheel.stats());
                assert_eq!(
                    digest(wheel_copy.now(), |f| wheel_copy.for_each_live(f)),
                    digest(heap_copy.now(), |f| heap_copy.for_each_live(f)),
                    "clones diverged at step {step}"
                );
                (wheel, heap) = (wheel_copy, heap_copy);
                cuts += 1;
            }
        }
        assert_eq!(wheel.len(), heap.len());
    }
    assert!(
        cuts > 100,
        "the run must continue from clones, cut {cuts} times"
    );
    // Drain both to the end: the full residual streams must agree.
    loop {
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
    assert!(
        wheel.stats().fast_forward_jumps > 0,
        "a workload with 2^30 ns gaps must exercise fast-forward"
    );
}

/// The `(time, seq, event)` triples a storage-order walk visits, sorted:
/// the canonical walk, in firing order.
fn collect_live(walk: impl FnOnce(&mut dyn FnMut(Instant, u64, &u32))) -> Vec<(Instant, u64, u32)> {
    let mut live = Vec::new();
    walk(&mut |at, seq, e| live.push((at, seq, *e)));
    live.sort_unstable();
    live
}

/// The engine-level slice of a machine's state hash: FNV-1a over `now`,
/// the live count and the order-independent [`SetDigest`] of every live
/// `(time, seq)` pair. Two engines holding the same timeline agree on it.
fn digest<E>(now: Instant, walk: impl FnOnce(&mut dyn FnMut(Instant, u64, &E))) -> u64 {
    let mut live = SetDigest::default();
    walk(&mut |at, seq, _| {
        let mut element = ElementHash::default();
        element.word(at.as_nanos());
        element.word(seq);
        live.insert(element);
    });
    let mut hash = Fnv1a::new();
    hash.word(now.as_nanos());
    hash.word(live.count());
    hash.word(live.sum());
    hash.finish()
}

#[test]
fn canonical_walk_and_state_hash_match_the_heap() {
    let mut wheel: WheelEngine<u32> = WheelEngine::with_tick_shift(8);
    let mut heap: EventQueue<u32> = EventQueue::new();
    let mut rng = Rng(42);
    let mut ids = Vec::new();
    for i in 0..500u32 {
        let at = Instant::from_nanos(rng.next() % 1_000_000_000);
        ids.push(wheel.schedule_at(at, i).expect("future"));
        heap.schedule_at(at, i).expect("future");
    }
    for (k, id) in ids.iter().enumerate() {
        if k % 3 == 0 {
            assert!(wheel.cancel(*id));
            assert!(heap.cancel(*id));
        }
    }
    // Advance both part-way so staging, buckets and overflow all hold data.
    for _ in 0..100 {
        assert_eq!(wheel.pop(), heap.pop());
    }
    for i in 0..5u32 {
        let at = Instant::from_nanos(10_000_000_000 + u64::from(i) * 1_000_000_000);
        wheel.schedule_at(at, 1_000 + i).expect("future");
        heap.schedule_at(at, 1_000 + i).expect("future");
    }
    assert!(
        wheel.stats().overflow_len > 0,
        "the walks must cover the overflow map"
    );
    // The storage-order walks visit the same live set, each in its own
    // order, and pop order agrees with the sorted walk.
    let wheel_walk = collect_live(|f| wheel.for_each_live(f));
    let heap_walk = collect_live(|f| heap.for_each_live(f));
    assert_eq!(wheel_walk, heap_walk, "canonical walks must be identical");
    let mut popped = Vec::new();
    let mut drained = heap.clone();
    while let Some((at, e)) = drained.pop() {
        popped.push((at, e));
    }
    assert!(
        heap_walk.iter().map(|&(at, _, e)| (at, e)).eq(popped),
        "storage-order walk misses or repeats an event"
    );
    assert_eq!(
        digest(wheel.now(), |f| wheel.for_each_live(f)),
        digest(heap.now(), |f| heap.for_each_live(f)),
        "engine-level digests must agree on the same timeline"
    );
}

#[test]
fn snapshot_restore_resumes_identically() {
    let mut wheel: WheelEngine<u64> = WheelEngine::with_tick_shift(5);
    let mut rng = Rng(7);
    for i in 0..300 {
        let at = Instant::from_nanos(rng.next() % 50_000_000);
        wheel.schedule_at(at, i).expect("future");
    }
    for _ in 0..50 {
        wheel.pop();
    }
    let snapshot = wheel.clone();
    let mut restored: WheelEngine<u64> = WheelEngine::with_tick_shift(5);
    restored.clone_from(&snapshot);
    loop {
        let (a, b) = (wheel.pop(), restored.pop());
        assert_eq!(a, b, "restored wheel diverged");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn clear_starts_a_fresh_generation() {
    let mut wheel = small_wheel();
    let stale = wheel
        .schedule_at(Instant::from_nanos(100), 1)
        .expect("future");
    wheel.clear();
    assert_eq!(wheel.now(), Instant::ZERO);
    assert!(wheel.is_empty());
    let fresh = wheel
        .schedule_at(Instant::from_nanos(100), 2)
        .expect("future");
    assert_ne!(stale, fresh, "stale id must not alias the fresh event");
    assert!(!wheel.cancel(stale), "stale cancel is a no-op");
    assert_eq!(wheel.pop(), Some((Instant::from_nanos(100), 2)));
}

#[test]
fn rejects_scheduling_in_the_past() {
    let mut wheel = small_wheel();
    wheel
        .schedule_at(Instant::from_nanos(1_000), 1)
        .expect("future");
    let _ = wheel.pop();
    let err = wheel
        .schedule_at(Instant::from_nanos(999), 2)
        .expect_err("the past is closed");
    assert_eq!(err.now, Instant::from_nanos(1_000));
    // Scheduling *at* now is permitted.
    assert!(wheel.schedule_at(Instant::from_nanos(1_000), 3).is_ok());
}

#[test]
fn schedule_before_advanced_cursor_still_pops_in_order() {
    // peek_time advances the wheel's cursor without advancing `now`; a
    // subsequent schedule *behind* the cursor (but at/after `now`) must
    // still pop first — the staging path guards exactly this.
    let mut wheel = small_wheel();
    wheel
        .schedule_at(Instant::from_nanos(1_000_000), 1)
        .expect("future");
    assert_eq!(wheel.peek_time(), Some(Instant::from_nanos(1_000_000)));
    wheel
        .schedule_at(Instant::from_nanos(500), 0)
        .expect("now is still zero");
    assert_eq!(wheel.pop(), Some((Instant::from_nanos(500), 0)));
    assert_eq!(wheel.pop(), Some((Instant::from_nanos(1_000_000), 1)));
}

#[test]
fn compaction_guard_bounds_tombstones_under_cancel_storm() {
    for kind in [EngineKind::Heap, EngineKind::Wheel] {
        let mut q: EngineQueue<u64> = EngineQueue::new(kind, Duration::from_micros(14_000));
        // A handful of long-lived survivors…
        for i in 0..4u64 {
            q.schedule_at(Instant::from_nanos((1 << 40) + i), i)
                .expect("future");
        }
        // …then a storm of schedule-and-cancel.
        for i in 0..10_000u64 {
            let id = q
                .schedule_at(Instant::from_nanos(1_000 + i), 100 + i)
                .expect("future");
            assert!(q.cancel(id));
            let stats = q.stats();
            assert!(
                stats.stale <= 2 * stats.live,
                "{kind}: tombstones ({}) exceeded 2x live ({})",
                stats.stale,
                stats.live
            );
        }
        let stats = q.stats();
        assert!(
            stats.compactions > 0,
            "{kind}: storm must trigger compaction"
        );
        assert!(stats.stale <= 2 * stats.live);
    }
}

#[test]
fn pop_side_guard_drains_overflow_tombstones_after_cancels_stop() {
    // Regression: the cancel-time guard alone never fires once cancels
    // stop, yet pops keep shrinking the live population while cancelled
    // entries parked beyond the wheel's top span (the overflow map) — or
    // below the heap top — are never visited. The 2×-live tombstone bound
    // must survive a cancel-burst-then-drain pattern too.
    for kind in [EngineKind::Heap, EngineKind::Wheel] {
        let mut q: EngineQueue<u64> = EngineQueue::new(kind, Duration::from_micros(1));
        // Many near events the drain phase will pop…
        let near = 300u64;
        for i in 0..near {
            q.schedule_at(Instant::from_nanos(1_000 + i), i)
                .expect("future");
        }
        // …plus far-future events beyond the wheel's top span, cancelled
        // while the live population is still large enough that no single
        // cancel trips the 2×-live cancel-time guard.
        for i in 0..100u64 {
            let id = q
                .schedule_at(Instant::from_nanos((1 << 45) + i), 1_000 + i)
                .expect("future");
            assert!(q.cancel(id));
        }
        assert!(
            q.stats().stale > 0,
            "{kind}: the burst must leave parked tombstones"
        );
        // Cancels are over; drain the near events. Without the pop-side
        // guard the stale count would stay at 100 while live drops toward
        // zero, violating the bound unboundedly.
        for _ in 0..near {
            assert!(q.pop().is_some());
            let stats = q.stats();
            // The guard runs before each pop, so right after one the debt
            // can sit at most one pop past the bound: 2·(live+1).
            assert!(
                stats.stale <= 2 * (stats.live + 1),
                "{kind}: parked tombstones ({}) exceeded 2x live ({}) mid-drain",
                stats.stale,
                stats.live
            );
        }
        let stats = q.stats();
        assert_eq!(stats.live, 0, "{kind}: drain must empty the queue");
        assert_eq!(
            stats.stale, 0,
            "{kind}: an emptied queue must carry no tombstone debt"
        );
        assert!(q.pop().is_none());
    }
}
