//! A machine sizes its records once, at its first step: stepping a load to
//! completion makes the same number of allocator calls whatever the length
//! of its trace. Before, each record grew by doubling, about one `realloc`
//! per doubling of each.
//!
//! This binary has its own global allocator, which counts the calls made
//! by one thread while a closure runs, so the test harness's other threads
//! cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rthv_hypervisor::{
    CostModel, HypervisorConfig, IrqHandlingMode, IrqSourceId, IrqSourceSpec, Machine, PartitionId,
    PartitionSpec,
};
use rthv_monitor::{DeltaFunction, ShaperConfig};
use rthv_time::{Duration, Instant};

struct Counting;

thread_local! {
    /// Allocator calls of this thread while counting, else `None`.
    static CALLS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = CALLS.try_with(|calls| calls.set(calls.get().map(|n| n + 1)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; counting touches no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocator calls this thread
/// made meanwhile.
fn allocator_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    CALLS.with(|calls| calls.set(Some(0)));
    let out = f();
    let calls = CALLS.with(|calls| calls.replace(None)).unwrap_or(0);
    (out, calls)
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// The paper's Section-6 setup in interposed mode: 6 ms + 6 ms app slots,
/// 2 ms housekeeping, one timer IRQ of partition 1 with C_BH = 30 µs,
/// monitored with `d_min`.
fn paper_machine(dmin: Duration) -> Machine {
    let mut source = IrqSourceSpec::new("timer", PartitionId::new(1), us(30));
    source.monitor = Some(ShaperConfig::Delta(
        DeltaFunction::from_dmin(dmin).expect("valid δ⁻"),
    ));
    Machine::new(HypervisorConfig {
        partitions: vec![
            PartitionSpec::new("app1", us(6_000)),
            PartitionSpec::new("app2", us(6_000)),
            PartitionSpec::new("housekeeping", us(2_000)),
        ],
        sources: vec![source],
        costs: CostModel::paper_arm926ejs(),
        mode: IrqHandlingMode::Interposed,
        policies: Default::default(),
        windows: None,
    })
    .expect("valid config")
}

/// `count` arrivals conforming to `dmin`: each gap is `dmin` plus a
/// pseudo-random share of it, as Fig. 6c clamps its exponential gaps.
fn conformant_trace(count: usize, dmin: Duration) -> Vec<Instant> {
    let mut state = 0x9E37_79B9_7F4A_7C15_u64;
    let mut at = Instant::ZERO;
    (0..count)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            at += dmin + Duration::from_nanos(state % dmin.as_nanos());
            at
        })
        .collect()
}

/// Steps a load of `count` arrivals to completion and returns the
/// allocator calls the stepping made.
fn stepping_calls(count: usize) -> u64 {
    let dmin = us(1_000);
    let mut machine = paper_machine(dmin);
    let trace = conformant_trace(count, dmin);
    machine
        .schedule_irq_trace(IrqSourceId::new(0), &trace)
        .expect("trace lies in the future");
    let deadline = *trace.last().expect("non-empty trace") + us(1_400_000);
    let (completed, calls) = allocator_calls(|| machine.run_until_complete(deadline));
    assert!(completed, "{count} arrivals did not complete");
    let report = machine.finish();
    assert_eq!(report.recorder.len(), count);
    // Arrivals in the subscriber's own slot run directly; the others are
    // checked, and these conform, so each opens a window.
    assert!(report.admissions.len() > count / 4);
    assert_eq!(report.window_openings.len(), report.admissions.len());
    calls
}

#[test]
fn stepping_allocates_the_same_for_any_trace_length() {
    let short = stepping_calls(500);
    let long = stepping_calls(5_000);
    assert_eq!(
        short, long,
        "500 arrivals made {short} allocator calls while stepping, 5000 made {long}"
    );
}
