//! Heap accounting for `peak_heap_mb`: the system allocator, plus counters
//! that run only on the thread [`peak_growth`] measures, only while it does.
//!
//! The process's peak resident set (`VmHWM`) moved by 2–10 % between
//! identical runs on the reference host — file pages mapped by fault-around,
//! allocator layout shifted by address randomisation, arena memory kept
//! from earlier units — so the memory metric counts the bytes the program
//! asks the allocator for instead, which repeat exactly for a given input.
//!
//! Every timed unit run counts. Against uncounted runs of the same units,
//! alternated batch by batch, counting cost 0.4 % of unit time on four
//! workloads and 2 % on `fault_campaign`, the most allocation-heavy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The benchmark binary's global allocator.
pub struct Counting;

/// Per-thread accounting; constant-initialised and free of destructors, so
/// the allocator can reach it at any point of a thread's life without
/// allocating.
struct Account {
    on: Cell<bool>,
    /// Bytes allocated minus bytes freed since counting started.
    growth: Cell<isize>,
    peak: Cell<isize>,
}

thread_local! {
    static ACCOUNT: Account = const {
        Account {
            on: Cell::new(false),
            growth: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

fn count(delta: isize) {
    let _ = ACCOUNT.try_with(|account| {
        if account.on.get() {
            let growth = account.growth.get().saturating_add(delta);
            account.growth.set(growth);
            account.peak.set(account.peak.get().max(growth));
        }
    });
}

fn size(bytes: usize) -> isize {
    isize::try_from(bytes).unwrap_or(isize::MAX)
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one `GlobalAlloc` states; the accounting only reads sizes
// and never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            count(size(layout.size()));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            count(size(layout.size()));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-size(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            count(size(new_size) - size(layout.size()));
        }
        new
    }
}

/// Runs `f` and returns its result with the most bytes this thread's heap
/// use grew by at any point during it. Memory freed during `f` that was
/// allocated before counts as negative growth.
pub fn peak_growth<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ACCOUNT.with(|account| {
        account.growth.set(0);
        account.peak.set(0);
        account.on.set(true);
    });
    let out = f();
    let peak = ACCOUNT.with(|account| {
        account.on.set(false);
        usize::try_from(account.peak.get()).unwrap_or(0)
    });
    (out, peak)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_counts_live_bytes_not_total_bytes() {
        let ((), sequential) = peak_growth(|| {
            for _ in 0..4 {
                std::hint::black_box(vec![1u8; 1 << 20]);
            }
        });
        assert_eq!(sequential, 1 << 20);
        let ((), held) = peak_growth(|| {
            let blocks: Vec<Vec<u8>> = (0..4).map(|_| vec![1u8; 1 << 20]).collect();
            std::hint::black_box(&blocks);
        });
        assert_eq!(held, (4 << 20) + 4 * std::mem::size_of::<Vec<u8>>());
    }

    #[test]
    fn returned_values_are_not_counted_as_freed() {
        let (block, peak) = peak_growth(|| vec![1u8; 1 << 16]);
        assert_eq!(peak, 1 << 16);
        assert_eq!(block.len(), 1 << 16);
    }
}
