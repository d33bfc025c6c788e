//! Property tests for the event queue: ordering and FIFO ties.

use proptest::prelude::*;

use rthv_sim::EventQueue;
use rthv_time::Instant;

proptest! {
    /// Events pop sorted by time, with FIFO order among equal timestamps.
    #[test]
    fn pops_sorted_with_fifo_ties(times in prop::collection::vec(0u64..100, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(Instant::from_nanos(t), i).expect("future");
        }
        let mut last: Option<(Instant, usize)> = None;
        while let Some((t, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt, "time went backwards");
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated among ties");
                }
            }
            last = Some((t, idx));
        }
    }
}
