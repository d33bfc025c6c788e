//! Time-ordered event queue with stable FIFO tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use rthv_time::Instant;

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

/// One heap entry. Its key packs the firing time and a dense sequence
/// number as `(time << 64) | seq`, so a single `u128` compare orders
/// exactly like `(time, seq)`: earliest time first, FIFO within a
/// timestamp. `Ord` is reversed because [`BinaryHeap`] is a max-heap.
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn at(&self) -> Instant {
        Instant::from_nanos((self.key >> 64) as u64)
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
        other.key.cmp(&self.key)
    }
}

/// A deterministic, time-ordered event queue.
///
/// See the [crate-level docs](crate) for the guarantees and a usage example.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: Instant,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time [`Instant::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Instant::ZERO,
        }
    }

    /// Grows the heap to hold `additional` more events without
    /// reallocating on the scheduling path.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The queue's current time: the timestamp of the last popped event (or
    /// [`Instant::ZERO`] before the first pop).
    #[must_use]
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedules `event` to fire at the absolute time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulePastError`] if `at` is strictly before
    /// [`now`](Self::now). Scheduling *at* the current time is permitted and
    /// fires after every already-queued event with the same timestamp.
    pub fn schedule_at(&mut self, at: Instant, event: E) -> Result<(), SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { now: self.now, at });
        }
        let key = (u128::from(at.as_nanos()) << 64) | u128::from(self.next_seq);
        self.heap.push(Entry { key, event });
        self.next_seq += 1;
        Ok(())
    }

    /// Pops the earliest event, advancing [`now`](Self::now) to its
    /// timestamp.
    ///
    /// Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at();
        Some((self.now, entry.event))
    }

    /// Pops the earliest event if it fires at or before `limit`. Otherwise
    /// pops nothing and leaves [`now`](Self::now) where it is.
    pub fn advance_to(&mut self, limit: Instant) -> Option<(Instant, E)> {
        match self.heap.peek() {
            Some(entry) if entry.at() <= limit => self.pop(),
            _ => None,
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
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
    fn advance_to_pops_only_up_to_the_limit() {
        let mut q = EventQueue::new();
        q.schedule_at(Instant::from_nanos(10), Ev::A)
            .expect("future");
        q.schedule_at(Instant::from_nanos(20), Ev::B)
            .expect("future");
        q.schedule_at(Instant::from_nanos(20), Ev::C)
            .expect("future");
        // Nothing is due before the first event: no pop, time stays put.
        assert_eq!(q.advance_to(Instant::from_nanos(9)), None);
        assert_eq!(q.now(), Instant::ZERO);
        // An event exactly at the limit is due.
        assert_eq!(
            q.advance_to(Instant::from_nanos(10)),
            Some((Instant::from_nanos(10), Ev::A))
        );
        assert_eq!(q.advance_to(Instant::from_nanos(19)), None);
        assert_eq!(q.now(), Instant::from_nanos(10));
        let limit = Instant::from_nanos(20);
        assert_eq!(q.advance_to(limit), Some((limit, Ev::B)));
        assert_eq!(q.advance_to(limit), Some((limit, Ev::C)));
        assert_eq!(q.advance_to(limit), None);
        assert_eq!(q.now(), limit);
    }
}
