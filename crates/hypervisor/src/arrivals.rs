//! The machine's pending IRQ arrivals.
//!
//! The paper's arrival traces are generated before the run starts, so a
//! machine receives almost every arrival already in time order. Those
//! wait in one immutable, shared stream sorted by `(at, order)` and read
//! through a cursor. An arrival scheduled before the stream's tail (fault
//! work, multi-core deliveries, arrivals injected mid-run) waits in a
//! small side heap instead. A snapshot shares the stream and copies only
//! the cursor and the side heap (one taken before the first step first
//! makes the scheduled trace the stream), and the state hash reads the
//! stream's share of the pending set from a table of prefix digests
//! instead of walking it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use rthv_sim::{ElementHash, SetDigest};
use rthv_time::{Duration, Instant};

use crate::IrqSourceId;

/// One scheduled IRQ arrival.
///
/// The derived order compares `at`, then `order`: the fields are declared
/// in that sequence, and `order` is unique per arrival, so the fields
/// after it never decide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Arrival {
    pub(crate) at: Instant,
    /// Arrivals scheduled before this one since construction. It orders
    /// arrivals due at one instant, and an arrival due with a timer fires
    /// first iff its `order` is below the timer's arrival count.
    pub(crate) order: u64,
    pub(crate) source: IrqSourceId,
    /// Per-source sequence number.
    pub(crate) seq: u64,
    /// Bottom-handler work this arrival demands.
    pub(crate) work: Duration,
}

impl Arrival {
    /// The arrival's `(at, order)` key.
    pub(crate) fn key(&self) -> (Instant, u64) {
        (self.at, self.order)
    }

    /// The arrival's contribution to the pending-set digest. `order`
    /// stays out: it depends on the order in which the arrivals were
    /// scheduled, so the same pending arrivals hash equal however they
    /// were injected.
    fn element(&self) -> ElementHash {
        let mut element = ElementHash::default();
        element.word(self.at.as_nanos());
        element.word(self.source.index() as u64);
        element.word(self.seq);
        element.word(self.work.as_nanos());
        element
    }
}

/// A sorted run of arrivals, shared between a machine and its snapshots.
#[derive(Debug, Clone, Default)]
struct Stream {
    arrivals: Vec<Arrival>,
    /// `prefix[i]` digests `arrivals[..i]`. Built by the first state hash
    /// that reads it.
    prefix: OnceLock<Vec<SetDigest>>,
}

impl Stream {
    fn prefix(&self) -> &[SetDigest] {
        self.prefix.get_or_init(|| {
            let mut prefix = Vec::with_capacity(self.arrivals.len() + 1);
            fill_prefix(&mut prefix, &self.arrivals);
            prefix
        })
    }
}

/// Fills `prefix` with the digests of every prefix of `arrivals`.
fn fill_prefix(prefix: &mut Vec<SetDigest>, arrivals: &[Arrival]) {
    let mut digest = SetDigest::default();
    prefix.clear();
    prefix.push(digest);
    for arrival in arrivals {
        digest.insert(arrival.element());
        prefix.push(digest);
    }
}

/// The pending arrivals: the shared stream from its cursor on, the
/// arrivals appended after it, and the side heap.
#[derive(Debug, Clone, Default)]
pub(crate) struct PendingArrivals {
    /// Immutable once built; a snapshot shares it.
    stream: Arc<Stream>,
    /// Index of the stream's first arrival that has not fired.
    cursor: usize,
    /// Arrivals appended since the stream was built, all after its tail.
    /// They become the next stream when the current one runs out, so a
    /// trace scheduled before the run is shared from its first arrival on.
    fresh: Vec<Arrival>,
    side: BinaryHeap<Reverse<Arrival>>,
}

impl PendingArrivals {
    /// Adds an arrival. One due at or after the last arrival of the stream
    /// and the fresh run is appended to them, any other waits in the side
    /// heap.
    pub(crate) fn push(&mut self, arrival: Arrival) {
        let tail = self
            .fresh
            .last()
            .or_else(|| self.stream.arrivals[self.cursor..].last());
        if tail.is_some_and(|tail| arrival.at < tail.at) {
            self.side.push(Reverse(arrival));
        } else {
            self.fresh.push(arrival);
        }
    }

    /// Pre-sizes for `additional` more arrivals scheduled in time order.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.fresh.reserve(additional);
    }

    /// The earliest pending arrival by `(at, order)`.
    pub(crate) fn peek(&self) -> Option<&Arrival> {
        let head = self
            .stream
            .arrivals
            .get(self.cursor)
            .or_else(|| self.fresh.first());
        let side = self.side.peek().map(|Reverse(arrival)| arrival);
        match (head, side) {
            (Some(head), Some(side)) => Some(head.min(side)),
            (head, side) => head.or(side),
        }
    }

    /// Removes and returns the earliest pending arrival.
    pub(crate) fn pop(&mut self) -> Option<Arrival> {
        self.advance_stream();
        let head = self.stream.arrivals.get(self.cursor).copied();
        match (head, self.side.peek()) {
            (Some(head), Some(Reverse(side))) if side < &head => {
                self.side.pop().map(|Reverse(arrival)| arrival)
            }
            (Some(head), _) => {
                self.cursor += 1;
                Some(head)
            }
            (None, _) => self.side.pop().map(|Reverse(arrival)| arrival),
        }
    }

    /// Makes the fresh arrivals the stream once the current one has run
    /// out, so that clones share them. [`pop`](Self::pop) does this before
    /// it reads the stream; a snapshot does it for a machine that has not
    /// stepped yet, whose whole trace is still fresh.
    pub(crate) fn advance_stream(&mut self) {
        if self.cursor == self.stream.arrivals.len() && !self.fresh.is_empty() {
            self.start_next_stream();
        }
    }

    /// Makes the fresh arrivals the stream, dropping what is left of the
    /// current one. An unshared stream trades buffers with the fresh run;
    /// a shared one stays with the snapshots that hold it.
    ///
    /// Cold and out of line: it runs once per stream, and inlined into
    /// [`advance_stream`](Self::advance_stream) it makes that check too
    /// large to inline into [`pop`](Self::pop), which then pays a call on
    /// every arrival.
    #[cold]
    fn start_next_stream(&mut self) {
        match Arc::get_mut(&mut self.stream) {
            Some(stream) => {
                stream.arrivals.clear();
                std::mem::swap(&mut stream.arrivals, &mut self.fresh);
                if let Some(prefix) = stream.prefix.get_mut() {
                    fill_prefix(prefix, &stream.arrivals);
                }
            }
            None => {
                self.stream = Arc::new(Stream {
                    arrivals: std::mem::take(&mut self.fresh),
                    prefix: OnceLock::new(),
                });
            }
        }
        self.cursor = 0;
    }

    /// Whether both hold every pending arrival outside the side heap in
    /// one shared stream.
    #[cfg(test)]
    pub(crate) fn shares_stream_with(&self, other: &PendingArrivals) -> bool {
        Arc::ptr_eq(&self.stream, &other.stream) && self.fresh.is_empty() && other.fresh.is_empty()
    }

    /// Order-independent digest of the pending arrivals: equal for the
    /// same arrivals wherever they wait. The stream's share comes from its
    /// prefix table, so this costs one step per arrival outside the
    /// stream.
    pub(crate) fn digest(&self) -> SetDigest {
        let prefix = self.stream.prefix();
        let mut digest = prefix[prefix.len() - 1];
        digest.remove_all(prefix[self.cursor]);
        let side = self.side.iter().map(|Reverse(arrival)| arrival);
        for arrival in self.fresh.iter().chain(side) {
            digest.insert(arrival.element());
        }
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrival(at_us: u64, order: u64) -> Arrival {
        Arrival {
            at: Instant::from_micros(at_us),
            order,
            source: IrqSourceId::new(0),
            seq: order,
            work: Duration::from_micros(30),
        }
    }

    fn drain(pending: &mut PendingArrivals) -> Vec<(Instant, u64)> {
        std::iter::from_fn(|| pending.pop().map(|a| a.key())).collect()
    }

    #[test]
    fn pops_by_instant_then_order_across_stream_and_side_heap() {
        let mut pending = PendingArrivals::default();
        let mut expected = Vec::new();
        for (order, at) in (0..).zip([10, 30, 20, 30, 5, 40, 20]) {
            pending.push(arrival(at, order));
            expected.push((Instant::from_micros(at), order));
        }
        assert!(!pending.side.is_empty());
        expected.sort_unstable();
        assert_eq!(drain(&mut pending), expected);
        assert!(pending.peek().is_none());
    }

    #[test]
    fn digest_ignores_where_an_arrival_waits() {
        let times = [10, 20, 30, 40];
        let mut stream = PendingArrivals::default();
        let mut side = PendingArrivals::default();
        for (order, &at) in times.iter().enumerate() {
            stream.push(arrival(at, order as u64));
        }
        // Reversed, every arrival but the first lands in the side heap.
        for (order, &at) in times.iter().enumerate().rev() {
            side.push(arrival(at, order as u64));
        }
        assert_eq!(side.side.len(), 3);
        for _ in 0..times.len() {
            assert_eq!(stream.digest(), side.digest());
            assert_eq!(stream.pop(), side.pop());
        }
        assert_eq!(stream.digest(), SetDigest::default());
    }

    #[test]
    fn snapshots_share_the_stream_and_keep_it_when_the_run_moves_on() {
        let mut pending = PendingArrivals::default();
        for order in 0..4 {
            pending.push(arrival(10 * (order + 1), order));
        }
        pending.pop();
        let digest = pending.digest();
        let snapshot = pending.clone();
        assert!(Arc::ptr_eq(&pending.stream, &snapshot.stream));

        // An append waits beside the stream; the stream stays shared.
        pending.push(arrival(50, 4));
        assert!(Arc::ptr_eq(&pending.stream, &snapshot.stream));
        let mut expected = drain(&mut snapshot.clone());
        expected.push((Instant::from_micros(50), 4));
        assert_eq!(drain(&mut pending), expected);
        assert!(!Arc::ptr_eq(&pending.stream, &snapshot.stream));
        assert_eq!(snapshot.digest(), digest);
        assert_eq!(drain(&mut snapshot.clone()).len(), 3);
    }

    #[test]
    fn advancing_before_the_first_pop_shares_the_scheduled_trace() {
        let mut pending = PendingArrivals::default();
        for order in 0..4 {
            pending.push(arrival(10 * (order + 1), order));
        }
        let digest = pending.digest();
        pending.advance_stream();
        assert!(pending.fresh.is_empty());
        assert_eq!(pending.stream.arrivals.len(), 4);
        assert_eq!(pending.digest(), digest);
        let snapshot = pending.clone();
        assert!(pending.shares_stream_with(&snapshot));
        assert_eq!(drain(&mut pending), drain(&mut snapshot.clone()));
    }
}
