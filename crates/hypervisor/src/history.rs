//! Append-only run history that snapshots share instead of copying.
//!
//! A machine's records (completions, admissions, window openings, service
//! intervals, hypervisor and window spans, the supervisor's event log) only
//! ever grow. [`History`] keeps the newest entries in a plain `Vec` tail,
//! so a run that never checkpoints pays one `Vec::push` per record.
//! [`History::freeze`] moves the entries recorded since the last freeze
//! into an immutable segment linked to the older ones, copying each entry
//! once; a clone then copies one pointer and an empty tail, so a snapshot
//! costs the same at the first slot boundary and at the last.

use std::sync::Arc;

/// An append-only sequence whose frozen prefix is shared between clones.
#[derive(Debug)]
pub(crate) struct History<T> {
    /// Frozen entries, newest segment first.
    frozen: Option<Arc<Segment<T>>>,
    /// Entries pushed since the last [`freeze`](History::freeze).
    tail: Vec<T>,
}

/// One frozen run of entries and the segments before it.
#[derive(Debug)]
struct Segment<T> {
    entries: Vec<T>,
    older: Option<Arc<Segment<T>>>,
    /// Entries in this segment and every older one.
    len: usize,
}

impl<T> Drop for Segment<T> {
    /// Unlinks the chain one segment at a time, so dropping a long history
    /// never recurses once per segment.
    fn drop(&mut self) {
        let mut older = self.older.take();
        while let Some(mut segment) = older.and_then(Arc::into_inner) {
            older = segment.older.take();
        }
    }
}

impl<T> Default for History<T> {
    fn default() -> Self {
        History {
            frozen: None,
            tail: Vec::new(),
        }
    }
}

impl<T: Clone> Clone for History<T> {
    fn clone(&self) -> Self {
        History {
            frozen: self.frozen.clone(),
            tail: self.tail.clone(),
        }
    }

    /// Reuses this history's tail buffer.
    fn clone_from(&mut self, source: &Self) {
        self.frozen.clone_from(&source.frozen);
        self.tail.clone_from(&source.tail);
    }
}

impl<T> History<T> {
    /// Appends one entry.
    #[inline]
    pub(crate) fn push(&mut self, entry: T) {
        self.tail.push(entry);
    }

    /// Makes room in the tail for `additional` more entries.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.tail.reserve(additional);
    }

    /// Entries recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.frozen_len() + self.tail.len()
    }

    /// Whether no entry was recorded yet.
    pub(crate) fn is_empty(&self) -> bool {
        self.frozen.is_none() && self.tail.is_empty()
    }

    fn frozen_len(&self) -> usize {
        self.frozen.as_ref().map_or(0, |segment| segment.len)
    }

    /// The most recent entry.
    pub(crate) fn last(&self) -> Option<&T> {
        // A segment is never empty, so the newest one holds the last
        // frozen entry.
        self.tail
            .last()
            .or_else(|| self.frozen.as_ref()?.entries.last())
    }

    /// Moves the tail's entries into a new frozen segment, so clones from
    /// here on share every entry recorded so far. The segment is allocated
    /// at exactly its length, so a checkpoint never pins a reservation or
    /// a doubling's slack. The tail keeps its buffer, and with it the room
    /// the run reserved, so recording on after a checkpoint does not
    /// allocate again. Shrinking the tail in place and giving the next
    /// tail a fresh buffer instead cost more page faults and time on the
    /// repo benchmark's `checkpoint_replay`.
    pub(crate) fn freeze(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let len = self.len();
        let mut entries = Vec::with_capacity(self.tail.len());
        entries.append(&mut self.tail);
        self.frozen = Some(Arc::new(Segment {
            entries,
            older: self.frozen.take(),
            len,
        }));
    }

    /// The frozen segments' entries, oldest first.
    fn segments(&self) -> Vec<&[T]> {
        let mut segments = Vec::new();
        let mut next = self.frozen.as_deref();
        while let Some(segment) = next {
            segments.push(segment.entries.as_slice());
            next = segment.older.as_deref();
        }
        segments.reverse();
        segments
    }

    /// Every entry from index `start` on, oldest first. The usual reader
    /// has already seen every frozen entry and walks the tail only.
    pub(crate) fn iter_from(&self, start: usize) -> impl Iterator<Item = &T> {
        let frozen = self.frozen_len();
        let (segments, tail_start) = if start < frozen {
            (self.segments(), 0)
        } else {
            (Vec::new(), start - frozen)
        };
        let tail = self.tail.get(tail_start..).unwrap_or_default();
        segments.into_iter().flatten().skip(start).chain(tail)
    }

    /// Whether both histories hold the same newest frozen segment.
    #[cfg(test)]
    pub(crate) fn shares_frozen(&self, other: &History<T>) -> bool {
        match (&self.frozen, &other.frozen) {
            (Some(mine), Some(theirs)) => Arc::ptr_eq(mine, theirs),
            _ => false,
        }
    }
}

impl<T: Clone> History<T> {
    /// Every entry, oldest first, in one `Vec`. A history that was never
    /// frozen hands over its tail; otherwise the segments are concatenated.
    pub(crate) fn into_vec(self) -> Vec<T> {
        if self.frozen.is_none() {
            return self.tail;
        }
        self.to_vec()
    }

    /// A copy of every entry, oldest first.
    pub(crate) fn to_vec(&self) -> Vec<T> {
        let mut entries = Vec::with_capacity(self.len());
        for segment in self.segments() {
            entries.extend_from_slice(segment);
        }
        entries.extend_from_slice(&self.tail);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(frozen_after: &[usize], len: usize) -> History<usize> {
        let mut history = History::default();
        for entry in 0..len {
            if frozen_after.contains(&entry) {
                history.freeze();
            }
            history.push(entry);
        }
        history
    }

    #[test]
    fn reads_the_same_however_it_was_frozen() {
        let plain = history(&[], 7);
        for cuts in [&[0][..], &[3], &[2, 5], &[1, 2, 3, 4, 5, 6]] {
            let mut frozen = history(cuts, 7);
            assert_eq!(frozen.len(), 7, "{cuts:?}");
            assert_eq!(frozen.last(), Some(&6), "{cuts:?}");
            for start in 0..=8 {
                assert!(
                    frozen.iter_from(start).eq(plain.iter_from(start)),
                    "{cuts:?} from {start}"
                );
            }
            assert_eq!(frozen.to_vec(), plain.to_vec(), "{cuts:?}");
            frozen.freeze();
            assert_eq!(frozen.last(), Some(&6), "{cuts:?} frozen");
            assert_eq!(frozen.clone().into_vec(), (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn clones_share_frozen_segments_and_grow_apart() {
        let mut history = history(&[], 4);
        history.freeze();
        let snapshot = history.clone();
        assert!(history.shares_frozen(&snapshot));
        history.push(4);
        assert_eq!(snapshot.to_vec(), [0, 1, 2, 3]);
        assert_eq!(history.to_vec(), [0, 1, 2, 3, 4]);
        let mut restored = history.clone();
        restored.clone_from(&snapshot);
        assert_eq!(restored.into_vec(), [0, 1, 2, 3]);
    }

    #[test]
    fn a_frozen_segment_holds_no_slack_and_the_tail_keeps_its_room() {
        let mut reserved = History::default();
        reserved.reserve(100);
        let mut doubled = History::default();
        for entry in 0..7 {
            reserved.push(entry);
            doubled.push(entry);
        }
        for mut history in [reserved, doubled] {
            let room = history.tail.capacity();
            assert!(room > history.tail.len());
            history.freeze();
            let segment = history.frozen.as_deref().expect("frozen");
            assert_eq!(segment.entries.capacity(), segment.entries.len());
            assert_eq!(history.tail.capacity(), room);
            assert_eq!(history.to_vec(), (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_long_chain_drops_without_deep_recursion() {
        let mut history = History::default();
        for entry in 0..200_000u32 {
            history.push(entry);
            history.freeze();
        }
        assert_eq!(history.len(), 200_000);
        drop(history);
    }
}
