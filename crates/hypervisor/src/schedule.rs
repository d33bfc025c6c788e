//! The static TDMA schedule: slot boundaries and slot ownership.

use std::fmt;

use rthv_time::{Duration, Instant};

use crate::{PartitionId, PartitionSpec};

/// The static TDMA schedule derived from the partition list.
///
/// Slots repeat in configuration order with cycle length
/// `T_TDMA = Σ T_i`, starting at [`Instant::ZERO`]. Boundary `k` is the
/// *start* of the `k`-th slot (boundary 0 is the simulation start).
///
/// # Examples
///
/// ```
/// use rthv_hypervisor::{PartitionSpec, TdmaSchedule};
/// use rthv_time::{Duration, Instant};
///
/// let schedule = TdmaSchedule::new(&[
///     PartitionSpec::new("app1", Duration::from_micros(6_000)),
///     PartitionSpec::new("app2", Duration::from_micros(6_000)),
///     PartitionSpec::new("hk", Duration::from_micros(2_000)),
/// ]);
/// assert_eq!(schedule.cycle(), Duration::from_millis(14));
/// // 20 ms into the run we are in the second cycle's app2 slot:
/// let owner = schedule.owner_at(Instant::from_micros(20_000));
/// assert_eq!(owner.index(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdmaSchedule {
    /// Slot lengths in slot order.
    slots: Vec<Duration>,
    /// Owning partition of each slot.
    owners: Vec<PartitionId>,
    /// Start offset of each slot within the cycle (`starts[0] == 0`).
    starts: Vec<Duration>,
    cycle: Duration,
}

impl TdmaSchedule {
    /// Builds the classic one-slot-per-partition schedule from the
    /// partition list (slot `i` is owned by partition `i`).
    ///
    /// # Panics
    ///
    /// Panics if `partitions` is empty or any slot is zero-length — the
    /// [`HypervisorConfig::validate`](crate::HypervisorConfig::validate)
    /// step rejects such configurations first.
    #[must_use]
    pub fn new(partitions: &[PartitionSpec]) -> Self {
        let windows: Vec<(PartitionId, Duration)> = partitions
            .iter()
            .enumerate()
            .map(|(i, p)| (PartitionId::new(i as u32), p.slot))
            .collect();
        TdmaSchedule::from_windows(&windows)
    }

    /// Builds an ARINC653-style schedule with an explicit slot order — a
    /// partition may own several windows per major frame.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or any window is zero-length — the
    /// configuration validation rejects such layouts first.
    ///
    /// # Examples
    ///
    /// ```
    /// use rthv_hypervisor::{PartitionId, TdmaSchedule};
    /// use rthv_time::{Duration, Instant};
    ///
    /// // Partition 0 gets two 3 ms windows spread over the 14 ms frame.
    /// let p = PartitionId::new;
    /// let ms = Duration::from_millis;
    /// let schedule = TdmaSchedule::from_windows(&[
    ///     (p(0), ms(3)),
    ///     (p(1), ms(6)),
    ///     (p(0), ms(3)),
    ///     (p(2), ms(2)),
    /// ]);
    /// assert_eq!(schedule.cycle(), ms(14));
    /// assert_eq!(schedule.owner_at(Instant::ZERO + ms(10)), p(0));
    /// ```
    #[must_use]
    pub fn from_windows(windows: &[(PartitionId, Duration)]) -> Self {
        assert!(!windows.is_empty(), "TDMA schedule needs partitions");
        let mut starts = Vec::with_capacity(windows.len());
        let mut offset = Duration::ZERO;
        for &(_, length) in windows {
            assert!(!length.is_zero(), "TDMA slots must be non-zero");
            starts.push(offset);
            offset += length;
        }
        TdmaSchedule {
            slots: windows.iter().map(|&(_, length)| length).collect(),
            owners: windows.iter().map(|&(owner, _)| owner).collect(),
            starts,
            cycle: offset,
        }
    }

    /// The TDMA cycle length `T_TDMA`.
    #[must_use]
    pub fn cycle(&self) -> Duration {
        self.cycle
    }

    /// Number of slots per cycle.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total per-cycle processor share `T_i` of a partition (the sum of its
    /// windows).
    #[must_use]
    pub fn slot_length(&self, partition: PartitionId) -> Duration {
        self.owners
            .iter()
            .zip(&self.slots)
            .filter(|&(&owner, _)| owner == partition)
            .map(|(_, &length)| length)
            .sum()
    }

    /// The windows of one partition within the cycle, as `(offset, length)`
    /// pairs.
    #[must_use]
    pub fn windows_of(&self, partition: PartitionId) -> Vec<(Duration, Duration)> {
        self.owners
            .iter()
            .zip(self.starts.iter().zip(&self.slots))
            .filter(|&(&owner, _)| owner == partition)
            .map(|(_, (&start, &length))| (start, length))
            .collect()
    }

    /// Owner and length of the slot at `position` within the cycle
    /// (`position < slot_count()`): slot `k` sits at position
    /// `k % slot_count()`, so `boundary_time(k + 1)` is `boundary_time(k)`
    /// plus this length.
    pub(crate) fn slot_at(&self, position: usize) -> (PartitionId, Duration) {
        (self.owners[position], self.slots[position])
    }

    /// Partition owning the `k`-th slot (k counts from simulation start).
    #[must_use]
    pub fn owner_of_slot(&self, k: u64) -> PartitionId {
        self.owners[(k % self.slots.len() as u64) as usize]
    }

    /// Absolute start time of the `k`-th slot.
    #[must_use]
    pub fn boundary_time(&self, k: u64) -> Instant {
        let n = self.slots.len() as u64;
        let cycles = k / n;
        let within = self.starts[(k % n) as usize];
        Instant::ZERO + self.cycle * cycles + within
    }

    /// Partition whose slot contains instant `t`.
    #[must_use]
    pub fn owner_at(&self, t: Instant) -> PartitionId {
        let offset = t.cycle_offset(self.cycle);
        // Find the last slot start ≤ offset.
        let idx = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        self.owners[idx]
    }

    /// Index `k` of the slot containing instant `t`.
    #[must_use]
    pub fn slot_index_at(&self, t: Instant) -> u64 {
        let n = self.slots.len() as u64;
        let cycles = t.as_nanos() / self.cycle.as_nanos();
        let offset = t.cycle_offset(self.cycle);
        let idx = match self.starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        cycles * n + idx as u64
    }

    /// `true` if instant `t` falls inside a slot owned by `partition`.
    #[must_use]
    pub fn in_own_slot(&self, partition: PartitionId, t: Instant) -> bool {
        self.owner_at(t) == partition
    }
}

impl fmt::Display for TdmaSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TDMA[")?;
        for (i, slot) in self.slots.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "P{i}:{slot}")?;
        }
        write!(f, "] cycle {}", self.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_schedule() -> TdmaSchedule {
        TdmaSchedule::new(&[
            PartitionSpec::new("app1", Duration::from_micros(6_000)),
            PartitionSpec::new("app2", Duration::from_micros(6_000)),
            PartitionSpec::new("hk", Duration::from_micros(2_000)),
        ])
    }

    #[test]
    fn cycle_and_lengths() {
        let s = paper_schedule();
        assert_eq!(s.cycle(), Duration::from_millis(14));
        assert_eq!(s.slot_count(), 3);
        assert_eq!(
            s.slot_length(PartitionId::new(2)),
            Duration::from_micros(2_000)
        );
    }

    #[test]
    fn boundaries_are_periodic() {
        let s = paper_schedule();
        assert_eq!(s.boundary_time(0), Instant::ZERO);
        assert_eq!(s.boundary_time(1), Instant::from_micros(6_000));
        assert_eq!(s.boundary_time(2), Instant::from_micros(12_000));
        assert_eq!(s.boundary_time(3), Instant::from_micros(14_000));
        assert_eq!(s.boundary_time(4), Instant::from_micros(20_000));
        assert_eq!(s.boundary_time(6), Instant::from_micros(28_000));
    }

    #[test]
    fn owners_cycle_in_order() {
        let s = paper_schedule();
        for k in 0..9u64 {
            assert_eq!(s.owner_of_slot(k).index(), (k % 3) as usize);
        }
    }

    #[test]
    fn owner_at_matches_boundaries() {
        let s = paper_schedule();
        assert_eq!(s.owner_at(Instant::ZERO).index(), 0);
        assert_eq!(s.owner_at(Instant::from_micros(5_999)).index(), 0);
        assert_eq!(s.owner_at(Instant::from_micros(6_000)).index(), 1);
        assert_eq!(s.owner_at(Instant::from_micros(11_999)).index(), 1);
        assert_eq!(s.owner_at(Instant::from_micros(12_000)).index(), 2);
        assert_eq!(s.owner_at(Instant::from_micros(13_999)).index(), 2);
        assert_eq!(s.owner_at(Instant::from_micros(14_000)).index(), 0);
    }

    #[test]
    fn slot_index_at_is_consistent_with_boundary_time() {
        let s = paper_schedule();
        for k in 0..20u64 {
            let t = s.boundary_time(k);
            assert_eq!(s.slot_index_at(t), k, "at boundary {k}");
            // One nanosecond before the next boundary is still slot k.
            let just_before = s.boundary_time(k + 1) - Duration::from_nanos(1);
            assert_eq!(
                s.slot_index_at(just_before),
                k,
                "just before boundary {}",
                k + 1
            );
        }
    }

    #[test]
    fn in_own_slot_checks_ownership() {
        let s = paper_schedule();
        let p1 = PartitionId::new(1);
        assert!(!s.in_own_slot(p1, Instant::from_micros(100)));
        assert!(s.in_own_slot(p1, Instant::from_micros(6_100)));
    }

    #[test]
    fn display_summarizes_layout() {
        let text = paper_schedule().to_string();
        assert!(text.contains("P0:6ms"));
        assert!(text.contains("cycle 14ms"));
    }

    #[test]
    #[should_panic(expected = "needs partitions")]
    fn empty_schedule_panics() {
        let _ = TdmaSchedule::new(&[]);
    }

    #[test]
    fn single_partition_owns_everything() {
        let s = TdmaSchedule::new(&[PartitionSpec::new("solo", Duration::from_micros(5))]);
        for us in 0..20u64 {
            assert_eq!(s.owner_at(Instant::from_micros(us)).index(), 0);
        }
        assert_eq!(s.boundary_time(7), Instant::from_micros(35));
    }
}
