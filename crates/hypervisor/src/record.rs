//! Measurement records: per-IRQ latencies, service accounting, counters.

use std::fmt;

use serde::{Deserialize, Serialize};

use rthv_time::{Duration, Instant};

use crate::{IrqSourceId, PartitionId};

/// How an IRQ's bottom handler ended up being executed.
///
/// This mirrors the three populations of the paper's Figure 6 histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HandlingClass {
    /// The IRQ arrived during its subscriber's own TDMA slot and was
    /// processed there ("direct IRQ handling").
    Direct,
    /// The bottom handler ran inside a foreign slot through the monitored
    /// interposition mechanism ("interposed IRQ handling").
    Interposed,
    /// The IRQ arrived in a foreign slot and waited for the subscriber's
    /// next slot ("delayed IRQ handling").
    Delayed,
}

impl fmt::Display for HandlingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandlingClass::Direct => write!(f, "direct"),
            HandlingClass::Interposed => write!(f, "interposed"),
            HandlingClass::Delayed => write!(f, "delayed"),
        }
    }
}

/// One completed IRQ: arrival (top-handler activation) to bottom-handler
/// completion. Shared (multi-subscriber) sources yield one completion per
/// subscriber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IrqCompletion {
    /// The interrupt source.
    pub source: IrqSourceId,
    /// Per-source sequence number of the arrival.
    pub seq: u64,
    /// The partition whose bottom handler completed.
    pub partition: PartitionId,
    /// Hardware IRQ time (top-handler activation).
    pub arrival: Instant,
    /// Completion time of the corresponding bottom handler.
    pub completed: Instant,
    /// How the bottom handler was executed.
    pub class: HandlingClass,
}

impl IrqCompletion {
    /// The measured IRQ latency (the paper's metric: top-handler activation
    /// to bottom-handler completion).
    #[must_use]
    pub fn latency(&self) -> Duration {
        self.completed.duration_since(self.arrival)
    }
}

/// What a recorded service interval was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceKind {
    /// Partition user-level code (the guest OS and its tasks).
    User,
    /// Bottom-handler (IRQ) processing on behalf of the partition.
    Bottom,
}

/// One contiguous span of partition-level execution, recorded when service
/// tracing is enabled ([`Machine::enable_service_trace`]).
///
/// [`Machine::enable_service_trace`]: crate::Machine::enable_service_trace
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceInterval {
    /// Start of the span.
    pub start: Instant,
    /// End of the span (exclusive).
    pub end: Instant,
    /// What ran.
    pub kind: ServiceKind,
}

impl ServiceInterval {
    /// Length of the span.
    #[must_use]
    pub fn length(&self) -> Duration {
        self.end.duration_since(self.start)
    }
}

/// A plain time span (used for hypervisor blocks and interposed windows in
/// the execution trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Start of the span.
    pub start: Instant,
    /// End of the span (exclusive).
    pub end: Instant,
}

impl Span {
    /// Length of the span.
    #[must_use]
    pub fn length(&self) -> Duration {
        self.end.duration_since(self.start)
    }

    /// `true` if `t` lies inside the span.
    #[must_use]
    pub fn contains(&self, t: Instant) -> bool {
        t >= self.start && t < self.end
    }
}

/// Per-partition processor-time accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionService {
    /// Time the partition's user-level code executed.
    pub user: Duration,
    /// Time the partition's bottom handlers executed (in any slot).
    pub bottom: Duration,
}

impl PartitionService {
    /// Total partition-level execution time.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.user + self.bottom
    }
}

/// Global machine counters.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counters {
    /// Partition context switches (slot switches plus the two extra switches
    /// of each interposition; an aborted interposition contributes one).
    pub context_switches: u64,
    /// Context switches caused only by the TDMA slot rotation.
    pub slot_switches: u64,
    /// Total time spent inside hypervisor primitives (top handlers, monitor,
    /// scheduler manipulation, context switches).
    pub hypervisor_time: Duration,
    /// Interposed execution windows opened.
    pub interposed_windows: u64,
    /// TDMA boundaries whose rotation was deferred behind an active
    /// interposed window (each deferral is bounded by the window budget,
    /// so it is covered by the Eq. 14 interference bound).
    pub deferred_boundaries: u64,
    /// Interposed windows terminated by a TDMA boundary — only under the
    /// ablation policy [`BoundaryPolicy::AbortWindow`].
    ///
    /// [`BoundaryPolicy::AbortWindow`]: crate::BoundaryPolicy::AbortWindow
    pub aborted_windows: u64,
    /// Interposed windows that expired before the bottom handler finished.
    pub expired_windows: u64,
    /// IRQs that arrived while the hypervisor had interrupts latched.
    pub latched_irqs: u64,
    /// IRQs lost to non-counting flag semantics (absorbed by an already
    /// pending request of the same source).
    pub coalesced_irqs: u64,
    /// IRQ events refused by a full bounded partition queue under
    /// [`OverflowPolicy::RejectNewest`](crate::OverflowPolicy::RejectNewest).
    pub overflow_rejected: u64,
    /// Queued IRQ events discarded to admit a newer one under
    /// [`OverflowPolicy::DropOldest`](crate::OverflowPolicy::DropOldest).
    pub overflow_dropped: u64,
    /// Monitor admissions (interpositions granted).
    pub monitor_admitted: u64,
    /// Monitor denials (IRQ fell back to delayed handling).
    pub monitor_denied: u64,
    /// Simulation events processed (arrivals, hypervisor block ends,
    /// segment ends, TDMA boundaries) — the denominator of the step loop's
    /// events-per-second throughput metric. An idle TDMA rotation the
    /// machine jumps without dispatching counts its two events
    /// (`Boundary` and the slot switch's end) all the same.
    pub events_processed: u64,
    /// Arrivals of quarantined sources handled slot-locally instead of
    /// being offered to the activation monitor (supervision only).
    pub supervised_demotions: u64,
    /// Interposed windows opened under a supervision-shrunk budget
    /// (Probation/Recovering degraded mode).
    pub shrunk_windows: u64,
    /// Supervision state-machine edges into `Quarantined`.
    pub quarantine_entries: u64,
    /// Full supervision recoveries (`Recovering → Healthy`).
    pub recoveries: u64,
    /// Per-partition service accounting.
    pub service: Vec<PartitionService>,
}

impl Counters {
    /// Creates counters for `partitions` partitions.
    #[must_use]
    pub fn new(partitions: usize) -> Self {
        Counters {
            service: vec![PartitionService::default(); partitions],
            ..Counters::default()
        }
    }

    /// Service record of one partition.
    ///
    /// # Panics
    ///
    /// Panics if the partition index is out of range.
    #[must_use]
    pub fn service_of(&self, partition: PartitionId) -> PartitionService {
        self.service[partition.index()]
    }
}

/// One admission-monitor decision, in decision order.
///
/// The stream of *admitted* `check_at` timestamps is exactly what the δ⁻
/// condition constrains (Eq. 6) — the fault-injection oracle replays it to
/// verify conformance post-hoc. Note this is deliberately distinct from
/// [`RunReport::window_openings`](crate::RunReport::window_openings): window
/// openings carry hypervisor-induced latching jitter, while the monitor is
/// checked on the [`AdmissionClock`](crate::AdmissionClock) timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionRecord {
    /// The monitored source.
    pub source: IrqSourceId,
    /// Per-source sequence number of the arrival.
    pub seq: u64,
    /// The timestamp the monitoring condition was evaluated on.
    pub check_at: Instant,
    /// Whether the monitor admitted the interposition.
    pub admitted: bool,
}

/// Collects [`IrqCompletion`] records during a simulation run and offers the
/// summaries the experiments print.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecorder {
    completions: Vec<IrqCompletion>,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        TraceRecorder::default()
    }

    /// Appends one completion record.
    pub fn record(&mut self, completion: IrqCompletion) {
        self.completions.push(completion);
    }

    /// All completions, in completion order.
    #[must_use]
    pub fn completions(&self) -> &[IrqCompletion] {
        &self.completions
    }

    /// Number of completions recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// `true` if nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// Mean latency over all completions, or `None` when empty.
    #[must_use]
    pub fn mean_latency(&self) -> Option<Duration> {
        if self.completions.is_empty() {
            return None;
        }
        let total: u128 = self
            .completions
            .iter()
            .map(|c| u128::from(c.latency().as_nanos()))
            .sum();
        let mean = total / self.completions.len() as u128;
        Some(Duration::from_nanos(
            u64::try_from(mean).unwrap_or(u64::MAX),
        ))
    }

    /// Maximum observed latency, or `None` when empty.
    #[must_use]
    pub fn max_latency(&self) -> Option<Duration> {
        self.completions.iter().map(IrqCompletion::latency).max()
    }

    /// Number of completions with the given handling class.
    #[must_use]
    pub fn count_class(&self, class: HandlingClass) -> usize {
        self.completions.iter().filter(|c| c.class == class).count()
    }

    /// Fraction (0..=1) of completions with the given handling class; 0 when
    /// empty.
    #[must_use]
    pub fn fraction_class(&self, class: HandlingClass) -> f64 {
        if self.completions.is_empty() {
            return 0.0;
        }
        self.count_class(class) as f64 / self.completions.len() as f64
    }
}

impl Extend<IrqCompletion> for TraceRecorder {
    fn extend<T: IntoIterator<Item = IrqCompletion>>(&mut self, iter: T) {
        self.completions.extend(iter);
    }
}

impl From<Vec<IrqCompletion>> for TraceRecorder {
    /// A recorder holding `completions`, in their order.
    fn from(completions: Vec<IrqCompletion>) -> Self {
        TraceRecorder { completions }
    }
}

impl FromIterator<IrqCompletion> for TraceRecorder {
    fn from_iter<T: IntoIterator<Item = IrqCompletion>>(iter: T) -> Self {
        TraceRecorder {
            completions: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn completion(arrival_us: u64, done_us: u64, class: HandlingClass) -> IrqCompletion {
        IrqCompletion {
            source: IrqSourceId::new(0),
            seq: 0,
            partition: PartitionId::new(0),
            arrival: Instant::from_micros(arrival_us),
            completed: Instant::from_micros(done_us),
            class,
        }
    }

    #[test]
    fn latency_is_completion_minus_arrival() {
        let c = completion(100, 137, HandlingClass::Direct);
        assert_eq!(c.latency(), Duration::from_micros(37));
    }

    #[test]
    fn mean_and_max_latency() {
        let recorder: TraceRecorder = [
            completion(0, 10, HandlingClass::Direct),
            completion(0, 30, HandlingClass::Delayed),
            completion(0, 20, HandlingClass::Interposed),
        ]
        .into_iter()
        .collect();
        assert_eq!(recorder.mean_latency(), Some(Duration::from_micros(20)));
        assert_eq!(recorder.max_latency(), Some(Duration::from_micros(30)));
    }

    #[test]
    fn empty_recorder_has_no_statistics() {
        let recorder = TraceRecorder::new();
        assert!(recorder.is_empty());
        assert_eq!(recorder.mean_latency(), None);
        assert_eq!(recorder.max_latency(), None);
        assert_eq!(recorder.fraction_class(HandlingClass::Direct), 0.0);
    }

    #[test]
    fn class_counting() {
        let mut recorder = TraceRecorder::new();
        recorder.extend([
            completion(0, 1, HandlingClass::Direct),
            completion(0, 2, HandlingClass::Direct),
            completion(0, 3, HandlingClass::Delayed),
            completion(0, 4, HandlingClass::Interposed),
        ]);
        assert_eq!(recorder.count_class(HandlingClass::Direct), 2);
        assert_eq!(recorder.count_class(HandlingClass::Delayed), 1);
        assert_eq!(recorder.fraction_class(HandlingClass::Direct), 0.5);
        assert_eq!(recorder.len(), 4);
    }

    #[test]
    fn counters_track_partitions() {
        let counters = Counters::new(3);
        assert_eq!(counters.service.len(), 3);
        assert_eq!(
            counters.service_of(PartitionId::new(2)),
            PartitionService::default()
        );
    }

    #[test]
    fn partition_service_total() {
        let service = PartitionService {
            user: Duration::from_micros(10),
            bottom: Duration::from_micros(5),
        };
        assert_eq!(service.total(), Duration::from_micros(15));
    }

    #[test]
    fn handling_class_display() {
        assert_eq!(HandlingClass::Direct.to_string(), "direct");
        assert_eq!(HandlingClass::Interposed.to_string(), "interposed");
        assert_eq!(HandlingClass::Delayed.to_string(), "delayed");
    }
}
