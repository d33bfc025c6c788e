//! The flight recorder: a fixed-capacity ring of structured events.

use std::fmt::Write as _;

use rthv_time::{Duration, Instant};

/// One structured observability event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsEvent {
    /// Virtual time the event was recorded at.
    pub at: Instant,
    /// What happened.
    pub kind: ObsEventKind,
}

/// The event vocabulary of the flight recorder — one variant per decision
/// point the hypervisor exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEventKind {
    /// An IRQ was raised by a source.
    IrqRaised {
        /// Raising source index.
        source: usize,
    },
    /// An IRQ was latched during a hypervisor block and deferred.
    IrqDeferred {
        /// Deferred source index.
        source: usize,
    },
    /// The activation monitor admitted an interposed bottom handler.
    IrqAdmitted {
        /// Admitted source index.
        source: usize,
    },
    /// The activation monitor denied an interposed bottom handler.
    IrqDenied {
        /// Denied source index.
        source: usize,
        /// Index of the δ⁻ entry that was violated (0 = `d_min`), when the
        /// shaper reports one; `u64::MAX` for shapers without distances
        /// (token bucket).
        violated_distance: u64,
    },
    /// A bottom handler completed; `latency` is completion − arrival.
    IrqCompleted {
        /// Completed source index.
        source: usize,
        /// Arrival-to-completion latency.
        latency: Duration,
    },
    /// A window budget expired and clipped execution.
    BudgetClip {
        /// Partition whose window was clipped.
        partition: usize,
    },
    /// A bounded queue rejected or dropped an event.
    QueueOverflow {
        /// Overflowing source index.
        source: usize,
    },
    /// An admission-fleet ingress shed an arrival before the δ⁻ check —
    /// a typed degradation outcome (queue full, shard stalled past the
    /// retry budget, ladder demotion or in-flight loss to a shard crash),
    /// never a silent drop.
    Shed {
        /// Shedding shard (fleet hubs index sources by shard).
        source: usize,
    },
    /// A supervision health transition (quarantine, probation, recovery).
    Health {
        /// Source whose health changed.
        source: usize,
        /// Previous state slug.
        from: &'static str,
        /// New state slug.
        to: &'static str,
    },
    /// A TDMA slot boundary was crossed.
    SlotBoundary {
        /// Index of the slot being entered.
        slot: usize,
    },
}

impl ObsEventKind {
    /// Stable snake_case slug used in JSON snapshots.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            ObsEventKind::IrqRaised { .. } => "irq_raised",
            ObsEventKind::IrqDeferred { .. } => "irq_deferred",
            ObsEventKind::IrqAdmitted { .. } => "irq_admitted",
            ObsEventKind::IrqDenied { .. } => "irq_denied",
            ObsEventKind::IrqCompleted { .. } => "irq_completed",
            ObsEventKind::BudgetClip { .. } => "budget_clip",
            ObsEventKind::QueueOverflow { .. } => "queue_overflow",
            ObsEventKind::Shed { .. } => "shed",
            ObsEventKind::Health { .. } => "health",
            ObsEventKind::SlotBoundary { .. } => "slot_boundary",
        }
    }
}

/// A fixed-capacity overwrite-oldest ring of [`ObsEvent`]s.
///
/// The backing store is allocated once at construction; recording never
/// allocates, so the recorder is safe to call from the simulation hot path.
/// When full, the oldest event is overwritten and counted in
/// [`dropped`](Self::dropped) — a flight recorder keeps the *latest*
/// history, which is what post-mortem debugging wants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightRecorder {
    events: Vec<ObsEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    /// Events overwritten after the ring filled.
    dropped: u64,
    /// Total events ever recorded.
    recorded: u64,
}

impl FlightRecorder {
    /// Creates a recorder holding at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            events: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            dropped: 0,
            recorded: 0,
        }
    }

    /// Records one event, overwriting the oldest when full.
    #[inline]
    pub fn record(&mut self, at: Instant, kind: ObsEventKind) {
        let event = ObsEvent { at, kind };
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.head] = event;
            // Branch instead of `% capacity`: an integer division on every
            // wrapped write is the single costliest instruction in the
            // steady-state hot path.
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
        self.recorded += 1;
    }

    /// Maximum number of retained events.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events overwritten since construction (0 while within capacity).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded, including overwritten ones.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Iterates the retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &ObsEvent> {
        self.events[self.head..]
            .iter()
            .chain(self.events[..self.head].iter())
    }

    /// Appends the recorder as a JSON object to `out` under `indent`
    /// spaces. Integer fields only; byte-identical for equal recorders.
    pub(crate) fn write_json(&self, out: &mut String, pad: &str) {
        let _ = writeln!(out, "{pad}\"recorder\": {{");
        let _ = writeln!(out, "{pad}  \"capacity\": {},", self.capacity);
        let _ = writeln!(out, "{pad}  \"recorded\": {},", self.recorded);
        let _ = writeln!(out, "{pad}  \"dropped\": {},", self.dropped);
        if self.events.is_empty() {
            let _ = writeln!(out, "{pad}  \"events\": []");
        } else {
            let _ = writeln!(out, "{pad}  \"events\": [");
            let len = self.len();
            for (i, event) in self.iter().enumerate() {
                let comma = if i + 1 < len { "," } else { "" };
                let _ = write!(
                    out,
                    "{pad}    {{\"at_ns\": {}, \"kind\": \"{}\"",
                    event.at.as_nanos(),
                    event.kind.slug()
                );
                match event.kind {
                    ObsEventKind::IrqRaised { source }
                    | ObsEventKind::IrqDeferred { source }
                    | ObsEventKind::IrqAdmitted { source }
                    | ObsEventKind::QueueOverflow { source }
                    | ObsEventKind::Shed { source } => {
                        let _ = write!(out, ", \"source\": {source}");
                    }
                    ObsEventKind::IrqDenied {
                        source,
                        violated_distance,
                    } => {
                        let _ = write!(
                            out,
                            ", \"source\": {source}, \"violated_distance\": {violated_distance}"
                        );
                    }
                    ObsEventKind::IrqCompleted { source, latency } => {
                        let _ = write!(
                            out,
                            ", \"source\": {source}, \"latency_ns\": {}",
                            latency.as_nanos()
                        );
                    }
                    ObsEventKind::BudgetClip { partition } => {
                        let _ = write!(out, ", \"partition\": {partition}");
                    }
                    ObsEventKind::Health { source, from, to } => {
                        let _ = write!(
                            out,
                            ", \"source\": {source}, \"from\": \"{from}\", \"to\": \"{to}\""
                        );
                    }
                    ObsEventKind::SlotBoundary { slot } => {
                        let _ = write!(out, ", \"slot\": {slot}");
                    }
                }
                let _ = writeln!(out, "}}{comma}");
            }
            let _ = writeln!(out, "{pad}  ]");
        }
        let _ = writeln!(out, "{pad}}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ns: u64) -> Instant {
        Instant::from_nanos(ns)
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = FlightRecorder::new(3);
        for i in 0..5u64 {
            ring.record(at(i), ObsEventKind::SlotBoundary { slot: i as usize });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 5);
        let times: Vec<u64> = ring.iter().map(|e| e.at.as_nanos()).collect();
        assert_eq!(times, vec![2, 3, 4], "oldest-first, latest retained");
    }
}
