//! One shard of the admission fleet: an arena of δ⁻ monitors plus health
//! trackers, with checkpoint-based crash recovery. A fleet run owns its
//! shards outright and steps them from one thread, so a shard is plain
//! data behind no lock.
//!
//! A shard owns the [`ActivationMonitor`]s of every source routed to it,
//! one [`HealthTracker`] per source for the load-shedding ladder, a bounded
//! in-flight service queue and the crash-recovery state: the last
//! checkpoint (a deep copy of monitors and trackers) plus a journal of
//! every admission since. On a crash the shard
//! either restores checkpoint-plus-journal-tail (failover) or comes back
//! with fresh monitors (the no-failover baseline that must demonstrably
//! break the independence bound).

use std::collections::VecDeque;

use rthv_hypervisor::{HealthTracker, SupervisionPolicy};
use rthv_monitor::{ActivationMonitor, DeltaFunction};
use rthv_sim::EventId;
use rthv_time::Instant;

use crate::fleet::FailoverMode;

/// Integer-only per-shard counters; summed into the fleet report. Every
/// arrival ends in exactly one of admitted / denied / shed — the
/// conservation identity the fleet oracle re-checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardCounters {
    /// Arrivals routed to this shard.
    pub scheduled: u64,
    /// Arrivals admitted by a δ⁻ monitor.
    pub admitted: u64,
    /// Arrivals denied by a δ⁻ monitor.
    pub denied: u64,
    /// Arrivals shed because the in-flight queue was full.
    pub shed_queue_full: u64,
    /// Arrivals shed because the shard was stalled past the retry budget
    /// (the fail-closed escalation).
    pub shed_stalled: u64,
    /// Arrivals shed by the supervision ladder (Probation/Quarantined
    /// sources demoted first under load).
    pub shed_demoted: u64,
    /// Arrivals shed because their tenant was quarantined by the brownout
    /// controller (always zero in a flat, tenant-less fleet).
    pub shed_quarantined: u64,
    /// Admitted activations lost in flight to a shard crash (typed — their
    /// service completions never happen, but they are never silent).
    pub lost_in_flight: u64,
    /// Admitted activations whose service completed.
    pub completed: u64,
    /// Bounded-backoff retries spent by arrivals that hit a stalled shard
    /// and still made it to an admission check.
    pub retries: u64,
    /// Shard crashes suffered.
    pub crashes: u64,
    /// Stall windows suffered.
    pub stalls: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Journal entries replayed into restored monitors during failover.
    pub journal_replayed: u64,
}

impl ShardCounters {
    /// Total typed sheds (queue-full + stalled + demoted + quarantined).
    #[must_use]
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_stalled + self.shed_demoted + self.shed_quarantined
    }

    /// Field-wise accumulation (fleet aggregation).
    pub fn add(&mut self, other: &ShardCounters) {
        self.scheduled += other.scheduled;
        self.admitted += other.admitted;
        self.denied += other.denied;
        self.shed_queue_full += other.shed_queue_full;
        self.shed_stalled += other.shed_stalled;
        self.shed_demoted += other.shed_demoted;
        self.shed_quarantined += other.shed_quarantined;
        self.lost_in_flight += other.lost_in_flight;
        self.completed += other.completed;
        self.retries += other.retries;
        self.crashes += other.crashes;
        self.stalls += other.stalls;
        self.checkpoints += other.checkpoints;
        self.journal_replayed += other.journal_replayed;
    }
}

/// An admitted activation awaiting its service completion, with the engine
/// id of the pending drain event so a crash can cancel it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InFlight {
    /// Pending drain event in the fleet's engine queue.
    pub id: EventId,
    /// Global source id.
    pub source: u32,
    /// Hardware arrival timestamp (latency = completion − arrival).
    pub arrival: Instant,
}

/// Deep copy of a shard's recovery-relevant state at a checkpoint.
#[derive(Debug, Clone)]
struct ShardCheckpoint {
    monitors: Vec<ActivationMonitor>,
    trackers: Vec<HealthTracker>,
}

/// One shard's state.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// δ⁻ monitor arena, one per local source.
    pub monitors: Vec<ActivationMonitor>,
    /// Supervision scores, one per local source (the shed ladder).
    pub trackers: Vec<HealthTracker>,
    checkpoint: ShardCheckpoint,
    /// `(local source, admission timestamp)` since the last checkpoint.
    journal: Vec<(u32, Instant)>,
    /// When a stall window ends, if one is active.
    pub stalled_until: Option<Instant>,
    /// Per-lane single-server service horizons: lane `l`'s next admission
    /// completes at `max(busy_until[l], now) + service_cost`. A flat fleet
    /// has one lane; a tenanted fleet has one reserved lane per tenant
    /// plus a shared best-effort lane, so one tenant's backlog cannot
    /// delay another's completions.
    pub busy_until: Vec<Instant>,
    /// Admitted-but-not-completed activations per lane, completion order.
    pub in_flight: Vec<VecDeque<InFlight>>,
    /// This shard's ledger.
    pub counters: ShardCounters,
}

impl ShardState {
    /// Builds a shard for `locals` sources sharing one δ⁻ condition and
    /// one supervision policy, with `lanes` independent service lanes,
    /// checkpointed at its (empty) initial state.
    pub fn new(
        locals: usize,
        lanes: usize,
        delta: &DeltaFunction,
        policy: SupervisionPolicy,
    ) -> Self {
        let (monitors, trackers) = Self::fresh_arena(locals, delta, policy);
        let checkpoint = ShardCheckpoint {
            monitors: monitors.clone(),
            trackers: trackers.clone(),
        };
        ShardState {
            monitors,
            trackers,
            checkpoint,
            journal: Vec::new(),
            stalled_until: None,
            busy_until: vec![Instant::ZERO; lanes],
            in_flight: vec![VecDeque::new(); lanes],
            counters: ShardCounters::default(),
        }
    }

    /// Admissions currently in service across all lanes.
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.iter().map(VecDeque::len).sum()
    }

    fn fresh_arena(
        locals: usize,
        delta: &DeltaFunction,
        policy: SupervisionPolicy,
    ) -> (Vec<ActivationMonitor>, Vec<HealthTracker>) {
        let monitors = (0..locals)
            .map(|_| ActivationMonitor::new(delta.clone()))
            .collect();
        let trackers = (0..locals).map(|_| HealthTracker::new(policy)).collect();
        (monitors, trackers)
    }

    /// Records an admission in the journal and checkpoints once
    /// `checkpoint_every` admissions have accumulated.
    pub fn note_admitted(&mut self, local: u32, at: Instant, checkpoint_every: u64) {
        self.journal.push((local, at));
        if self.journal.len() as u64 >= checkpoint_every {
            self.take_checkpoint();
        }
    }

    /// Deep-copies monitors and trackers and truncates the journal: after
    /// this, a crash replays only admissions younger than this instant.
    pub fn take_checkpoint(&mut self) {
        self.checkpoint = ShardCheckpoint {
            monitors: self.monitors.clone(),
            trackers: self.trackers.clone(),
        };
        self.journal.clear();
        self.counters.checkpoints += 1;
    }

    /// Crashes the shard at `at`: the in-flight queue is lost (returned so
    /// the fleet can cancel the pending drain events and count each loss as
    /// a typed outcome), and the monitor arena is rebuilt according to
    /// `mode`:
    ///
    /// * [`FailoverMode::Checkpoint`] — monitors and trackers restore from
    ///   the last checkpoint, then the journal tail is replayed through
    ///   [`ActivationMonitor::record_admitted`]. The restored trace rings
    ///   are *exactly* the pre-crash rings, so the admitted stream stays
    ///   δ⁻-conformant across the cut.
    /// * [`FailoverMode::FreshState`] — the baseline: empty monitors that
    ///   admit everything on restart, which is precisely what the
    ///   fleet-wide oracle must catch.
    pub fn crash(
        &mut self,
        at: Instant,
        mode: FailoverMode,
        delta: &DeltaFunction,
        policy: SupervisionPolicy,
    ) -> Vec<InFlight> {
        let dropped: Vec<InFlight> = self
            .in_flight
            .iter_mut()
            .flat_map(|lane| lane.drain(..))
            .collect();
        self.counters.lost_in_flight += dropped.len() as u64;
        self.counters.crashes += 1;
        for busy in &mut self.busy_until {
            *busy = at;
        }
        self.stalled_until = None;
        match mode {
            FailoverMode::Checkpoint => {
                self.monitors = self.checkpoint.monitors.clone();
                self.trackers = self.checkpoint.trackers.clone();
                self.counters.journal_replayed += self.journal.len() as u64;
                for &(local, t) in &self.journal {
                    self.monitors[local as usize].record_admitted(t);
                }
                // Re-checkpoint the restored state so a second crash
                // replays only its own tail.
                self.take_checkpoint();
            }
            FailoverMode::FreshState => {
                let (monitors, trackers) = Self::fresh_arena(self.monitors.len(), delta, policy);
                self.monitors = monitors;
                self.trackers = trackers;
                self.take_checkpoint();
            }
        }
        dropped
    }
}
