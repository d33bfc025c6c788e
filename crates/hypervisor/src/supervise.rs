//! Runtime health supervision: quarantine, hysteresis recovery, and
//! degraded-mode scheduling.
//!
//! PR 2's fault oracle proves violations of the Eq. 13–16 independence
//! bound *post-hoc*; this module adds the online response. Each monitored
//! IRQ source carries a [`HealthTracker`] — a deterministic state machine
//!
//! ```text
//! Healthy → Probation → Quarantined → Recovering → Healthy
//! ```
//!
//! driven purely by signals the machine already produces (admission
//! denials, budget clips, queue-overflow drops, watchdog-detected
//! non-yielding work) and by a raw-arrival
//! [`ConformanceWatch`](rthv_monitor::ConformanceWatch). Escalation is
//! score-based with hysteresis: penalties accumulate per signal, each
//! conformant raw arrival pays back one credit, and crossing
//! [`probation_score`](SupervisionPolicy::probation_score) /
//! [`quarantine_score`](SupervisionPolicy::quarantine_score) demotes the
//! source. Degradation is graceful — Probation and Recovering shrink the
//! enforced interposition budget, Quarantined demotes the source to
//! slot-local handling entirely — and recovery is automatic once the raw
//! stream re-conforms to δ⁻ for a full
//! [`probation_window`](SupervisionPolicy::probation_window).
//!
//! Every decision is a pure function of the simulated event stream (no
//! wall clock, no randomness), so supervised campaign reports stay
//! byte-identical across thread counts.

use std::fmt;

use rthv_monitor::ConformanceWatch;
use rthv_time::{Duration, Instant};
use serde::{Deserialize, Serialize};

use crate::history::History;
use crate::record::Counters;

/// Health state of a supervised IRQ source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HealthState {
    /// Full service: interposition with the declared `C_BH` budget.
    Healthy,
    /// Suspicious: still interposed, but under a shrunken budget.
    Probation,
    /// Demoted to slot-local handling; interposition suspended entirely.
    Quarantined,
    /// Re-admitted after quarantine, under a shrunken budget; any further
    /// misbehaviour relapses straight back to quarantine.
    Recovering,
}

impl HealthState {
    /// Stable lower-case name used in reports and JSON.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Probation => "probation",
            HealthState::Quarantined => "quarantined",
            HealthState::Recovering => "recovering",
        }
    }

    /// Position in the load-shedding ladder: under overload, higher ranks
    /// are shed first. Quarantined sources go before Probation, Probation
    /// before the re-admitted Recovering, and Healthy traffic is shed only
    /// by a full queue — the supervision score decides *who* degrades, not
    /// just who is quarantined.
    #[must_use]
    pub fn shed_rank(self) -> u32 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Recovering => 1,
            HealthState::Probation => 2,
            HealthState::Quarantined => 3,
        }
    }
}

impl fmt::Display for HealthState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// A misbehaviour signal attributed to one IRQ source.
///
/// All four are produced by mechanisms the machine already runs; the
/// supervisor adds no new instrumentation to the hot path, only scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HealthSignal {
    /// The δ⁻ activation monitor denied an interposed activation.
    Denied,
    /// An interposed window hit its enforced budget and was clipped while
    /// running under the *full* declared budget. Clips under an already
    /// shrunken budget are expected and carry no penalty.
    BudgetClip,
    /// A pending-queue overflow dropped or rejected an arrival.
    Overflow,
    /// The watchdog flagged a single activation demanding more than
    /// [`watchdog_factor`](SupervisionPolicy::watchdog_factor) times the
    /// declared bottom budget — a non-yielding guest handler.
    NonYielding,
}

impl HealthSignal {
    /// Stable lower-case name used in reports and JSON.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            HealthSignal::Denied => "denied",
            HealthSignal::BudgetClip => "budget-clip",
            HealthSignal::Overflow => "overflow",
            HealthSignal::NonYielding => "non-yielding",
        }
    }
}

impl fmt::Display for HealthSignal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// Hysteresis thresholds and degradation knobs for runtime supervision.
///
/// Lives in [`PolicyOptions`](crate::PolicyOptions); `None` there disables
/// supervision entirely and the machine behaves exactly as before.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SupervisionPolicy {
    /// Penalty for an activation-monitor denial.
    pub deny_penalty: u32,
    /// Penalty for a budget clip under the full declared budget.
    pub clip_penalty: u32,
    /// Penalty for a queue-overflow drop or rejection.
    pub overflow_penalty: u32,
    /// Penalty for a watchdog-flagged non-yielding activation.
    pub nonyield_penalty: u32,
    /// Score paid back by each δ⁻-conformant raw arrival.
    pub conform_credit: u32,
    /// Score at or above which a Healthy source enters Probation.
    pub probation_score: u32,
    /// Score at or above which a source is Quarantined.
    pub quarantine_score: u32,
    /// Minimum time a source must spend in a state — with a clean,
    /// δ⁻-conformant raw stream — before it is upgraded.
    pub probation_window: Duration,
    /// Divisor applied to the declared `C_BH` while in Probation or
    /// Recovering (degraded-mode budget).
    pub budget_shrink_divisor: u32,
    /// A single activation demanding more than this multiple of the
    /// declared bottom budget raises [`HealthSignal::NonYielding`].
    pub watchdog_factor: u32,
}

impl Default for SupervisionPolicy {
    fn default() -> Self {
        SupervisionPolicy {
            deny_penalty: 2,
            clip_penalty: 4,
            overflow_penalty: 1,
            nonyield_penalty: 8,
            conform_credit: 1,
            probation_score: 8,
            quarantine_score: 24,
            probation_window: Duration::from_millis(12),
            budget_shrink_divisor: 2,
            watchdog_factor: 8,
        }
    }
}

impl SupervisionPolicy {
    /// Penalty charged for `signal`.
    #[must_use]
    pub fn penalty(&self, signal: HealthSignal) -> u32 {
        match signal {
            HealthSignal::Denied => self.deny_penalty,
            HealthSignal::BudgetClip => self.clip_penalty,
            HealthSignal::Overflow => self.overflow_penalty,
            HealthSignal::NonYielding => self.nonyield_penalty,
        }
    }
}

/// What triggered a state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransitionCause {
    /// A penalty signal pushed the score over a threshold (demotions).
    Signal(HealthSignal),
    /// The raw stream stayed δ⁻-conformant for a probation window
    /// (upgrades).
    Conformance,
}

impl fmt::Display for TransitionCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransitionCause::Signal(signal) => write!(f, "signal:{signal}"),
            TransitionCause::Conformance => f.write_str("conformance"),
        }
    }
}

/// One edge taken by the quarantine state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HealthTransition {
    /// State left.
    pub from: HealthState,
    /// State entered.
    pub to: HealthState,
    /// Why the edge was taken.
    pub cause: TransitionCause,
}

/// Deterministic per-source quarantine state machine with hysteresis.
///
/// Pure: the next state depends only on the current state, the policy and
/// the (signal, timestamp) stream fed in — never on wall time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTracker {
    policy: SupervisionPolicy,
    state: HealthState,
    score: u32,
    /// When the current state was entered.
    entered_at: Instant,
    /// Start of the current clean stretch: no penalty signal and no raw
    /// δ⁻ violation since.
    clean_since: Instant,
}

impl HealthTracker {
    /// A fresh, Healthy tracker.
    #[must_use]
    pub fn new(policy: SupervisionPolicy) -> Self {
        HealthTracker {
            policy,
            state: HealthState::Healthy,
            score: 0,
            entered_at: Instant::ZERO,
            clean_since: Instant::ZERO,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Current penalty score.
    #[must_use]
    pub fn score(&self) -> u32 {
        self.score
    }

    /// Charges a penalty signal at `at`; returns the demotion taken, if
    /// any. Escalations happen here and only here.
    pub fn signal(&mut self, signal: HealthSignal, at: Instant) -> Option<HealthTransition> {
        self.clean_since = at;
        self.score = self.score.saturating_add(self.policy.penalty(signal));
        let to = match self.state {
            HealthState::Healthy | HealthState::Probation
                if self.score >= self.policy.quarantine_score =>
            {
                HealthState::Quarantined
            }
            HealthState::Healthy if self.score >= self.policy.probation_score => {
                HealthState::Probation
            }
            // Recovering relapses on *any* penalty signal: the source
            // already used up its benefit of the doubt.
            HealthState::Recovering => HealthState::Quarantined,
            _ => return None,
        };
        if to == HealthState::Quarantined {
            self.score = self.policy.quarantine_score;
        }
        Some(self.enter(to, TransitionCause::Signal(signal), at))
    }

    /// Records a δ⁻-conformant raw arrival at `at`: pays back one credit
    /// and attempts an upgrade.
    pub fn conformant(&mut self, at: Instant) -> Option<HealthTransition> {
        self.score = self.score.saturating_sub(self.policy.conform_credit);
        self.advance(at)
    }

    /// Records a non-conformant raw arrival at `at`. Carries no penalty —
    /// denial/overflow signals already charge for the consequences — but
    /// restarts the clean stretch, pushing recovery out.
    pub fn raw_violation(&mut self, at: Instant) {
        self.clean_since = at;
    }

    /// Time-based upgrade check, to be called as simulated time advances
    /// even when the source stays silent (a quarantined storm source that
    /// simply stops firing must still recover).
    pub fn tick(&mut self, at: Instant) -> Option<HealthTransition> {
        self.advance(at)
    }

    /// The first instant at which [`tick`](Self::tick) takes an upgrade
    /// edge, for ticks that never go back before an observation already
    /// made: a full probation window after both the state was entered and
    /// the clean stretch began. `None` while no upgrade is possible
    /// (Healthy, or Probation with score left to pay back).
    #[must_use]
    pub fn next_due(&self) -> Option<Instant> {
        let upgradable = match self.state {
            HealthState::Healthy => false,
            HealthState::Probation => self.score == 0,
            HealthState::Quarantined | HealthState::Recovering => true,
        };
        if !upgradable {
            return None;
        }
        self.entered_at
            .max(self.clean_since)
            .checked_add(self.policy.probation_window)
    }

    /// Attempts the single applicable upgrade edge at `at`. Upgrades
    /// require a full probation window both in the current state and since
    /// the last unclean observation — this is the hysteresis that keeps
    /// consecutive quarantine entries at least a window apart.
    fn advance(&mut self, at: Instant) -> Option<HealthTransition> {
        let window = self.policy.probation_window;
        let settled = at.saturating_duration_since(self.entered_at) >= window
            && at.saturating_duration_since(self.clean_since) >= window;
        if !settled {
            return None;
        }
        match self.state {
            HealthState::Probation if self.score == 0 => {
                Some(self.enter(HealthState::Healthy, TransitionCause::Conformance, at))
            }
            HealthState::Quarantined => {
                self.score = 0;
                Some(self.enter(HealthState::Recovering, TransitionCause::Conformance, at))
            }
            HealthState::Recovering => {
                Some(self.enter(HealthState::Healthy, TransitionCause::Conformance, at))
            }
            _ => None,
        }
    }

    fn enter(&mut self, to: HealthState, cause: TransitionCause, at: Instant) -> HealthTransition {
        let from = self.state;
        self.state = to;
        self.entered_at = at;
        HealthTransition { from, to, cause }
    }

    /// Feeds the tracker's mutable state to `word` as canonical `u64` words
    /// for checkpoint state-hashing.
    pub fn state_words(&self, word: &mut impl FnMut(u64)) {
        word(state_word(self.state));
        word(u64::from(self.score));
        word(self.entered_at.as_nanos());
        word(self.clean_since.as_nanos());
    }
}

/// Stable numeric encoding of a health state for state-hashing.
fn state_word(state: HealthState) -> u64 {
    match state {
        HealthState::Healthy => 0,
        HealthState::Probation => 1,
        HealthState::Quarantined => 2,
        HealthState::Recovering => 3,
    }
}

/// Stable numeric encoding of a health signal for state-hashing.
fn signal_word(signal: HealthSignal) -> u64 {
    match signal {
        HealthSignal::Denied => 0,
        HealthSignal::BudgetClip => 1,
        HealthSignal::Overflow => 2,
        HealthSignal::NonYielding => 3,
    }
}

/// Kind of a recorded supervision event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SupervisionEventKind {
    /// A penalty signal was charged.
    Signal(HealthSignal),
    /// A state-machine edge was taken.
    Transition(HealthTransition),
}

/// One entry of the supervision event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SupervisionEvent {
    /// Simulated time of the event.
    pub at: Instant,
    /// IRQ source the event concerns.
    pub source: usize,
    /// What happened.
    pub kind: SupervisionEventKind,
}

#[derive(Debug, Clone)]
struct SourceSupervision {
    tracker: HealthTracker,
    watch: ConformanceWatch,
    partition: usize,
}

/// The machine-level supervisor: one [`HealthTracker`] plus one raw-stream
/// [`ConformanceWatch`](rthv_monitor::ConformanceWatch) per *monitored*
/// IRQ source, a per-partition penalty ledger, and an append-only event
/// log consumed by the faults oracle.
#[derive(Debug, Clone)]
pub struct Supervisor {
    policy: SupervisionPolicy,
    slots: Vec<Option<SourceSupervision>>,
    partition_penalties: Vec<u64>,
    events: History<SupervisionEvent>,
}

impl Supervisor {
    /// An empty supervisor for `n_sources` sources and `n_partitions`
    /// partitions; sources are attached individually with
    /// [`track`](Supervisor::track).
    #[must_use]
    pub fn new(policy: SupervisionPolicy, n_sources: usize, n_partitions: usize) -> Self {
        Supervisor {
            policy,
            slots: (0..n_sources).map(|_| None).collect(),
            partition_penalties: vec![0; n_partitions],
            events: History::default(),
        }
    }

    /// Puts `source` (subscribed by `partition`) under supervision, using
    /// `watch` to judge its raw arrival stream.
    pub fn track(&mut self, source: usize, partition: usize, watch: ConformanceWatch) {
        self.slots[source] = Some(SourceSupervision {
            tracker: HealthTracker::new(self.policy),
            watch,
            partition,
        });
    }

    /// Replaces the conformance watch of a tracked source (after a runtime
    /// δ⁻ change); the health tracker's state is preserved.
    pub fn set_watch(&mut self, source: usize, watch: ConformanceWatch) {
        if let Some(slot) = self.slots.get_mut(source).and_then(|slot| slot.as_mut()) {
            slot.watch = watch;
        }
    }

    /// The policy in force.
    #[must_use]
    pub fn policy(&self) -> &SupervisionPolicy {
        &self.policy
    }

    /// Health state of `source`, if it is supervised.
    #[must_use]
    pub fn state(&self, source: usize) -> Option<HealthState> {
        self.slots
            .get(source)
            .and_then(|slot| slot.as_ref())
            .map(|slot| slot.tracker.state())
    }

    /// Whether `source` is currently demoted to slot-local handling.
    #[must_use]
    pub fn is_quarantined(&self, source: usize) -> bool {
        self.state(source) == Some(HealthState::Quarantined)
    }

    /// The budget to enforce for `source` given its declared budget, plus
    /// whether it was shrunk by the degraded-mode divisor. Durations below
    /// one whole divisor quantum are preserved (never shrunk to zero).
    #[must_use]
    pub fn effective_budget(&self, source: usize, declared: Duration) -> (Duration, bool) {
        let degraded = matches!(
            self.state(source),
            Some(HealthState::Probation | HealthState::Recovering)
        );
        if !degraded || self.policy.budget_shrink_divisor <= 1 {
            return (declared, false);
        }
        let shrunk = Duration::from_nanos(
            (declared.as_nanos() / u64::from(self.policy.budget_shrink_divisor)).max(1),
        );
        (shrunk, true)
    }

    /// Feeds one raw arrival of `source` to its conformance watch and the
    /// tracker. Returns the upgrade taken, if any.
    pub fn observe_arrival(
        &mut self,
        source: usize,
        at: Instant,
        counters: &mut Counters,
    ) -> Option<HealthTransition> {
        let slot = self.slots.get_mut(source)?.as_mut()?;
        let transition = if slot.watch.observe(at) {
            slot.tracker.conformant(at)
        } else {
            slot.tracker.raw_violation(at);
            None
        };
        if let Some(transition) = transition {
            self.log_transition(source, at, transition, counters);
        }
        transition
    }

    /// Charges `signal` against `source` at `at`. Returns the demotion
    /// taken, if any.
    pub fn signal(
        &mut self,
        source: usize,
        signal: HealthSignal,
        at: Instant,
        counters: &mut Counters,
    ) -> Option<HealthTransition> {
        let slot = self.slots.get_mut(source).and_then(|slot| slot.as_mut())?;
        let partition = slot.partition;
        let transition = slot.tracker.signal(signal, at);
        self.partition_penalties[partition] += u64::from(self.policy.penalty(signal));
        self.events.push(SupervisionEvent {
            at,
            source,
            kind: SupervisionEventKind::Signal(signal),
        });
        if let Some(transition) = transition {
            self.log_transition(source, at, transition, counters);
        }
        transition
    }

    /// Advances simulated time to `at` for every tracked source, taking
    /// any time-based upgrade edges that became due.
    pub fn tick(&mut self, at: Instant, counters: &mut Counters) {
        for source in 0..self.slots.len() {
            let Some(slot) = self.slots[source].as_mut() else {
                continue;
            };
            if let Some(transition) = slot.tracker.tick(at) {
                self.log_transition(source, at, transition, counters);
            }
        }
    }

    /// The first instant at which [`tick`](Self::tick) takes an edge for
    /// some source: the earliest [`HealthTracker::next_due`]. Until then a
    /// tick changes nothing.
    #[must_use]
    pub fn next_due(&self) -> Option<Instant> {
        self.slots
            .iter()
            .flatten()
            .filter_map(|slot| slot.tracker.next_due())
            .min()
    }

    fn log_transition(
        &mut self,
        source: usize,
        at: Instant,
        transition: HealthTransition,
        counters: &mut Counters,
    ) {
        if transition.to == HealthState::Quarantined {
            counters.quarantine_entries += 1;
        }
        if transition.from == HealthState::Recovering && transition.to == HealthState::Healthy {
            counters.recoveries += 1;
        }
        self.events.push(SupervisionEvent {
            at,
            source,
            kind: SupervisionEventKind::Transition(transition),
        });
    }

    /// Feeds the supervisor's mutable state to `word` as canonical `u64`
    /// words — every tracker, every conformance watch, the partition ledger
    /// and the event log's length plus its most recent entry — for
    /// checkpoint state-hashing.
    pub fn state_words(&self, word: &mut impl FnMut(u64)) {
        for slot in &self.slots {
            match slot {
                None => word(0),
                Some(slot) => {
                    word(1);
                    word(slot.partition as u64);
                    slot.tracker.state_words(word);
                    slot.watch.state_words(word);
                }
            }
        }
        for &penalty in &self.partition_penalties {
            word(penalty);
        }
        word(self.events.len() as u64);
        if let Some(event) = self.events.last() {
            word(event.at.as_nanos());
            word(event.source as u64);
            match event.kind {
                SupervisionEventKind::Signal(signal) => {
                    word(0);
                    word(signal_word(signal));
                }
                SupervisionEventKind::Transition(t) => {
                    word(1);
                    word(state_word(t.from));
                    word(state_word(t.to));
                    word(match t.cause {
                        TransitionCause::Signal(signal) => 1 + signal_word(signal),
                        TransitionCause::Conformance => 0,
                    });
                }
            }
        }
    }

    /// Entries in the event log so far.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// The event log from entry `start` on, oldest first — cheap (no
    /// clone) access for observability consumers that tail new entries
    /// incrementally.
    pub fn events_since(&self, start: usize) -> impl Iterator<Item = &SupervisionEvent> {
        self.events.iter_from(start)
    }

    /// Moves the event log into a frozen segment that clones share (see
    /// [`Machine::snapshot`](crate::Machine::snapshot)).
    pub(crate) fn freeze(&mut self) {
        self.events.freeze();
    }

    /// Whether both event logs share their newest frozen segment.
    #[cfg(test)]
    pub(crate) fn shares_events_with(&self, other: &Supervisor) -> bool {
        self.events.shares_frozen(&other.events)
    }

    /// Snapshot for the run report.
    #[must_use]
    pub fn report(&self) -> SupervisionReport {
        SupervisionReport {
            policy: self.policy,
            events: self.events.to_vec(),
            final_states: self
                .slots
                .iter()
                .map(|slot| slot.as_ref().map(|slot| slot.tracker.state()))
                .collect(),
            partition_penalties: self.partition_penalties.clone(),
        }
    }
}

/// Supervision outcome of one run, attached to
/// [`RunReport`](crate::RunReport) when supervision is enabled.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SupervisionReport {
    /// The policy that was in force.
    pub policy: SupervisionPolicy,
    /// Chronological log of every signal charged and edge taken.
    pub events: Vec<SupervisionEvent>,
    /// Final health state per source (`None` = unsupervised source).
    pub final_states: Vec<Option<HealthState>>,
    /// Total penalty charged per subscribing partition.
    pub partition_penalties: Vec<u64>,
}

impl SupervisionReport {
    /// Number of edges into Quarantined.
    #[must_use]
    pub fn quarantine_entries(&self) -> u64 {
        self.transition_count(|t| t.to == HealthState::Quarantined)
    }

    /// Number of full recoveries (Recovering → Healthy).
    #[must_use]
    pub fn recoveries(&self) -> u64 {
        self.transition_count(|t| t.from == HealthState::Recovering && t.to == HealthState::Healthy)
    }

    fn transition_count(&self, pred: impl Fn(&HealthTransition) -> bool) -> u64 {
        self.events
            .iter()
            .filter(|event| match &event.kind {
                SupervisionEventKind::Transition(t) => pred(t),
                SupervisionEventKind::Signal(_) => false,
            })
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: u64) -> Instant {
        Instant::from_micros(ms * 1_000)
    }

    fn tracker() -> HealthTracker {
        HealthTracker::new(SupervisionPolicy::default())
    }

    #[test]
    fn default_policy_thresholds_are_ordered() {
        let policy = SupervisionPolicy::default();
        assert!(policy.probation_score > 0);
        assert!(policy.quarantine_score > policy.probation_score);
        assert!(policy.probation_window > Duration::ZERO);
    }

    #[test]
    fn denial_burst_walks_healthy_probation_quarantined() {
        let mut t = tracker();
        // 4 denials x 2 = 8 → Probation.
        for k in 0..3 {
            assert_eq!(t.signal(HealthSignal::Denied, at_ms(1 + k)), None);
        }
        let edge = t.signal(HealthSignal::Denied, at_ms(4)).expect("probation");
        assert_eq!(
            (edge.from, edge.to),
            (HealthState::Healthy, HealthState::Probation)
        );
        // 8 more denials → 24 → Quarantined.
        let mut last = None;
        for k in 0..8 {
            last = t.signal(HealthSignal::Denied, at_ms(5 + k));
        }
        let edge = last.expect("quarantine");
        assert_eq!(
            (edge.from, edge.to),
            (HealthState::Probation, HealthState::Quarantined)
        );
        assert_eq!(t.score(), SupervisionPolicy::default().quarantine_score);
    }

    #[test]
    fn conformant_credit_decays_isolated_denials() {
        let mut t = tracker();
        for k in 0u64..50 {
            let _ = t.signal(HealthSignal::Denied, at_ms(10 * k));
            // Two conformant arrivals between denials pay the penalty back.
            assert_eq!(t.conformant(at_ms(10 * k + 3)), None);
            assert_eq!(t.conformant(at_ms(10 * k + 6)), None);
        }
        assert_eq!(t.state(), HealthState::Healthy);
        assert_eq!(t.score(), 0);
    }

    #[test]
    fn quarantine_recovers_through_recovering_after_clean_windows() {
        let policy = SupervisionPolicy::default();
        let mut t = tracker();
        for k in 0..12 {
            let _ = t.signal(HealthSignal::Denied, at_ms(k));
        }
        assert_eq!(t.state(), HealthState::Quarantined);
        // Clean stretch: window after the last signal (at 11 ms) the tracker
        // may move to Recovering, one more window to Healthy.
        assert_eq!(t.tick(at_ms(12)), None, "window not yet elapsed");
        let edge = t.tick(at_ms(11 + 12)).expect("recovering");
        assert_eq!(
            (edge.from, edge.to),
            (HealthState::Quarantined, HealthState::Recovering)
        );
        assert_eq!(t.score(), 0);
        let edge = t.tick(at_ms(11 + 24)).expect("healthy");
        assert_eq!(
            (edge.from, edge.to),
            (HealthState::Recovering, HealthState::Healthy)
        );
        let _ = policy;
    }

    #[test]
    fn recovering_relapses_on_any_signal() {
        let mut t = tracker();
        for k in 0..12 {
            let _ = t.signal(HealthSignal::Denied, at_ms(k));
        }
        let _ = t.tick(at_ms(23));
        assert_eq!(t.state(), HealthState::Recovering);
        let edge = t
            .signal(HealthSignal::Overflow, at_ms(24))
            .expect("relapse");
        assert_eq!(
            (edge.from, edge.to),
            (HealthState::Recovering, HealthState::Quarantined)
        );
        assert_eq!(t.score(), SupervisionPolicy::default().quarantine_score);
    }

    #[test]
    fn raw_violation_postpones_recovery_without_penalty() {
        let mut t = tracker();
        for k in 0..12 {
            let _ = t.signal(HealthSignal::Denied, at_ms(k));
        }
        assert_eq!(t.state(), HealthState::Quarantined);
        t.raw_violation(at_ms(20));
        assert_eq!(t.tick(at_ms(23)), None, "clean stretch restarted at 20 ms");
        assert!(t.tick(at_ms(32)).is_some(), "20 ms + 12 ms window");
    }

    #[test]
    fn next_due_is_the_first_tick_that_takes_an_edge() {
        // A pending upgrade falls due exactly at `next_due`, never a
        // nanosecond earlier.
        let takes_edge_at_due = |t: &mut HealthTracker, to: HealthState| {
            let due = t.next_due().expect("an upgrade is pending");
            assert_eq!(t.tick(due - Duration::from_nanos(1)), None);
            assert_eq!(t.tick(due).map(|edge| edge.to), Some(to));
        };
        let mut t = tracker();
        assert_eq!(t.next_due(), None, "healthy");
        for k in 0..4 {
            let _ = t.signal(HealthSignal::Denied, at_ms(k));
        }
        assert_eq!(t.next_due(), None, "probation with score to pay back");
        for k in 0..8 {
            assert_eq!(t.conformant(at_ms(4 + k)), None);
        }
        takes_edge_at_due(&mut t, HealthState::Healthy);
        for k in 0..12 {
            let _ = t.signal(HealthSignal::Denied, at_ms(20 + k));
        }
        assert_eq!(t.state(), HealthState::Quarantined);
        t.raw_violation(at_ms(40));
        takes_edge_at_due(&mut t, HealthState::Recovering);
        takes_edge_at_due(&mut t, HealthState::Healthy);
        assert_eq!(t.next_due(), None, "healthy again");
    }

    #[test]
    fn probation_upgrade_needs_zero_score_and_both_windows() {
        let mut t = tracker();
        for k in 0..4 {
            let _ = t.signal(HealthSignal::Denied, at_ms(k));
        }
        assert_eq!(t.state(), HealthState::Probation);
        // Pay the score back quickly; the window still gates the upgrade.
        for k in 0..8 {
            assert_eq!(t.conformant(at_ms(4 + k)), None);
        }
        assert_eq!(t.score(), 0);
        let edge = t.conformant(at_ms(16)).expect("upgrade after window");
        assert_eq!(
            (edge.from, edge.to),
            (HealthState::Probation, HealthState::Healthy)
        );
    }

    #[test]
    fn supervisor_tracks_partition_ledger_and_counts() {
        let mut counters = Counters::default();
        let mut sup = Supervisor::new(SupervisionPolicy::default(), 2, 3);
        let delta = rthv_monitor::DeltaFunction::from_dmin(Duration::from_millis(3)).unwrap();
        sup.track(0, 1, ConformanceWatch::new(delta));
        assert_eq!(sup.state(0), Some(HealthState::Healthy));
        assert_eq!(sup.state(1), None);

        for k in 0..12 {
            let _ = sup.signal(0, HealthSignal::Denied, at_ms(k), &mut counters);
        }
        assert!(sup.is_quarantined(0));
        assert_eq!(counters.quarantine_entries, 1);
        assert_eq!(sup.report().quarantine_entries(), 1);
        assert_eq!(sup.report().partition_penalties, vec![0, 24, 0]);

        sup.tick(at_ms(23), &mut counters);
        sup.tick(at_ms(35), &mut counters);
        assert_eq!(sup.state(0), Some(HealthState::Healthy));
        assert_eq!(counters.recoveries, 1);
        assert_eq!(sup.report().recoveries(), 1);
    }

    #[test]
    fn effective_budget_shrinks_only_in_degraded_states() {
        let mut counters = Counters::default();
        let mut sup = Supervisor::new(SupervisionPolicy::default(), 1, 1);
        let delta = rthv_monitor::DeltaFunction::from_dmin(Duration::from_millis(3)).unwrap();
        sup.track(0, 0, ConformanceWatch::new(delta));
        let declared = Duration::from_micros(30);
        assert_eq!(sup.effective_budget(0, declared), (declared, false));
        for k in 0..4 {
            let _ = sup.signal(0, HealthSignal::Denied, at_ms(k), &mut counters);
        }
        assert_eq!(sup.state(0), Some(HealthState::Probation));
        assert_eq!(
            sup.effective_budget(0, declared),
            (Duration::from_micros(15), true)
        );
    }
}
