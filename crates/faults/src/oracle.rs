//! Post-hoc temporal-independence oracle over a [`RunReport`].
//!
//! The machine already *enforces* the paper's mechanisms online; this
//! module re-verifies them offline, from the records a run leaves behind,
//! with independent implementations — a distance-based δ⁻ replay
//! ([`ActivationMonitor`]) *and* a count-based η⁺ sliding-window check, an
//! interposed-window budget audit against the traced spans, and an IRQ
//! conservation ledger. A mechanism bug that slipped past the online
//! enforcement shows up here as a [`Violation`].
//!
//! [`RunReport`]: rthv::RunReport

use std::fmt;

use rthv::monitor::{interference_bound, ActivationMonitor, Admission, DeltaFunction};
use rthv::time::{Duration, Instant};
use rthv::{HealthState, RunReport, Span, SupervisionEventKind, SupervisionReport};

/// What the oracle holds a run against.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// The δ⁻ condition the run claimed to enforce; `None` for the
    /// unmonitored baseline (conformance checks are skipped, conservation
    /// and budget checks still apply).
    pub delta: Option<DeltaFunction>,
    /// The enforced interposition budget (`C_BH` of the monitored source).
    pub budget: Duration,
    /// IRQ arrivals actually scheduled into the machine.
    pub scheduled: u64,
}

/// One oracle finding. Also covers the campaign-level independence check
/// (emitted by [`crate::campaign`], counted uniformly in the report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An *admitted* activation violates δ⁻ against an earlier admitted one.
    DeltaDistance {
        /// Index of the offending record in the admitted sub-stream.
        index: usize,
        /// Its admission-check timestamp.
        at: Instant,
        /// δ⁻ entry index of the first violated constraint.
        violated_distance: usize,
    },
    /// A sliding window holds more admitted activations than η⁺ allows.
    WindowCount {
        /// Window width `Δt`.
        width: Duration,
        /// Start of the offending window (an admitted activation).
        start: Instant,
        /// Activations observed in `[start, start + width)`.
        observed: u64,
        /// `η⁺(Δt)` for the configured δ⁻.
        allowed: u64,
    },
    /// An interposed window span exceeds the enforced budget plus the
    /// hypervisor blocks that preempted it.
    WindowOverrun {
        /// Window opening time.
        start: Instant,
        /// Measured span length.
        length: Duration,
        /// Budget plus overlapping hypervisor time.
        allowed: Duration,
    },
    /// The run's ledger does not cover every scheduled IRQ: completions,
    /// coalesced, overflow-rejected, overflow-dropped and still-queued
    /// events must sum to the number scheduled.
    IrqLost {
        /// Arrivals scheduled into the machine.
        scheduled: u64,
        /// Arrivals the ledger accounts for.
        accounted: u64,
    },
    /// The machine halted on an internal invariant violation.
    Defect {
        /// The machine's description of the defect.
        context: String,
    },
    /// A victim partition lost more service than the Eq. 13–16 bound.
    Independence {
        /// Physical core hosting the victim (0 on single-core platforms).
        core: usize,
        /// Victim partition index.
        victim: usize,
        /// Measured service loss vs the idle reference.
        lost: Duration,
        /// Interference bound (Eq. 14 plus the top-handler term).
        bound: Duration,
    },
    /// Supervision quarantined a source on a scenario declared nominal —
    /// a well-behaved stream must never be demoted.
    QuarantineOnNominal {
        /// The quarantined source index.
        source: usize,
        /// Time of the quarantine entry.
        at: Instant,
    },
    /// A quarantine entry is not justified by a recorded penalty signal of
    /// the same source at the same instant.
    UnjustifiedQuarantine {
        /// The quarantined source index.
        source: usize,
        /// Time of the quarantine entry.
        at: Instant,
    },
    /// A checkpoint replay diverged from the recorded run: at slot boundary
    /// `slot` the re-executed machine's state hash differs from the hash the
    /// original run recorded, or, at `slot` = boundaries + 1, the finished
    /// report differs. Either the simulation is not a pure function of its
    /// inputs, or the recorded state was corrupted in flight.
    ReplayDivergence {
        /// First slot boundary whose state hash mismatched (boundaries + 1
        /// for a report-only divergence at the horizon).
        slot: u64,
        /// The hash the original run recorded at that boundary (for the
        /// report, a digest of its `Debug` rendering).
        expected: u64,
        /// The hash the replayed machine produced (likewise).
        actual: u64,
        /// The scenario seed that reproduces the divergence.
        seed: u64,
    },
    /// A supervision upgrade (towards Healthy) happened before a full
    /// probation window elapsed since the source's previous transition or
    /// last penalty signal — the hysteresis the policy promises.
    PrematureRecovery {
        /// The upgraded source index.
        source: usize,
        /// Time of the upgrade.
        at: Instant,
        /// Time observed since the latest transition/signal of the source.
        elapsed: Duration,
        /// The policy's probation window.
        window: Duration,
    },
    /// A tenant's ledger does not cover every arrival scheduled for it:
    /// admitted, denied (any level), shed (any reason), lost-in-flight must
    /// partition the tenant's scheduled count. A mismatch names the tenant.
    TenantConservation {
        /// The tenant whose ledger failed to balance.
        tenant: usize,
        /// Arrivals scheduled for the tenant's sources.
        expected: u64,
        /// Arrivals the tenant's ledger accounts for.
        accounted: u64,
    },
    /// A tenant's merged admitted stream packs more activations into a
    /// sliding group-budget window than its δ⁻ group budget allows.
    GroupBudget {
        /// The offending tenant.
        tenant: usize,
        /// Start of the offending window (an admitted activation).
        start: Instant,
        /// Activations observed in `[start, start + window)`.
        observed: u64,
        /// The tenant's group budget for that window.
        allowed: u64,
    },
    /// The union of all tenants' admitted streams exceeds the global
    /// interference budget in a sliding window.
    GlobalBudget {
        /// Start of the offending window (an admitted activation).
        start: Instant,
        /// Activations observed in `[start, start + window)`.
        observed: u64,
        /// The global budget for that window.
        allowed: u64,
    },
}

impl Violation {
    /// Short kebab-case identifier for reports.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            Violation::DeltaDistance { .. } => "delta-distance",
            Violation::WindowCount { .. } => "window-count",
            Violation::WindowOverrun { .. } => "window-overrun",
            Violation::IrqLost { .. } => "irq-lost",
            Violation::Defect { .. } => "defect",
            Violation::Independence { .. } => "independence",
            Violation::QuarantineOnNominal { .. } => "quarantine-on-nominal",
            Violation::UnjustifiedQuarantine { .. } => "unjustified-quarantine",
            Violation::ReplayDivergence { .. } => "replay-divergence",
            Violation::PrematureRecovery { .. } => "premature-recovery",
            Violation::TenantConservation { .. } => "tenant-conservation",
            Violation::GroupBudget { .. } => "group-budget",
            Violation::GlobalBudget { .. } => "global-budget",
        }
    }

    /// One-line JSON object with integer-only numeric fields (deterministic
    /// across hosts — no floats, no wall-clock).
    #[must_use]
    pub fn to_json(&self) -> String {
        match self {
            Violation::DeltaDistance {
                index,
                at,
                violated_distance,
            } => format!(
                r#"{{"kind":"delta-distance","index":{index},"at_ns":{},"violated_distance":{violated_distance}}}"#,
                at.as_nanos()
            ),
            Violation::WindowCount {
                width,
                start,
                observed,
                allowed,
            } => format!(
                r#"{{"kind":"window-count","width_ns":{},"start_ns":{},"observed":{observed},"allowed":{allowed}}}"#,
                width.as_nanos(),
                start.as_nanos()
            ),
            Violation::WindowOverrun {
                start,
                length,
                allowed,
            } => format!(
                r#"{{"kind":"window-overrun","start_ns":{},"length_ns":{},"allowed_ns":{}}}"#,
                start.as_nanos(),
                length.as_nanos(),
                allowed.as_nanos()
            ),
            Violation::IrqLost {
                scheduled,
                accounted,
            } => {
                format!(r#"{{"kind":"irq-lost","scheduled":{scheduled},"accounted":{accounted}}}"#)
            }
            Violation::Defect { context } => {
                format!(r#"{{"kind":"defect","context":"{}"}}"#, escape(context))
            }
            Violation::Independence {
                core,
                victim,
                lost,
                bound,
            } => format!(
                r#"{{"kind":"independence","core":{core},"victim":{victim},"lost_ns":{},"bound_ns":{}}}"#,
                lost.as_nanos(),
                bound.as_nanos()
            ),
            Violation::QuarantineOnNominal { source, at } => format!(
                r#"{{"kind":"quarantine-on-nominal","source":{source},"at_ns":{}}}"#,
                at.as_nanos()
            ),
            Violation::UnjustifiedQuarantine { source, at } => format!(
                r#"{{"kind":"unjustified-quarantine","source":{source},"at_ns":{}}}"#,
                at.as_nanos()
            ),
            Violation::PrematureRecovery {
                source,
                at,
                elapsed,
                window,
            } => format!(
                r#"{{"kind":"premature-recovery","source":{source},"at_ns":{},"elapsed_ns":{},"window_ns":{}}}"#,
                at.as_nanos(),
                elapsed.as_nanos(),
                window.as_nanos()
            ),
            Violation::ReplayDivergence {
                slot,
                expected,
                actual,
                seed,
            } => format!(
                r#"{{"kind":"replay-divergence","slot":{slot},"expected":{expected},"actual":{actual},"seed":{seed}}}"#
            ),
            Violation::TenantConservation {
                tenant,
                expected,
                accounted,
            } => format!(
                r#"{{"kind":"tenant-conservation","tenant":{tenant},"expected":{expected},"accounted":{accounted}}}"#
            ),
            Violation::GroupBudget {
                tenant,
                start,
                observed,
                allowed,
            } => format!(
                r#"{{"kind":"group-budget","tenant":{tenant},"start_ns":{},"observed":{observed},"allowed":{allowed}}}"#,
                start.as_nanos()
            ),
            Violation::GlobalBudget {
                start,
                observed,
                allowed,
            } => format!(
                r#"{{"kind":"global-budget","start_ns":{},"observed":{observed},"allowed":{allowed}}}"#,
                start.as_nanos()
            ),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DeltaDistance {
                index,
                at,
                violated_distance,
            } => write!(
                f,
                "admitted activation #{index} at {at} violates δ⁻ entry {violated_distance}"
            ),
            Violation::WindowCount {
                width,
                start,
                observed,
                allowed,
            } => write!(
                f,
                "{observed} admitted activations in [{start}, +{width}) exceed η⁺ = {allowed}"
            ),
            Violation::WindowOverrun {
                start,
                length,
                allowed,
            } => write!(
                f,
                "interposed window at {start} ran {length}, allowed {allowed}"
            ),
            Violation::IrqLost {
                scheduled,
                accounted,
            } => write!(
                f,
                "IRQ ledger covers {accounted} of {scheduled} scheduled arrivals"
            ),
            Violation::Defect { context } => write!(f, "machine defect: {context}"),
            Violation::Independence {
                core,
                victim,
                lost,
                bound,
            } => write!(
                f,
                "core {core} partition {victim} lost {lost}, independence bound {bound}"
            ),
            Violation::QuarantineOnNominal { source, at } => {
                write!(f, "source {source} quarantined at {at} on a nominal run")
            }
            Violation::UnjustifiedQuarantine { source, at } => write!(
                f,
                "source {source} quarantined at {at} without a recorded signal"
            ),
            Violation::PrematureRecovery {
                source,
                at,
                elapsed,
                window,
            } => write!(
                f,
                "source {source} upgraded at {at} after only {elapsed} (window {window})"
            ),
            Violation::ReplayDivergence {
                slot,
                expected,
                actual,
                seed,
            } => write!(
                f,
                "replay diverged at slot boundary {slot}: recorded hash \
                 {expected:#018x}, replayed {actual:#018x} (repro seed {seed})"
            ),
            Violation::TenantConservation {
                tenant,
                expected,
                accounted,
            } => write!(
                f,
                "tenant {tenant} ledger covers {accounted} of {expected} scheduled arrivals"
            ),
            Violation::GroupBudget {
                tenant,
                start,
                observed,
                allowed,
            } => write!(
                f,
                "tenant {tenant} admitted {observed} in a group-budget window at {start}, allowed {allowed}"
            ),
            Violation::GlobalBudget {
                start,
                observed,
                allowed,
            } => write!(
                f,
                "global stream admitted {observed} in a budget window at {start}, allowed {allowed}"
            ),
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Replays a [`RunReport`] against the oracle's invariants and returns
/// every violation found (empty = the run upheld the paper's claims).
///
/// Assumes a single-subscriber source set (each arrival yields at most one
/// completion), which is what the fault campaign runs.
#[must_use]
pub fn check_report(report: &RunReport, oracle: &OracleConfig) -> Vec<Violation> {
    let mut violations = Vec::new();

    if let Some(delta) = &oracle.delta {
        let admitted: Vec<Instant> = report
            .admissions
            .iter()
            .filter(|r| r.admitted)
            .map(|r| r.check_at)
            .collect();
        check_delta_replay(&admitted, delta, &mut violations);
        check_window_counts(&admitted, delta, &mut violations);
    }

    if let (Some(windows), Some(hv)) = (&report.window_spans, &report.hv_spans) {
        check_window_budgets(windows, hv, oracle.budget, &mut violations);
    }

    check_conservation(report, oracle.scheduled, &mut violations);

    if let Some(defect) = &report.defect {
        violations.push(Violation::Defect {
            context: defect.to_string(),
        });
    }

    violations
}

/// Invariant A — distance check: feed the admitted activation stream back
/// through a fresh [`ActivationMonitor`]; every record must be admitted
/// again. Offenders are still recorded so later distances reflect the
/// stream that actually ran.
fn check_delta_replay(admitted: &[Instant], delta: &DeltaFunction, out: &mut Vec<Violation>) {
    let mut monitor = ActivationMonitor::new(delta.clone());
    for (index, &at) in admitted.iter().enumerate() {
        if let Admission::Denied { violated_distance } = monitor.check(at) {
            out.push(Violation::DeltaDistance {
                index,
                at,
                violated_distance,
            });
        }
        monitor.record_admitted(at);
    }
}

/// Invariant B — count check, independent of A's implementation: in any
/// half-open window `[t, t + Δt)` anchored at an admitted activation, the
/// number of admitted activations must not exceed `η⁺(Δt)`. Probes the
/// paper-relevant widths (1×, 2× and 5× `d_min`). Reports at most one
/// offending window per width (the first).
fn check_window_counts(admitted: &[Instant], delta: &DeltaFunction, out: &mut Vec<Violation>) {
    if delta.dmin().is_zero() {
        return;
    }
    for factor in [1u64, 2, 5] {
        let width = delta.dmin().saturating_mul(factor);
        let allowed = delta.eta_plus(width);
        if let Some((start, observed)) = window_counts(admitted, width).find(|&(_, n)| n > allowed)
        {
            out.push(Violation::WindowCount {
                width,
                start,
                observed,
                allowed,
            });
        }
    }
}

/// The two-pointer window sweep every count check shares: for each anchor
/// `admitted[lo]`, in order, the window start and how many admissions fall
/// in `[admitted[lo], admitted[lo] + width)`. `admitted` must be in
/// non-decreasing time order.
fn window_counts(
    admitted: &[Instant],
    width: Duration,
) -> impl Iterator<Item = (Instant, u64)> + '_ {
    let mut hi = 0usize;
    admitted.iter().enumerate().map(move |(lo, &start)| {
        let end = start + width;
        hi = hi.max(lo);
        while hi < admitted.len() && admitted[hi] < end {
            hi += 1;
        }
        (start, (hi - lo) as u64)
    })
}

/// The fleet-wide per-victim oracle: holds one victim's *merged* admitted
/// activation stream — the union of every admission any shard granted the
/// victim's source, across crash/failover cuts — to the Eq. 13–16
/// independence bound.
///
/// Three independent checks per victim:
///
/// * the δ⁻ distance replay (invariant A) over the merged stream — a shard
///   restored from a stale or empty checkpoint admits too densely right at
///   the crash cut, and the first post-crash admission lands here;
/// * the η⁺ sliding-window count check (invariant B) at 1×, 2× and 5×
///   `d_min`;
/// * the interference bound itself: the worst observed window charge
///   `count · C'_BH` must stay within `η⁺(Δt) · C'_BH` (Eq. 14 via
///   [`interference_bound`]), reported as [`Violation::Independence`] with
///   the victim's source index.
///
/// `admitted` must be in non-decreasing time order (merge the per-shard
/// streams before calling). A δ⁻ with `d_min = 0` bounds nothing and
/// returns no violations, matching [`check_report`].
///
/// `core` is the physical core hosting the victim's stream — multi-core
/// platforms check each `(core, admitted-on-that-core)` substream
/// separately (a failed-over stream restarts on a fresh monitor, so
/// merging across the crash cut would manufacture false positives) and
/// the reported [`Violation::Independence`] names the core. Single-core
/// callers pass `0`.
#[must_use]
pub fn check_admitted_stream(
    core: usize,
    victim: usize,
    admitted: &[Instant],
    delta: &DeltaFunction,
    effective_cost: Duration,
) -> Vec<Violation> {
    let mut out = Vec::new();
    check_delta_replay(admitted, delta, &mut out);
    check_window_counts(admitted, delta, &mut out);
    if delta.dmin().is_zero() {
        return out;
    }
    for factor in [1u64, 2, 5] {
        let width = delta.dmin().saturating_mul(factor);
        let bound = interference_bound(width, delta, effective_cost);
        let worst = window_counts(admitted, width)
            .map(|(_, n)| n)
            .max()
            .unwrap_or(0);
        let lost = effective_cost.saturating_mul(worst);
        if lost > bound {
            out.push(Violation::Independence {
                core,
                victim,
                lost,
                bound,
            });
        }
    }
    out
}

/// Sliding-count check of one tenant's merged admitted stream against its
/// δ⁻ group budget: no window `[t, t + window)` anchored at an admission
/// may hold more than `budget` admissions. η⁺ cannot express this bound
/// (a group δ⁻ has `d_min = 0`), so the count is checked directly with a
/// two-pointer sweep. `admitted` must be in non-decreasing time order.
/// Only the first offending window is reported.
#[must_use]
pub fn check_group_budget(
    tenant: usize,
    admitted: &[Instant],
    budget: u64,
    window: Duration,
) -> Vec<Violation> {
    window_counts(admitted, window)
        .find(|&(_, n)| n > budget)
        .map(|(start, observed)| Violation::GroupBudget {
            tenant,
            start,
            observed,
            allowed: budget,
        })
        .into_iter()
        .collect()
}

/// Sliding-count check of the union of all tenants' admitted streams
/// against the global interference budget (same sweep as
/// [`check_group_budget`], fleet-wide). `admitted` must be in
/// non-decreasing time order. Only the first offending window is reported.
#[must_use]
pub fn check_global_budget(admitted: &[Instant], budget: u64, window: Duration) -> Vec<Violation> {
    window_counts(admitted, window)
        .find(|&(_, n)| n > budget)
        .map(|(start, observed)| Violation::GlobalBudget {
            start,
            observed,
            allowed: budget,
        })
        .into_iter()
        .collect()
}

/// Invariant C — budget check: each traced interposed window may span its
/// enforced budget plus whatever hypervisor blocks (new arrivals latching)
/// preempted it while open. Both span lists are in increasing start order.
fn check_window_budgets(windows: &[Span], hv: &[Span], budget: Duration, out: &mut Vec<Violation>) {
    let mut first_hv = 0usize;
    for w in windows {
        while first_hv < hv.len() && hv[first_hv].end <= w.start {
            first_hv += 1;
        }
        let mut nested = Duration::ZERO;
        for block in &hv[first_hv..] {
            if block.start >= w.end {
                break;
            }
            let overlap_start = block.start.max(w.start);
            let overlap_end = block.end.min(w.end);
            nested += overlap_end.saturating_duration_since(overlap_start);
        }
        let allowed = budget + nested;
        let length = w.length();
        if length > allowed {
            out.push(Violation::WindowOverrun {
                start: w.start,
                length,
                allowed,
            });
        }
    }
}

/// Invariant D — conservation: every scheduled arrival is either completed,
/// coalesced into a pending flag, refused or dropped by a bounded queue, or
/// still outstanding at the end of the run. Anything else means the machine
/// silently lost an IRQ.
fn check_conservation(report: &RunReport, scheduled: u64, out: &mut Vec<Violation>) {
    let accounted = report.recorder.len() as u64
        + report.counters.coalesced_irqs
        + report.counters.overflow_rejected
        + report.counters.overflow_dropped
        + report.outstanding;
    if accounted != scheduled {
        out.push(Violation::IrqLost {
            scheduled,
            accounted,
        });
    }
}

/// Invariant S — quarantine soundness over the supervision event log:
///
/// * on a scenario declared nominal, no quarantine may ever trigger;
/// * every quarantine entry must be justified by a penalty signal of the
///   same source recorded at the same instant (demotions are never
///   spontaneous);
/// * every upgrade towards Healthy must respect hysteresis — at least one
///   full probation window since the source's previous transition *and*
///   since its latest penalty signal.
///
/// Returns nothing for runs without supervision enabled.
#[must_use]
pub fn check_supervision(report: &RunReport, expect_nominal: bool) -> Vec<Violation> {
    let mut violations = Vec::new();
    let Some(supervision) = &report.supervision else {
        return violations;
    };
    check_supervision_log(supervision, expect_nominal, &mut violations);
    violations
}

fn check_supervision_log(
    supervision: &SupervisionReport,
    expect_nominal: bool,
    out: &mut Vec<Violation>,
) {
    let window = supervision.policy.probation_window;
    let n_sources = supervision.final_states.len();
    // Latest penalty signal and latest transition per source, scanned in
    // log order (the log is chronological by construction).
    let mut last_signal: Vec<Option<Instant>> = vec![None; n_sources];
    let mut last_transition: Vec<Option<Instant>> = vec![None; n_sources];
    for event in &supervision.events {
        let source = event.source;
        match event.kind {
            SupervisionEventKind::Signal(_) => {
                last_signal[source] = Some(event.at);
            }
            SupervisionEventKind::Transition(transition) => {
                if transition.to == HealthState::Quarantined {
                    if expect_nominal {
                        out.push(Violation::QuarantineOnNominal {
                            source,
                            at: event.at,
                        });
                    }
                    // A demotion into quarantine must coincide with a
                    // recorded penalty signal of the same source.
                    if last_signal[source] != Some(event.at) {
                        out.push(Violation::UnjustifiedQuarantine {
                            source,
                            at: event.at,
                        });
                    }
                }
                let upgrade = matches!(
                    (transition.from, transition.to),
                    (HealthState::Probation, HealthState::Healthy)
                        | (HealthState::Quarantined, HealthState::Recovering)
                        | (HealthState::Recovering, HealthState::Healthy)
                );
                if upgrade {
                    let anchors = [last_transition[source], last_signal[source]];
                    let elapsed = anchors
                        .iter()
                        .flatten()
                        .map(|&anchor| event.at.saturating_duration_since(anchor))
                        .min();
                    if let Some(elapsed) = elapsed {
                        if elapsed < window {
                            out.push(Violation::PrematureRecovery {
                                source,
                                at: event.at,
                                elapsed,
                                window,
                            });
                        }
                    }
                }
                last_transition[source] = Some(event.at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rthv::{
        AdmissionRecord, Counters, HandlingClass, IrqCompletion, IrqSourceId, PartitionId,
        TraceRecorder,
    };

    fn us(n: u64) -> Duration {
        Duration::from_micros(n)
    }

    fn at_us(n: u64) -> Instant {
        Instant::from_micros(n)
    }

    fn admission(seq: u64, check_us: u64, admitted: bool) -> AdmissionRecord {
        AdmissionRecord {
            source: IrqSourceId::new(0),
            seq,
            check_at: at_us(check_us),
            admitted,
        }
    }

    fn completion(seq: u64) -> IrqCompletion {
        IrqCompletion {
            source: IrqSourceId::new(0),
            seq,
            partition: PartitionId::new(1),
            arrival: at_us(10 * seq),
            completed: at_us(10 * seq + 5),
            class: HandlingClass::Direct,
        }
    }

    fn empty_report() -> RunReport {
        RunReport {
            recorder: TraceRecorder::new(),
            counters: Counters::new(3),
            end: at_us(1_000),
            monitor_stats: vec![None],
            window_openings: Vec::new(),
            admissions: Vec::new(),
            outstanding: 0,
            defect: None,
            service_intervals: None,
            hv_spans: None,
            window_spans: None,
            supervision: None,
        }
    }

    fn oracle(delta_us: Option<u64>, scheduled: u64) -> OracleConfig {
        OracleConfig {
            delta: delta_us.map(|d| DeltaFunction::from_dmin(us(d)).expect("positive d_min")),
            budget: us(30),
            scheduled,
        }
    }

    #[test]
    fn clean_report_passes() {
        let mut report = empty_report();
        report.admissions = vec![
            admission(0, 100, true),
            admission(1, 150, false),
            admission(2, 400, true),
        ];
        report
            .recorder
            .extend([completion(0), completion(1), completion(2)]);
        assert!(check_report(&report, &oracle(Some(300), 3)).is_empty());
    }

    #[test]
    fn non_conformant_admitted_stream_is_caught_twice() {
        // Three admitted activations 50 µs apart under d_min = 300 µs: the
        // distance replay and the independent window count both fire.
        let mut report = empty_report();
        report.admissions = vec![
            admission(0, 100, true),
            admission(1, 150, true),
            admission(2, 200, true),
        ];
        report.recorder.extend((0..3).map(completion));
        let violations = check_report(&report, &oracle(Some(300), 3));
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::DeltaDistance {
                index: 1,
                violated_distance: 0,
                ..
            }
        )));
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::WindowCount {
                observed: 3,
                allowed: 2,
                ..
            }
        )));
    }

    #[test]
    fn denied_records_do_not_trip_the_replay() {
        let mut report = empty_report();
        report.admissions = vec![
            admission(0, 100, true),
            admission(1, 120, false),
            admission(2, 140, false),
            admission(3, 500, true),
        ];
        report.recorder.extend((0..4).map(completion));
        assert!(check_report(&report, &oracle(Some(300), 4)).is_empty());
    }

    #[test]
    fn unmonitored_oracle_skips_conformance() {
        let mut report = empty_report();
        report.admissions = vec![admission(0, 100, true), admission(1, 101, true)];
        report.recorder.extend([completion(0), completion(1)]);
        assert!(check_report(&report, &oracle(None, 2)).is_empty());
    }

    #[test]
    fn lost_irq_is_caught() {
        let mut report = empty_report();
        report.recorder.extend([completion(0)]);
        let violations = check_report(&report, &oracle(None, 3));
        assert_eq!(
            violations,
            vec![Violation::IrqLost {
                scheduled: 3,
                accounted: 1
            }]
        );
    }

    #[test]
    fn ledger_counts_every_degradation_path() {
        let mut report = empty_report();
        report.recorder.extend([completion(0)]);
        report.counters.coalesced_irqs = 1;
        report.counters.overflow_rejected = 2;
        report.counters.overflow_dropped = 1;
        report.outstanding = 1;
        assert!(check_report(&report, &oracle(None, 6)).is_empty());
    }

    #[test]
    fn overrunning_window_is_caught_but_nested_hv_time_is_excused() {
        let mut report = empty_report();
        report.window_spans = Some(vec![
            // 30 µs budget, no preemption: fine.
            Span {
                start: at_us(100),
                end: at_us(130),
            },
            // 40 µs span, 10 µs hv block inside: exactly allowed.
            Span {
                start: at_us(200),
                end: at_us(240),
            },
            // 50 µs span, nothing to excuse it.
            Span {
                start: at_us(300),
                end: at_us(350),
            },
        ]);
        report.hv_spans = Some(vec![Span {
            start: at_us(210),
            end: at_us(220),
        }]);
        let violations = check_report(&report, &oracle(None, 0));
        assert_eq!(
            violations,
            vec![Violation::WindowOverrun {
                start: at_us(300),
                length: us(50),
                allowed: us(30),
            }]
        );
    }

    #[test]
    fn defect_surfaces_as_violation() {
        let mut report = empty_report();
        report.defect = Some(rthv::MachineError::InvariantViolated {
            context: "test defect",
            at: at_us(42),
        });
        let violations = check_report(&report, &oracle(None, 0));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].slug(), "defect");
        assert!(violations[0].to_json().contains("test defect"));
    }

    #[test]
    fn violation_json_is_integer_only() {
        let v = Violation::Independence {
            core: 0,
            victim: 0,
            lost: Duration::from_nanos(223_000_001),
            bound: Duration::from_nanos(26_800_000),
        };
        assert_eq!(
            v.to_json(),
            r#"{"kind":"independence","core":0,"victim":0,"lost_ns":223000001,"bound_ns":26800000}"#
        );
        assert_eq!(v.slug(), "independence");
    }
}
