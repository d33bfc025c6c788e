//! The fault-injection campaign: every scenario run monitored and
//! unmonitored, checked by the oracle, summarized in a deterministic
//! JSON report.
//!
//! Each scenario runs twice under [`IrqHandlingMode::Interposed`]:
//!
//! * **monitored** — the real δ⁻ monitor at the campaign's `d_min`; the
//!   oracle must find nothing, including the independence check against
//!   the Eq. 13–16 bound;
//! * **unmonitored** — an admit-everything shaper (`δ⁻` with a 1 ns
//!   distance), i.e. interposition with the paper's safety mechanism
//!   switched off. Under an IRQ storm this baseline *must* violate the
//!   independence bound — that contrast is the campaign's point, and the
//!   report records it.
//!
//! Scenario outcomes are pure functions of `(config, scenario)`;
//! [`CampaignReport::from_outcomes`] assembles them in scenario order, so a
//! parallel fan-out (the `campaign` binary uses the bench crate's
//! `SweepRunner`) yields a byte-identical report to [`run_campaign`]'s
//! sequential loop.
//!
//! [`IrqHandlingMode::Interposed`]: rthv::IrqHandlingMode::Interposed

use std::fmt::Write as _;

use rthv::monitor::{interference_bound_dmin, DeltaFunction};
use rthv::time::{Duration, Instant};
use rthv::{
    ConfigError, EngineChoice, IrqHandlingMode, IrqSourceId, Machine, OverflowPolicy, PaperSetup,
    PartitionId, RunReport, ScheduleIrqError, SupervisionPolicy,
};

use crate::inject::{standard_scenarios, FaultPlan, FaultScenario};
use crate::oracle::{check_report, OracleConfig, Violation};

/// Campaign-wide parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Platform setup (defaults to the paper's Section-6 platform).
    pub setup: PaperSetup,
    /// Monitoring distance `d_min` enforced in the monitored runs.
    pub dmin: Duration,
    /// Simulation horizon per run.
    pub horizon: Duration,
    /// Bound on the subscriber's IRQ queue (`None` = unbounded); bounded
    /// queues exercise the graceful-degradation overflow paths.
    pub queue_capacity: Option<usize>,
    /// What a full bounded queue does with the excess.
    pub overflow: OverflowPolicy,
    /// An engine name the campaign selects nothing by; see
    /// [`EngineChoice`]. It goes with ROADMAP item 7.
    pub engine: EngineChoice,
    /// The scenarios to run.
    pub scenarios: Vec<FaultScenario>,
}

impl Default for CampaignConfig {
    /// The standard campaign: the paper platform, `d_min = 3 ms`, a 500 ms
    /// horizon, a 16-deep subscriber queue, and 21 scenarios (three tiers
    /// of all seven fault families).
    fn default() -> Self {
        CampaignConfig {
            setup: PaperSetup::default(),
            dmin: Duration::from_millis(3),
            horizon: Duration::from_millis(500),
            queue_capacity: Some(16),
            overflow: OverflowPolicy::RejectNewest,
            engine: EngineChoice::Auto,
            scenarios: standard_scenarios(21, 0xFA_2014),
        }
    }
}

impl CampaignConfig {
    /// The victim partitions: everyone but the IRQ subscriber.
    fn victims(&self) -> Vec<PartitionId> {
        let subscriber = self.setup.subscriber();
        (0..3)
            .map(PartitionId::new)
            .filter(|p| *p != subscriber)
            .collect()
    }
}

/// Why a campaign could not be set up: the user-supplied configuration is
/// invalid. Typed so the campaign binaries report the exact defect and
/// exit cleanly instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignConfigError {
    /// `dmin` cannot parameterize a δ⁻ function (it must be positive).
    InvalidDmin {
        /// The rejected monitoring distance.
        dmin: Duration,
    },
    /// The platform configuration the campaign builds is invalid.
    Platform(ConfigError),
    /// A plan arrival could not be scheduled into the campaign machine.
    Arrival(ScheduleIrqError),
    /// The replay configuration's checkpoint period is zero.
    ZeroCheckpointPeriod,
}

impl std::fmt::Display for CampaignConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignConfigError::InvalidDmin { dmin } => {
                write!(f, "d_min {dmin} cannot parameterize a δ⁻ function")
            }
            CampaignConfigError::Platform(error) => {
                write!(f, "invalid campaign platform: {error}")
            }
            CampaignConfigError::Arrival(error) => {
                write!(f, "unschedulable plan arrival: {error}")
            }
            CampaignConfigError::ZeroCheckpointPeriod => {
                write!(f, "replay checkpoint period must be non-zero")
            }
        }
    }
}

impl std::error::Error for CampaignConfigError {}

impl From<ConfigError> for CampaignConfigError {
    fn from(error: ConfigError) -> Self {
        CampaignConfigError::Platform(error)
    }
}

/// Per-partition service totals of a run with no IRQs at all — the
/// reference the independence check measures loss against. Depends only on
/// the platform geometry and horizon, so it is computed once per campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleReference {
    service: Vec<Duration>,
}

/// Runs the no-IRQ reference once.
///
/// # Errors
///
/// [`CampaignConfigError`] if the campaign's platform configuration is
/// invalid.
pub fn idle_reference(config: &CampaignConfig) -> Result<IdleReference, CampaignConfigError> {
    let delta = campaign_delta(config.dmin)?;
    let hv = config
        .setup
        .config(IrqHandlingMode::Interposed, Some(delta));
    let mut machine = Machine::new(hv)?;
    machine.run_until(Instant::ZERO + config.horizon);
    let report = machine.finish();
    Ok(IdleReference {
        service: report
            .counters
            .service
            .iter()
            .map(rthv::PartitionService::total)
            .collect(),
    })
}

/// One mode's outcome (monitored or unmonitored) for one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeOutcome {
    /// Whether the real δ⁻ monitor was enforced.
    pub monitored: bool,
    /// Bottom-handler completions.
    pub completions: u64,
    /// Interposed windows opened.
    pub interposed_windows: u64,
    /// Monitor denials.
    pub monitor_denied: u64,
    /// Arrivals refused by the bounded queue.
    pub overflow_rejected: u64,
    /// Queued events discarded for newer ones.
    pub overflow_dropped: u64,
    /// Arrivals coalesced into an already-pending flag.
    pub coalesced: u64,
    /// Work still queued at the horizon.
    pub outstanding: u64,
    /// Windows clipped at their budget.
    pub expired_windows: u64,
    /// Worst victim service loss vs the idle reference.
    pub worst_victim_loss: Duration,
    /// The Eq. 13–16 independence bound this run was held against.
    pub independence_bound: Duration,
    /// Everything the oracle found (including independence violations).
    pub violations: Vec<Violation>,
}

/// Both modes of one scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioOutcome {
    /// Stable scenario label (`id-slug`).
    pub label: String,
    /// The scenario's seed.
    pub seed: u64,
    /// Arrivals scheduled (identical in both modes).
    pub scheduled: u64,
    /// Outcome with the real δ⁻ monitor.
    pub monitored: ModeOutcome,
    /// Outcome with the admit-everything shaper.
    pub unmonitored: ModeOutcome,
}

/// Builds the campaign's δ⁻ function, rejecting distances that cannot
/// shape any stream (zero, or structurally invalid).
fn campaign_delta(dmin: Duration) -> Result<DeltaFunction, CampaignConfigError> {
    if dmin.is_zero() {
        return Err(CampaignConfigError::InvalidDmin { dmin });
    }
    DeltaFunction::from_dmin(dmin).map_err(|_| CampaignConfigError::InvalidDmin { dmin })
}

pub(crate) fn run_mode(
    config: &CampaignConfig,
    idle: &IdleReference,
    plan: &FaultPlan,
    monitored: bool,
) -> Result<ModeOutcome, CampaignConfigError> {
    Ok(run_mode_report(config, idle, plan, monitored, None)?.0)
}

/// Builds the campaign machine for one mode of one scenario plan, with
/// every arrival already scheduled — exactly the machine each campaign
/// run drives to the horizon. Exposed so the [`replay`](crate::replay)
/// oracle re-executes the *same* machine, not a reimplementation of it.
///
/// # Errors
///
/// [`CampaignConfigError`] if the campaign platform configuration is
/// invalid or a plan arrival cannot be scheduled.
pub fn scenario_machine(
    config: &CampaignConfig,
    plan: &FaultPlan,
    monitored: bool,
    supervision: Option<SupervisionPolicy>,
) -> Result<Machine, CampaignConfigError> {
    // The unmonitored baseline still runs interposed, but its "monitor"
    // admits any stream with 1 ns spacing — the safety mechanism is off.
    let dmin = if monitored {
        config.dmin
    } else {
        Duration::from_nanos(1)
    };
    let delta = campaign_delta(dmin)?;
    let mut hv = config
        .setup
        .config(IrqHandlingMode::Interposed, Some(delta));
    hv.policies.admission_clock = plan.admission_clock;
    hv.policies.overflow = config.overflow;
    hv.policies.supervision = supervision;
    hv.partitions[config.setup.subscriber().index()].queue_capacity = config.queue_capacity;

    let mut machine = Machine::new(hv)?;
    machine.enable_service_trace();
    machine.reserve_events(plan.arrivals.len());
    for arrival in &plan.arrivals {
        machine
            .schedule_irq_with_work(IrqSourceId::new(0), arrival.at, arrival.work)
            .map_err(CampaignConfigError::Arrival)?;
    }
    Ok(machine)
}

/// Like [`run_mode`], but optionally enables runtime health supervision and
/// also hands back the full [`RunReport`], so the supervised campaign can
/// inspect supervision counters and run the quarantine-soundness oracle.
pub(crate) fn run_mode_report(
    config: &CampaignConfig,
    idle: &IdleReference,
    plan: &FaultPlan,
    monitored: bool,
    supervision: Option<SupervisionPolicy>,
) -> Result<(ModeOutcome, RunReport), CampaignConfigError> {
    let (outcome, report, _) =
        run_mode_observed(config, idle, plan, monitored, supervision, false)?;
    Ok((outcome, report))
}

/// Like [`run_mode_report`], but when `metrics` is set the machine runs with
/// the flight-recorder observability layer enabled and the third element of
/// the return value carries the deterministic metrics snapshot JSON.
/// Metrics are pure observation: the [`ModeOutcome`] is byte-identical to a
/// bare run's, which the determinism tests assert.
pub(crate) fn run_mode_observed(
    config: &CampaignConfig,
    idle: &IdleReference,
    plan: &FaultPlan,
    monitored: bool,
    supervision: Option<SupervisionPolicy>,
    metrics: bool,
) -> Result<(ModeOutcome, RunReport, Option<String>), CampaignConfigError> {
    let mut machine = scenario_machine(config, plan, monitored, supervision)?;
    if metrics {
        let obs_config = machine.default_obs_config();
        machine.enable_metrics(obs_config);
    }
    machine.run_until(Instant::ZERO + config.horizon);
    let obs = machine.metrics_snapshot_json();
    let report = machine.finish();

    let scheduled = plan.arrivals.len() as u64;
    let delta = if monitored {
        Some(
            DeltaFunction::from_dmin(config.dmin)
                .map_err(|_| CampaignConfigError::InvalidDmin { dmin: config.dmin })?,
        )
    } else {
        None
    };
    let oracle = OracleConfig {
        delta,
        budget: config.setup.bottom_cost,
        scheduled,
    };
    let mut violations = check_report(&report, &oracle);

    // Independence (Eq. 14 plus the per-arrival top-handler term, Eq. 15):
    // measured against the idle reference for every victim. The bound is
    // the *monitored* system's guarantee; the unmonitored baseline is held
    // to the same bound to demonstrate where it breaks.
    let bound = interference_bound_dmin(
        config.horizon,
        config.dmin,
        config.setup.effective_bottom_cost(),
    ) + config
        .setup
        .costs
        .monitored_top_cost()
        .saturating_mul(scheduled);
    let mut worst_loss = Duration::ZERO;
    for victim in config.victims() {
        let lost =
            idle.service[victim.index()].saturating_sub(report.counters.service_of(victim).total());
        worst_loss = worst_loss.max(lost);
        if lost > bound {
            violations.push(Violation::Independence {
                core: 0,
                victim: victim.index(),
                lost,
                bound,
            });
        }
    }

    let outcome = mode_outcome(monitored, &report, worst_loss, bound, violations);
    Ok((outcome, report, obs))
}

fn mode_outcome(
    monitored: bool,
    report: &RunReport,
    worst_victim_loss: Duration,
    independence_bound: Duration,
    violations: Vec<Violation>,
) -> ModeOutcome {
    ModeOutcome {
        monitored,
        completions: report.recorder.len() as u64,
        interposed_windows: report.counters.interposed_windows,
        monitor_denied: report.counters.monitor_denied,
        overflow_rejected: report.counters.overflow_rejected,
        overflow_dropped: report.counters.overflow_dropped,
        coalesced: report.counters.coalesced_irqs,
        outstanding: report.outstanding,
        expired_windows: report.counters.expired_windows,
        worst_victim_loss,
        independence_bound,
        violations,
    }
}

/// Runs one scenario in both modes. Pure in `(config, idle, scenario)` and
/// `Sync`-friendly, so campaign binaries can fan scenarios across threads
/// and still assemble a byte-identical report.
///
/// # Errors
///
/// [`CampaignConfigError`] if the campaign configuration is invalid.
pub fn run_scenario(
    config: &CampaignConfig,
    idle: &IdleReference,
    scenario: &FaultScenario,
) -> Result<ScenarioOutcome, CampaignConfigError> {
    let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
    Ok(ScenarioOutcome {
        label: scenario.label(),
        seed: scenario.seed,
        scheduled: plan.arrivals.len() as u64,
        monitored: run_mode(config, idle, &plan, true)?,
        unmonitored: run_mode(config, idle, &plan, false)?,
    })
}

/// One scenario's outcome together with the observability snapshots of both
/// runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioObservation {
    /// The scenario outcome — byte-identical to [`run_scenario`]'s.
    pub outcome: ScenarioOutcome,
    /// Metrics snapshot JSON of the monitored run.
    pub monitored_obs: String,
    /// Metrics snapshot JSON of the unmonitored run.
    pub unmonitored_obs: String,
}

/// Runs one scenario in both modes with the flight-recorder observability
/// layer enabled, returning the outcome plus both metrics snapshots.
///
/// Metrics are pure observation: the returned [`ScenarioOutcome`] is
/// identical to what [`run_scenario`] produces without them (given the same
/// `supervision`), and two calls with the same inputs yield byte-identical
/// snapshot JSON — both properties are pinned by tests.
///
/// # Errors
///
/// [`CampaignConfigError`] if the campaign configuration is invalid.
pub fn run_scenario_with_metrics(
    config: &CampaignConfig,
    idle: &IdleReference,
    scenario: &FaultScenario,
    supervision: Option<SupervisionPolicy>,
) -> Result<ScenarioObservation, CampaignConfigError> {
    let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
    let (monitored, _, monitored_obs) =
        run_mode_observed(config, idle, &plan, true, supervision, true)?;
    let (unmonitored, _, unmonitored_obs) =
        run_mode_observed(config, idle, &plan, false, supervision, true)?;
    Ok(ScenarioObservation {
        outcome: ScenarioOutcome {
            label: scenario.label(),
            seed: scenario.seed,
            scheduled: plan.arrivals.len() as u64,
            monitored,
            unmonitored,
        },
        monitored_obs: monitored_obs.expect("metrics were enabled"),
        unmonitored_obs: unmonitored_obs.expect("metrics were enabled"),
    })
}

/// The whole campaign's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Monitoring distance of the monitored runs.
    pub dmin: Duration,
    /// Horizon per run.
    pub horizon: Duration,
    /// Subscriber queue bound (0 encodes unbounded in the JSON).
    pub queue_capacity: Option<usize>,
    /// Per-scenario outcomes, in scenario order.
    pub scenarios: Vec<ScenarioOutcome>,
}

impl CampaignReport {
    /// Assembles a report from per-scenario outcomes **in scenario order**.
    /// The sequential [`run_campaign`] and any parallel fan-out that
    /// preserves input order produce identical reports.
    #[must_use]
    pub fn from_outcomes(config: &CampaignConfig, outcomes: Vec<ScenarioOutcome>) -> Self {
        CampaignReport {
            dmin: config.dmin,
            horizon: config.horizon,
            queue_capacity: config.queue_capacity,
            scenarios: outcomes,
        }
    }

    /// Oracle violations across all monitored runs (must be zero).
    #[must_use]
    pub fn monitored_violations(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.monitored.violations.len() as u64)
            .sum()
    }

    /// Oracle violations across all unmonitored baseline runs.
    #[must_use]
    pub fn unmonitored_violations(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.unmonitored.violations.len() as u64)
            .sum()
    }

    /// Independence violations of the unmonitored baseline (the campaign
    /// must demonstrate at least one, under the IRQ storm).
    #[must_use]
    pub fn unmonitored_independence_violations(&self) -> u64 {
        self.scenarios
            .iter()
            .flat_map(|s| &s.unmonitored.violations)
            .filter(|v| matches!(v, Violation::Independence { .. }))
            .count() as u64
    }

    /// Serializes the report as JSON. Every numeric field is an integer
    /// (nanoseconds or counts) and nothing reads the wall clock, so equal
    /// campaigns serialize byte-identically on any host.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, r#"  "campaign": "fault-injection","#);
        let _ = writeln!(out, r#"  "dmin_ns": {},"#, self.dmin.as_nanos());
        let _ = writeln!(out, r#"  "horizon_ns": {},"#, self.horizon.as_nanos());
        let _ = writeln!(
            out,
            r#"  "queue_capacity": {},"#,
            self.queue_capacity.unwrap_or(0)
        );
        let _ = writeln!(out, r#"  "scenario_count": {},"#, self.scenarios.len());
        let _ = writeln!(
            out,
            r#"  "monitored_violations": {},"#,
            self.monitored_violations()
        );
        let _ = writeln!(
            out,
            r#"  "unmonitored_violations": {},"#,
            self.unmonitored_violations()
        );
        let _ = writeln!(
            out,
            r#"  "unmonitored_independence_violations": {},"#,
            self.unmonitored_independence_violations()
        );
        let _ = writeln!(out, r#"  "scenarios": ["#);
        for (i, s) in self.scenarios.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, r#"      "label": "{}","#, s.label);
            let _ = writeln!(out, r#"      "seed": {},"#, s.seed);
            let _ = writeln!(out, r#"      "scheduled": {},"#, s.scheduled);
            write_mode(&mut out, "monitored", &s.monitored, ",");
            write_mode(&mut out, "unmonitored", &s.unmonitored, "");
            let comma = if i + 1 < self.scenarios.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(out, "    }}{comma}");
        }
        let _ = writeln!(out, "  ]");
        let _ = writeln!(out, "}}");
        out
    }
}

pub(crate) fn write_mode(out: &mut String, key: &str, mode: &ModeOutcome, trailer: &str) {
    let _ = writeln!(out, r#"      "{key}": {{"#);
    let _ = writeln!(out, r#"        "completions": {},"#, mode.completions);
    let _ = writeln!(
        out,
        r#"        "interposed_windows": {},"#,
        mode.interposed_windows
    );
    let _ = writeln!(out, r#"        "monitor_denied": {},"#, mode.monitor_denied);
    let _ = writeln!(
        out,
        r#"        "overflow_rejected": {},"#,
        mode.overflow_rejected
    );
    let _ = writeln!(
        out,
        r#"        "overflow_dropped": {},"#,
        mode.overflow_dropped
    );
    let _ = writeln!(out, r#"        "coalesced": {},"#, mode.coalesced);
    let _ = writeln!(out, r#"        "outstanding": {},"#, mode.outstanding);
    let _ = writeln!(
        out,
        r#"        "expired_windows": {},"#,
        mode.expired_windows
    );
    let _ = writeln!(
        out,
        r#"        "worst_victim_loss_ns": {},"#,
        mode.worst_victim_loss.as_nanos()
    );
    let _ = writeln!(
        out,
        r#"        "independence_bound_ns": {},"#,
        mode.independence_bound.as_nanos()
    );
    let violations: Vec<String> = mode.violations.iter().map(Violation::to_json).collect();
    if violations.is_empty() {
        let _ = writeln!(out, r#"        "violations": []"#);
    } else {
        let _ = writeln!(out, r#"        "violations": ["#);
        for (i, v) in violations.iter().enumerate() {
            let comma = if i + 1 < violations.len() { "," } else { "" };
            let _ = writeln!(out, "          {v}{comma}");
        }
        let _ = writeln!(out, "        ]");
    }
    let _ = writeln!(out, "      }}{trailer}");
}

/// Runs the whole campaign sequentially (the reference path; the `campaign`
/// binary fans [`run_scenario`] over threads instead and must produce a
/// byte-identical report).
///
/// # Errors
///
/// [`CampaignConfigError`] if the campaign configuration is invalid.
pub fn run_campaign(config: &CampaignConfig) -> Result<CampaignReport, CampaignConfigError> {
    let idle = idle_reference(config)?;
    let outcomes = config
        .scenarios
        .iter()
        .map(|s| run_scenario(config, &idle, s))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(CampaignReport::from_outcomes(config, outcomes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::FaultKind;

    /// A short campaign that still contains the decisive storm scenario.
    fn small() -> CampaignConfig {
        CampaignConfig {
            horizon: Duration::from_millis(200),
            scenarios: vec![
                FaultScenario {
                    id: 0,
                    kind: FaultKind::IrqStorm {
                        period: Duration::from_micros(300),
                    },
                    seed: 0xFA,
                },
                FaultScenario {
                    id: 1,
                    kind: FaultKind::BudgetOverrun {
                        period: Duration::from_millis(1),
                        factor: 4,
                    },
                    seed: 0xFB,
                },
            ],
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn monitored_runs_are_violation_free() {
        let report = run_campaign(&small()).expect("valid config");
        assert_eq!(
            report.monitored_violations(),
            0,
            "monitored violations: {:?}",
            report
                .scenarios
                .iter()
                .flat_map(|s| &s.monitored.violations)
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn unmonitored_storm_breaks_independence() {
        let report = run_campaign(&small()).expect("valid config");
        assert!(report.unmonitored_independence_violations() >= 1);
        let storm = &report.scenarios[0];
        assert!(storm
            .unmonitored
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Independence { .. })));
        assert!(storm.unmonitored.worst_victim_loss > storm.unmonitored.independence_bound);
        assert!(storm.monitored.worst_victim_loss <= storm.monitored.independence_bound);
    }

    #[test]
    fn bounded_queue_degrades_gracefully_under_storm() {
        let report = run_campaign(&small()).expect("valid config");
        let storm = &report.scenarios[0];
        // The monitored storm overwhelms the 16-deep queue: the overflow
        // path engages, yet the oracle's conservation ledger stays exact.
        assert!(storm.monitored.overflow_rejected > 0);
        assert_eq!(report.monitored_violations(), 0);
    }

    #[test]
    fn budget_overrun_is_clipped_not_fatal() {
        let report = run_campaign(&small()).expect("valid config");
        let overrun = &report.scenarios[1];
        assert!(overrun.monitored.expired_windows > 0);
        assert!(overrun.monitored.violations.is_empty());
    }

    #[test]
    fn sequential_and_manual_fanout_reports_are_byte_identical() {
        let config = small();
        let sequential = run_campaign(&config).expect("valid config").to_json();
        // Simulate the parallel path: compute outcomes independently (in
        // reverse), then assemble in scenario order.
        let idle = idle_reference(&config).expect("valid config");
        let mut outcomes: Vec<ScenarioOutcome> = config
            .scenarios
            .iter()
            .rev()
            .map(|s| run_scenario(&config, &idle, s).expect("valid config"))
            .collect();
        outcomes.reverse();
        let assembled = CampaignReport::from_outcomes(&config, outcomes).to_json();
        assert_eq!(sequential, assembled);
    }

    #[test]
    fn json_shape_is_stable() {
        let report = run_campaign(&small()).expect("valid config");
        let json = report.to_json();
        assert!(json.contains(r#""campaign": "fault-injection""#));
        assert!(json.contains(r#""label": "00-irq-storm""#));
        assert!(json.contains(r#""monitored_violations": 0"#));
        assert!(json.contains(r#""kind":"independence""#));
        // Integer-only: no floating-point fields anywhere.
        assert!(!json.contains('.'));
    }

    #[test]
    fn idle_reference_is_deterministic() {
        let config = small();
        assert_eq!(idle_reference(&config), idle_reference(&config));
        assert!(idle_reference(&CampaignConfig {
            dmin: Duration::ZERO,
            ..small()
        })
        .is_err());
    }

    #[test]
    fn metrics_never_change_a_scenario_outcome() {
        let config = small();
        let idle = idle_reference(&config).expect("valid config");
        for scenario in &config.scenarios {
            let bare = run_scenario(&config, &idle, scenario).expect("valid config");
            let observed =
                run_scenario_with_metrics(&config, &idle, scenario, None).expect("valid config");
            assert_eq!(
                observed.outcome,
                bare,
                "{}: instrumentation changed the outcome",
                scenario.label()
            );
        }
    }

    #[test]
    fn metrics_snapshots_are_byte_identical_across_runs() {
        let config = small();
        let idle = idle_reference(&config).expect("valid config");
        let scenario = &config.scenarios[0];
        let first =
            run_scenario_with_metrics(&config, &idle, scenario, None).expect("valid config");
        let second =
            run_scenario_with_metrics(&config, &idle, scenario, None).expect("valid config");
        assert_eq!(first, second);
        // The storm scenario must leave real marks in both snapshots.
        assert!(first.monitored_obs.contains("\"obs\": \"flight-recorder\""));
        assert!(!first.monitored_obs.contains("\"raised\": 0,"));
        assert!(!first.unmonitored_obs.contains("\"raised\": 0,"));
    }
}
