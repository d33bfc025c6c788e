//! `fault_campaign`: one standard fault scenario per unit, run the way
//! `campaign --journal` runs it — both arms through `run_scenario` (the
//! real δ⁻ monitor and the admit-everything baseline, each checked by the
//! oracle), then the outcome's journal line encoded and decoded.
//!
//! The same `Machine` as `fig6c`, but under adversarial overload: denials,
//! queue overflow, latching and service tracing, plus the oracle and the
//! journal codec.

use rthv::monitor::{interference_bound_dmin, DeltaFunction};
use rthv::time::{Duration, Instant};
use rthv::{IrqHandlingMode, IrqSourceId, Machine, PartitionId, PartitionService, RunReport};
use rthv_faults::{
    check_report, idle_reference, run_scenario, standard_scenarios, CampaignConfig, FaultKind,
    FaultPlan, FaultScenario, IdleReference, JournalError, ModeOutcome, OracleConfig,
    ScenarioOutcome, Violation,
};

use super::{derive_seed, Fnv, Verdict, Workload};
use crate::probes;
use crate::trace::{Tracer, UNIT};

pub const NAME: &str = "fault_campaign";

/// Scenarios in one standard campaign: three tiers of all seven families.
const SCENARIOS: usize = 21;

/// Standard campaigns (seeds) per batch.
const CAMPAIGNS_PER_BATCH: u64 = 8;

pub struct FaultCampaign {
    seed: u64,
    config: CampaignConfig,
    idle: IdleReference,
    /// The same no-IRQ reference, computed through the public machine API
    /// for the traced replica (`IdleReference` is opaque).
    idle_service: Vec<Duration>,
}

/// The timed call's result: the outcome, its journal line, and the line
/// decoded again.
pub struct Output {
    outcome: ScenarioOutcome,
    line: String,
    decoded: Result<ScenarioOutcome, JournalError>,
}

impl Workload for FaultCampaign {
    type Unit = FaultScenario;
    type Output = Output;

    /// 350 standard campaigns × 21 scenarios.
    const REFERENCE_UNITS: usize = 7_350;

    const ELASTICITY: f64 = 1.4;

    fn setup(seed: u64) -> Self {
        let config = CampaignConfig {
            scenarios: Vec::new(),
            ..CampaignConfig::default()
        };
        let idle = idle_reference(&config).expect("the standard campaign config is valid");
        let idle_service = idle_service(&config);
        FaultCampaign {
            seed,
            config,
            idle,
            idle_service,
        }
    }

    fn batch(&self, index: u64) -> Vec<FaultScenario> {
        (0..CAMPAIGNS_PER_BATCH)
            .flat_map(|item| standard_scenarios(SCENARIOS, derive_seed(self.seed, index, item)))
            .collect()
    }

    fn run(&self, unit: &FaultScenario) -> Output {
        let outcome = run_scenario(&self.config, &self.idle, unit)
            .expect("the standard campaign config is valid");
        let line = outcome.to_journal_json();
        let decoded = ScenarioOutcome::from_journal_json(&line);
        Output {
            outcome,
            line,
            decoded,
        }
    }

    fn verdict(&self, unit: &FaultScenario, output: Output) -> Verdict {
        check(unit, &output)
    }

    fn traced(&self, unit: &FaultScenario, tracer: &mut Tracer) -> Verdict {
        let config = &self.config;
        let (output, runs, plan) = tracer.span(UNIT, |t| {
            let plan = t.span("workload.gen", |_| {
                unit.plan(config.horizon, config.setup.bottom_cost)
            });
            let mut runs = Vec::with_capacity(2);
            let mut modes = Vec::with_capacity(2);
            for monitored in [true, false] {
                let (mode, run) = self.traced_mode(t, &plan, monitored);
                modes.push(mode);
                runs.push(run);
            }
            let unmonitored = modes.pop().expect("two modes");
            let monitored = modes.pop().expect("two modes");
            let outcome = ScenarioOutcome {
                label: unit.label(),
                seed: unit.seed,
                scheduled: plan.arrivals.len() as u64,
                monitored,
                unmonitored,
            };
            let line = t.span("journal.encode", |_| outcome.to_journal_json());
            let decoded = t.span("journal.decode", |_| {
                ScenarioOutcome::from_journal_json(&line)
            });
            (
                Output {
                    outcome,
                    line,
                    decoded,
                },
                runs,
                plan,
            )
        });
        tracer.count("workload.arrivals", plan.arrivals.len() as f64);
        let arrivals: Vec<Instant> = plan.arrivals.iter().map(|a| a.at).collect();
        let mut mismatches = 0;
        for run in &runs {
            tracer.count("machine.arrivals", arrivals.len() as f64);
            tracer.count(
                "machine.events",
                run.report.counters.events_processed as f64,
            );
            tracer.count(
                "machine.ctx_switches",
                run.report.counters.context_switches as f64,
            );
            tracer.count("oracle.records", run.report.admissions.len() as f64);
            probes::engine_replay(tracer, run.kind, &run.schedule, &arrivals, &run.report);
            mismatches += probes::monitor_replay(tracer, &run.sources, &run.report.admissions);
        }
        let mut verdict = check(unit, &output);
        if verdict.failure.is_none() && mismatches > 0 {
            verdict.failure = Some(format!("{mismatches} monitor decisions differ"));
        }
        verdict
    }
}

/// What the probes need of one traced machine run.
struct ModeRun {
    kind: rthv::EngineKind,
    schedule: rthv::TdmaSchedule,
    sources: Vec<rthv::IrqSourceSpec>,
    report: RunReport,
}

impl FaultCampaign {
    /// One arm of `run_scenario` through its public sub-calls: the
    /// machine `scenario_machine` builds, driven to the horizon, finished,
    /// and checked by the oracle plus the Eq. 13–16 independence bound.
    fn traced_mode(
        &self,
        t: &mut Tracer,
        plan: &FaultPlan,
        monitored: bool,
    ) -> (ModeOutcome, ModeRun) {
        let config = &self.config;
        let mut machine = t.span("machine.build", |_| {
            let dmin = if monitored {
                config.dmin
            } else {
                Duration::from_nanos(1)
            };
            let delta = DeltaFunction::from_dmin(dmin).expect("positive d_min");
            let mut hv = config
                .setup
                .config(IrqHandlingMode::Interposed, Some(delta));
            hv.policies.admission_clock = plan.admission_clock;
            hv.policies.overflow = config.overflow;
            hv.policies.engine = config.engine;
            hv.partitions[config.setup.subscriber().index()].queue_capacity = config.queue_capacity;
            let mut machine = Machine::new(hv).expect("the standard campaign config is valid");
            machine.enable_service_trace();
            machine
        });
        t.span("machine.schedule", |_| {
            for arrival in &plan.arrivals {
                machine
                    .schedule_irq_with_work(IrqSourceId::new(0), arrival.at, arrival.work)
                    .expect("plan arrivals lie in the future");
            }
        });
        t.span("machine.step", |_| {
            machine.run_until(Instant::ZERO + config.horizon)
        });
        let kind = machine.engine_kind();
        let schedule = machine.schedule().clone();
        let sources = machine.config().sources.clone();
        let report = t.span("machine.finish", |_| machine.finish());
        let scheduled = plan.arrivals.len() as u64;
        let (violations, worst, bound) = t.span("oracle.check", |_| {
            let oracle = OracleConfig {
                delta: monitored
                    .then(|| DeltaFunction::from_dmin(config.dmin).expect("positive d_min")),
                budget: config.setup.bottom_cost,
                scheduled,
            };
            let mut violations = check_report(&report, &oracle);
            let bound = interference_bound_dmin(
                config.horizon,
                config.dmin,
                config.setup.effective_bottom_cost(),
            ) + config
                .setup
                .costs
                .monitored_top_cost()
                .saturating_mul(scheduled);
            let mut worst = Duration::ZERO;
            let subscriber = config.setup.subscriber();
            for victim in (0..3).map(PartitionId::new).filter(|p| *p != subscriber) {
                let lost = self.idle_service[victim.index()]
                    .saturating_sub(report.counters.service_of(victim).total());
                worst = worst.max(lost);
                if lost > bound {
                    violations.push(Violation::Independence {
                        core: 0,
                        victim: victim.index(),
                        lost,
                        bound,
                    });
                }
            }
            (violations, worst, bound)
        });
        let mode = ModeOutcome {
            monitored,
            completions: report.recorder.len() as u64,
            interposed_windows: report.counters.interposed_windows,
            monitor_denied: report.counters.monitor_denied,
            overflow_rejected: report.counters.overflow_rejected,
            overflow_dropped: report.counters.overflow_dropped,
            coalesced: report.counters.coalesced_irqs,
            outstanding: report.outstanding,
            expired_windows: report.counters.expired_windows,
            worst_victim_loss: worst,
            independence_bound: bound,
            violations,
        };
        (
            mode,
            ModeRun {
                kind,
                schedule,
                sources,
                report,
            },
        )
    }
}

/// Per-partition service of the campaign platform with no IRQs, as
/// `idle_reference` computes it.
fn idle_service(config: &CampaignConfig) -> Vec<Duration> {
    let delta = DeltaFunction::from_dmin(config.dmin).expect("positive d_min");
    let mut hv = config
        .setup
        .config(IrqHandlingMode::Interposed, Some(delta));
    hv.policies.engine = config.engine;
    let mut machine = Machine::new(hv).expect("the standard campaign config is valid");
    machine.run_until(Instant::ZERO + config.horizon);
    machine
        .finish()
        .counters
        .service
        .iter()
        .map(PartitionService::total)
        .collect()
}

/// The monitored arm is oracle-clean, the journal line decodes to the same
/// outcome, and an IRQ storm breaks the unmonitored arm's independence.
fn check(unit: &FaultScenario, output: &Output) -> Verdict {
    let outcome = &output.outcome;
    let digest = Fnv::new().bytes(output.line.as_bytes()).finish();
    let storm_breaks = !matches!(unit.kind, FaultKind::IrqStorm { .. })
        || outcome
            .unmonitored
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Independence { .. }));
    Verdict::checked(
        digest,
        &[
            (
                outcome.monitored.violations.is_empty(),
                "monitored arm violated the oracle",
            ),
            (
                output.decoded.as_ref() == Ok(outcome),
                "journal line did not round-trip",
            ),
            (storm_breaks, "unmonitored storm kept independence"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_batch_passes_and_tracing_keeps_outputs() {
        let verdicts = super::super::tests::smoke::<FaultCampaign>(11);
        assert_eq!(verdicts.len(), SCENARIOS * CAMPAIGNS_PER_BATCH as usize);
    }
}
