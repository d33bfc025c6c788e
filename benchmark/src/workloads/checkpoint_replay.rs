//! `checkpoint_replay`: one standard fault scenario per unit, recorded
//! with `record_scenario` (`state_hash` at every slot boundary, a snapshot
//! every 8 boundaries), then re-executed from the mid-run slot with
//! `verify_from`.
//!
//! The same `Machine`, stepped one slot at a time, with checkpoint writes
//! beside restore-and-verify reads: the proptest-suite path, and the only
//! workload where `state_hash`, `snapshot` and `restore` dominate.

use rthv::monitor::DeltaFunction;
use rthv::time::Instant;
use rthv::{IrqHandlingMode, IrqSourceId, Machine};
use rthv_faults::{
    record_scenario, standard_scenarios, verify_from, CampaignConfig, FaultPlan, FaultScenario,
    ReplayConfig, ReplayError, ReplayTrace,
};

use super::{debug_digest, derive_seed, Fnv, Verdict, Workload};
use crate::probes;
use crate::trace::{Tracer, UNIT};

pub const NAME: &str = "checkpoint_replay";

/// Scenarios per batch: one standard campaign.
const SCENARIOS: usize = 21;

pub struct CheckpointReplay {
    seed: u64,
    config: CampaignConfig,
    replay: ReplayConfig,
}

/// What `record_scenario` and `verify_from` produced, reduced to what the
/// traced replica can reproduce.
struct Recorded {
    boundaries: u64,
    checkpoints: u64,
    report_digest: u64,
    verified: bool,
}

impl Workload for CheckpointReplay {
    type Unit = FaultScenario;
    type Output = (ReplayTrace, Result<(), ReplayError>);

    /// 32 standard campaigns × 21 scenarios.
    const REFERENCE_UNITS: usize = 672;

    const ELASTICITY: f64 = 0.85;

    fn setup(seed: u64) -> Self {
        CheckpointReplay {
            seed,
            config: CampaignConfig {
                scenarios: Vec::new(),
                ..CampaignConfig::default()
            },
            replay: ReplayConfig::default(),
        }
    }

    fn batch(&self, index: u64) -> Vec<FaultScenario> {
        standard_scenarios(SCENARIOS, derive_seed(self.seed, index, 0))
    }

    fn run(&self, unit: &FaultScenario) -> Self::Output {
        let trace = record_scenario(&self.config, unit, &self.replay)
            .expect("the standard campaign config is valid");
        let verified = verify_from(
            &self.config,
            unit,
            &self.replay,
            &trace,
            trace.boundaries() / 2,
        );
        (trace, verified)
    }

    fn verdict(&self, _unit: &FaultScenario, (trace, verified): Self::Output) -> Verdict {
        check(&Recorded {
            boundaries: trace.boundaries(),
            checkpoints: trace.checkpoints(),
            report_digest: debug_digest(trace.report()),
            verified: verified.is_ok(),
        })
    }

    fn traced(&self, unit: &FaultScenario, tracer: &mut Tracer) -> Verdict {
        let config = &self.config;
        let every = self.replay.checkpoint_every;
        let horizon = Instant::ZERO + config.horizon;
        let (recorded, report, kind, schedule, sources, plan) = tracer.span(UNIT, |t| {
            // record_scenario
            let plan = t.span("workload.gen", |_| {
                unit.plan(config.horizon, config.setup.bottom_cost)
            });
            let mut machine = self.traced_machine(t, &plan, "machine.schedule");
            let schedule = machine.schedule().clone();
            let mut checkpoints = vec![(0, t.span("checkpoint.snapshot", |_| machine.snapshot()))];
            let mut hashes = Vec::new();
            let mut k = 1u64;
            while schedule.boundary_time(k) <= horizon {
                t.span("machine.step", |_| {
                    machine.run_until(schedule.boundary_time(k))
                });
                hashes.push(t.span("checkpoint.state_hash", |_| machine.state_hash()));
                if k.is_multiple_of(every) {
                    checkpoints.push((k, t.span("checkpoint.snapshot", |_| machine.snapshot())));
                }
                k += 1;
            }
            t.span("machine.step", |_| machine.run_until(horizon));
            let kind = machine.engine_kind();
            let sources = machine.config().sources.clone();
            let report = t.span("machine.finish", |_| machine.finish());
            let report_digest = t.span("faults.replay.digest", |_| debug_digest(&report));

            // verify_from the mid-run slot. Its scheduling and stepping get
            // spans of their own: the machine.* ratios divide by the
            // recording's arrivals and events, as on the other workloads.
            let boundaries = hashes.len() as u64;
            let from = boundaries / 2;
            let (start, snapshot) = checkpoints
                .iter()
                .rev()
                .find(|(k, _)| *k <= from)
                .expect("checkpoint 0 always exists");
            let plan = t.span("workload.gen", |_| {
                unit.plan(config.horizon, config.setup.bottom_cost)
            });
            let mut replayed = self.traced_machine(t, &plan, "machine.replay_schedule");
            t.span("checkpoint.restore", |_| replayed.restore(snapshot));
            let mut verified = true;
            for k in (start + 1)..=boundaries {
                t.span("machine.replay_step", |_| {
                    replayed.run_until(schedule.boundary_time(k))
                });
                let hash = t.span("checkpoint.state_hash", |_| replayed.state_hash());
                verified &= hash == hashes[(k - 1) as usize];
            }
            t.span("machine.replay_step", |_| replayed.run_until(horizon));
            let replayed_report = t.span("machine.finish", |_| replayed.finish());
            verified &=
                t.span("faults.replay.digest", |_| debug_digest(&replayed_report)) == report_digest;

            let recorded = Recorded {
                boundaries,
                checkpoints: checkpoints.len() as u64,
                report_digest,
                verified,
            };
            (recorded, report, kind, schedule, sources, plan)
        });
        let arrivals: Vec<Instant> = plan.arrivals.iter().map(|a| a.at).collect();
        tracer.count("workload.arrivals", 2.0 * arrivals.len() as f64);
        tracer.count("machine.arrivals", arrivals.len() as f64);
        tracer.count("machine.events", report.counters.events_processed as f64);
        tracer.count(
            "machine.ctx_switches",
            report.counters.context_switches as f64,
        );
        probes::engine_replay(tracer, kind, &schedule, &arrivals, &report);
        let mismatches = probes::monitor_replay(tracer, &sources, &report.admissions);
        let mut verdict = check(&recorded);
        if verdict.failure.is_none() && mismatches > 0 {
            verdict.failure = Some(format!("{mismatches} monitor decisions differ"));
        }
        verdict
    }
}

impl CheckpointReplay {
    /// The monitored machine `scenario_machine` builds for `plan`, with
    /// every arrival scheduled inside a span named `schedule_span`.
    fn traced_machine(
        &self,
        t: &mut Tracer,
        plan: &FaultPlan,
        schedule_span: &'static str,
    ) -> Machine {
        let config = &self.config;
        let mut machine = t.span("machine.build", |_| {
            let delta = DeltaFunction::from_dmin(config.dmin).expect("positive d_min");
            let mut hv = config
                .setup
                .config(IrqHandlingMode::Interposed, Some(delta));
            hv.policies.admission_clock = plan.admission_clock;
            hv.policies.overflow = config.overflow;
            hv.policies.supervision = self.replay.supervision;
            hv.policies.engine = config.engine;
            hv.partitions[config.setup.subscriber().index()].queue_capacity = config.queue_capacity;
            let mut machine = Machine::new(hv).expect("the standard campaign config is valid");
            machine.enable_service_trace();
            machine
        });
        t.span(schedule_span, |_| {
            for arrival in &plan.arrivals {
                machine
                    .schedule_irq_with_work(IrqSourceId::new(0), arrival.at, arrival.work)
                    .expect("plan arrivals lie in the future");
            }
        });
        machine
    }
}

/// The replay from the mid-run checkpoint verified every boundary hash
/// and the final report digest.
fn check(recorded: &Recorded) -> Verdict {
    let digest = Fnv::new()
        .word(recorded.boundaries)
        .word(recorded.checkpoints)
        .word(recorded.report_digest)
        .word(u64::from(recorded.verified))
        .finish();
    Verdict::checked(
        digest,
        &[
            (recorded.boundaries > 0, "no slot boundary recorded"),
            (recorded.verified, "replay diverged from the recording"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_batch_passes_and_tracing_keeps_outputs() {
        let verdicts = super::super::tests::smoke::<CheckpointReplay>(11);
        assert_eq!(verdicts.len(), SCENARIOS);
    }
}
