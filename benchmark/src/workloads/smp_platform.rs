//! `smp_platform`: the multi-core `MultiMachine` at the standard SMP
//! campaign size, one `run_smp_case` per unit — both placement arms at
//! 1, 2 and 4 cores with budgeted failover, plus the failover-disabled
//! ablation — each replayed through the per-core oracle.
//!
//! Exercises seal-time routing, failover and stepping of several per-core
//! machines: the part of the program that multi-core changes move.

use rthv::monitor::DeltaFunction;
use rthv::time::Instant;
use rthv::{CoreCounters, MultiMachine, MultiRunReport};
use rthv_faults::{
    build_platform, check_admitted_stream, core_faults, line_arrivals, run_smp_case, smp_scenarios,
    SmpArm, SmpCase, SmpConfig, SmpScenario,
};

use super::{debug_digest, derive_seed, Fnv, Verdict, Workload};
use crate::probes;
use crate::trace::{Tracer, UNIT};

pub const NAME: &str = "smp_platform";

/// Scenarios in one set: each of the five SMP families once.
const SCENARIOS: u32 = 5;

/// Scenario sets per batch.
const SETS_PER_BATCH: u64 = 6;

pub struct SmpPlatform {
    seed: u64,
    config: SmpConfig,
}

#[derive(Clone, Copy)]
pub struct Unit {
    scenario: SmpScenario,
    arm: SmpArm,
    cores: usize,
    failover: bool,
}

impl Workload for SmpPlatform {
    type Unit = Unit;
    type Output = SmpCase;

    /// 260 sets × 5 scenarios × 7 cases.
    const REFERENCE_UNITS: usize = 9_100;

    const ELASTICITY: f64 = 1.5;

    fn setup(seed: u64) -> Self {
        SmpPlatform {
            seed,
            config: SmpConfig::standard(),
        }
    }

    fn batch(&self, index: u64) -> Vec<Unit> {
        let mut units = Vec::new();
        for item in 0..SETS_PER_BATCH {
            let seed = derive_seed(self.seed, index, item);
            for scenario in smp_scenarios(SCENARIOS, seed, self.config.horizon) {
                for arm in SmpArm::ALL {
                    for &cores in &self.config.core_counts {
                        units.push(Unit {
                            scenario,
                            arm,
                            cores,
                            failover: true,
                        });
                    }
                }
                units.push(Unit {
                    scenario,
                    arm: SmpArm::HierAffinity,
                    cores: self.config.max_cores(),
                    failover: false,
                });
            }
        }
        units
    }

    fn run(&self, unit: &Unit) -> SmpCase {
        run_smp_case(
            &self.config,
            &unit.scenario,
            unit.arm,
            unit.cores,
            unit.failover,
            None,
        )
        .expect("the standard SMP config is valid")
        .0
    }

    fn verdict(&self, unit: &Unit, output: SmpCase) -> Verdict {
        check(unit, &output)
    }

    fn traced(&self, unit: &Unit, tracer: &mut Tracer) -> Verdict {
        let config = &self.config;
        let (case, report, arrivals) = tracer.span(UNIT, |t| {
            let faults = t.span("workload.gen", |_| {
                core_faults(&unit.scenario, unit.cores, config.horizon)
            });
            let (mut multi, lines) = t.span("platform.build", |_| {
                let platform = build_platform(config, unit.arm, unit.cores, unit.failover)
                    .expect("the standard SMP config is valid");
                let lines = platform.sources.len();
                let multi =
                    MultiMachine::new(platform, &faults).expect("the standard SMP config is valid");
                (multi, lines)
            });
            let arrivals: Vec<Vec<Instant>> = t.span("workload.gen", |_| {
                (0..lines)
                    .map(|line| line_arrivals(config, &unit.scenario, line))
                    .collect()
            });
            t.span("platform.schedule", |_| {
                for (line, times) in arrivals.iter().enumerate() {
                    for &at in times {
                        multi
                            .schedule_irq(line, at)
                            .expect("line arrivals lie inside the horizon");
                    }
                }
            });
            // Sealing is the first `run_until`; running to the epoch does
            // nothing else, so the outputs stay those of the timed call.
            t.span("platform.seal", |_| multi.run_until(Instant::ZERO));
            t.span("platform.step", |_| {
                multi.run_until(Instant::ZERO + config.horizon)
            });
            let report = t.span("platform.finish", |_| multi.finish());
            let (violations, records) =
                t.span("oracle.check", |_| platform_violations(config, &report));
            t.count("oracle.records", records as f64);
            let case = distill(unit, &report, violations);
            let arrivals: usize = arrivals.iter().map(Vec::len).sum();
            (case, report, arrivals)
        });
        tracer.count("workload.arrivals", arrivals as f64);
        tracer.count("platform.arrivals", report.scheduled as f64);
        tracer.count("platform.ipi_in", case.ipi_in as f64);
        tracer.count("platform.sheds", case.sheds as f64);
        let events: u64 = report
            .cores
            .iter()
            .map(|c| c.counters.events_processed)
            .sum();
        tracer.count("platform.events", events as f64);

        let platform = build_platform(config, unit.arm, unit.cores, unit.failover)
            .expect("the standard SMP config is valid");
        let mut mismatches = 0;
        for (core, run) in platform.cores.iter().zip(&report.cores) {
            mismatches += probes::monitor_replay(tracer, &core.sources, &run.admissions);
        }
        let mut verdict = check(unit, &case);
        if verdict.failure.is_none() && mismatches > 0 {
            verdict.failure = Some(format!("{mismatches} monitor decisions differ"));
        }
        verdict
    }
}

/// The per-`(core, line)` oracle sweep of `run_smp_case`; returns the
/// violation count and the admitted timestamps replayed.
fn platform_violations(config: &SmpConfig, report: &MultiRunReport) -> (u64, usize) {
    let delta = DeltaFunction::from_dmin(config.dmin).expect("positive d_min");
    let mut violations = 0u64;
    let mut records = 0usize;
    for (core, run) in report.cores.iter().enumerate() {
        let lines = run
            .admissions
            .iter()
            .map(|r| r.source.index() + 1)
            .max()
            .unwrap_or(0);
        for line in 0..lines {
            let admitted: Vec<Instant> = run
                .admissions
                .iter()
                .filter(|r| r.admitted && r.source.index() == line)
                .map(|r| r.check_at)
                .collect();
            if admitted.is_empty() {
                continue;
            }
            records += admitted.len();
            violations +=
                check_admitted_stream(core, line, &admitted, &delta, config.effective_cost()).len()
                    as u64;
        }
    }
    (violations, records)
}

/// The `SmpCase` `run_smp_case` distills from a finished platform run.
fn distill(unit: &Unit, report: &MultiRunReport, violations: u64) -> SmpCase {
    let sum = report
        .counters
        .iter()
        .fold(CoreCounters::default(), |acc, c| CoreCounters {
            ipi_in: acc.ipi_in + c.ipi_in,
            failover_in: acc.failover_in + c.failover_in,
            stall_deferrals: acc.stall_deferrals + c.stall_deferrals,
            ..acc
        });
    SmpCase {
        arm: unit.arm,
        cores: unit.cores,
        violations,
        victim_digest: victim_digest(report),
        sheds: report.shed_total(),
        lost: report.lost_in_flight(),
        ipi_in: sum.ipi_in,
        failover_in: sum.failover_in,
        stall_deferrals: sum.stall_deferrals,
        crashed: report.crashed.iter().filter(|c| **c).count() as u32,
        ledger_ok: report.conserved() && report.cores.iter().all(|core| core.defect.is_none()),
    }
}

/// The victim line's admission-stream digest on core 0: per record, the
/// admit flag and the gap to the previous check instant.
fn victim_digest(report: &MultiRunReport) -> u64 {
    let mut digest = Fnv::new();
    let mut last: Option<Instant> = None;
    let records = report
        .cores
        .first()
        .map_or(&[][..], |r| r.admissions.as_slice());
    for record in records.iter().filter(|r| r.source.index() == 0) {
        digest = digest
            .word(u64::from(record.admitted))
            .word(last.map_or(0, |prev| {
                record.check_at.saturating_duration_since(prev).as_nanos()
            }));
        last = Some(record.check_at);
    }
    digest.finish()
}

/// The platform ledger is conserved with no defect, and with failover
/// enabled no per-core admitted stream violates the oracle.
fn check(unit: &Unit, case: &SmpCase) -> Verdict {
    Verdict::checked(
        debug_digest(case),
        &[
            (case.ledger_ok, "platform ledger not conserved"),
            (
                !unit.failover || case.violations == 0,
                "monitored platform violated the oracle",
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_batch_passes_and_tracing_keeps_outputs() {
        let verdicts = super::super::tests::smoke::<SmpPlatform>(11);
        assert_eq!(
            verdicts.len(),
            (SCENARIOS as usize) * 7 * SETS_PER_BATCH as usize
        );
    }
}
