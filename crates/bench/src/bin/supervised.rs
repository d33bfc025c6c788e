//! Supervised fault-injection campaign: every fault family on a composite
//! fault-then-calm plan, run monitored-only and monitored + runtime health
//! supervision, every run replayed through the temporal-independence oracle
//! and the supervised arm additionally through the quarantine-soundness
//! oracle, results written as a deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin supervised
//! [report-path] [base-seed]` plus the shared driver flags
//! ([`rthv_experiments::campaign`]; defaults: `CAMPAIGN_supervised.json`,
//! seed `0xFA2014`). `--metrics` writes the first scenario's snapshots
//! under supervision, health transitions included.
//!
//! The verdict fails on an oracle violation in either arm, a quarantine on
//! the nominal ablation, a storm/flood scenario that never quarantines or
//! never recovers, or a storm/flood scenario where supervision fails to
//! *strictly* reduce the well-behaved victims' worst-case service loss.

use std::process::ExitCode;

use rthv_experiments::{drive, scenario_observation_json, Campaign, Cli};
use rthv_faults::{
    idle_reference, run_scenario_with_metrics, run_supervised_scenario, supervised_scenarios,
    FaultScenario, IdleReference, SupervisedCampaignConfig, SupervisedCampaignReport,
    SupervisedScenarioOutcome,
};

const CLI: Cli = Cli {
    name: "supervised",
    count: false,
    seed: true,
    journal: true,
    switches: &[],
};

struct Supervised {
    config: SupervisedCampaignConfig,
    idle: IdleReference,
}

impl Campaign for Supervised {
    type Scenario = FaultScenario;
    type Record = SupervisedScenarioOutcome;
    const REPORT: &'static str = "CAMPAIGN_supervised.json";

    fn scenarios(&self) -> &[FaultScenario] {
        &self.config.base.scenarios
    }

    fn key(scenario: &FaultScenario) -> (String, u64) {
        (scenario.label(), scenario.seed)
    }

    fn run(&self, scenario: &FaultScenario) -> SupervisedScenarioOutcome {
        run_supervised_scenario(&self.config, &self.idle, scenario)
            .expect("validated campaign config")
    }

    fn assemble(&self, records: &[SupervisedScenarioOutcome]) -> String {
        SupervisedCampaignReport::from_outcomes(&self.config, records.to_vec()).to_json()
    }

    /// The observed run is a plain monitored outcome, not comparable to a
    /// supervised record.
    fn observe(&self, scenario: &FaultScenario) -> (String, Option<SupervisedScenarioOutcome>) {
        let policy = Some(self.config.policy);
        let observation =
            run_scenario_with_metrics(&self.config.base, &self.idle, scenario, policy)
                .expect("validated campaign config");
        (scenario_observation_json(&observation), None)
    }

    fn verdict(
        &self,
        records: &[SupervisedScenarioOutcome],
        _: &str,
    ) -> Result<&'static str, Vec<String>> {
        let report = SupervisedCampaignReport::from_outcomes(&self.config, records.to_vec());
        eprintln!("  total violations:     {}", report.total_violations());
        eprintln!("  nominal quarantines:  {}", report.nominal_quarantines());
        for s in &report.scenarios {
            eprintln!(
                "  {:<22} quarantines {:>2}  recoveries {:>2}  demoted {:>5}  loss {:>9} ns (baseline {:>9} ns)",
                s.label,
                s.supervised.quarantines,
                s.supervised.recoveries,
                s.supervised.demoted_arrivals,
                s.supervised.mode.worst_victim_loss.as_nanos(),
                s.baseline.worst_victim_loss.as_nanos(),
            );
        }
        let failures = report.acceptance_failures();
        if failures.is_empty() {
            Ok("supervision quarantines faults, recovers, and strictly improves victims")
        } else {
            Err(failures)
        }
    }
}

fn main() -> ExitCode {
    let args = CLI.args();
    drive(&CLI, &args, |_| {
        let mut config = SupervisedCampaignConfig::default();
        config.base.scenarios = supervised_scenarios(args.seed.unwrap_or(0xFA_2014));
        let idle = idle_reference(&config.base)?;
        Ok(Supervised { config, idle })
    })
}
