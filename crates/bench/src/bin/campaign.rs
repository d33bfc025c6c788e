//! Adversarial fault-injection campaign: seeded fault scenarios, each run
//! monitored and unmonitored under interposed IRQ handling, every run
//! replayed through the temporal-independence oracle, results written as a
//! deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin campaign
//! [report-path] [scenario-count] [base-seed]` plus the shared driver
//! flags ([`rthv_experiments::campaign`]; defaults: `CAMPAIGN_faults.json`,
//! 21 scenarios, seed `0xFA2014`). `--metrics` writes the first scenario's
//! monitored and unmonitored snapshots.
//!
//! The verdict fails if any *monitored* run trips the oracle, or if the
//! unmonitored baseline never demonstrates an independence violation.

use std::process::ExitCode;

use rthv_experiments::{drive, scenario_observation_json, Campaign, Cli};
use rthv_faults::{
    idle_reference, run_scenario, run_scenario_with_metrics, standard_scenarios, CampaignConfig,
    CampaignReport, FaultScenario, IdleReference, ScenarioOutcome,
};

const CLI: Cli = Cli {
    name: "campaign",
    count: true,
    seed: true,
    journal: true,
    switches: &[],
};

struct Faults {
    config: CampaignConfig,
    idle: IdleReference,
}

impl Campaign for Faults {
    type Scenario = FaultScenario;
    type Record = ScenarioOutcome;
    const REPORT: &'static str = "CAMPAIGN_faults.json";

    fn scenarios(&self) -> &[FaultScenario] {
        &self.config.scenarios
    }

    fn key(scenario: &FaultScenario) -> (String, u64) {
        (scenario.label(), scenario.seed)
    }

    fn run(&self, scenario: &FaultScenario) -> ScenarioOutcome {
        run_scenario(&self.config, &self.idle, scenario).expect("validated campaign config")
    }

    fn assemble(&self, records: &[ScenarioOutcome]) -> String {
        CampaignReport::from_outcomes(&self.config, records.to_vec()).to_json()
    }

    fn observe(&self, scenario: &FaultScenario) -> (String, Option<ScenarioOutcome>) {
        let observation = run_scenario_with_metrics(&self.config, &self.idle, scenario, None)
            .expect("validated campaign config");
        (
            scenario_observation_json(&observation),
            Some(observation.outcome),
        )
    }

    fn verdict(&self, records: &[ScenarioOutcome], _: &str) -> Result<&'static str, Vec<String>> {
        let report = CampaignReport::from_outcomes(&self.config, records.to_vec());
        let independence = report.unmonitored_independence_violations();
        eprintln!(
            "  monitored violations:                 {}",
            report.monitored_violations()
        );
        eprintln!(
            "  unmonitored violations:               {}",
            report.unmonitored_violations()
        );
        eprintln!("  unmonitored independence violations:  {independence}");
        if report.monitored_violations() != 0 {
            return Err(vec!["the monitored system tripped the oracle".into()]);
        }
        if independence == 0 {
            return Err(vec![
                "the unmonitored baseline never broke independence — campaign too tame".into(),
            ]);
        }
        Ok("monitoring holds, baseline demonstrably does not")
    }
}

fn main() -> ExitCode {
    let args = CLI.args();
    drive(&CLI, &args, |_| {
        let count = args.count.unwrap_or(21) as usize;
        let config = CampaignConfig {
            scenarios: standard_scenarios(count, args.seed.unwrap_or(0xFA_2014)),
            ..CampaignConfig::default()
        };
        let idle = idle_reference(&config)?;
        Ok(Faults { config, idle })
    })
}
