//! Admission-fleet storm campaign: seeded traffic/fault scenarios driven
//! through the sharded δ⁻ admission fleet twice — once with
//! checkpoint-based shard failover (the system under test) and once with
//! fresh-state shard restarts (the no-failover baseline) — every admitted
//! stream replayed through the fleet-wide temporal-independence oracle,
//! results written as a deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin admit_storm
//! [report-path] [scenario-count] [base-seed] [--smoke] [--tenants]`
//! plus the shared driver flags ([`rthv_experiments::campaign`]; defaults:
//! `STORM_admit.json`, 7 scenarios, seed `0xAD2014`). `--metrics` writes
//! the first scenario's failover-arm (or hierarchy-storm-arm) hub snapshot.
//!
//! `--smoke` swaps the 8×64-source 1 s geometry for the CI-sized
//! 4×16-source 250 ms one; families and verdict are unchanged.
//!
//! `--tenants` runs the tenant-isolation campaign instead: each scenario
//! drives four arms (hierarchy calm/storm, flat-ablation calm/storm)
//! under correlated-failure fault plans, and the verdict demands the
//! hierarchy keep the victim tenant's admitted stream byte-identical
//! while the flat ablation demonstrably does not, with zero group- and
//! global-budget oracle violations. Defaults become `STORM_tenants.json`
//! and 3 scenarios.
//!
//! The flat verdict passes on zero failover-arm oracle violations, every
//! crash+flood baseline broken, and the worst flood-family shed rate
//! inside the stated budget.

use std::process::ExitCode;

use rthv_admit::{
    assemble_report, assemble_tenant_report, report_passes, run_storm_scenario,
    run_tenant_scenario, storm_hub, storm_scenarios, tenant_scenarios, tenant_storm_hub,
    AdmitFleet, ScenarioRecord, StormConfig, StormScenario, TenantRecord, TenantScenario,
    TenantStormConfig,
};
use rthv_experiments::{drive, report_verdict, Campaign, Cli};

const CLI: Cli = Cli {
    name: "admit_storm",
    count: true,
    seed: true,
    journal: true,
    switches: &["--smoke", "--tenants"],
};

const VALIDATED: &str = "fleet config was validated before the sweep";

struct Flat {
    config: StormConfig,
    seed: u64,
    scenarios: Vec<StormScenario>,
}

impl Campaign for Flat {
    type Scenario = StormScenario;
    type Record = ScenarioRecord;
    const REPORT: &'static str = "STORM_admit.json";

    fn scenarios(&self) -> &[StormScenario] {
        &self.scenarios
    }

    fn key(scenario: &StormScenario) -> (String, u64) {
        (scenario.label(), scenario.fault.seed)
    }

    fn run(&self, scenario: &StormScenario) -> ScenarioRecord {
        run_storm_scenario(&self.config, scenario, None)
            .expect(VALIDATED)
            .record()
    }

    fn assemble(&self, records: &[ScenarioRecord]) -> String {
        assemble_report(&self.config, self.seed, records)
    }

    fn observe(&self, scenario: &StormScenario) -> (String, Option<ScenarioRecord>) {
        let mut hub = storm_hub(&self.config);
        let observed = run_storm_scenario(&self.config, scenario, Some(&mut hub)).expect(VALIDATED);
        (hub.snapshot_json(), Some(observed.record()))
    }

    fn verdict(&self, _: &[ScenarioRecord], report: &str) -> Result<&'static str, Vec<String>> {
        let why = "failover holds the bound, the fresh-state baseline demonstrably does not";
        report_verdict(report, report_passes(report), why)
    }
}

struct Tenants {
    config: TenantStormConfig,
    seed: u64,
    scenarios: Vec<TenantScenario>,
}

impl Campaign for Tenants {
    type Scenario = TenantScenario;
    type Record = TenantRecord;
    const REPORT: &'static str = "STORM_tenants.json";

    fn scenarios(&self) -> &[TenantScenario] {
        &self.scenarios
    }

    fn key(scenario: &TenantScenario) -> (String, u64) {
        (scenario.label(), scenario.fault.seed)
    }

    fn run(&self, scenario: &TenantScenario) -> TenantRecord {
        run_tenant_scenario(&self.config, scenario, None)
            .expect(VALIDATED)
            .record()
    }

    fn assemble(&self, records: &[TenantRecord]) -> String {
        assemble_tenant_report(&self.config, self.seed, records)
    }

    fn observe(&self, scenario: &TenantScenario) -> (String, Option<TenantRecord>) {
        let mut hub = tenant_storm_hub(&self.config);
        let observed =
            run_tenant_scenario(&self.config, scenario, Some(&mut hub)).expect(VALIDATED);
        (hub.snapshot_json(), Some(observed.record()))
    }

    fn verdict(&self, _: &[TenantRecord], report: &str) -> Result<&'static str, Vec<String>> {
        let why =
            "the hierarchy isolates the victim tenant, the flat ablation demonstrably does not";
        report_verdict(report, report_passes(report), why)
    }
}

/// Both campaigns build their fleet once up front, so a bad fleet or
/// tenancy config fails before any scenario runs.
fn main() -> ExitCode {
    let args = CLI.args();
    let smoke = args.switch("--smoke");
    let seed = args.seed.unwrap_or(0xAD_2014);
    if args.switch("--tenants") {
        return drive(&CLI, &args, || {
            let config = if smoke {
                TenantStormConfig::smoke_campaign()
            } else {
                TenantStormConfig::standard_campaign()
            };
            AdmitFleet::new(config.base.clone())?;
            let scenarios = tenant_scenarios(args.count.unwrap_or(3), seed, config.horizon);
            Ok(Tenants {
                config,
                seed,
                scenarios,
            })
        });
    }
    drive(&CLI, &args, || {
        let config = if smoke {
            StormConfig::smoke_campaign()
        } else {
            StormConfig::standard_campaign()
        };
        AdmitFleet::new(config.base.clone())?;
        let scenarios = storm_scenarios(args.count.unwrap_or(7), seed, config.horizon);
        Ok(Flat {
            config,
            seed,
            scenarios,
        })
    })
}
