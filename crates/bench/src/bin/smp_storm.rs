//! Multi-core platform storm campaign: seeded traffic/fault scenarios
//! driven through the [`MultiMachine`] platform across core counts
//! {1, 2, 4} and two placement arms — hierarchical affinity versus
//! round-robin routing — with the budgeted δ⁻-admitted failover path,
//! plus a failover-disabled ablation per scenario, every admitted stream
//! replayed through the per-victim-core Eq. 13–16 oracle and the result
//! written as a deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin smp_storm
//! [report-path] [scenario-count] [base-seed] [--smoke]` plus the shared
//! driver flags ([`rthv_experiments::campaign`]; defaults: `STORM_smp.json`,
//! 5 scenarios, seed `0x5317_2014`). `--metrics` writes the multi-core
//! snapshot (per-core gauges, IPI and failover counters) of the first
//! scenario's first enabled case.
//!
//! `--smoke` swaps the 1 s horizon for the CI-sized 250 ms one; families
//! and verdict are unchanged. The event engine comes from `RTHV_ENGINE`
//! and never leaks into the report bytes.
//!
//! The verdict passes on zero monitored per-victim-core violations (with
//! conservation), victim streams byte-identical across core counts on
//! crash-free scenarios, and every storm-plus-crash ablation demonstrably
//! broken.
//!
//! [`MultiMachine`]: rthv::MultiMachine

use std::process::ExitCode;

use rthv::obs::ObsConfig;
use rthv::MultiMachine;
use rthv_experiments::{drive, report_verdict, Campaign, Cli};
use rthv_faults::{
    assemble_smp_report, build_platform, run_smp_scenario, smp_report_passes, smp_scenarios,
    SmpArm, SmpConfig, SmpRecord, SmpScenario,
};

const CLI: Cli = Cli {
    name: "smp_storm",
    count: true,
    seed: true,
    journal: true,
    switches: &["--smoke"],
};

const VALIDATED: &str = "platform was validated before the sweep";

struct Smp {
    config: SmpConfig,
    seed: u64,
    scenarios: Vec<SmpScenario>,
}

impl Campaign for Smp {
    type Scenario = SmpScenario;
    type Record = SmpRecord;
    const REPORT: &'static str = "STORM_smp.json";

    fn scenarios(&self) -> &[SmpScenario] {
        &self.scenarios
    }

    fn key(scenario: &SmpScenario) -> (String, u64) {
        (scenario.label(), scenario.fault.seed)
    }

    fn run(&self, scenario: &SmpScenario) -> SmpRecord {
        run_smp_scenario(&self.config, scenario, None)
            .expect(VALIDATED)
            .record()
    }

    fn assemble(&self, records: &[SmpRecord]) -> String {
        assemble_smp_report(&self.config, self.seed, records)
    }

    fn observe(&self, scenario: &SmpScenario) -> (String, Option<SmpRecord>) {
        let observed =
            run_smp_scenario(&self.config, scenario, Some(ObsConfig::default())).expect(VALIDATED);
        let record = observed.record();
        let snapshot = observed
            .snapshot
            .expect("metrics were requested, a snapshot must exist");
        (snapshot, Some(record))
    }

    fn verdict(&self, _: &[SmpRecord], report: &str) -> Result<&'static str, Vec<String>> {
        let why = "budgeted failover holds every per-core bound, the unbudgeted ablation \
                   demonstrably does not";
        report_verdict(report, smp_report_passes(report), why)
    }
}

fn main() -> ExitCode {
    let args = CLI.args();
    drive(&CLI, &args, |_| {
        let config = if args.switch("--smoke") {
            SmpConfig::smoke()
        } else {
            SmpConfig::standard()
        };
        // Validate the largest platform before any scenario runs.
        let platform = build_platform(&config, SmpArm::HierAffinity, config.max_cores(), true)?;
        MultiMachine::new(platform, &[])?;
        let seed = args.seed.unwrap_or(0x5317_2014);
        let scenarios = smp_scenarios(args.count.unwrap_or(5), seed, config.horizon);
        Ok(Smp {
            config,
            seed,
            scenarios,
        })
    })
}
