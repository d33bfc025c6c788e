//! Multi-core platform storm campaign: seeded traffic/fault scenarios
//! driven through the [`MultiMachine`] platform across core counts
//! {1, 2, 4} and two placement arms — hierarchical affinity versus
//! round-robin routing — with the budgeted δ⁻-admitted failover path,
//! plus a failover-disabled ablation per scenario, every admitted stream
//! replayed through the per-victim-core Eq. 13–16 oracle and the result
//! written as a deterministic JSON report.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin smp_storm
//! [output-path] [scenario-count] [base-seed] [--smoke]
//! [--journal <jsonl>] [--resume <jsonl>] [--abort-after <n>]
//! [--metrics <json>]`
//! (defaults: `STORM_smp.json`, 5 scenarios, seed `0x5317_2014`).
//!
//! `--smoke` swaps the 1 s horizon for the CI-sized 250 ms one; families
//! and verdict are unchanged. The event engine comes from `RTHV_ENGINE`
//! (`heap`, the default, or `wheel`); an unknown value is a typed, loud
//! failure before any scenario runs, and the engine never leaks into the
//! report bytes.
//!
//! With `--journal`, each completed scenario is appended to a JSONL
//! journal the moment it finishes; with `--resume`, scenarios already
//! present in a journal (matched by label *and* seed) are loaded instead
//! of re-executed. Every scenario is pure in `(config, seed)` and resumed
//! report fragments are spliced verbatim, so a resumed report is
//! byte-identical to an uninterrupted run. `--abort-after <n>` is the
//! crash-test hook: the process dies via `abort()` right after the n-th
//! journal append of this run is flushed.
//!
//! With `--metrics <json>`, the first scenario's first enabled case is
//! re-run with per-core flight recorders attached and the multi-core
//! snapshot (per-core gauges, IPI and failover counters) is written to
//! the given path. Metrics are pure observation, so the report is
//! unchanged — the binary asserts the observed record equals the
//! report's — and the snapshot file is deterministic.
//!
//! The process exits non-zero unless the report's three-part verdict
//! passes: zero monitored per-victim-core violations (with conservation),
//! victim streams byte-identical across core counts on crash-free
//! scenarios, and every storm-plus-crash ablation demonstrably broken.
//!
//! [`MultiMachine`]: rthv::MultiMachine

use std::process::ExitCode;

use rthv::obs::ObsConfig;
use rthv::{EngineChoice, MultiMachine};
use rthv_experiments::{parse_journal_flags, read_complete_lines, Journal, SweepRunner};
use rthv_faults::{
    assemble_smp_report, build_platform, run_smp_scenario, smp_report_passes, smp_scenarios,
    SmpArm, SmpConfig, SmpRecord,
};

fn main() -> ExitCode {
    let (options, positional) = match parse_journal_flags(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("smp_storm: {message}");
            return ExitCode::FAILURE;
        }
    };
    let mut smoke = false;
    let positional: Vec<String> = positional
        .into_iter()
        .filter(|arg| {
            let is_smoke = arg == "--smoke";
            smoke |= is_smoke;
            !is_smoke
        })
        .collect();
    let mut positional = positional.into_iter();
    let path = positional
        .next()
        .unwrap_or_else(|| "STORM_smp.json".to_string());
    let count: u32 = positional
        .next()
        .map(|s| s.parse().expect("scenario count must be a number"))
        .unwrap_or(5);
    let base_seed: u64 = positional
        .next()
        .map(|s| s.parse().expect("base seed must be a number"))
        .unwrap_or(0x5317_2014);

    // Fail loudly on a bad engine or platform before any scenario burns
    // cycles: resolve RTHV_ENGINE and validate the largest platform.
    let engine = match EngineChoice::Auto.try_resolve() {
        Ok(kind) => format!("{kind:?}").to_lowercase(),
        Err(error) => {
            eprintln!("smp_storm: {error}");
            return ExitCode::FAILURE;
        }
    };
    let config = if smoke {
        SmpConfig::smoke()
    } else {
        SmpConfig::standard()
    };
    let probe = build_platform(&config, SmpArm::HierAffinity, config.max_cores(), true)
        .and_then(|platform| MultiMachine::new(platform, &[]).map_err(Into::into));
    if let Err(error) = probe {
        eprintln!("smp_storm: {error}");
        return ExitCode::FAILURE;
    }
    let scenarios = smp_scenarios(count, base_seed, config.horizon);

    // Completed records from the resume journal, aligned to the scenario
    // list by (label, seed) so a journal from a different seed or count
    // silently resumes nothing rather than corrupting the report.
    let resumed: Vec<Option<SmpRecord>> = match &options.resume {
        Some(journal_path) => {
            let lines = read_complete_lines(journal_path).expect("read resume journal");
            let mut completed = Vec::new();
            for line in &lines {
                match SmpRecord::parse_journal_line(line) {
                    Some(record) => completed.push(record),
                    None => eprintln!("smp_storm: ignoring corrupt journal line"),
                }
            }
            scenarios
                .iter()
                .map(|scenario| {
                    completed
                        .iter()
                        .find(|r| r.label == scenario.label() && r.seed == scenario.fault.seed)
                        .cloned()
                })
                .collect()
        }
        None => scenarios.iter().map(|_| None).collect(),
    };
    let journal = options
        .journal
        .as_deref()
        .map(|p| Journal::open_append(p).expect("open journal"));
    let abort_after = options.abort_after;

    let runner = SweepRunner::available();
    let records = runner.run(&scenarios, |index, scenario| {
        if let Some(done) = &resumed[index] {
            return done.clone();
        }
        let outcome = run_smp_scenario(&config, scenario, None)
            .expect("platform was validated before the sweep");
        let record = outcome.record();
        if let Some(journal) = &journal {
            let appended = journal
                .append(&record.to_journal_line())
                .expect("journal append");
            if abort_after.is_some_and(|limit| appended >= limit) {
                // Crash-test hook: die without unwinding or cleanup —
                // exactly the failure the resume path must survive.
                eprintln!("smp_storm: --abort-after {appended} reached, aborting");
                std::process::abort();
            }
        }
        record
    });
    let report = assemble_smp_report(&config, base_seed, &records);

    let resumed_count = resumed.iter().filter(|r| r.is_some()).count();
    if (runner.threads() > 1 || resumed_count > 0) && count <= 8 {
        // Cheap campaigns double as a determinism self-check: a fresh
        // sequential re-execution must reproduce the assembled report,
        // including every record taken from the resume journal.
        let reference = SweepRunner::sequential().run(&scenarios, |_, scenario| {
            run_smp_scenario(&config, scenario, None)
                .expect("platform was validated before the sweep")
                .record()
        });
        assert_eq!(
            assemble_smp_report(&config, base_seed, &reference),
            report,
            "parallel/resumed smp report diverged from sequential re-execution"
        );
    }

    std::fs::write(&path, &report).expect("write smp report");

    if let Some(metrics_path) = &options.metrics {
        // Observability snapshot of the first scenario's first enabled
        // case: re-run with per-core hubs attached. Metrics never change
        // outcomes, so the report above is untouched; the assert pins it.
        let observed = run_smp_scenario(&config, &scenarios[0], Some(ObsConfig::default()))
            .expect("platform was validated before the sweep");
        assert_eq!(
            observed.record(),
            records[0],
            "metrics instrumentation changed a scenario outcome"
        );
        let snapshot = observed
            .snapshot
            .expect("metrics were requested, a snapshot must exist");
        std::fs::write(metrics_path, snapshot).expect("write metrics snapshot");
        eprintln!("smp_storm: metrics snapshot -> {}", metrics_path.display());
    }

    let enabled_violations: u64 = records.iter().map(|r| r.enabled_violations).sum();
    let identity = records.iter().filter(|r| r.identity_family).count();
    let identity_held = records
        .iter()
        .filter(|r| r.identity_family && r.identity_ok)
        .count();
    let breakage = records.iter().filter(|r| r.breakage_family).count();
    let broken = records
        .iter()
        .filter(|r| r.breakage_family && r.ablation_violations > 0)
        .count();
    let sheds: u64 = records.iter().map(|r| r.sheds).sum();
    let lost: u64 = records.iter().map(|r| r.lost).sum();
    eprintln!(
        "smp_storm: {} scenarios ({} resumed) on {} thread(s), engine {engine} -> {path}",
        records.len(),
        resumed_count,
        runner.threads(),
    );
    eprintln!("  monitored violations:       {enabled_violations}");
    eprintln!("  victim identity held:       {identity_held}/{identity} crash-free scenarios");
    eprintln!("  ablation broken:            {broken}/{breakage} storm+crash scenarios");
    eprintln!("  typed sheds / lost:         {sheds} / {lost}");

    if smp_report_passes(&report) {
        eprintln!(
            "PASS: budgeted failover holds every per-core bound, the unbudgeted ablation \
             demonstrably does not"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("FAIL: see the verdict block in {path}");
        ExitCode::FAILURE
    }
}
