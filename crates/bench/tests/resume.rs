//! Resume-equivalence tests: a campaign killed at any scenario and resumed
//! from its journal must produce a byte-identical report — first at the
//! library level (every cut point, torn trailing line included), then at
//! the process level (a real `abort()` mid-run, then `--resume`).

use std::path::PathBuf;
use std::process::Command;

use rthv::time::Duration;
use rthv_experiments::{read_complete_lines, Journal};
use rthv_faults::{
    idle_reference, run_scenario, standard_scenarios, CampaignConfig, CampaignReport,
    ScenarioOutcome,
};

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("rthv-resume-test-{}-{name}", std::process::id()));
    path
}

fn small_campaign() -> CampaignConfig {
    CampaignConfig {
        horizon: Duration::from_millis(120),
        scenarios: standard_scenarios(5, 0x00C0_FFEE),
        ..CampaignConfig::default()
    }
}

/// Kill-at-every-scenario: journal the first `k` outcomes (plus a torn
/// trailing line, as a real crash would leave), resume from that journal,
/// and require the assembled report to match the uninterrupted one byte
/// for byte — for every cut point `k`.
#[test]
fn journal_cut_at_every_scenario_resumes_byte_identical() {
    let config = small_campaign();
    let idle = idle_reference(&config).expect("valid config");
    let outcomes: Vec<ScenarioOutcome> = config
        .scenarios
        .iter()
        .map(|scenario| run_scenario(&config, &idle, scenario).expect("valid config"))
        .collect();
    let uninterrupted = CampaignReport::from_outcomes(&config, outcomes.clone()).to_json();

    for cut in 0..=outcomes.len() {
        let path = temp_path(&format!("cut-{cut}.jsonl"));
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open_append(&path).expect("open journal");
        for outcome in &outcomes[..cut] {
            journal.append(&outcome.to_journal_json()).expect("append");
        }
        drop(journal);
        // A crash mid-append leaves a torn tail; the loader must shrug.
        let mut raw = std::fs::read(&path).expect("read back");
        raw.extend_from_slice(b"{\"label\":\"torn");
        std::fs::write(&path, raw).expect("re-write with torn tail");

        // The resume path, exactly as the binaries implement it: completed
        // outcomes from the journal by (label, seed), the rest re-run.
        let completed: Vec<ScenarioOutcome> = read_complete_lines(&path)
            .expect("read journal")
            .iter()
            .filter_map(|line| ScenarioOutcome::from_journal_json(line).ok())
            .collect();
        assert_eq!(completed.len(), cut, "torn tail must not hide a line");
        let resumed: Vec<ScenarioOutcome> = config
            .scenarios
            .iter()
            .map(|scenario| {
                completed
                    .iter()
                    .find(|o| o.label == scenario.label() && o.seed == scenario.seed)
                    .cloned()
                    .unwrap_or_else(|| {
                        run_scenario(&config, &idle, scenario).expect("valid config")
                    })
            })
            .collect();
        let report = CampaignReport::from_outcomes(&config, resumed).to_json();
        assert_eq!(
            report, uninterrupted,
            "resume from cut {cut} changed the report"
        );
        std::fs::remove_file(&path).expect("cleanup");
    }
}

/// A journal written against one seed must resume nothing under another:
/// the (label, seed) key protects the report from stale journals.
#[test]
fn journal_from_a_different_seed_resumes_nothing() {
    let config = small_campaign();
    let idle = idle_reference(&config).expect("valid config");
    let outcome = run_scenario(&config, &idle, &config.scenarios[0]).expect("valid config");
    let line = outcome.to_journal_json();
    let reparsed = ScenarioOutcome::from_journal_json(&line).expect("parse");

    let other_scenarios = standard_scenarios(5, 0xBAD_5EED);
    assert!(
        !other_scenarios
            .iter()
            .any(|s| reparsed.label == s.label() && reparsed.seed == s.seed),
        "a journal keyed to one seed must not match another campaign's scenarios"
    );
}

/// The real thing: run the campaign binary with `--abort-after 2` so it
/// dies mid-sweep via `abort()`, resume it from the journal, and compare
/// the resumed report byte-for-byte against an uninterrupted run.
#[test]
fn killed_campaign_process_resumes_byte_identical() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    let clean_report = temp_path("proc-clean.json");
    let resumed_report = temp_path("proc-resumed.json");
    let journal = temp_path("proc-journal.jsonl");
    for p in [&clean_report, &resumed_report, &journal] {
        let _ = std::fs::remove_file(p);
    }
    let count = "4";
    let seed = "16392212";

    let clean = Command::new(bin)
        .args([clean_report.to_str().expect("utf-8 path"), count, seed])
        .output()
        .expect("run clean campaign");
    assert!(
        clean_report.exists(),
        "clean campaign wrote no report; stderr:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let aborted = Command::new(bin)
        .args([
            resumed_report.to_str().expect("utf-8 path"),
            count,
            seed,
            "--journal",
            journal.to_str().expect("utf-8 path"),
            "--abort-after",
            "2",
        ])
        .output()
        .expect("run aborting campaign");
    assert!(
        !aborted.status.success(),
        "--abort-after 2 should have killed the process"
    );
    assert!(
        !resumed_report.exists(),
        "the aborted run must die before writing a report"
    );
    let journaled = read_complete_lines(&journal).expect("journal survives the abort");
    assert!(
        journaled.len() >= 2,
        "at least two scenarios were journaled before the abort"
    );

    let resumed = Command::new(bin)
        .args([
            resumed_report.to_str().expect("utf-8 path"),
            count,
            seed,
            "--resume",
            journal.to_str().expect("utf-8 path"),
            "--journal",
            journal.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("run resumed campaign");
    assert_eq!(
        clean.status.code(),
        resumed.status.code(),
        "clean and resumed runs must agree on the verdict; resumed stderr:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        std::fs::read(&clean_report).expect("clean report"),
        std::fs::read(&resumed_report).expect("resumed report"),
        "resumed report differs from the uninterrupted one"
    );

    for p in [&clean_report, &resumed_report, &journal] {
        let _ = std::fs::remove_file(p);
    }
}

/// A byte that is not UTF-8 anywhere in a resume journal drops that one
/// line — its scenario re-runs — instead of failing the whole resume.
#[test]
fn non_utf8_journal_line_is_rerun_not_fatal() {
    let bin = env!("CARGO_BIN_EXE_campaign");
    let clean_report = temp_path("utf8-clean.json");
    let report = temp_path("utf8-report.json");
    let journal = temp_path("utf8-journal.jsonl");
    for p in [&clean_report, &report, &journal] {
        let _ = std::fs::remove_file(p);
    }
    let journal_arg = journal.to_str().expect("utf-8 path");
    let run = |report: &PathBuf, extra: &[&str]| {
        Command::new(bin)
            .args([report.to_str().expect("utf-8 path"), "4", "16392212"])
            .args(extra)
            .output()
            .expect("run campaign")
    };

    let clean = run(&clean_report, &[]);
    assert!(run(&report, &["--journal", journal_arg]).status.success());
    let mut bytes = std::fs::read(&journal).expect("journal");
    let line_two = bytes.iter().position(|&b| b == b'\n').expect("a line") + 10;
    bytes[line_two] = 0xFF;
    std::fs::write(&journal, &bytes).expect("damage line two");
    assert_eq!(read_complete_lines(&journal).expect("read").len(), 3);

    let resumed = run(&report, &["--resume", journal_arg]);
    assert_eq!(
        clean.status.code(),
        resumed.status.code(),
        "resumed stderr:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        std::fs::read(&clean_report).expect("clean report"),
        std::fs::read(&report).expect("resumed report"),
    );

    for p in [&clean_report, &report, &journal] {
        let _ = std::fs::remove_file(p);
    }
}
