//! Process-level acceptance tests of the `admit_storm` campaign binary:
//! byte-identical reports across reruns and engines, a real `abort()`
//! mid-sweep resumed byte-identically from its journal, deterministic
//! metrics snapshots, and a typed loud failure on an unknown
//! `RTHV_ENGINE` value.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rthv_experiments::read_complete_lines;

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "rthv-admit-storm-test-{}-{name}",
        std::process::id()
    ));
    path
}

/// Runs the binary with the smoke geometry, a fixed seed and the given
/// engine, returning the process output. `extra` is appended verbatim.
fn run_storm(engine: &str, report: &Path, extra: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_admit_storm");
    let mut args = vec![
        report.to_str().expect("utf-8 path").to_string(),
        "5".to_string(),
        "16392212".to_string(),
        "--smoke".to_string(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_string()));
    Command::new(bin)
        .args(&args)
        .env("RTHV_ENGINE", engine)
        .output()
        .expect("run admit_storm")
}

#[test]
fn smoke_report_is_byte_identical_across_reruns_and_engines() {
    let heap_a = temp_path("heap-a.json");
    let heap_b = temp_path("heap-b.json");
    let wheel = temp_path("wheel.json");
    for p in [&heap_a, &heap_b, &wheel] {
        let _ = std::fs::remove_file(p);
    }

    let first = run_storm("heap", &heap_a, &[]);
    assert!(
        first.status.success(),
        "smoke campaign failed; stderr:\n{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = run_storm("heap", &heap_b, &[]);
    assert!(second.status.success());
    let third = run_storm("wheel", &wheel, &[]);
    assert!(
        third.status.success(),
        "wheel-engine campaign failed; stderr:\n{}",
        String::from_utf8_lossy(&third.stderr)
    );

    let a = std::fs::read(&heap_a).expect("heap report a");
    let b = std::fs::read(&heap_b).expect("heap report b");
    let w = std::fs::read(&wheel).expect("wheel report");
    assert_eq!(a, b, "rerun changed the report");
    assert_eq!(a, w, "the event engine leaked into the report");

    for p in [&heap_a, &heap_b, &wheel] {
        let _ = std::fs::remove_file(p);
    }
}

/// The real crash-resume drill: `--abort-after 2` kills the process via
/// `abort()` mid-sweep; a `--resume` run from the surviving journal must
/// reproduce the uninterrupted report byte for byte, verdict included.
#[test]
fn killed_storm_process_resumes_byte_identical() {
    let clean_report = temp_path("proc-clean.json");
    let resumed_report = temp_path("proc-resumed.json");
    let journal = temp_path("proc-journal.jsonl");
    for p in [&clean_report, &resumed_report, &journal] {
        let _ = std::fs::remove_file(p);
    }

    let clean = run_storm("heap", &clean_report, &[]);
    assert!(
        clean_report.exists(),
        "clean campaign wrote no report; stderr:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let journal_arg = journal.to_str().expect("utf-8 path");
    let aborted = run_storm(
        "heap",
        &resumed_report,
        &["--journal", journal_arg, "--abort-after", "2"],
    );
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

    let resumed = run_storm(
        "heap",
        &resumed_report,
        &["--resume", journal_arg, "--journal", journal_arg],
    );
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

/// Reads one top-level hub counter out of a metrics snapshot.
fn snapshot_counter(snapshot: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let start = snapshot.find(&key).expect("counter present") + key.len();
    let digits: String = snapshot[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("numeric counter")
}

/// Metrics are pure observation: two `--metrics` runs produce
/// byte-identical snapshots, and attaching the hub leaves the campaign
/// report untouched — for the flat campaign and for `--tenants`, whose
/// hierarchy arm feeds the hub raised, health, admitted, denied and shed
/// events through the same ingress.
#[test]
fn metrics_snapshot_is_deterministic_and_pure() {
    for (name, mode) in [("flat", &[][..]), ("tenants", &["--tenants"][..])] {
        let bare_report = temp_path(&format!("metrics-{name}-bare.json"));
        let report_a = temp_path(&format!("metrics-{name}-a-report.json"));
        let report_b = temp_path(&format!("metrics-{name}-b-report.json"));
        let snap_a = temp_path(&format!("metrics-{name}-a-snap.json"));
        let snap_b = temp_path(&format!("metrics-{name}-b-snap.json"));
        for p in [&bare_report, &report_a, &report_b, &snap_a, &snap_b] {
            let _ = std::fs::remove_file(p);
        }

        let bare = run_storm("heap", &bare_report, mode);
        assert!(bare.status.success(), "{name}: bare run failed");
        let arg_a = snap_a.to_str().expect("utf-8 path");
        let a = run_storm("heap", &report_a, &[mode, &["--metrics", arg_a]].concat());
        assert!(
            a.status.success(),
            "{name}: metrics run failed; stderr:\n{}",
            String::from_utf8_lossy(&a.stderr)
        );
        let arg_b = snap_b.to_str().expect("utf-8 path");
        let b = run_storm("heap", &report_b, &[mode, &["--metrics", arg_b]].concat());
        assert!(b.status.success(), "{name}: second metrics run failed");

        assert_eq!(
            std::fs::read(&bare_report).expect("bare report"),
            std::fs::read(&report_a).expect("metrics report"),
            "{name}: attaching the metrics hub changed the campaign report"
        );
        let snapshot = std::fs::read(&snap_a).expect("metrics snapshot");
        assert_eq!(
            snapshot,
            std::fs::read(&snap_b).expect("metrics snapshot b"),
            "{name}: metrics snapshot is not deterministic"
        );
        let text = String::from_utf8(snapshot).expect("utf-8 snapshot");
        for counter in ["raised", "admitted", "denied", "shed", "health_transitions"] {
            assert!(
                snapshot_counter(&text, counter) > 0,
                "{name}: the snapshot recorded no {counter} events"
            );
        }
        assert_eq!(
            text.contains("{\"tenant\": "),
            name == "tenants",
            "{name}: per-tenant gauges belong to the tenant campaign only"
        );

        for p in [&bare_report, &report_a, &report_b, &snap_a, &snap_b] {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// The tenant-isolation campaign behind `--tenants`: the report is
/// byte-identical across engines, the verdict passes, and a run killed by
/// `--abort-after` mid-sweep resumes byte-identically from its journal —
/// the same guarantees as the flat campaign, over the four-arm tenant
/// scenarios.
#[test]
fn tenant_campaign_is_engine_invariant_and_resumes_byte_identical() {
    let heap = temp_path("tenants-heap.json");
    let wheel = temp_path("tenants-wheel.json");
    let resumed_report = temp_path("tenants-resumed.json");
    let journal = temp_path("tenants-journal.jsonl");
    for p in [&heap, &wheel, &resumed_report, &journal] {
        let _ = std::fs::remove_file(p);
    }

    let first = run_storm("heap", &heap, &["--tenants"]);
    assert!(
        first.status.success(),
        "tenant smoke campaign failed; stderr:\n{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = run_storm("wheel", &wheel, &["--tenants"]);
    assert!(
        second.status.success(),
        "wheel tenant campaign failed; stderr:\n{}",
        String::from_utf8_lossy(&second.stderr)
    );
    let reference = std::fs::read(&heap).expect("heap tenant report");
    assert_eq!(
        reference,
        std::fs::read(&wheel).expect("wheel tenant report"),
        "the event engine leaked into the tenant report"
    );
    assert!(
        String::from_utf8_lossy(&reference).contains("\"pass\":true"),
        "tenant verdict did not pass"
    );

    let journal_arg = journal.to_str().expect("utf-8 path");
    let aborted = run_storm(
        "heap",
        &resumed_report,
        &["--tenants", "--journal", journal_arg, "--abort-after", "1"],
    );
    assert!(
        !aborted.status.success(),
        "--abort-after 1 should have killed the process"
    );
    assert!(
        !resumed_report.exists(),
        "the aborted run must die before writing a report"
    );
    let resumed = run_storm(
        "heap",
        &resumed_report,
        &["--tenants", "--resume", journal_arg],
    );
    assert!(
        resumed.status.success(),
        "resumed tenant campaign failed; stderr:\n{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        reference,
        std::fs::read(&resumed_report).expect("resumed tenant report"),
        "resumed tenant report differs from the uninterrupted one"
    );

    for p in [&heap, &wheel, &resumed_report, &journal] {
        let _ = std::fs::remove_file(p);
    }
}

/// The end-to-end face of the typed engine-selection error: an unknown
/// `RTHV_ENGINE` value fails loudly, names the offender, and writes no
/// report — never a silent fallback to a default engine.
#[test]
fn unknown_engine_is_a_typed_loud_failure() {
    let report = temp_path("bogus-engine.json");
    let _ = std::fs::remove_file(&report);

    let output = run_storm("bogus", &report, &[]);
    assert!(
        !output.status.success(),
        "an unknown engine must fail the process"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("\"bogus\"") && stderr.contains("event engine"),
        "the failure must name the rejected engine; stderr:\n{stderr}"
    );
    assert!(
        !report.exists(),
        "no report may be written on a config error"
    );
}
