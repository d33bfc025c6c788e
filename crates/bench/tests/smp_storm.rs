//! Process-level acceptance tests of the `smp_storm` campaign binary:
//! byte-identical reports across reruns, a real `abort()`
//! mid-sweep resumed byte-identically from its journal, and deterministic
//! multi-core metrics snapshots.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use rthv_experiments::read_complete_lines;

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("rthv-smp-storm-test-{}-{name}", std::process::id()));
    path
}

/// Runs the binary with the smoke geometry and a fixed seed, returning
/// the process output. `extra` is appended verbatim.
fn run_storm(report: &Path, extra: &[&str]) -> Output {
    let bin = env!("CARGO_BIN_EXE_smp_storm");
    let mut args = vec![
        report.to_str().expect("utf-8 path").to_string(),
        "5".to_string(),
        "73183".to_string(),
        "--smoke".to_string(),
    ];
    args.extend(extra.iter().map(|s| (*s).to_string()));
    Command::new(bin)
        .args(&args)
        .output()
        .expect("run smp_storm")
}

#[test]
fn smoke_report_is_byte_identical_across_reruns() {
    let report_a = temp_path("rerun-a.json");
    let report_b = temp_path("rerun-b.json");
    for p in [&report_a, &report_b] {
        let _ = std::fs::remove_file(p);
    }

    let first = run_storm(&report_a, &[]);
    assert!(
        first.status.success(),
        "smoke campaign failed; stderr:\n{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let second = run_storm(&report_b, &[]);
    assert!(second.status.success());

    let a = std::fs::read(&report_a).expect("report a");
    let b = std::fs::read(&report_b).expect("report b");
    assert_eq!(a, b, "rerun changed the report");
    assert!(
        String::from_utf8_lossy(&a).contains("\"pass\":true"),
        "smoke verdict did not pass:\n{}",
        String::from_utf8_lossy(&a)
    );

    for p in [&report_a, &report_b] {
        let _ = std::fs::remove_file(p);
    }
}

/// 64-bit FNV-1a over a report's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The report of `smp_storm <report> 5 16392212 --smoke` (the check.sh
/// smoke campaign), pinned by length and digest: a seal, step-loop or
/// oracle change that moves any count or verdict shows here, where a rerun
/// of the same build would not.
#[test]
fn ci_smoke_report_is_pinned() {
    let report = temp_path("pinned.json");
    let _ = std::fs::remove_file(&report);
    let output = Command::new(env!("CARGO_BIN_EXE_smp_storm"))
        .args([
            report.to_str().expect("utf-8 path"),
            "5",
            "16392212",
            "--smoke",
        ])
        .output()
        .expect("run smp_storm");
    assert!(
        output.status.success(),
        "smoke campaign failed; stderr:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let bytes = std::fs::read(&report).expect("report");
    let _ = std::fs::remove_file(&report);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (7_050, 11_015_073_644_380_607_761),
        "smp smoke report moved:\n{}",
        String::from_utf8_lossy(&bytes)
    );
}

/// The real crash-resume drill: `--abort-after 2` kills the process via
/// `abort()` mid-sweep; a `--resume` run from the surviving journal must
/// reproduce the uninterrupted report byte for byte, verdict included.
#[test]
fn killed_smp_process_resumes_byte_identical() {
    let clean_report = temp_path("proc-clean.json");
    let resumed_report = temp_path("proc-resumed.json");
    let journal = temp_path("proc-journal.jsonl");
    for p in [&clean_report, &resumed_report, &journal] {
        let _ = std::fs::remove_file(p);
    }

    let clean = run_storm(&clean_report, &[]);
    assert!(
        clean_report.exists(),
        "clean campaign wrote no report; stderr:\n{}",
        String::from_utf8_lossy(&clean.stderr)
    );

    let journal_arg = journal.to_str().expect("utf-8 path");
    let aborted = run_storm(
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

/// Metrics are pure observation: two `--metrics` runs produce
/// byte-identical multi-core snapshots, and attaching the per-core hubs
/// leaves the campaign report untouched.
#[test]
fn metrics_snapshot_is_deterministic_and_pure() {
    let bare_report = temp_path("metrics-bare.json");
    let report_a = temp_path("metrics-a-report.json");
    let report_b = temp_path("metrics-b-report.json");
    let snap_a = temp_path("metrics-a-snap.json");
    let snap_b = temp_path("metrics-b-snap.json");
    for p in [&bare_report, &report_a, &report_b, &snap_a, &snap_b] {
        let _ = std::fs::remove_file(p);
    }

    let bare = run_storm(&bare_report, &[]);
    assert!(bare.status.success());
    let a = run_storm(
        &report_a,
        &["--metrics", snap_a.to_str().expect("utf-8 path")],
    );
    assert!(
        a.status.success(),
        "metrics run failed; stderr:\n{}",
        String::from_utf8_lossy(&a.stderr)
    );
    let b = run_storm(
        &report_b,
        &["--metrics", snap_b.to_str().expect("utf-8 path")],
    );
    assert!(b.status.success());

    assert_eq!(
        std::fs::read(&bare_report).expect("bare report"),
        std::fs::read(&report_a).expect("metrics report"),
        "attaching the metrics hub changed the campaign report"
    );
    let snapshot = std::fs::read(&snap_a).expect("metrics snapshot");
    assert_eq!(
        snapshot,
        std::fs::read(&snap_b).expect("metrics snapshot b"),
        "metrics snapshot is not deterministic"
    );
    let text = String::from_utf8_lossy(&snapshot);
    assert!(
        text.contains("\"obs\": \"multi-core\""),
        "snapshot must be the multi-core hub export:\n{text}"
    );

    for p in [&bare_report, &report_a, &report_b, &snap_a, &snap_b] {
        let _ = std::fs::remove_file(p);
    }
}

/// A crash tears the last journal line; the next run appends after it.
/// Cut the ninth line right after its first inner `}` (no newline), then
/// resume-and-journal, then resume again: the torn line must never resume
/// as a record, so the final report equals a clean run's. Nine scenarios
/// keep the driver's sequential self-check (eight at most) out of the way.
#[test]
fn torn_tail_run_into_the_next_append_never_resumes() {
    let clean_report = temp_path("torn-clean.json");
    let report = temp_path("torn-report.json");
    let journal = temp_path("torn-journal.jsonl");
    for p in [&clean_report, &report, &journal] {
        let _ = std::fs::remove_file(p);
    }
    let journal_arg = journal.to_str().expect("utf-8 path");
    let run = |report: &Path, extra: &[&str]| {
        let report = report.to_str().expect("utf-8 path");
        Command::new(env!("CARGO_BIN_EXE_smp_storm"))
            .args([report, "9", "16392212", "--smoke"])
            .args(extra)
            .output()
            .expect("run smp_storm")
    };

    let clean = run(&clean_report, &[]);
    assert!(run(&report, &["--journal", journal_arg]).status.success());
    let bytes = std::fs::read(&journal).expect("journal");
    let body = &bytes[..bytes.len() - 1];
    let last = body.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let brace = last
        + body[last..]
            .iter()
            .position(|&b| b == b'}')
            .expect("inner }");
    std::fs::write(&journal, &bytes[..=brace]).expect("tear the last line");

    run(
        &report,
        &["--resume", journal_arg, "--journal", journal_arg],
    );
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
        "a torn journal line resumed as a record"
    );

    for p in [&clean_report, &report, &journal] {
        let _ = std::fs::remove_file(p);
    }
}
