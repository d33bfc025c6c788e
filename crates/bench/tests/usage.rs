//! Process-level usage errors: every campaign binary, `bench_export` and
//! `sweep` rejects a malformed command line with exit status 2 before any
//! scenario runs, and writes no report.

use std::path::PathBuf;
use std::process::Command;

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("rthv-usage-test-{}-{name}", std::process::id()));
    path
}

/// Runs `bin` once per argument list (after the report path; `m.json`
/// stands for a scratch metrics path) and demands exit 2, a usage line on
/// stderr, and neither a report nor a metrics file.
fn rejects(bin: &str, name: &str, bad: &[&[&str]]) {
    let report = temp_path(&format!("{name}.json"));
    let metrics = temp_path(&format!("{name}-metrics.json"));
    let metrics_arg = metrics.to_str().expect("utf-8 path");
    for args in bad {
        let _ = std::fs::remove_file(&report);
        let _ = std::fs::remove_file(&metrics);
        let args = args
            .iter()
            .map(|a| if *a == "m.json" { metrics_arg } else { a });
        let args: Vec<&str> = args.collect();
        let output = Command::new(bin)
            .arg(&report)
            .args(&args)
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(&format!("usage: {name}")), "{stderr}");
        assert!(!report.exists(), "{name} {args:?} wrote a report");
        assert!(!metrics.exists(), "{name} {args:?} wrote a snapshot");
    }
}

/// Malformed lines every campaign binary with a count and a seed refuses.
const COUNT_AND_SEED: &[&[&str]] = &[
    &["seven"],
    &["0"],
    &["0", "16392212", "--metrics", "m.json"],
    &["3", "x"],
    &["3", "1", "extra"],
    &["3", "1", "--bogus-flag"],
    &["3", "1", "--resum", "j.jsonl"],
    &["3", "1", "--abort-after", "two"],
    &["3", "1", "--journal"],
];

#[test]
fn campaign_rejects_malformed_arguments() {
    rejects(env!("CARGO_BIN_EXE_campaign"), "campaign", COUNT_AND_SEED);
}

#[test]
fn supervised_rejects_malformed_arguments() {
    let bad: &[&[&str]] = &[
        &["x"],
        &["1", "extra"],
        &["1", "--bogus-flag"],
        &["--smoke"],
    ];
    rejects(env!("CARGO_BIN_EXE_supervised"), "supervised", bad);
}

#[test]
fn admit_storm_rejects_malformed_arguments() {
    rejects(
        env!("CARGO_BIN_EXE_admit_storm"),
        "admit_storm",
        COUNT_AND_SEED,
    );
}

#[test]
fn smp_storm_rejects_malformed_arguments() {
    rejects(env!("CARGO_BIN_EXE_smp_storm"), "smp_storm", COUNT_AND_SEED);
    let tenants: &[&[&str]] = &[&["3", "1", "--tenants"]];
    rejects(env!("CARGO_BIN_EXE_smp_storm"), "smp_storm", tenants);
}

#[test]
fn bench_export_takes_only_a_path_and_metrics() {
    let bad: &[&[&str]] = &[
        &["5"],
        &["--journal", "j.jsonl"],
        &["--resume", "j.jsonl"],
        &["--abort-after", "1"],
        &["--metrics"],
    ];
    rejects(env!("CARGO_BIN_EXE_bench_export"), "bench_export", bad);
}

#[test]
fn sweep_rejects_malformed_arguments() {
    let bad: &[&[&str]] = &[
        &["--threads", "abc"],
        &["--threads"],
        &["--csv", "--bogus-flag"],
    ];
    for args in bad {
        let output = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(*args)
            .output()
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "sweep {args:?}: {stderr}");
        assert!(stderr.contains("usage: sweep"), "{stderr}");
        assert!(output.stdout.is_empty(), "sweep {args:?} printed a table");
    }
}
