//! The `all` binary's one-screen summary of every paper experiment —
//! Fig. 6 and Fig. 7, the Section 6.2 overhead, the bounds, temporal and
//! guest-task independence, the policy ablation, multi-source, slot
//! splitting and the shaper comparison — pinned by length and FNV-1a.
//! check.sh only fails on a panic there; this catches a change to the step
//! loop, the monitor or a scenario that moves any printed figure.

use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn paper_experiment_summary_is_pinned() {
    let output = Command::new(env!("CARGO_BIN_EXE_all"))
        .output()
        .expect("run all");
    assert!(output.status.success(), "all exited {}", output.status);
    let summary = String::from_utf8(output.stdout).expect("utf-8 summary");
    assert_eq!(
        (summary.len(), fnv1a(summary.as_bytes())),
        (2_308, 11_230_784_361_428_857_184),
        "paper experiment summary moved:\n{summary}"
    );
}
