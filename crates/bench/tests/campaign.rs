//! Acceptance tests of the fault-injection campaign: the full standard
//! campaign (≥ 20 seeded scenarios) must leave the monitored system
//! violation-free, must demonstrate at least one independence violation in
//! the unmonitored baseline under an IRQ storm, and must serialize
//! byte-identically regardless of thread count or run repetition.

use rthv_experiments::SweepRunner;
use rthv_faults::{
    idle_reference, run_campaign, run_scenario, standard_scenarios, CampaignConfig, CampaignReport,
    Violation,
};

/// The real campaign at a test-friendly horizon. Scenario structure,
/// families and seeds are the standard ones; only the horizon shrinks.
fn campaign() -> CampaignConfig {
    CampaignConfig {
        horizon: rthv::time::Duration::from_millis(300),
        ..CampaignConfig::default()
    }
}

fn fan_out(config: &CampaignConfig, threads: usize) -> CampaignReport {
    let idle = idle_reference(config).expect("valid config");
    let outcomes = SweepRunner::new(threads).run(&config.scenarios, |_, scenario| {
        run_scenario(config, &idle, scenario).expect("valid config")
    });
    CampaignReport::from_outcomes(config, outcomes)
}

#[test]
fn standard_campaign_upholds_the_papers_claims() {
    let config = campaign();
    assert!(
        config.scenarios.len() >= 20,
        "acceptance requires at least 20 scenarios"
    );
    let report = run_campaign(&config).expect("valid config");

    // Every monitored run passes the oracle: δ⁻ conformance, η⁺ window
    // counts, window budgets, IRQ conservation, no defects, and the
    // Eq. 13–16 independence bound on every victim.
    let monitored_failures: Vec<String> = report
        .scenarios
        .iter()
        .flat_map(|s| {
            s.monitored
                .violations
                .iter()
                .map(move |v| format!("{}: {v}", s.label))
        })
        .collect();
    assert!(
        monitored_failures.is_empty(),
        "monitored oracle violations:\n{}",
        monitored_failures.join("\n")
    );

    // The unmonitored baseline demonstrably breaks independence under the
    // storm scenarios — the contrast that motivates the paper's monitor.
    assert!(
        report.unmonitored_independence_violations() >= 1,
        "the unmonitored baseline never violated independence"
    );
    let storm = report
        .scenarios
        .iter()
        .find(|s| s.label.ends_with("irq-storm"))
        .expect("standard campaign contains a storm");
    assert!(
        storm
            .unmonitored
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Independence { .. })),
        "the IRQ storm did not break the unmonitored baseline"
    );
    assert!(storm.unmonitored.worst_victim_loss > storm.unmonitored.independence_bound);
    assert!(storm.monitored.worst_victim_loss <= storm.monitored.independence_bound);

    // Both demonstrations are persisted in the JSON report.
    let json = report.to_json();
    assert!(json.contains(r#""monitored_violations": 0"#));
    assert!(json.contains(r#""kind":"independence""#));
}

#[test]
fn graceful_degradation_paths_engage_without_losing_accounting() {
    let report = run_campaign(&campaign()).expect("valid config");
    // Somewhere in the campaign the bounded subscriber queue overflowed —
    // the degradation path is actually exercised, not just available.
    let rejected: u64 = report
        .scenarios
        .iter()
        .map(|s| s.monitored.overflow_rejected + s.unmonitored.overflow_rejected)
        .sum();
    assert!(rejected > 0, "no scenario exercised the bounded queue");
    // A budget-overrun scenario had its window clipped.
    let clipped: u64 = report
        .scenarios
        .iter()
        .filter(|s| s.label.ends_with("budget-overrun"))
        .map(|s| s.monitored.expired_windows)
        .sum();
    assert!(clipped > 0, "budget overruns were never clipped");
    // And despite all of it, the conservation ledger held everywhere:
    // monitored_violations == 0 covers the monitored half; the unmonitored
    // half must have no irq-lost or defect findings either.
    assert_eq!(report.monitored_violations(), 0);
    for s in &report.scenarios {
        for v in &s.unmonitored.violations {
            assert!(
                matches!(v, Violation::Independence { .. }),
                "{}: unexpected non-independence violation {v}",
                s.label
            );
        }
    }
}

#[test]
fn campaign_report_is_byte_identical_across_threads_and_repetition() {
    let config = campaign();
    let sequential = run_campaign(&config).expect("valid config").to_json();
    assert_eq!(
        sequential,
        run_campaign(&config).expect("valid config").to_json(),
        "repetition diverged"
    );
    for threads in [2, 8] {
        assert_eq!(
            sequential,
            fan_out(&config, threads).to_json(),
            "campaign diverged at {threads} threads"
        );
    }
}

/// 64-bit FNV-1a over a report's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The report of `campaign <report> 7 16392212` (the check.sh smoke
/// campaign), pinned by length and digest: a change to the step loop, the
/// machine's records or the oracle that moves any count, latency or
/// verdict shows here, where a rerun of the same build would not.
#[test]
fn smoke_campaign_report_is_pinned() {
    let config = CampaignConfig {
        scenarios: standard_scenarios(7, 16_392_212),
        ..CampaignConfig::default()
    };
    let report = run_campaign(&config).expect("valid config").to_json();
    assert_eq!(
        (report.len(), fnv1a(report.as_bytes())),
        (6_791, 14_554_268_698_064_009_381),
        "smoke campaign report moved:\n{report}"
    );
}
