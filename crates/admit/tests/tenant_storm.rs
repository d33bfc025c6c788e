//! Tenant-isolation campaign invariants: the hierarchy keeps the victim
//! tenant's admitted stream byte-identical under aggressor floods plus
//! correlated shard failures, the flat ablation demonstrably does not,
//! the per-tenant oracle stays clean, the whole campaign — faults,
//! records, assembled report — is a pure function of its seed, and the
//! smoke campaign's report is pinned.

use rthv_admit::{
    assemble_tenant_report, fleet_faults, report_passes, run_tenant_scenario, tenant_scenarios,
    ShardFaultKind, TenantRecord, TenantStormConfig,
};
use rthv_faults::{FaultKind, FaultScenario};
use rthv_time::{Duration, Instant};

const BASE_SEED: u64 = 0x7E4A_2026;

fn smoke_records(base_seed: u64) -> (TenantStormConfig, Vec<TenantRecord>) {
    let config = TenantStormConfig::smoke_campaign();
    let scenarios = tenant_scenarios(3, base_seed, config.horizon);
    let records = scenarios
        .iter()
        .map(|s| {
            run_tenant_scenario(&config, s, None)
                .expect("smoke tenant config is valid")
                .record()
        })
        .collect();
    (config, records)
}

#[test]
fn smoke_campaign_passes_with_isolation_and_broken_ablation() {
    let (config, records) = smoke_records(BASE_SEED);
    for record in &records {
        assert_eq!(
            record.hier_violations, 0,
            "{}: hierarchy arms must be oracle-clean",
            record.label
        );
        assert_eq!(
            record.group_budget_violations, 0,
            "{}: group budgets must hold",
            record.label
        );
        assert_eq!(
            record.global_budget_violations, 0,
            "{}: the global budget must hold",
            record.label
        );
        if record.identity_family {
            assert!(
                record.hier_isolated,
                "{}: victim stream moved under the hierarchy",
                record.label
            );
            assert!(
                record.flat_violates,
                "{}: flat ablation failed to demonstrate interference",
                record.label
            );
            assert!(
                record.victim_admitted_flat_storm < record.victim_admitted_flat_calm,
                "{}: flat storm should cost the victim admissions ({} vs {})",
                record.label,
                record.victim_admitted_flat_storm,
                record.victim_admitted_flat_calm
            );
        }
    }
    let report = assemble_tenant_report(&config, BASE_SEED, &records);
    assert!(report_passes(&report), "verdict failed:\n{report}");
}

#[test]
fn campaign_is_deterministic_across_reruns() {
    let (config, first) = smoke_records(BASE_SEED);
    let (_, again) = smoke_records(BASE_SEED);
    assert_eq!(first, again, "campaign is not a pure seed function");
    assert_eq!(
        assemble_tenant_report(&config, BASE_SEED, &first),
        assemble_tenant_report(&config, BASE_SEED, &again),
        "assembled reports differ across reruns"
    );
}

/// 64-bit FNV-1a over a report's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The CI tenant smoke campaign's assembled report (3 scenarios, seed
/// 16392212), pinned by length and digest: a change to the run loop that
/// moves any count, latency, brownout level or verdict shows here.
#[test]
fn tenant_smoke_report_is_pinned() {
    let (config, records) = smoke_records(16_392_212);
    let report = assemble_tenant_report(&config, 16_392_212, &records);
    assert_eq!(
        (report.len(), fnv1a(report.as_bytes())),
        (6_821, 4_313_728_543_406_170_559),
        "tenant smoke report moved:\n{report}"
    );
}

#[test]
fn record_round_trips_through_journal_line() {
    let (_, records) = smoke_records(BASE_SEED);
    for record in &records {
        let line = record.to_journal_line();
        let parsed = TenantRecord::from_journal_line(&line).expect("line parses");
        assert_eq!(&parsed, record);
    }
    assert!(TenantRecord::from_journal_line("").is_err());
    assert!(TenantRecord::from_journal_line("a 1 2 0 1 0 0 0 0 0 0 0 {}").is_err());
    assert!(TenantRecord::from_journal_line("a 1 1 0 1 0 0 0 0 0 0 0 torn").is_err());
}

#[test]
fn correlated_crash_hits_distinct_shards_inside_one_window() {
    let horizon = Duration::from_millis(250);
    let window = Duration::from_millis(30);
    let fault = FaultScenario {
        id: 0,
        kind: FaultKind::CorrelatedCrash { window, k: 3 },
        seed: 0xC0_44E1,
    };
    let faults = fleet_faults(&fault, 4, horizon);
    assert_eq!(faults.len(), 3, "k crashes expected");
    let open = Instant::from_nanos(horizon.as_nanos() / 3);
    let mut shards: Vec<u32> = faults.iter().map(|f| f.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    assert_eq!(shards.len(), 3, "crashes must hit distinct shards");
    for f in &faults {
        assert!(matches!(f.kind, ShardFaultKind::Crash));
        assert!(f.at >= open && f.at < open + window, "crash outside window");
    }
    // k is clamped to the shard count, never silently exceeded.
    let clamped = fleet_faults(&fault, 2, horizon);
    assert_eq!(clamped.len(), 2);
}

#[test]
fn failover_stall_pairs_a_stall_right_after_each_crash() {
    let horizon = Duration::from_millis(250);
    let fault = FaultScenario {
        id: 0,
        kind: FaultKind::FailoverStall {
            period: Duration::from_millis(60),
            stall: Duration::from_millis(2),
        },
        seed: 0x0005_7A11,
    };
    let faults = fleet_faults(&fault, 4, horizon);
    assert!(!faults.is_empty());
    let crashes: Vec<_> = faults
        .iter()
        .filter(|f| matches!(f.kind, ShardFaultKind::Crash))
        .collect();
    for crash in &crashes {
        assert!(
            faults
                .iter()
                .any(|f| matches!(f.kind, ShardFaultKind::Stall { .. })
                    && f.shard == crash.shard
                    && f.at == crash.at + Duration::from_nanos(1)),
            "crash at {:?} lacks its paired stall",
            crash.at
        );
    }
}

#[test]
fn recovery_flood_schedules_bounded_crashes() {
    let horizon = Duration::from_millis(250);
    let fault = FaultScenario {
        id: 0,
        kind: FaultKind::RecoveryFlood {
            period: Duration::from_millis(50),
            crashes: 3,
        },
        seed: 0x4EC0_7E4A,
    };
    let faults = fleet_faults(&fault, 4, horizon);
    assert!(!faults.is_empty() && faults.len() <= 3);
    assert!(faults
        .iter()
        .all(|f| matches!(f.kind, ShardFaultKind::Crash)));
    // The crash half is exactly ShardCrash's schedule for the same seed.
    let shard_crash = FaultScenario {
        kind: FaultKind::ShardCrash {
            period: Duration::from_millis(50),
            crashes: 3,
        },
        ..fault
    };
    assert_eq!(faults, fleet_faults(&shard_crash, 4, horizon));
}
