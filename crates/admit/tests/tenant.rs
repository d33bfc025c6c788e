//! Tenant-hierarchy integration invariants: every invalid tenancy is a
//! typed construction error (one test per rejection variant — nothing is
//! silently clamped), the per-tenant ledgers obey both conservation
//! identities and sum to the fleet ledger under mixed traffic plus a
//! crash, a ledger mismatch names the tenant, sustained overload walks a
//! tenant to quarantine with typed sheds, and the bounded retry ladder
//! rescues arrivals that can outlast a stall while failing closed on
//! those that cannot.

use rthv_admit::{
    AdmitFleet, FleetConfig, FleetError, ShardFault, ShardFaultKind, TenantBudgetError,
    TenantConfig, TenantSpec, MAX_GROUP_BUDGET,
};
use rthv_faults::Violation;
use rthv_time::{Duration, Instant};
use rthv_workload::{flood_overlay, open_loop_flood, FloodEvent, FloodSpec, OverlaySpec};

const WINDOW: Duration = Duration::from_millis(10);

/// A valid 2-tenant hierarchy over 16 sources; each rejection test breaks
/// exactly one thing.
fn valid_tenancy() -> TenantConfig {
    TenantConfig {
        window: WINDOW,
        global_budget: 100,
        tenants: vec![
            TenantSpec {
                sources: 8,
                budget: 40,
            },
            TenantSpec {
                sources: 8,
                budget: 60,
            },
        ],
        brownout: Default::default(),
        seed: 0x7E4A_5EED,
    }
}

fn tenanted_config(shards: u32, tenancy: TenantConfig) -> FleetConfig {
    let mut config = FleetConfig::paper(shards, 16);
    config.queue_capacity = 8;
    config.service_cost = Duration::from_micros(800);
    config.shed_watermark_permille = 1000;
    config.tenancy = Some(tenancy);
    config
}

/// Routes a broken tenancy through `AdmitFleet::new` and returns the
/// typed rejection it must surface.
fn rejection(tenancy: TenantConfig) -> TenantBudgetError {
    match AdmitFleet::new(tenanted_config(4, tenancy)) {
        Err(FleetError::TenantBudget { error }) => error,
        other => panic!("expected a typed tenant rejection, got {other:?}"),
    }
}

#[test]
fn rejects_no_tenants() {
    let mut tc = valid_tenancy();
    tc.tenants.clear();
    assert_eq!(rejection(tc), TenantBudgetError::NoTenants);
}

#[test]
fn rejects_zero_window() {
    let mut tc = valid_tenancy();
    tc.window = Duration::ZERO;
    assert_eq!(rejection(tc), TenantBudgetError::ZeroWindow);
}

#[test]
fn rejects_zero_global_budget() {
    let mut tc = valid_tenancy();
    tc.global_budget = 0;
    assert_eq!(rejection(tc), TenantBudgetError::ZeroGlobal);
}

#[test]
fn rejects_zero_source_tenant() {
    let mut tc = valid_tenancy();
    tc.tenants[1].sources = 0;
    assert_eq!(rejection(tc), TenantBudgetError::ZeroSources { tenant: 1 });
}

#[test]
fn rejects_zero_group_budget() {
    let mut tc = valid_tenancy();
    tc.tenants[0].budget = 0;
    assert_eq!(rejection(tc), TenantBudgetError::ZeroBudget { tenant: 0 });
}

#[test]
fn rejects_group_budget_overflow() {
    let mut tc = valid_tenancy();
    tc.tenants[1].budget = MAX_GROUP_BUDGET + 1;
    // Not clamped to MAX_GROUP_BUDGET — rejected with the offending value.
    assert_eq!(
        rejection(tc),
        TenantBudgetError::BudgetOverflow {
            tenant: 1,
            budget: MAX_GROUP_BUDGET + 1,
        }
    );
}

#[test]
fn sum_overflow_is_unreachable_defense_in_depth() {
    // With every budget capped at MAX_GROUP_BUDGET before it is summed,
    // overflowing u64 would need ~2^52 tenants — the variant exists so the
    // checked add can never silently wrap if the cap is ever raised. Pin
    // its identity and rendering so it stays a first-class rejection.
    let err = TenantBudgetError::SumOverflow;
    assert_eq!(err, TenantBudgetError::SumOverflow);
    assert_eq!(err.to_string(), "sum of group budgets overflows u64");
}

#[test]
fn rejects_budget_sum_exceeding_global() {
    let mut tc = valid_tenancy();
    tc.global_budget = 99; // sum is 100
    assert_eq!(
        rejection(tc),
        TenantBudgetError::SumExceedsGlobal {
            sum: 100,
            global: 99,
        }
    );
}

#[test]
fn rejects_bad_source_split() {
    let mut tc = valid_tenancy();
    tc.tenants[0].sources = 7; // 7 + 8 != 16
    assert_eq!(
        rejection(tc),
        TenantBudgetError::SourceSplit {
            assigned: 15,
            sources: 16,
        }
    );
}

#[test]
fn every_rejection_renders_a_distinct_message() {
    let variants = [
        TenantBudgetError::NoTenants,
        TenantBudgetError::ZeroWindow,
        TenantBudgetError::ZeroGlobal,
        TenantBudgetError::ZeroSources { tenant: 2 },
        TenantBudgetError::ZeroBudget { tenant: 2 },
        TenantBudgetError::BudgetOverflow {
            tenant: 2,
            budget: 9999,
        },
        TenantBudgetError::SumOverflow,
        TenantBudgetError::SumExceedsGlobal { sum: 10, global: 9 },
        TenantBudgetError::SourceSplit {
            assigned: 3,
            sources: 4,
        },
    ];
    let mut rendered: Vec<String> = variants.iter().map(|v| v.to_string()).collect();
    rendered.sort();
    rendered.dedup();
    assert_eq!(rendered.len(), variants.len(), "two rejections collide");
}

/// Mixed traffic (calm victim + dense aggressor overlay) plus a mid-run
/// crash: the per-tenant oracle must stay clean, and every per-tenant
/// counter must sum to the fleet ledger — the hierarchy only *partitions*
/// the accounting, it never invents or loses an arrival.
#[test]
fn tenant_ledgers_conserve_and_sum_to_the_fleet_ledger() {
    let horizon = Duration::from_millis(80);
    let calm = open_loop_flood(&FloodSpec {
        sources: 16,
        mean: Duration::from_millis(6),
        horizon,
        seed: 0x7E4A_0001,
    });
    let storm = flood_overlay(
        &calm,
        &OverlaySpec {
            first_source: 8,
            sources: 8,
            mean: Duration::from_micros(300),
            onset: Duration::from_millis(10),
            horizon,
            seed: 0x7E4A_0002,
        },
    );
    let faults = [ShardFault {
        at: Instant::ZERO + Duration::from_millis(30),
        shard: 1,
        kind: ShardFaultKind::Crash,
    }];
    let fleet = AdmitFleet::new(tenanted_config(4, valid_tenancy())).unwrap();
    let report = fleet.run(&storm, &faults, None);

    let violations = report.check(&fleet.config().delta, Duration::from_micros(100));
    assert!(
        violations.is_empty(),
        "oracle found violations: {violations:?}"
    );

    assert_eq!(report.tenants.len(), 2);
    let sum = |f: fn(&rthv_admit::TenantCounters) -> u64| -> u64 {
        report.tenants.iter().map(|t| f(&t.counters)).sum()
    };
    let c = &report.counters;
    assert_eq!(sum(|t| t.scheduled), c.scheduled);
    assert_eq!(sum(|t| t.admitted), c.admitted);
    assert_eq!(sum(|t| t.denied_total()), c.denied);
    assert_eq!(sum(|t| t.shed_queue_full), c.shed_queue_full);
    assert_eq!(sum(|t| t.shed_stalled), c.shed_stalled);
    assert_eq!(sum(|t| t.shed_demoted), c.shed_demoted);
    assert_eq!(sum(|t| t.shed_quarantined), c.shed_quarantined);
    assert_eq!(sum(|t| t.lost_in_flight), c.lost_in_flight);
    assert_eq!(sum(|t| t.completed), c.completed);
    assert_eq!(sum(|t| t.retries), c.retries);
    let in_flight: u64 = report.tenants.iter().map(|t| t.in_flight_at_end).sum();
    assert_eq!(in_flight, report.in_flight_at_end);

    // The crash must actually have cost the aggressor in-flight work, so
    // the identities above were exercised across a failover cut.
    assert!(c.lost_in_flight > 0, "crash cost no in-flight work");
    // The global backstop can never refuse a validated hierarchy.
    assert_eq!(sum(|t| t.denied_global), 0);
}

/// A corrupted per-tenant ledger is caught by the oracle, and the
/// violation names the tenant.
#[test]
fn ledger_mismatch_names_the_tenant() {
    let horizon = Duration::from_millis(40);
    let arrivals = open_loop_flood(&FloodSpec {
        sources: 16,
        mean: Duration::from_millis(4),
        horizon,
        seed: 0x7E4A_0003,
    });
    let fleet = AdmitFleet::new(tenanted_config(2, valid_tenancy())).unwrap();
    let mut report = fleet.run(&arrivals, &[], None);
    report.tenants[1].counters.scheduled += 1;
    let violations = report.check(&fleet.config().delta, Duration::from_micros(100));
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::TenantConservation { tenant: 1, .. })),
        "corrupted tenant 1 ledger went unnamed: {violations:?}"
    );
    assert!(
        !violations
            .iter()
            .any(|v| matches!(v, Violation::TenantConservation { tenant: 0, .. })),
        "clean tenant 0 was blamed"
    );
}

/// Sustained overload in the aggressor tenant walks its brownout ladder
/// to quarantine, and from then on its arrivals are shed *typed*
/// (`shed_quarantined`), never silently dropped — while the victim tenant
/// stays nominal. One shard, so the aggressor's lane drains at 1.25/ms
/// against a ~27/ms offered flood: the shed rate stays far above the
/// 250 ‰ trip and each dirty window climbs one ladder rung.
#[test]
fn sustained_overload_quarantines_with_typed_sheds() {
    let horizon = Duration::from_millis(150);
    let calm = open_loop_flood(&FloodSpec {
        sources: 16,
        mean: Duration::from_millis(6),
        horizon,
        seed: 0x7E4A_0004,
    });
    let storm = flood_overlay(
        &calm,
        &OverlaySpec {
            first_source: 8,
            sources: 8,
            mean: Duration::from_micros(300),
            onset: Duration::from_millis(10),
            horizon,
            seed: 0x7E4A_0005,
        },
    );
    let fleet = AdmitFleet::new(tenanted_config(1, valid_tenancy())).unwrap();
    let report = fleet.run(&storm, &[], None);

    let aggressor = &report.tenants[1];
    assert_eq!(
        aggressor.final_level.rank(),
        3,
        "aggressor should end quarantined: {aggressor:?}"
    );
    assert!(
        aggressor.escalations >= 3,
        "aggressor never walked the full ladder: {aggressor:?}"
    );
    assert!(
        aggressor.counters.shed_quarantined > 0,
        "quarantine shed nothing: {aggressor:?}"
    );
    let a = &aggressor.counters;
    assert_eq!(
        a.admitted + a.denied_total() + a.shed_total(),
        a.scheduled,
        "a quarantine shed escaped the ledger"
    );

    let victim = &report.tenants[0];
    assert_eq!(victim.final_level.rank(), 0, "victim was browned out");
    assert_eq!(victim.counters.shed_quarantined, 0);
    assert_eq!(victim.escalations, 0);
}

/// The bounded retry ladder against a stalled shard, event-driven in
/// every tenanted fleet: an arrival whose `max_retries × retry_backoff`
/// horizon reaches past the stall is admitted at its retry instant and
/// counted `rescued`; one that arrives too early inside the stall burns
/// its attempts and fails *closed* as `shed_stalled`.
#[test]
fn retry_ladder_rescues_late_arrivals_and_fails_closed_on_early_ones() {
    // Paper config: max_retries 3, retry_backoff 200 µs. Stall covers
    // [10 ms, 12 ms).
    let ms = |v: u64| Instant::ZERO + Duration::from_millis(v);
    let us = |v: u64| Instant::ZERO + Duration::from_micros(v);
    let stall = ShardFault {
        at: ms(10),
        shard: 0,
        kind: ShardFaultKind::Stall {
            duration: Duration::from_millis(2),
        },
    };
    let fleet = AdmitFleet::new(tenanted_config(1, valid_tenancy())).unwrap();

    // Rescued: arrival at 11.5 ms retries at 11.7 / 11.9 / 12.1 ms; the
    // third retry lands after the stall clears and is admitted there.
    let late = [FloodEvent {
        at: us(11_500),
        source: 0,
    }];
    let report = fleet.run(&late, &[stall], None);
    let t = &report.tenants[0].counters;
    assert_eq!(t.admitted, 1, "late arrival should be rescued");
    assert_eq!(t.rescued, 1);
    assert_eq!(t.retries, 3);
    assert_eq!(t.shed_stalled, 0);
    assert_eq!(
        report.admitted[0],
        vec![us(12_100)],
        "rescue must admit at the retry instant, not the arrival instant"
    );

    // Fail closed: arrival at 10.1 ms retries at 10.3 / 10.5 / 10.7 ms —
    // all inside the stall — and the attempt budget is gone.
    let early = [FloodEvent {
        at: us(10_100),
        source: 0,
    }];
    let report = fleet.run(&early, &[stall], None);
    let t = &report.tenants[0].counters;
    assert_eq!(t.admitted, 0, "early arrival must not be admitted");
    assert_eq!(t.shed_stalled, 1, "must fail closed, typed");
    assert_eq!(t.retries, 3);
    assert_eq!(t.rescued, 0);
    assert_eq!(
        t.admitted + t.denied_total() + t.shed_total(),
        t.scheduled,
        "the failed-closed arrival escaped the ledger"
    );
}
