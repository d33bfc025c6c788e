//! Fleet-level robustness invariants: checkpoint failover keeps admitted
//! streams δ⁻-conformant across crash cuts (and the fresh-state baseline
//! does not), stalls fail closed through the bounded retry, the shedding
//! ladder demotes suspect sources first, the ledger balances, runs are
//! deterministic across reruns and input order, equal instants keep their
//! tie order, and the smoke campaign's report is pinned.

use rthv_admit::{
    assemble_report, fleet_faults, run_storm_scenario, storm_scenarios, AdmitFleet, FailoverMode,
    FleetConfig, FleetError, FleetReport, ShardFault, ShardFaultKind, ShedReason, StormConfig,
    StormOutcome, TenantConfig, TenantSpec,
};
use rthv_monitor::DeltaFunction;
use rthv_time::{Duration, Instant};
use rthv_workload::{open_loop_flood, FloodEvent, FloodSpec};

const DMIN: Duration = Duration::from_millis(1);

fn dense_config(shards: u32, sources: u32, failover: FailoverMode) -> FleetConfig {
    let mut config = FleetConfig::paper(shards, sources);
    config.failover = failover;
    config
}

fn dense_flood(sources: u32, horizon: Duration, seed: u64) -> Vec<FloodEvent> {
    open_loop_flood(&FloodSpec {
        sources,
        mean: Duration::from_micros(300),
        horizon,
        seed,
    })
}

fn crash(at_ms: u64, shard: u32) -> ShardFault {
    ShardFault {
        at: Instant::ZERO + Duration::from_millis(at_ms),
        shard,
        kind: ShardFaultKind::Crash,
    }
}

fn stall(at_ms: u64, shard: u32, duration: Duration) -> ShardFault {
    ShardFault {
        at: Instant::ZERO + Duration::from_millis(at_ms),
        shard,
        kind: ShardFaultKind::Stall { duration },
    }
}

#[test]
fn failover_is_conformant_across_crash_cuts_and_baseline_is_not() {
    let horizon = Duration::from_millis(100);
    let arrivals = dense_flood(4, horizon, 0xFA11);
    let faults = vec![crash(30, 0), crash(60, 0)];

    let failover = AdmitFleet::new(dense_config(1, 4, FailoverMode::Checkpoint)).unwrap();
    let report = failover.run(&arrivals, &faults, None);
    let violations = report.check(&DMIN_DELTA(), Duration::from_micros(100));
    assert!(
        violations.is_empty(),
        "checkpoint failover must stay bound-conformant: {violations:?}"
    );
    assert!(report.counters.crashes == 2);
    assert!(
        report.counters.journal_replayed > 0,
        "a crash mid-journal must replay the tail"
    );

    let baseline = AdmitFleet::new(dense_config(1, 4, FailoverMode::FreshState)).unwrap();
    let broken = baseline.run(&arrivals, &faults, None);
    let violations = broken.check(&DMIN_DELTA(), Duration::from_micros(100));
    assert!(
        !violations.is_empty(),
        "a fresh-state restart under a dense flood must over-admit across the cut"
    );
}

#[allow(non_snake_case)]
fn DMIN_DELTA() -> DeltaFunction {
    DeltaFunction::from_dmin(DMIN).unwrap()
}

#[test]
fn crash_loss_is_typed_and_the_ledger_still_balances() {
    let horizon = Duration::from_millis(50);
    let arrivals = dense_flood(8, horizon, 0x10C5);
    let faults = vec![crash(20, 0), crash(20, 1), crash(35, 2)];
    let mut config = dense_config(4, 8, FailoverMode::Checkpoint);
    // Service slow enough that every crash instant finds work in flight.
    config.service_cost = Duration::from_millis(2);
    let fleet = AdmitFleet::new(config).unwrap();
    let report = fleet.run(&arrivals, &faults, None);
    assert!(
        report.counters.lost_in_flight > 0,
        "a crash with work in service must lose it (typed), not pretend otherwise"
    );
    let c = report.counters;
    assert_eq!(
        c.scheduled,
        c.admitted + c.denied + c.shed_total(),
        "every arrival has exactly one typed outcome"
    );
    assert_eq!(
        c.admitted,
        c.completed + c.lost_in_flight + report.in_flight_at_end,
        "every admission completes, is lost to a crash, or is still in service"
    );
}

#[test]
fn stalls_fail_closed_through_the_bounded_retry() {
    // δ⁻ so loose it never denies: the stall path is the only actor.
    let mut config = dense_config(1, 1, FailoverMode::Checkpoint);
    config.delta = DeltaFunction::from_dmin(Duration::from_micros(10)).unwrap();
    config.max_retries = 3;
    config.retry_backoff = Duration::from_micros(100); // budget: 300 µs
    let fleet = AdmitFleet::new(config).unwrap();

    let at = |us: u64| Instant::ZERO + Duration::from_micros(us);
    let arrivals = vec![
        FloodEvent {
            at: at(500),
            source: 0,
        }, // before the stall: admitted
        FloodEvent {
            at: at(1_200),
            source: 0,
        }, // 800 µs of stall left: shed
        FloodEvent {
            at: at(1_950),
            source: 0,
        }, // 50 µs left: 1 retry, admitted
        FloodEvent {
            at: at(2_500),
            source: 0,
        }, // after the stall: admitted
    ];
    let faults = vec![stall(1, 0, Duration::from_millis(1))]; // stalled 1–2 ms
    let report = fleet.run(&arrivals, &faults, None);

    let c = report.counters;
    assert_eq!(c.stalls, 1);
    assert_eq!(
        c.shed_stalled, 1,
        "beyond the retry budget must fail closed"
    );
    assert_eq!(c.retries, 1, "the 50 µs wait costs exactly one backoff");
    assert_eq!(c.admitted, 3);
    assert_eq!(c.denied, 0);
    // The admitted stream records *arrival* timestamps — monitors never
    // see retry-delayed clocks.
    assert_eq!(report.admitted[0], vec![at(500), at(1_950), at(2_500)],);
}

#[test]
fn the_ladder_demotes_probation_sources_above_the_watermark() {
    // One shard, two sources; service long enough that early admissions
    // keep the queue occupied past the watermark.
    let mut config = dense_config(1, 2, FailoverMode::Checkpoint);
    config.service_cost = Duration::from_millis(10);
    config.queue_capacity = 4;
    config.shed_watermark_permille = 500; // occupancy ≥ 2 arms the ladder
    let fleet = AdmitFleet::new(config).unwrap();

    let at = |us: u64| Instant::ZERO + Duration::from_micros(us);
    let mut arrivals = vec![FloodEvent {
        at: at(1_000),
        source: 1,
    }];
    // Four sub-d_min denials push source 1 to Probation (2 × 4 = 8).
    for us in [1_100, 1_200, 1_300, 1_400] {
        arrivals.push(FloodEvent {
            at: at(us),
            source: 1,
        });
    }
    // Source 0 fills the queue to the watermark.
    arrivals.push(FloodEvent {
        at: at(2_000),
        source: 0,
    });
    arrivals.push(FloodEvent {
        at: at(3_200),
        source: 0,
    });
    // Source 1 is back — δ⁻-conformant now, but demoted and over watermark.
    arrivals.push(FloodEvent {
        at: at(3_500),
        source: 1,
    });
    let report = fleet.run(&arrivals, &faults_none(), None);

    let c = report.counters;
    assert_eq!(c.denied, 4);
    assert_eq!(
        c.shed_demoted, 1,
        "the ladder sheds the Probation source first"
    );
    assert_eq!(
        report.admitted[1],
        vec![at(1_000)],
        "the demoted arrival never reaches the monitor"
    );
    assert_eq!(report.admitted[0].len(), 2, "healthy sources are untouched");
}

fn faults_none() -> Vec<ShardFault> {
    Vec::new()
}

#[test]
fn queue_overflow_sheds_are_typed() {
    let mut config = dense_config(1, 1, FailoverMode::Checkpoint);
    config.delta = DeltaFunction::from_dmin(Duration::from_micros(10)).unwrap();
    config.service_cost = Duration::from_millis(10);
    config.queue_capacity = 2;
    config.shed_watermark_permille = 1000; // ladder disarmed: pure overflow
    let fleet = AdmitFleet::new(config).unwrap();
    let at = |us: u64| Instant::ZERO + Duration::from_micros(us);
    let arrivals: Vec<FloodEvent> = (1..=4)
        .map(|i| FloodEvent {
            at: at(i * 100),
            source: 0,
        })
        .collect();
    let report = fleet.run(&arrivals, &faults_none(), None);
    assert_eq!(report.counters.admitted, 2);
    assert_eq!(report.counters.shed_queue_full, 2);
}

#[test]
fn runs_are_deterministic_across_reruns() {
    let horizon = Duration::from_millis(60);
    let arrivals = dense_flood(6, horizon, 0xDE7);
    let faults = vec![crash(25, 1), stall(40, 0, Duration::from_millis(1))];
    let mut reference: Option<(String, u64)> = None;
    for _ in 0..2 {
        let fleet = AdmitFleet::new(dense_config(3, 6, FailoverMode::Checkpoint)).unwrap();
        let report = fleet.run(&arrivals, &faults, None);
        let key = (report.merged_bytes(), report.counters.shed_total());
        match &reference {
            None => reference = Some(key),
            Some(r) => assert_eq!(r, &key, "fleet runs must be byte-identical across reruns"),
        }
    }
}

#[test]
fn merged_streams_are_invariant_across_shard_counts() {
    let horizon = Duration::from_millis(60);
    let arrivals = dense_flood(16, horizon, 0x5A4D);
    let mut reference: Option<String> = None;
    for shards in [1u32, 4, 16] {
        let mut config = dense_config(shards, 16, FailoverMode::Checkpoint);
        // A capacity no flood reaches: sheds depend on shard occupancy,
        // admissions only on per-source monitors — the invariant under test.
        config.queue_capacity = 1 << 20;
        let fleet = AdmitFleet::new(config).unwrap();
        let report = fleet.run(&arrivals, &[], None);
        assert_eq!(report.counters.shed_total(), 0);
        let bytes = report.merged_bytes();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(r, &bytes, "{shards} shards changed the admitted stream"),
        }
    }
}

#[test]
fn construction_errors_are_typed() {
    let base = FleetConfig::paper(2, 4);
    let cases: Vec<(FleetConfig, FleetError)> = vec![
        (
            FleetConfig {
                shards: 0,
                ..base.clone()
            },
            FleetError::NoShards,
        ),
        (
            FleetConfig {
                sources: 0,
                ..base.clone()
            },
            FleetError::NoSources,
        ),
        (
            FleetConfig {
                queue_capacity: 0,
                ..base.clone()
            },
            FleetError::ZeroQueueCapacity,
        ),
        (
            FleetConfig {
                service_cost: Duration::ZERO,
                ..base.clone()
            },
            FleetError::ZeroServiceCost,
        ),
        (
            FleetConfig {
                retry_backoff: Duration::ZERO,
                ..base.clone()
            },
            FleetError::ZeroBackoff,
        ),
        (
            FleetConfig {
                shed_watermark_permille: 1001,
                ..base
            },
            FleetError::BadWatermark,
        ),
    ];
    for (config, expected) in cases {
        assert_eq!(AdmitFleet::new(config).unwrap_err(), expected);
    }
}

#[test]
fn shed_reasons_have_stable_slugs() {
    assert_eq!(ShedReason::QueueFull.slug(), "queue-full");
    assert_eq!(ShedReason::ShardStalled.slug(), "shard-stalled");
    assert_eq!(ShedReason::ShardCrash.slug(), "shard-crash");
}

/// 64-bit FNV-1a over a report's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The CI smoke campaign's assembled report, pinned by length and digest:
/// a change to the run loop that moves any count, latency or verdict shows
/// here.
#[test]
fn storm_smoke_report_is_pinned() {
    let config = StormConfig::smoke_campaign();
    let records: Vec<_> = storm_scenarios(5, 16_392_212, config.horizon)
        .iter()
        .map(|scenario| run_storm_scenario(&config, scenario, None).unwrap())
        .map(|outcome: StormOutcome| outcome.record())
        .collect();
    let report = assemble_report(&config, 16_392_212, &records);
    assert_eq!(
        (report.len(), fnv1a(report.as_bytes())),
        (FLAT_SMOKE_LEN, FLAT_SMOKE_FNV),
        "smoke report moved:\n{report}"
    );
}

const FLAT_SMOKE_LEN: usize = 4_571;
const FLAT_SMOKE_FNV: u64 = 7_180_370_597_831_871_004;

#[test]
fn storm_smoke_scenario_separates_failover_from_baseline() {
    let config = StormConfig::smoke_campaign();
    let scenarios = storm_scenarios(5, 0x5708, config.horizon);
    for scenario in &scenarios {
        let outcome = run_storm_scenario(&config, scenario, None).unwrap();
        assert_eq!(
            outcome.failover.violations, 0,
            "{}: failover arm must be clean",
            outcome.label
        );
        if scenario.crash_family() {
            assert!(
                fleet_faults(&scenario.fault, config.base.shards, config.horizon).len() > 1,
                "crash scenarios must actually crash shards"
            );
        }
        // Fleet-wide floods are dense on every shard, so any crash cut
        // must make the fresh-state baseline over-admit.
        if scenario.crash_family() && scenario.flood_family() {
            assert!(
                outcome.baseline.violations > 0,
                "{}: fresh-state baseline must break the bound",
                outcome.label
            );
        }
    }
}

fn at_us(us: u64) -> Instant {
    Instant::ZERO + Duration::from_micros(us)
}

fn arrival(us: u64, source: u32) -> FloodEvent {
    FloodEvent {
        at: at_us(us),
        source,
    }
}

/// One shard, `sources` sources, a δ⁻ that never denies at these
/// spacings, deep queues and the watermark ladder off: only the event
/// order decides the outcome.
fn single_shard(sources: u32, service_cost: Duration, queue_capacity: usize) -> FleetConfig {
    let mut config = dense_config(1, sources, FailoverMode::Checkpoint);
    config.delta = DeltaFunction::from_dmin(Duration::from_micros(10)).unwrap();
    config.service_cost = service_cost;
    config.queue_capacity = queue_capacity;
    config.shed_watermark_permille = 1000;
    config
}

/// `single_shard` with every source in one tenant whose budgets never
/// deny here, so the retry ladder is armed and all sources share a lane.
fn single_tenant(sources: u32, service_cost: Duration, queue_capacity: usize) -> FleetConfig {
    let mut config = single_shard(sources, service_cost, queue_capacity);
    config.tenancy = Some(TenantConfig {
        window: Duration::from_millis(30),
        global_budget: 100,
        tenants: vec![TenantSpec {
            sources,
            budget: 100,
        }],
        brownout: Default::default(),
        seed: 0x7E4A_5EED,
    });
    config
}

#[test]
fn an_arrival_at_a_crash_instant_is_admitted_then_lost_in_flight() {
    let fleet = AdmitFleet::new(single_shard(1, Duration::from_micros(100), 4)).unwrap();
    let report = fleet.run(&[arrival(1_000, 0)], &[crash(1, 0)], None);
    let c = report.counters;
    assert_eq!(c.admitted, 1, "the arrival comes before the crash");
    assert_eq!(c.shed_total(), 0);
    assert_eq!(c.lost_in_flight, 1, "the crash then loses it in flight");
    assert_eq!(c.completed, 0);
    assert_eq!(report.admitted[0], vec![at_us(1_000)]);
}

#[test]
fn an_arrival_at_a_stall_instant_is_not_stalled() {
    // Stalled first, the arrival would face a 1 ms wait against a 600 µs
    // retry budget and be shed.
    let fleet = AdmitFleet::new(single_shard(1, Duration::from_micros(100), 4)).unwrap();
    let faults = [stall(1, 0, Duration::from_millis(1))];
    let report = fleet.run(&[arrival(1_000, 0)], &faults, None);
    let c = report.counters;
    assert_eq!(
        (c.stalls, c.admitted, c.shed_stalled, c.retries),
        (1, 1, 0, 0)
    );
    assert_eq!(c.completed, 1);
    assert_eq!(
        report.max_latency,
        Duration::from_micros(100),
        "the completion was scheduled before the stall raised the lane's horizon"
    );
}

#[test]
fn an_arrival_onto_a_full_lane_as_its_head_drains_is_shed() {
    let fleet = AdmitFleet::new(single_shard(2, Duration::from_millis(1), 1)).unwrap();
    let report = fleet.run(&[arrival(1_000, 0), arrival(2_000, 1)], &[], None);
    let c = report.counters;
    assert_eq!(
        (c.admitted, c.shed_queue_full, c.completed),
        (1, 1, 1),
        "the arrival at 2 ms comes before the head's completion at 2 ms"
    );
    assert!(report.admitted[1].is_empty());
}

#[test]
fn a_retry_and_a_drain_at_one_instant_fire_in_scheduling_order() {
    // Drain first: source 0 is admitted at 1 ms and completes at 2 ms; the
    // stall from 1.1 ms to 2 ms sends source 1's arrival at 1.8 ms back
    // one 200 µs backoff, to 2 ms. The completion was scheduled first, so
    // it frees the one-deep lane and the retry is admitted.
    let fleet = AdmitFleet::new(single_tenant(2, Duration::from_millis(1), 1)).unwrap();
    let arrivals = [arrival(1_000, 0), arrival(1_800, 1)];
    let faults = [ShardFault {
        at: at_us(1_100),
        shard: 0,
        kind: ShardFaultKind::Stall {
            duration: Duration::from_micros(900),
        },
    }];
    let report = fleet.run(&arrivals, &faults, None);
    assert_eq!(report.admitted[1], vec![at_us(2_000)]);
    assert_eq!(report.tenants[0].counters.rescued, 1);
    assert_eq!(report.counters.shed_queue_full, 0);

    // Retry first: the stall from 0.5 ms to 1 ms sends source 1's arrival
    // at 950 µs back to 1.15 ms; source 0, admitted at 1.05 ms after the
    // stall, completes at 1.15 ms too. The retry was scheduled first, so it
    // meets a full lane.
    let fleet = AdmitFleet::new(single_tenant(2, Duration::from_micros(100), 1)).unwrap();
    let arrivals = [arrival(950, 1), arrival(1_050, 0)];
    let faults = [ShardFault {
        at: at_us(500),
        shard: 0,
        kind: ShardFaultKind::Stall {
            duration: Duration::from_micros(500),
        },
    }];
    let report = fleet.run(&arrivals, &faults, None);
    assert!(report.admitted[1].is_empty());
    assert_eq!(report.admitted[0], vec![at_us(1_050)]);
    assert_eq!(report.counters.retries, 1);
    assert_eq!(report.counters.shed_queue_full, 1);
    assert_eq!(report.counters.completed, 1);
}

#[test]
fn a_crash_then_readmission_completes_only_the_new_entries() {
    // Two admissions queue up to 21 ms and 41 ms; the crash at 2 ms loses
    // both. The re-admission at 3 ms completes at its own 23 ms, and the
    // lost entries' completions complete nothing and do not end the run:
    // at 23 ms all three admissions are inside the 30 ms window, at 41 ms
    // none would be.
    let fleet = AdmitFleet::new(single_tenant(2, Duration::from_millis(20), 4)).unwrap();
    let arrivals = [arrival(1_000, 0), arrival(1_100, 1), arrival(3_000, 0)];
    let report = fleet.run(&arrivals, &[crash(2, 0)], None);
    let c = report.counters;
    assert_eq!((c.admitted, c.lost_in_flight, c.completed), (3, 2, 1));
    assert_eq!(report.latency.count(), 1);
    assert_eq!(report.max_latency, Duration::from_millis(20));
    assert_eq!(report.in_flight_at_end, 0);
    assert_eq!(report.tenants[0].counters.lost_in_flight, 2);
    assert_eq!(report.tenants[0].headroom_at_end, 100 - 3);
}

/// Reversing both input slices changes nothing when no two entries of a
/// slice share an instant: the run processes them in time order.
#[test]
fn reversed_inputs_give_the_same_report() {
    let horizon = Duration::from_millis(60);
    let mut arrivals = dense_flood(6, horizon, 0x2E7);
    arrivals.dedup_by_key(|e| e.at);
    let faults = vec![
        crash(25, 1),
        stall(30, 0, Duration::from_millis(2)),
        crash(41, 2),
        stall(50, 1, Duration::from_millis(1)),
    ];
    let rev_arrivals: Vec<FloodEvent> = arrivals.iter().rev().copied().collect();
    let rev_faults: Vec<ShardFault> = faults.iter().rev().copied().collect();
    let render = |report: &FleetReport| format!("{report:?}");
    for mut config in [
        dense_config(3, 6, FailoverMode::Checkpoint),
        dense_config(3, 6, FailoverMode::FreshState),
    ] {
        for tenanted in [false, true] {
            config.tenancy = tenanted.then(|| TenantConfig {
                window: Duration::from_millis(10),
                global_budget: 40,
                tenants: vec![
                    TenantSpec {
                        sources: 3,
                        budget: 20,
                    },
                    TenantSpec {
                        sources: 3,
                        budget: 20,
                    },
                ],
                brownout: Default::default(),
                seed: 0x7E4A_5EED,
            });
            let fleet = AdmitFleet::new(config.clone()).unwrap();
            let sorted = fleet.run(&arrivals, &faults, None);
            assert!(sorted.counters.admitted > 0 && sorted.counters.shed_total() > 0);
            let reversed = fleet.run(&rev_arrivals, &rev_faults, None);
            assert_eq!(render(&sorted), render(&reversed), "tenanted: {tenanted}");
        }
    }
}
