//! Fleet-level robustness invariants: checkpoint failover keeps admitted
//! streams δ⁻-conformant across crash cuts (and the fresh-state baseline
//! does not), stalls fail closed through the bounded retry, the shedding
//! ladder demotes suspect sources first, the ledger balances, and runs are
//! deterministic across reruns and engines.

use rthv_admit::{
    assemble_report, fleet_faults, run_storm_scenario, storm_scenarios, AdmitFleet, FailoverMode,
    FleetConfig, FleetError, ShardFault, ShardFaultKind, ShedReason, StormConfig, StormOutcome,
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
fn runs_are_deterministic_across_reruns_and_engines() {
    let horizon = Duration::from_millis(60);
    let arrivals = dense_flood(6, horizon, 0xDE7);
    let faults = vec![crash(25, 1), stall(40, 0, Duration::from_millis(1))];
    let mut reference: Option<(String, u64)> = None;
    for engine in ["heap", "wheel"] {
        for _ in 0..2 {
            let mut config = dense_config(3, 6, FailoverMode::Checkpoint);
            config.engine = engine.to_owned();
            let fleet = AdmitFleet::new(config).unwrap();
            let report = fleet.run(&arrivals, &faults, None);
            let key = (report.merged_bytes(), report.counters.shed_total());
            match &reference {
                None => reference = Some(key),
                Some(r) => assert_eq!(
                    r, &key,
                    "fleet runs must be byte-identical across reruns and engines"
                ),
            }
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
                ..base.clone()
            },
            FleetError::BadWatermark,
        ),
        (
            FleetConfig {
                engine: "bogo".to_owned(),
                ..base
            },
            FleetError::UnknownEngine {
                value: "bogo".to_owned(),
            },
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

/// The flat storm campaign is engine-invariant: the CI smoke campaign's
/// outcomes and assembled report are equal on the heap and the wheel.
#[test]
fn storm_smoke_campaign_is_engine_invariant() {
    let run = |engine: &str| {
        let config = StormConfig::smoke(engine);
        let outcomes: Vec<StormOutcome> = storm_scenarios(5, 16_392_212, config.horizon)
            .iter()
            .map(|scenario| run_storm_scenario(&config, scenario, None).unwrap())
            .collect();
        let records: Vec<_> = outcomes.iter().map(StormOutcome::record).collect();
        (outcomes, assemble_report(&config, 16_392_212, &records))
    };
    let (heap, heap_report) = run("heap");
    let (wheel, wheel_report) = run("wheel");
    assert_eq!(heap, wheel, "storm outcomes differ across engines");
    assert_eq!(
        heap_report, wheel_report,
        "storm reports differ across engines"
    );
}

#[test]
fn storm_smoke_scenario_separates_failover_from_baseline() {
    let config = StormConfig::smoke("heap");
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
