//! Property tests for the fleet's structural invariants: the hash route
//! is a pure stable function, admitted streams are invariant under the
//! shard count and the checkpoint cadence, and
//! checkpoint failover is admission-transparent — a crashed-and-restored
//! fleet admits exactly what an uncrashed one does.

use proptest::prelude::*;

use rthv_admit::{
    route, AdmitFleet, FailoverMode, FleetConfig, ShardFault, ShardFaultKind, TenantConfig,
    TenantSpec,
};
use rthv_monitor::DeltaFunction;
use rthv_time::{Duration, Instant};
use rthv_workload::{flood_overlay, open_loop_flood, FloodSpec, OverlaySpec};

/// The tenant campaign's geometry adapted for property runs: heavy
/// service cost, watermark ladder off, a 2-tenant split with the
/// aggressor on the upper half. The lane is deep (unlike the campaign's
/// shallow queue, which only the flat ablation needs): byte-identity
/// requires the victim never to hit its *own* lane cap, because a crash
/// drains in-flight work and thereby moves queue-full timing —
/// self-saturation is not an isolation failure.
fn tenancy_config(shards: u32, checkpoint_every: u64) -> FleetConfig {
    let mut config = FleetConfig::paper(shards, 16);
    config.queue_capacity = 64;
    config.service_cost = Duration::from_micros(800);
    config.shed_watermark_permille = 1000;
    config.checkpoint_every = checkpoint_every;
    config.tenancy = Some(TenantConfig {
        window: Duration::from_millis(10),
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
    });
    config
}

/// A fleet config whose sheds cannot fire: admissions depend only on each
/// source's own monitor and arrival times, which is exactly the
/// sharding-invariance precondition.
fn unshedding_config(shards: u32, sources: u32, checkpoint_every: u64) -> FleetConfig {
    let mut config = FleetConfig::paper(shards, sources);
    config.queue_capacity = 1 << 20;
    config.checkpoint_every = checkpoint_every;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The route is pure and in-range: the same `(source, shards)` pair
    /// maps to the same shard on every call, in every process, and the
    /// fleet's frozen router agrees with the free function after
    /// reconstruction.
    #[test]
    fn routing_is_pure_stable_and_in_range(
        sources in 1u32..256,
        shards in 1u32..32,
    ) {
        for source in 0..sources {
            let first = route(source, shards);
            prop_assert!(first < shards);
            prop_assert_eq!(first, route(source, shards));
        }
        let a = AdmitFleet::new(unshedding_config(shards, sources, 32)).unwrap();
        let b = AdmitFleet::new(unshedding_config(shards, sources, 7)).unwrap();
        for source in 0..sources {
            let (shard_a, _) = a.route_of(source).unwrap();
            let (shard_b, _) = b.route_of(source).unwrap();
            prop_assert_eq!(shard_a, route(source, shards));
            prop_assert_eq!(shard_a, shard_b,
                "routing must not depend on checkpoint cadence");
        }
    }

    /// The merged admitted stream is byte-identical across shard counts
    /// {1, 4, 16} and arbitrary checkpoint cadences: with sheds
    /// structurally impossible, admission is a per-source property and
    /// sharding is pure routing.
    #[test]
    fn merged_streams_survive_resharding_and_cadence(
        seed in any::<u64>(),
        mean_us in 150u64..1500,
        checkpoint_every in 1u64..64,
    ) {
        let sources = 16;
        let arrivals = open_loop_flood(&FloodSpec {
            sources,
            mean: Duration::from_micros(mean_us),
            horizon: Duration::from_millis(40),
            seed,
        });
        let mut reference: Option<String> = None;
        for shards in [1u32, 4, 16] {
            let fleet = AdmitFleet::new(
                unshedding_config(shards, sources, checkpoint_every),
            ).unwrap();
            let report = fleet.run(&arrivals, &[], None);
            prop_assert_eq!(report.counters.shed_total(), 0);
            let bytes = report.merged_bytes();
            match &reference {
                None => reference = Some(bytes),
                Some(r) => prop_assert_eq!(
                    r, &bytes,
                    "admitted stream changed under shards={}",
                    shards
                ),
            }
        }
    }

    /// Checkpoint failover is admission-transparent: crashing any shard at
    /// any instant (with snapshot + journal-tail restore) leaves the
    /// admitted stream byte-identical to the fault-free run — the δ⁻ rings
    /// come back exactly as they were.
    #[test]
    fn checkpoint_failover_is_admission_transparent(
        seed in any::<u64>(),
        crash_at_us in 1_000u64..39_000,
        crashed_shard in 0u32..4,
        checkpoint_every in 1u64..48,
    ) {
        let sources = 12;
        let arrivals = open_loop_flood(&FloodSpec {
            sources,
            mean: Duration::from_micros(400),
            horizon: Duration::from_millis(40),
            seed,
        });
        let fault = ShardFault {
            at: Instant::ZERO + Duration::from_micros(crash_at_us),
            shard: crashed_shard,
            kind: ShardFaultKind::Crash,
        };
        let config = unshedding_config(4, sources, checkpoint_every);
        let calm = AdmitFleet::new(config.clone()).unwrap().run(&arrivals, &[], None);
        let crashed = AdmitFleet::new(config).unwrap().run(&arrivals, &[fault], None);
        prop_assert_eq!(
            calm.merged_bytes(), crashed.merged_bytes(),
            "a checkpoint-restored shard must admit exactly what it would have"
        );
        let delta = DeltaFunction::from_dmin(Duration::from_millis(1)).unwrap();
        prop_assert!(crashed.check(&delta, Duration::from_micros(100)).is_empty());

        // The fresh-state ablation of the same cut is NOT transparent
        // whenever the crashed shard had admitted anything before the cut
        // with traffic still pending after it — the δ⁻ history is gone.
        let mut fresh_cfg = unshedding_config(4, sources, checkpoint_every);
        fresh_cfg.failover = FailoverMode::FreshState;
        let fresh = AdmitFleet::new(fresh_cfg).unwrap().run(&arrivals, &[fault], None);
        prop_assert!(fresh.counters.admitted >= crashed.counters.admitted,
            "forgetting δ⁻ history can only admit more");
    }

    /// Routing ignores the tenancy: attaching a tenant hierarchy never
    /// moves a source to a different shard, across shard counts
    /// {1, 4, 16} — tenancy partitions budgets, not placement.
    #[test]
    fn routing_is_stable_under_tenant_assignment(
        checkpoint_every in 1u64..48,
    ) {
        for shards in [1u32, 4, 16] {
            let flat = AdmitFleet::new(
                unshedding_config(shards, 16, checkpoint_every),
            ).unwrap();
            let tenanted = AdmitFleet::new(
                tenancy_config(shards, checkpoint_every),
            ).unwrap();
            for source in 0..16 {
                prop_assert_eq!(
                    flat.route_of(source), tenanted.route_of(source),
                    "tenancy moved source {} under shards={}",
                    source, shards
                );
                prop_assert_eq!(
                    flat.route_of(source).unwrap().0,
                    route(source, shards)
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The isolation theorem: a seeded aggressor flood plus correlated
    /// crash cuts in tenant 1 leave tenant 0's admitted stream
    /// byte-identical to the fault-free, flood-free run — at every shard
    /// count in {1, 4, 16}, under arbitrary checkpoint cadences. (The
    /// stream is *not* shard-count-invariant: lane capacity and drain rate
    /// are per-shard physical resources, so resharding may move it — what
    /// must never move it is another tenant's behavior.) The two crashes
    /// come in either order, so the fault slice is often unsorted.
    #[test]
    fn tenant_isolation_survives_floods_crashes_and_resharding(
        seed in any::<u64>(),
        checkpoint_every in 1u64..48,
        crash_a_us in 12_000u64..55_000,
        crash_b_us in 12_000u64..55_000,
        crash_shard_a in 0u32..16,
        crash_shard_b in 0u32..16,
    ) {
        let horizon = Duration::from_millis(60);
        let calm = open_loop_flood(&FloodSpec {
            sources: 16,
            mean: Duration::from_millis(6),
            horizon,
            seed,
        });
        let storm = flood_overlay(&calm, &OverlaySpec {
            first_source: 8,
            sources: 8,
            mean: Duration::from_micros(300),
            onset: Duration::from_millis(10),
            horizon,
            seed: seed ^ 0x0A66_0E55,
        });
        for shards in [1u32, 4, 16] {
            let faults = vec![
                ShardFault {
                    at: Instant::ZERO + Duration::from_micros(crash_a_us),
                    shard: crash_shard_a % shards,
                    kind: ShardFaultKind::Crash,
                },
                ShardFault {
                    at: Instant::ZERO + Duration::from_micros(crash_b_us),
                    shard: crash_shard_b % shards,
                    kind: ShardFaultKind::Crash,
                },
            ];
            let fleet = AdmitFleet::new(tenancy_config(shards, checkpoint_every)).unwrap();
            let calm_victim = fleet.run(&calm, &[], None).tenant_bytes(0);
            let storm_victim = fleet.run(&storm, &faults, None).tenant_bytes(0);
            prop_assert_eq!(
                &calm_victim, &storm_victim,
                "aggressor flood + crashes moved the victim stream under shards={}",
                shards
            );
        }
    }
}
