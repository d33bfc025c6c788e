//! Cross-engine differential properties: the hierarchical timing wheel and
//! the reference binary heap share nothing beyond the `Engine` contract,
//! so these tests are the strongest statement the repo makes about the
//! wheel — for every fault family, random seed and mode, both engines
//! produce byte-identical state hashes at every slot boundary, identical
//! final reports, and survive snapshot/restore cuts, while the compaction
//! guard keeps lazy-deletion debt bounded under a cancel storm.

use proptest::prelude::*;

use rthv::time::{Duration, Instant};
use rthv::{EngineChoice, EngineKind, SupervisionPolicy};
use rthv_faults::{
    scenario_machine, verify_cross_engine, CampaignConfig, FaultKind, FaultScenario, ReplayConfig,
};

/// All eleven fault families with representative tier-1 geometry.
fn kind(index: usize) -> FaultKind {
    match index {
        0 => FaultKind::IrqStorm {
            period: Duration::from_micros(300),
        },
        1 => FaultKind::BurstyFlood {
            burst: 8,
            spacing: Duration::from_micros(20),
            every: Duration::from_millis(2),
        },
        2 => FaultKind::SpuriousIrqs {
            period: Duration::from_millis(1),
            spurious_per_real: 3,
        },
        3 => FaultKind::DroppedIrqs {
            period: Duration::from_micros(500),
            drop_permille: 300,
        },
        4 => FaultKind::AdmissionClockJitter {
            period: Duration::from_millis(3),
        },
        5 => FaultKind::BudgetOverrun {
            period: Duration::from_millis(1),
            factor: 4,
        },
        6 => FaultKind::NonYieldingGuest {
            work: Duration::from_millis(6),
            every: Duration::from_millis(42),
        },
        7 => FaultKind::Nominal {
            period: Duration::from_millis(6),
        },
        8 => FaultKind::HarnessCrash {
            period: Duration::from_millis(6),
            crashes: 1,
        },
        9 => FaultKind::CoreCrash {
            period: Duration::from_millis(6),
            crashes: 1,
        },
        _ => FaultKind::RouteStall {
            period: Duration::from_millis(6),
            stall: Duration::from_millis(4),
        },
    }
}

fn campaign(engine: EngineChoice) -> CampaignConfig {
    CampaignConfig {
        horizon: Duration::from_millis(150),
        engine,
        scenarios: Vec::new(),
        ..CampaignConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Lockstep differential: the same plan on both engines, compared by
    /// `state_hash` at **every** slot boundary and at the horizon, then by
    /// the full `RunReport` rendering. Any ordering or accounting
    /// discrepancy between the engines pins the first diverging boundary.
    #[test]
    fn engines_agree_at_every_slot_boundary(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        monitored in prop::bool::ANY,
        supervised in prop::bool::ANY,
    ) {
        let heap_config = campaign(EngineChoice::Heap);
        let wheel_config = campaign(EngineChoice::Wheel);
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(heap_config.horizon, heap_config.setup.bottom_cost);
        let supervision = supervised.then(SupervisionPolicy::default);
        let horizon = Instant::ZERO + heap_config.horizon;

        let mut heap =
            scenario_machine(&heap_config, &plan, monitored, supervision).expect("valid config");
        let mut wheel =
            scenario_machine(&wheel_config, &plan, monitored, supervision).expect("valid config");
        prop_assert_eq!(heap.engine_kind(), EngineKind::Heap);
        prop_assert_eq!(wheel.engine_kind(), EngineKind::Wheel);
        prop_assert_eq!(heap.state_hash(), wheel.state_hash(), "initial state");

        let schedule = heap.schedule().clone();
        let mut k = 1u64;
        while schedule.boundary_time(k) <= horizon {
            let boundary = schedule.boundary_time(k);
            heap.run_until(boundary);
            wheel.run_until(boundary);
            prop_assert_eq!(
                heap.state_hash(),
                wheel.state_hash(),
                "engines diverged at slot boundary {}",
                k
            );
            k += 1;
        }
        heap.run_until(horizon);
        wheel.run_until(horizon);
        prop_assert_eq!(heap.state_hash(), wheel.state_hash(), "horizon state");
        prop_assert_eq!(heap.finish(), wheel.finish(), "final reports differ");
    }

    /// The checkpoint/replay oracle as a cross-engine differential test:
    /// record on the heap, re-execute on the wheel crossing a
    /// snapshot/restore cut at every checkpoint period — clean for every
    /// fault family.
    #[test]
    fn cross_engine_replay_oracle_is_clean(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        monitored in prop::bool::ANY,
    ) {
        let config = campaign(EngineChoice::Auto);
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let replay = ReplayConfig { monitored, ..ReplayConfig::default() };
        prop_assert_eq!(verify_cross_engine(&config, &scenario, &replay), Ok(()));
    }
}

/// A non-yielding guest demanding 6 ms of bottom work every 1 ms keeps a
/// bottom segment armed that each new arrival's top handler preempts,
/// cancelling the armed segment-end event — a sustained cancel storm. The
/// compaction guard in both engines must keep lazy-deletion debt bounded:
/// sampled on a 100 µs grid across the whole run, stale entries never
/// exceed twice the live population.
#[test]
fn cancel_storm_keeps_tombstone_debt_bounded() {
    for engine in [EngineChoice::Heap, EngineChoice::Wheel] {
        let config = campaign(engine);
        let scenario = FaultScenario {
            id: 0,
            kind: FaultKind::NonYieldingGuest {
                work: Duration::from_millis(6),
                every: Duration::from_millis(1),
            },
            seed: 0xCA11,
        };
        let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
        let mut machine = scenario_machine(&config, &plan, true, None).expect("valid config");
        let horizon = Instant::ZERO + config.horizon;

        let mut saw_stale = false;
        let mut at = Instant::ZERO;
        while at < horizon {
            at += Duration::from_micros(100);
            machine.run_until(at);
            let stats = machine.engine_stats();
            saw_stale |= stats.stale > 0;
            assert!(
                stats.stale <= 2 * stats.live.max(1),
                "{engine:?}: at {at:?}: {} stale exceeds 2x {} live",
                stats.stale,
                stats.live
            );
        }
        assert!(
            saw_stale,
            "{engine:?}: the storm never produced a tombstone — scenario too tame"
        );
    }
}
