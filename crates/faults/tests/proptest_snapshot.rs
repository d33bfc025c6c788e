//! Property test: for every fault family, checkpointing a campaign run at
//! a random slot boundary and restoring it yields a byte-identical end
//! state — the tentpole guarantee the replay oracle and the resumable
//! sweep runner are built on.

use proptest::prelude::*;

use rthv::time::{Duration, Instant};
use rthv::{Machine, RunReport, SupervisionPolicy};
use rthv_faults::{scenario_machine, CampaignConfig, FaultKind, FaultScenario};

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

fn campaign() -> CampaignConfig {
    CampaignConfig {
        horizon: Duration::from_millis(150),
        scenarios: Vec::new(),
        ..CampaignConfig::default()
    }
}

/// End-state fingerprint: the state hash at the horizon plus the full
/// report.
fn finish_fingerprint(mut machine: Machine, horizon: Instant) -> (u64, RunReport) {
    machine.run_until(horizon);
    (machine.state_hash(), machine.finish())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot at a random slot boundary, restore onto a fresh machine,
    /// run both to the horizon: hashes and reports must match exactly,
    /// for every fault family, monitored or not, supervised or not.
    #[test]
    fn snapshot_restore_is_byte_identical(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        cut_permille in 0u64..1000,
        monitored in prop::bool::ANY,
        supervised in prop::bool::ANY,
    ) {
        let config = campaign();
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
        let supervision = supervised.then(SupervisionPolicy::default);
        let horizon = Instant::ZERO + config.horizon;

        let mut original = scenario_machine(&config, &plan, monitored, supervision)
            .expect("valid config");
        let schedule = original.schedule().clone();

        // Cut at a random slot boundary inside the horizon.
        let mut boundaries = 0u64;
        while schedule.boundary_time(boundaries + 1) <= horizon {
            boundaries += 1;
        }
        let cut_slot = (boundaries * cut_permille / 1000).max(1);
        original.run_until(schedule.boundary_time(cut_slot));
        let checkpoint = original.snapshot();

        let mut restored = scenario_machine(&config, &plan, monitored, supervision)
            .expect("valid config");
        restored.restore(&checkpoint);
        prop_assert_eq!(restored.state_hash(), original.state_hash());

        let expected = finish_fingerprint(original, horizon);
        let actual = finish_fingerprint(restored, horizon);
        prop_assert_eq!(actual.0, expected.0, "state hash diverged after restore");
        prop_assert_eq!(actual.1, expected.1, "report diverged after restore");
    }
}
