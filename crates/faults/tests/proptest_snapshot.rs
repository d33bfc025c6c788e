//! Property tests: for every fault family, checkpointing a campaign run at
//! a random slot boundary and restoring it yields a byte-identical end
//! state — the tentpole guarantee the replay oracle and the resumable
//! sweep runner are built on — and so does every one of many checkpoints
//! that share one recorded history.

use proptest::prelude::*;

use rthv::time::{Duration, Instant};
use rthv::{Machine, MachineSnapshot, RunReport, SupervisionPolicy};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot every few slot boundaries and keep running, so the
    /// checkpoints share one recorded history. Each checkpoint, restored
    /// onto a fresh machine and onto the machine that ran ahead to the
    /// horizon, resumes the uninterrupted run: equal state hash at the
    /// checkpoint and at the horizon, and an equal report. Checkpoint 0,
    /// restored onto the machine that ran ahead, reruns it from the start.
    #[test]
    fn many_checkpoints_share_one_history(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        every in 1u64..5,
        monitored in prop::bool::ANY,
        supervised in prop::bool::ANY,
    ) {
        let config = campaign();
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
        let supervision = supervised.then(SupervisionPolicy::default);
        let horizon = Instant::ZERO + config.horizon;
        let build = || scenario_machine(&config, &plan, monitored, supervision)
            .expect("valid config");
        let (end_hash, end_report) = finish_fingerprint(build(), horizon);

        let mut ahead = build();
        let mut checkpoints = vec![(ahead.state_hash(), ahead.snapshot())];
        let mut k = 1u64;
        while ahead.schedule().boundary_time(k) <= horizon {
            ahead.run_until(ahead.schedule().boundary_time(k));
            if k.is_multiple_of(every) {
                let hash = ahead.state_hash();
                checkpoints.push((hash, ahead.snapshot()));
                prop_assert_eq!(ahead.state_hash(), hash, "snapshot at {} moved the state", k);
            }
            k += 1;
        }
        ahead.run_until(horizon);
        prop_assert_eq!(ahead.state_hash(), end_hash, "snapshots changed the run");

        let resume = |machine: &mut Machine, hash: u64, checkpoint: &MachineSnapshot, label: &str| {
            let at = checkpoint.taken_at();
            machine.restore(checkpoint);
            assert_eq!(machine.state_hash(), hash, "{label} at {at:?}");
            machine.run_until(horizon);
            assert_eq!(machine.state_hash(), end_hash, "{label} from {at:?}");
            assert_eq!(machine.clone().finish(), end_report, "{label} from {at:?}");
        };
        for (hash, checkpoint) in &checkpoints {
            resume(&mut build(), *hash, checkpoint, "fresh");
            resume(&mut ahead, *hash, checkpoint, "ran ahead");
        }
        prop_assert_eq!(ahead.finish(), end_report);
    }
}
