//! Arrival-placement differential properties. A machine keeps the arrivals
//! scheduled in time order in one shared stream, and any arrival scheduled
//! before the stream's tail in a side heap. These tests schedule the same
//! plan both ways: in time order, so it forms one stream, or behind a
//! silent sentinel arrival past the horizon, so every plan arrival waits
//! in the side heap. For every fault family, random seed and mode, the two
//! runs must produce byte-identical state hashes at every slot boundary,
//! across snapshot/restore cuts, and identical final reports.

use proptest::prelude::*;

use rthv::time::{Duration, Instant};
use rthv::{HypervisorConfig, IrqSourceId, IrqSourceSpec, Machine, PartitionId, SupervisionPolicy};
use rthv_faults::{scenario_machine, CampaignConfig, FaultKind, FaultPlan, FaultScenario};

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

const SENTINEL: IrqSourceId = IrqSourceId::new(1);

/// The campaign machine's configuration for `plan`, plus an unmonitored
/// second source that carries the sentinel.
fn placement_config(
    config: &CampaignConfig,
    plan: &FaultPlan,
    monitored: bool,
    supervision: Option<SupervisionPolicy>,
) -> HypervisorConfig {
    let machine = scenario_machine(config, plan, monitored, supervision).expect("valid config");
    let mut hv = machine.config().clone();
    hv.sources.push(IrqSourceSpec::new(
        "sentinel",
        PartitionId::new(0),
        config.setup.bottom_cost,
    ));
    hv
}

/// A service-traced machine on `hv` with `plan` and the sentinel's one
/// arrival, a second past the horizon, scheduled. With `side_heap` the
/// sentinel goes first, so every plan arrival lands before the stream's
/// tail; otherwise it goes last and the plan forms one stream. Either way
/// every plan arrival gets the same per-source sequence number.
fn placed(hv: &HypervisorConfig, plan: &FaultPlan, horizon: Instant, side_heap: bool) -> Machine {
    let mut machine = Machine::new(hv.clone()).expect("valid config");
    machine.enable_service_trace();
    let sentinel = |machine: &mut Machine| {
        machine
            .schedule_irq(SENTINEL, horizon + Duration::from_secs(1))
            .expect("in the future");
    };
    if side_heap {
        sentinel(&mut machine);
    }
    for arrival in &plan.arrivals {
        machine
            .schedule_irq_with_work(IrqSourceId::new(0), arrival.at, arrival.work)
            .expect("plan arrivals lie in the future");
    }
    if !side_heap {
        sentinel(&mut machine);
    }
    machine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Lockstep differential: the plan as one stream against the plan in
    /// the side heap, compared by `state_hash` at **every** slot boundary
    /// and at the horizon, then by the full `RunReport`. Any ordering or
    /// accounting difference between the two placements pins the first
    /// diverging boundary.
    #[test]
    fn placements_agree_at_every_slot_boundary(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        monitored in prop::bool::ANY,
        supervised in prop::bool::ANY,
    ) {
        let config = campaign();
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
        let supervision = supervised.then(SupervisionPolicy::default);
        let horizon = Instant::ZERO + config.horizon;
        let hv = placement_config(&config, &plan, monitored, supervision);

        let mut stream = placed(&hv, &plan, horizon, false);
        let mut side = placed(&hv, &plan, horizon, true);
        prop_assert_eq!(stream.state_hash(), side.state_hash(), "initial state");

        let schedule = stream.schedule().clone();
        let mut k = 1u64;
        while schedule.boundary_time(k) <= horizon {
            let boundary = schedule.boundary_time(k);
            stream.run_until(boundary);
            side.run_until(boundary);
            prop_assert_eq!(
                stream.state_hash(),
                side.state_hash(),
                "placements diverged at slot boundary {}",
                k
            );
            k += 1;
        }
        stream.run_until(horizon);
        side.run_until(horizon);
        prop_assert_eq!(stream.state_hash(), side.state_hash(), "horizon state");
        prop_assert_eq!(stream.finish(), side.finish(), "final reports differ");
    }

    /// The side-heap run crosses a snapshot/restore cut every eighth slot
    /// boundary, continuing on a fresh stream-placed machine restored from
    /// the snapshot, and still matches the uncut stream run at every
    /// boundary and in its final report.
    #[test]
    fn placements_agree_across_snapshot_cuts(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        monitored in prop::bool::ANY,
    ) {
        let config = campaign();
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
        let horizon = Instant::ZERO + config.horizon;
        let hv = placement_config(&config, &plan, monitored, None);

        let mut stream = placed(&hv, &plan, horizon, false);
        let mut side = placed(&hv, &plan, horizon, true);
        let schedule = stream.schedule().clone();
        let mut k = 1u64;
        while schedule.boundary_time(k) <= horizon {
            let boundary = schedule.boundary_time(k);
            stream.run_until(boundary);
            side.run_until(boundary);
            prop_assert_eq!(
                stream.state_hash(),
                side.state_hash(),
                "placements diverged at slot boundary {}",
                k
            );
            if k.is_multiple_of(8) {
                let snapshot = side.snapshot();
                side = placed(&hv, &plan, horizon, false);
                side.restore(&snapshot);
            }
            k += 1;
        }
        stream.run_until(horizon);
        side.run_until(horizon);
        prop_assert_eq!(stream.finish(), side.finish(), "final reports differ");
    }
}
