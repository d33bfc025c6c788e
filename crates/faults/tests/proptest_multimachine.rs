//! The degenerate-platform identity: a single-core, zero-routing
//! [`MultiMachine`] with no platform faults *is* the plain [`Machine`] it
//! wraps. For every fault family, random seed, monitoring mode,
//! supervision mode and event engine, both drive the identical arrival
//! stream and must agree — `state_hash` byte for byte at **every** slot
//! boundary and at the horizon, and the per-core `RunReport` verbatim.
//! This is what makes the multi-core campaign's claims transfer: every
//! single-machine guarantee (snapshot/restore, cross-engine determinism,
//! replay journals) holds on the platform because N = 1 adds nothing.
//!
//! The split-invariance properties pin why `MultiMachine::run_until` may
//! run each live core straight to `min(until, crash_at)`: a `Machine` run
//! split at any instant ends where the one-shot run ends, and so does a
//! multi-core campaign case stopped at every slot boundary and crash
//! instant, with a snapshot/restore cut on the way.

use proptest::prelude::*;

use rthv::monitor::DeltaFunction;
use rthv::time::{Duration, Instant};
use rthv::{
    CoreFault, EngineChoice, FailoverPolicy, HypervisorConfig, IrqHandlingMode, IrqSourceId,
    Machine, MultiMachine, PaperSetup, Platform, PlatformSource, SupervisionPolicy,
};
use rthv_faults::{
    build_platform, core_faults, line_arrivals, FaultKind, FaultScenario, SmpArm, SmpConfig,
    SmpScenario, SmpTraffic,
};

/// All eleven fault families with representative tier-1 geometry (the same
/// ladder as the cross-engine differential tests).
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

const HORIZON: Duration = Duration::from_millis(150);

/// The paper-geometry hypervisor configuration both sides run: interposed
/// mode, the scenario's admission clock, and either the real 3 ms δ⁻ or
/// the admit-everything 1 ns one.
fn paired_config(
    monitored: bool,
    supervised: bool,
    engine: EngineChoice,
    plan_clock: rthv::AdmissionClock,
) -> HypervisorConfig {
    let dmin = if monitored {
        Duration::from_millis(3)
    } else {
        Duration::from_nanos(1)
    };
    let delta = DeltaFunction::from_dmin(dmin).expect("positive d_min");
    let mut hv = PaperSetup::default().config(IrqHandlingMode::Interposed, Some(delta));
    hv.policies.admission_clock = plan_clock;
    hv.policies.supervision = supervised.then(SupervisionPolicy::default);
    hv.policies.engine = engine;
    hv
}

/// A one-core platform around `hv` with a zero-cost 1×1 routing matrix,
/// zero shared penalty and no fallback — the degenerate platform.
fn degenerate_platform(hv: HypervisorConfig) -> Platform {
    Platform {
        cores: vec![hv],
        route_cost: vec![vec![Duration::ZERO]],
        shared_penalty: Duration::ZERO,
        sources: vec![PlatformSource {
            origin: 0,
            home: 0,
            home_source: IrqSourceId::new(0),
            fallback: None,
        }],
        failover: FailoverPolicy::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(18))]

    /// Lockstep identity: plain machine and N = 1 platform drive the same
    /// plan and are compared by `state_hash` at every slot boundary, at
    /// the horizon, and by the final report rendering.
    #[test]
    fn single_core_platform_is_the_machine_at_every_slot_boundary(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        monitored in prop::bool::ANY,
        supervised in prop::bool::ANY,
        wheel in prop::bool::ANY,
    ) {
        let engine = if wheel { EngineChoice::Wheel } else { EngineChoice::Heap };
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(HORIZON, PaperSetup::default().bottom_cost);
        let horizon = Instant::ZERO + HORIZON;

        let hv = paired_config(monitored, supervised, engine, plan.admission_clock);
        let mut machine = Machine::new(hv.clone()).expect("paper config is valid");
        let mut multi =
            MultiMachine::new(degenerate_platform(hv), &[]).expect("degenerate platform is valid");
        machine.enable_service_trace();
        multi.enable_service_trace();
        prop_assert_eq!(machine.state_hash(), multi.state_hash(), "initial state");

        // Plans are strictly increasing in time (the injector canonicalizes
        // them), so the platform's per-source delivery ordering never has to
        // nudge anything; the platform rejects arrivals at t = 0, so both
        // sides skip them identically.
        for arrival in plan.arrivals.iter().filter(|a| a.at > Instant::ZERO) {
            machine
                .schedule_irq_with_work(IrqSourceId::new(0), arrival.at, arrival.work)
                .expect("machine accepts the plan");
            multi
                .schedule_irq_with_work(0, arrival.at, arrival.work)
                .expect("platform accepts the plan");
        }

        let schedule = machine.schedule().clone();
        let mut k = 1u64;
        while schedule.boundary_time(k) <= horizon {
            let boundary = schedule.boundary_time(k);
            machine.run_until(boundary);
            multi.run_until(boundary);
            prop_assert_eq!(
                machine.state_hash(),
                multi.state_hash(),
                "platform diverged from the machine at slot boundary {}",
                k
            );
            k += 1;
        }
        machine.run_until(horizon);
        multi.run_until(horizon);
        prop_assert_eq!(machine.state_hash(), multi.state_hash(), "horizon state");

        let machine_report = machine.finish();
        let multi_report = multi.finish();
        prop_assert!(multi_report.conserved(), "degenerate platform ledger leaked");
        prop_assert_eq!(multi_report.sheds.len(), 0, "degenerate platform shed traffic");
        prop_assert_eq!(&machine_report, &multi_report.cores[0], "final reports differ");
    }

    /// The platform's snapshot/restore must preserve the identity across a
    /// mid-run cut: snapshot the N = 1 platform at a boundary, run both to
    /// the horizon, restore the platform and re-run — the replay must land
    /// on the machine's exact horizon hash again.
    #[test]
    fn single_core_platform_restore_replays_to_the_machine_hash(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        cut in 1u64..8,
        wheel in prop::bool::ANY,
    ) {
        let engine = if wheel { EngineChoice::Wheel } else { EngineChoice::Heap };
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(HORIZON, PaperSetup::default().bottom_cost);
        let horizon = Instant::ZERO + HORIZON;

        let hv = paired_config(true, false, engine, plan.admission_clock);
        let mut machine = Machine::new(hv.clone()).expect("paper config is valid");
        let mut multi =
            MultiMachine::new(degenerate_platform(hv), &[]).expect("degenerate platform is valid");
        for arrival in plan.arrivals.iter().filter(|a| a.at > Instant::ZERO) {
            machine
                .schedule_irq_with_work(IrqSourceId::new(0), arrival.at, arrival.work)
                .expect("machine accepts the plan");
            multi
                .schedule_irq_with_work(0, arrival.at, arrival.work)
                .expect("platform accepts the plan");
        }

        let cut_at = machine.schedule().boundary_time(cut).min(horizon);
        machine.run_until(cut_at);
        multi.run_until(cut_at);
        let cut_hash = machine.state_hash();
        let checkpoint = multi.snapshot();
        prop_assert_eq!(checkpoint.taken_at(), cut_at);
        prop_assert_eq!(multi.state_hash(), cut_hash, "cut state");

        machine.run_until(horizon);
        multi.run_until(horizon);
        let reference = machine.state_hash();
        prop_assert_eq!(multi.state_hash(), reference, "pre-restore horizon state");

        multi.restore(&checkpoint);
        prop_assert_eq!(multi.state_hash(), cut_hash, "restored state");
        multi.run_until(horizon);
        prop_assert_eq!(multi.state_hash(), reference, "replayed horizon state");
    }

    /// `Machine::run_until` is split-invariant: for any `a ≤ b`, running
    /// to `a` and then to `b` ends in the same state and report as running
    /// straight to `b`.
    #[test]
    fn machine_run_until_is_split_invariant(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        monitored in prop::bool::ANY,
        supervised in prop::bool::ANY,
        wheel in prop::bool::ANY,
        first_us in 0u64..=150_000,
        second_us in 0u64..=150_000,
    ) {
        let engine = if wheel { EngineChoice::Wheel } else { EngineChoice::Heap };
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(HORIZON, PaperSetup::default().bottom_cost);
        let a = Instant::from_micros(first_us.min(second_us));
        let b = Instant::from_micros(first_us.max(second_us));

        let hv = paired_config(monitored, supervised, engine, plan.admission_clock);
        let build = || {
            let mut machine = Machine::new(hv.clone()).expect("paper config is valid");
            machine.enable_service_trace();
            for arrival in &plan.arrivals {
                machine
                    .schedule_irq_with_work(IrqSourceId::new(0), arrival.at, arrival.work)
                    .expect("machine accepts the plan");
            }
            machine
        };
        let mut one = build();
        one.run_until(b);
        let mut split = build();
        split.run_until(a);
        split.run_until(b);
        prop_assert_eq!(one.state_hash(), split.state_hash(), "split at {} diverged at {}", a, b);
        prop_assert_eq!(one.finish(), split.finish(), "final reports differ");
    }
}

proptest! {
    // Core crashes arise only from the core-crash family on two or more
    // cores (about one case in sixteen); 64 cases keep the freeze-at-crash
    // path covered.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A multi-core campaign case run to the horizon in one `run_until`
    /// ends byte-identical to the same case stopped at every slot boundary
    /// and at each crash instant — with a snapshot taken at one stop, the
    /// run continued to the horizon, then rewound and stepped on — and to
    /// the one-shot run on the other engine, across all fault families ×
    /// both engines × cores {1, 2, 4} × storm and nominal traffic.
    #[test]
    fn split_runs_match_the_one_shot_run(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        cores_pick in 0usize..3,
        wheel in prop::bool::ANY,
        storm in prop::bool::ANY,
        cut in 0usize..8,
    ) {
        let cores = [1usize, 2, 4][cores_pick];
        let engine = if wheel { EngineChoice::Wheel } else { EngineChoice::Heap };
        let config = SmpConfig {
            horizon: Duration::from_millis(60),
            ..SmpConfig::smoke()
        };
        let scenario = SmpScenario {
            id: 0,
            traffic: if storm { SmpTraffic::Storm } else { SmpTraffic::Nominal },
            fault: FaultScenario { id: 0, kind: kind(kind_index), seed },
        };
        let on_engine = |engine| {
            let mut platform = build_platform(&config, SmpArm::RoundRobin, cores, true)
                .expect("campaign platform is valid");
            for core in &mut platform.cores {
                core.policies.engine = engine;
            }
            platform
        };
        let platform = on_engine(engine);
        let other_engine = on_engine(if wheel { EngineChoice::Heap } else { EngineChoice::Wheel });
        let faults = core_faults(&scenario, cores, config.horizon);
        let lines = platform.sources.len();
        let build_on = |platform: &Platform| {
            let mut m = MultiMachine::new(platform.clone(), &faults).expect("valid platform");
            for line in 0..lines {
                for at in line_arrivals(&config, &scenario, line) {
                    m.schedule_irq(line, at).expect("campaign arrivals are in range");
                }
            }
            m
        };
        let horizon = Instant::ZERO + config.horizon;
        let mut one = build_on(&platform);
        one.run_until(horizon);
        let mut crossed = build_on(&other_engine);
        crossed.run_until(horizon);
        prop_assert_eq!(one.state_hash(), crossed.state_hash(), "engines diverged");

        // Stops: every slot boundary (all cores share the campaign's TDMA
        // geometry; probe it off core 0) and every crash instant.
        let schedule = Machine::new(platform.cores[0].clone())
            .expect("campaign core config is valid")
            .schedule()
            .clone();
        let mut stops: Vec<Instant> = (1u64..)
            .map(|k| schedule.boundary_time(k))
            .take_while(|&t| t <= horizon)
            .collect();
        stops.extend(faults.iter().filter_map(|fault| match *fault {
            CoreFault::Crash { at, .. } if at <= horizon => Some(at),
            _ => None,
        }));
        stops.push(horizon);
        stops.sort_unstable();
        stops.dedup();

        let mut split = build_on(&platform);
        for (index, &stop) in stops.iter().enumerate() {
            split.run_until(stop);
            if index == cut.min(stops.len() - 1) {
                let checkpoint = split.snapshot();
                let hash = split.state_hash();
                split.run_until(horizon);
                split.restore(&checkpoint);
                prop_assert_eq!(split.state_hash(), hash, "restored state at {}", stop);
            }
        }
        prop_assert_eq!(one.state_hash(), split.state_hash(), "horizon state");

        let one = one.finish();
        for (run, label) in [(split.finish(), "split"), (crossed.finish(), "other-engine")] {
            prop_assert!(one.conserved() && run.conserved(), "{} ledger leaked", label);
            prop_assert_eq!(&one.cores, &run.cores, "{} per-core reports differ", label);
            prop_assert_eq!(&one.counters, &run.counters, "{} counters differ", label);
            prop_assert_eq!(&one.sheds, &run.sheds, "{} sheds differ", label);
            prop_assert_eq!(&one.crashed, &run.crashed, "{} crash sets differ", label);
        }
    }
}
