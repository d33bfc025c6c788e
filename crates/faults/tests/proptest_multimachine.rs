//! The degenerate-platform identity: a single-core, zero-routing
//! [`MultiMachine`] with no platform faults *is* the plain [`Machine`] it
//! wraps. For every fault family, random seed, monitoring mode and
//! supervision mode, both drive the identical arrival stream and must
//! agree — `state_hash` byte for byte at **every** slot boundary and at
//! the horizon, and the per-core `RunReport` verbatim. This is what makes
//! the multi-core campaign's claims transfer: every single-machine
//! guarantee (snapshot/restore, arrival-placement invariance, replay
//! journals) holds on the platform because N = 1 adds nothing.
//!
//! The split-invariance properties pin why `MultiMachine::run_until` may
//! run each live core straight to `min(until, crash_at)`: a `Machine` run
//! split at any instant ends where the one-shot run ends, and so does a
//! multi-core campaign case stopped at every slot boundary and crash
//! instant, with a snapshot/restore cut on the way. A run stopped at every
//! slot boundary dispatches every TDMA rotation as events, while a longer
//! run jumps the idle ones, so these properties also pin the jump against
//! the event path, with supervision and metrics on and off.

use proptest::prelude::*;

use rthv::monitor::DeltaFunction;
use rthv::obs::ObsConfig;
use rthv::time::{Duration, Instant};
use rthv::{
    CoreFault, FailoverPolicy, HypervisorConfig, IrqHandlingMode, IrqSourceId, Machine,
    MultiMachine, PaperSetup, PartitionId, Platform, PlatformSource, SlotSpec, SupervisionPolicy,
    TdmaSchedule,
};
use rthv_faults::{
    build_platform, core_faults, line_arrivals, FaultKind, FaultScenario, SmpArm, SmpConfig,
    SmpScenario, SmpTraffic,
};

/// All eleven fault families with representative tier-1 geometry (the same
/// ladder as the arrival-placement differential tests).
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
    hv
}

/// Four slot layouts for the split-invariance property: the paper's three
/// slots (`None`), the slot-splitting experiment's interleaved P0/P1
/// windows at k = 2 and k = 3 (`k` windows of `6 ms / k` each for P0 and
/// P1, then the 2 ms housekeeping window), and a layout whose first
/// window belongs to P1 rather than P0.
fn layout(index: usize) -> Option<Vec<SlotSpec>> {
    let p = PartitionId::new;
    let ms = Duration::from_millis;
    let interleaved = |k: u64| {
        let slice = ms(6) / k;
        let mut windows = Vec::new();
        for _ in 0..k {
            windows.push(SlotSpec::new(p(0), slice));
            windows.push(SlotSpec::new(p(1), slice));
        }
        windows.push(SlotSpec::new(p(2), ms(2)));
        windows
    };
    match index {
        0 => None,
        1 => Some(interleaved(2)),
        2 => Some(interleaved(3)),
        _ => Some(vec![
            SlotSpec::new(p(1), ms(3)),
            SlotSpec::new(p(0), ms(6)),
            SlotSpec::new(p(2), ms(2)),
        ]),
    }
}

/// The observability geometry a machine on `schedule` defaults to.
fn obs_config(schedule: &TdmaSchedule) -> ObsConfig {
    ObsConfig {
        gauge_window: schedule.cycle(),
        ..ObsConfig::default()
    }
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
    ) {
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(HORIZON, PaperSetup::default().bottom_cost);
        let horizon = Instant::ZERO + HORIZON;

        let hv = paired_config(monitored, supervised, plan.admission_clock);
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
    ) {
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(HORIZON, PaperSetup::default().bottom_cost);
        let horizon = Instant::ZERO + HORIZON;

        let hv = paired_config(true, false, plan.admission_clock);
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
    /// to `a` and then to `b` ends in the same state, report and metrics
    /// snapshot as running straight to `b`, and so does a run stopped at
    /// every slot boundary on the way, which jumps no idle rotation. The
    /// stops reach past the plan's last arrival, so the one-shot run's
    /// idle jumps span many cycles and wrap the slot position on every
    /// layout.
    #[test]
    fn machine_run_until_is_split_invariant(
        kind_index in 0usize..11,
        layout_index in 0usize..4,
        seed in any::<u64>(),
        monitored in prop::bool::ANY,
        supervised in prop::bool::ANY,
        metrics in prop::bool::ANY,
        first_us in 0u64..=400_000,
        second_us in 0u64..=400_000,
    ) {
        let scenario = FaultScenario { id: 0, kind: kind(kind_index), seed };
        let plan = scenario.plan(HORIZON, PaperSetup::default().bottom_cost);
        let a = Instant::from_micros(first_us.min(second_us));
        let b = Instant::from_micros(first_us.max(second_us));

        let mut hv = paired_config(monitored, supervised, plan.admission_clock);
        hv.windows = layout(layout_index);
        let build = || {
            let mut machine = Machine::new(hv.clone()).expect("paper config is valid");
            machine.enable_service_trace();
            if metrics {
                machine.enable_metrics(machine.default_obs_config());
            }
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
        let mut stepped = build();
        let schedule = stepped.schedule().clone();
        for k in (1u64..).take_while(|&k| schedule.boundary_time(k) <= b) {
            stepped.run_until(schedule.boundary_time(k));
        }
        stepped.run_until(b);
        let hash = one.state_hash();
        let snapshot = one.metrics_snapshot_json();
        let report = one.finish();
        for (run, label) in [(split, "split"), (stepped, "stepped")] {
            prop_assert_eq!(run.state_hash(), hash, "{} run diverged by {}", label, b);
            prop_assert_eq!(&run.metrics_snapshot_json(), &snapshot, "{} metrics differ", label);
            prop_assert_eq!(&run.finish(), &report, "{} reports differ", label);
        }
    }
}

/// A source quarantined by a burst of denials recovers through two edges
/// that fall due while the machine idles: the silence after the burst is
/// made of rotations a one-shot run jumps. The jump must stop at each
/// edge, so that supervision takes it at the instant a run stopped at
/// every slot boundary does.
#[test]
fn recovery_edges_due_inside_an_idle_stretch_are_taken_on_time() {
    let hv = paired_config(true, true, rthv::AdmissionClock::IrqTimestamp);
    let build = || {
        let mut machine = Machine::new(hv.clone()).expect("paper config is valid");
        for k in 0..60u64 {
            machine
                .schedule_irq(IrqSourceId::new(0), Instant::from_micros(1_000 + 250 * k))
                .expect("in the future");
        }
        machine
    };
    let horizon = Instant::from_micros(200_000);
    let mut one = build();
    one.run_until(horizon);
    let mut stepped = build();
    let schedule = stepped.schedule().clone();
    for k in (1u64..).take_while(|&k| schedule.boundary_time(k) <= horizon) {
        stepped.run_until(schedule.boundary_time(k));
    }
    stepped.run_until(horizon);
    assert_eq!(one.state_hash(), stepped.state_hash());
    let (one, stepped) = (one.finish(), stepped.finish());
    assert_eq!(one, stepped);
    let recoveries: Vec<_> = one
        .supervision
        .as_ref()
        .expect("supervised")
        .events
        .iter()
        .filter_map(|event| match event.kind {
            rthv::SupervisionEventKind::Transition(t)
                if t.cause == rthv::TransitionCause::Conformance =>
            {
                Some(t.to)
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        recoveries,
        [rthv::HealthState::Recovering, rthv::HealthState::Healthy]
    );
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
    /// the one-shot run of the same arrivals scheduled in reverse, across
    /// all fault families × cores {1, 2, 4} × storm and nominal traffic ×
    /// supervision and metrics on and off. With metrics on, the three runs
    /// also write the same snapshot.
    #[test]
    fn split_runs_match_the_one_shot_run(
        kind_index in 0usize..11,
        seed in any::<u64>(),
        cores_pick in 0usize..3,
        storm in prop::bool::ANY,
        cut in 0usize..8,
        supervised in prop::bool::ANY,
        metrics in prop::bool::ANY,
    ) {
        let cores = [1usize, 2, 4][cores_pick];
        let config = SmpConfig {
            horizon: Duration::from_millis(60),
            ..SmpConfig::smoke()
        };
        let scenario = SmpScenario {
            id: 0,
            traffic: if storm { SmpTraffic::Storm } else { SmpTraffic::Nominal },
            fault: FaultScenario { id: 0, kind: kind(kind_index), seed },
        };
        let mut platform = build_platform(&config, SmpArm::RoundRobin, cores, true)
            .expect("campaign platform is valid");
        for core in &mut platform.cores {
            core.policies.supervision = supervised.then(SupervisionPolicy::default);
        }
        let faults = core_faults(&scenario, cores, config.horizon);
        // All cores share the campaign's TDMA geometry; probe it off core 0.
        let schedule = Machine::new(platform.cores[0].clone())
            .expect("campaign core config is valid")
            .schedule()
            .clone();
        let arrivals: Vec<(usize, Instant)> = (0..platform.sources.len())
            .flat_map(|line| {
                line_arrivals(&config, &scenario, line)
                    .into_iter()
                    .map(move |at| (line, at))
            })
            .collect();
        let build = |reversed: bool| {
            let mut m = MultiMachine::new(platform.clone(), &faults).expect("valid platform");
            if metrics {
                m.enable_metrics(obs_config(&schedule));
            }
            let mut order = arrivals.clone();
            if reversed {
                order.reverse();
            }
            for (line, at) in order {
                m.schedule_irq(line, at).expect("campaign arrivals are in range");
            }
            m
        };
        let horizon = Instant::ZERO + config.horizon;
        let mut one = build(false);
        one.run_until(horizon);
        let mut reversed = build(true);
        reversed.run_until(horizon);
        prop_assert_eq!(one.state_hash(), reversed.state_hash(), "reversed injection diverged");

        // Stops: every slot boundary and every crash instant.
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

        let mut split = build(false);
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

        let snapshot = one.metrics_snapshot_json();
        prop_assert_eq!(snapshot.is_some(), metrics);
        prop_assert_eq!(&split.metrics_snapshot_json(), &snapshot, "split metrics differ");
        prop_assert_eq!(&reversed.metrics_snapshot_json(), &snapshot, "reversed metrics differ");
        let one = one.finish();
        for (run, label) in [(split.finish(), "split"), (reversed.finish(), "reversed")] {
            prop_assert!(one.conserved() && run.conserved(), "{} ledger leaked", label);
            prop_assert_eq!(&one.cores, &run.cores, "{} per-core reports differ", label);
            prop_assert_eq!(&one.counters, &run.counters, "{} counters differ", label);
            prop_assert_eq!(&one.sheds, &run.sheds, "{} sheds differ", label);
            prop_assert_eq!(&one.crashed, &run.crashed, "{} crash sets differ", label);
        }
    }
}
