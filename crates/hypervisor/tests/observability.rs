//! The observability layer is pure observation: enabling metrics must not
//! change a single scheduling decision, two identically-seeded instrumented
//! runs must produce byte-identical snapshot JSON, and a run resumed from a
//! checkpoint with metrics on must reproduce the uninterrupted run's
//! metrics byte-for-byte (the PR-4 resume guarantee, extended to the hub).

use rthv_hypervisor::{
    CostModel, HypervisorConfig, IrqHandlingMode, IrqSourceId, IrqSourceSpec, Machine, PartitionId,
    PartitionSpec, PolicyOptions, SupervisionPolicy,
};
use rthv_monitor::DeltaFunction;
use rthv_time::{Duration, Instant};

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

fn at_us(n: u64) -> Instant {
    Instant::from_micros(n)
}

const IRQ0: IrqSourceId = IrqSourceId::new(0);
const HORIZON: u64 = 120_000; // µs

/// The snapshot-test platform: monitoring plus (optionally) supervision, so
/// the hub sees admissions, denials, completions and health transitions.
fn busy_config(supervised: bool) -> HypervisorConfig {
    let mut source = IrqSourceSpec::new("timer", PartitionId::new(1), us(30));
    source.monitor = Some(rthv_monitor::ShaperConfig::Delta(
        DeltaFunction::from_dmin(us(300)).expect("valid δ⁻"),
    ));
    HypervisorConfig {
        partitions: vec![
            PartitionSpec::new("app1", us(6_000)),
            PartitionSpec::new("app2", us(6_000)),
            PartitionSpec::new("housekeeping", us(2_000)),
        ],
        sources: vec![source],
        costs: CostModel::paper_arm926ejs(),
        mode: IrqHandlingMode::Interposed,
        policies: PolicyOptions {
            supervision: supervised.then(SupervisionPolicy::default),
            ..Default::default()
        },
        windows: None,
    }
}

/// A bursty pattern dense enough to produce both admissions and denials.
fn schedule_burst(machine: &mut Machine) {
    for k in 0..200u64 {
        let at = at_us(100 + k * 450 + (k % 7) * 40);
        machine.schedule_irq(IRQ0, at).expect("in the future");
    }
}

/// A storm-then-calm pattern: 50 back-to-back arrivals at 100 µs (far
/// below the 300 µs d_min, driving the source through probation into
/// quarantine) followed by 150 conformant arrivals that let it recover.
fn schedule_storm_then_calm(machine: &mut Machine) {
    for k in 0..50u64 {
        machine
            .schedule_irq(IRQ0, at_us(100 + k * 100))
            .expect("in the future");
    }
    for k in 0..150u64 {
        machine
            .schedule_irq(IRQ0, at_us(10_000 + k * 500))
            .expect("in the future");
    }
}

fn instrumented_machine(supervised: bool) -> Machine {
    let mut machine = Machine::new(busy_config(supervised)).expect("valid config");
    let config = machine.default_obs_config();
    machine.enable_metrics(config);
    schedule_burst(&mut machine);
    machine
}

#[test]
fn metrics_never_perturb_the_run() {
    for supervised in [false, true] {
        let mut bare = Machine::new(busy_config(supervised)).expect("valid config");
        schedule_burst(&mut bare);
        let mut instrumented = instrumented_machine(supervised);

        // Lockstep on a 1 ms grid: the instrumented machine must hash
        // identically to the bare one at every step — metrics are excluded
        // from the state hash precisely so this comparison is direct.
        for step in 1..=(HORIZON / 1_000) {
            let t = at_us(step * 1_000);
            bare.run_until(t);
            instrumented.run_until(t);
            assert_eq!(
                bare.state_hash(),
                instrumented.state_hash(),
                "supervised={supervised}: diverged by {t:?}"
            );
        }
        assert_eq!(
            bare.finish(),
            instrumented.finish(),
            "supervised={supervised}: reports diverged"
        );
    }
}

#[test]
fn same_seed_snapshots_are_byte_identical_and_non_trivial() {
    let run = |_: usize| {
        let mut machine = Machine::new(busy_config(true)).expect("valid config");
        let config = machine.default_obs_config();
        machine.enable_metrics(config);
        schedule_storm_then_calm(&mut machine);
        machine.run_until(at_us(HORIZON));
        let json = machine
            .metrics_snapshot_json()
            .expect("metrics were enabled");
        (json, machine)
    };
    let (a, machine) = run(0);
    let (b, _) = run(1);
    assert_eq!(a, b, "identical runs produced different snapshots");

    // The snapshot must describe a busy run, not a vacuous one.
    let hub = machine.metrics().expect("metrics were enabled");
    let counters = hub.counters();
    assert_eq!(counters.raised, 200);
    assert!(counters.admitted > 0, "no admissions observed");
    assert!(counters.denied > 0, "the burst should trip denials");
    assert!(counters.completions > 0, "no completions observed");
    assert!(counters.slot_boundaries > 0, "no slot boundaries observed");
    assert!(
        counters.health_transitions > 0,
        "the supervised burst should transition health states"
    );
    assert!(
        hub.recorder().recorded() > 0,
        "flight recorder stayed empty"
    );
    let histogram = hub.latency(0).expect("source 0 has a histogram");
    assert_eq!(
        histogram.count() + histogram.overflow(),
        counters.completions
    );
    let gauge = hub.gauge(0).expect("source 0 has a gauge");
    assert!(gauge.max_observed_interference() > Duration::ZERO);
    if let Some(budget) = gauge.interference_budget() {
        assert!(
            gauge.max_observed_interference() <= budget,
            "observed window interference exceeded the Eq. 13-16 budget"
        );
    }
}

#[test]
fn restored_run_reproduces_metrics_byte_identically() {
    let mut reference = instrumented_machine(true);
    let mut interrupted = instrumented_machine(true);

    reference.run_until(at_us(HORIZON));
    let expected = reference
        .metrics_snapshot_json()
        .expect("metrics were enabled");

    // Checkpoint mid-run, restore onto a machine that never had metrics
    // enabled: the hub travels with the snapshot, so the resumed run picks
    // up counting exactly where the interrupted one stopped.
    interrupted.run_until(at_us(31_000));
    let checkpoint = interrupted.snapshot();
    let mut resumed = Machine::new(busy_config(true)).expect("valid config");
    resumed.restore(&checkpoint);
    assert!(resumed.metrics().is_some(), "hub must survive restore");
    resumed.run_until(at_us(HORIZON));

    assert_eq!(resumed.state_hash(), reference.state_hash());
    assert_eq!(
        resumed.metrics_snapshot_json().expect("metrics restored"),
        expected,
        "resumed metrics diverged from the uninterrupted run"
    );
}
