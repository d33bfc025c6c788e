//! Checkpoint/restore correctness: a machine restored from a mid-run
//! snapshot must continue bit-identically to the machine it was taken
//! from, and `state_hash()` must expose the first divergence.

use rthv_hypervisor::{
    CostModel, HypervisorConfig, IrqHandlingMode, IrqSourceId, IrqSourceSpec, Machine, PartitionId,
    PartitionSpec, PolicyOptions, RunReport, SupervisionPolicy,
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

/// Section-6-style setup with monitoring and supervision on, so the
/// snapshot has to carry monitor trace rings and health state machines.
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

/// A bursty arrival pattern that exercises admissions, denials and (under
/// supervision) health-state transitions.
fn schedule_burst(machine: &mut Machine) {
    for k in 0..200u64 {
        let at = at_us(100 + k * 450 + (k % 7) * 40);
        machine.schedule_irq(IRQ0, at).expect("in the future");
    }
}

/// Finishes the machine and returns the end state as (state hash before
/// finalization, full `RunReport`).
fn fingerprint(mut machine: Machine) -> (u64, RunReport) {
    assert!(machine.run_until_complete(at_us(HORIZON)));
    (machine.state_hash(), machine.finish())
}

#[test]
fn restored_run_is_byte_identical_to_uninterrupted_run() {
    for supervised in [false, true] {
        let mut reference = Machine::new(busy_config(supervised)).expect("valid config");
        schedule_burst(&mut reference);

        let mut observed = Machine::new(busy_config(supervised)).expect("valid config");
        schedule_burst(&mut observed);

        reference.run_until(at_us(31_000));
        observed.run_until(at_us(31_000));
        assert_eq!(reference.state_hash(), observed.state_hash());

        // Snapshot mid-run, then restore onto a *fresh* machine: both the
        // uninterrupted original and the restored copy must reach the same
        // end state byte-for-byte.
        let checkpoint = observed.snapshot();
        assert_eq!(checkpoint.taken_at(), observed.now());

        let mut restored = Machine::new(busy_config(supervised)).expect("valid config");
        restored.restore(&checkpoint);
        assert_eq!(restored.state_hash(), reference.state_hash());
        assert_eq!(restored.now(), checkpoint.taken_at());

        let expected = fingerprint(reference);
        assert_eq!(fingerprint(observed), expected, "supervised={supervised}");
        assert_eq!(fingerprint(restored), expected, "supervised={supervised}");
    }
}

#[test]
fn state_hash_tracks_slot_boundaries_identically_after_restore() {
    let mut a = Machine::new(busy_config(true)).expect("valid config");
    let mut b = Machine::new(busy_config(true)).expect("valid config");
    schedule_burst(&mut a);
    schedule_burst(&mut b);

    b.run_until(at_us(17_000));
    let checkpoint = b.snapshot();
    assert!(b.run_until_complete(at_us(HORIZON)));
    b.restore(&checkpoint);

    // Walk both machines in lockstep (the 14 ms major frame means a 1 ms
    // grid passes every slot boundary) once `a` catches up.
    a.run_until(at_us(17_000));
    assert_eq!(a.state_hash(), b.state_hash());
    for step in 18..=(HORIZON / 1_000) {
        let t = at_us(step * 1_000);
        a.run_until(t);
        b.run_until(t);
        assert_eq!(a.state_hash(), b.state_hash(), "diverged by {t:?}");
    }

    // Hashing is observation: the run hashed every millisecond finishes
    // exactly like one never hashed.
    let mut plain = Machine::new(busy_config(true)).expect("valid config");
    schedule_burst(&mut plain);
    plain.run_until(at_us(HORIZON));
    assert_eq!(a.finish(), plain.finish());
}

#[test]
fn state_hash_detects_runtime_config_mutation() {
    let mut a = Machine::new(busy_config(false)).expect("valid config");
    let mut b = Machine::new(busy_config(false)).expect("valid config");
    schedule_burst(&mut a);
    schedule_burst(&mut b);
    a.run_until(at_us(9_000));
    b.run_until(at_us(9_000));
    assert_eq!(a.state_hash(), b.state_hash());

    // A δ⁻ swap is invisible to counters until the next admission check;
    // the state hash must flag it immediately.
    assert!(b.set_monitor_delta(IRQ0, DeltaFunction::from_dmin(us(900)).expect("valid δ⁻")));
    assert_ne!(a.state_hash(), b.state_hash());

    // And a mode flip likewise.
    let mut c = Machine::new(busy_config(false)).expect("valid config");
    schedule_burst(&mut c);
    c.run_until(at_us(9_000));
    c.set_mode(IrqHandlingMode::Baseline);
    assert_ne!(a.state_hash(), c.state_hash());
}

#[test]
fn snapshot_preserves_runtime_config_mutations() {
    let mut machine = Machine::new(busy_config(false)).expect("valid config");
    schedule_burst(&mut machine);
    machine.run_until(at_us(9_000));
    assert!(machine.set_monitor_delta(IRQ0, DeltaFunction::from_dmin(us(900)).expect("valid δ⁻")));
    let hash = machine.state_hash();
    let checkpoint = machine.snapshot();

    let mut restored = Machine::new(busy_config(false)).expect("valid config");
    restored.restore(&checkpoint);
    assert_eq!(restored.state_hash(), hash);
    assert_eq!(
        restored.config().sources[0]
            .monitor
            .as_ref()
            .map(|cfg| match cfg {
                rthv_monitor::ShaperConfig::Delta(delta) => delta.dmin(),
                other => panic!("unexpected shaper config {other:?}"),
            }),
        Some(us(900))
    );
}

#[test]
fn snapshots_are_independent_plain_data() {
    let mut machine = Machine::new(busy_config(true)).expect("valid config");
    schedule_burst(&mut machine);
    machine.run_until(at_us(23_000));
    let checkpoint = machine.snapshot();
    let copy = checkpoint.clone();

    // Running the source machine to completion must not disturb either
    // snapshot: restoring from the clone later still rewinds correctly.
    assert!(machine.run_until_complete(at_us(HORIZON)));
    let done = machine.state_hash();
    machine.restore(&copy);
    assert_ne!(machine.state_hash(), done);
    assert_eq!(machine.now(), copy.taken_at());
    assert!(machine.run_until_complete(at_us(HORIZON)));
    assert_eq!(machine.state_hash(), done);
}

/// A supervised `busy_config` machine with the burst plus three late
/// arrivals (at 120, 119 and 118 ms, so the last two wait in the side
/// heap) whose bottom-handler work is `works`, run to `at`.
fn pending_machine(works: [u64; 3], at: Instant) -> Machine {
    let mut machine = Machine::new(busy_config(true)).expect("valid config");
    schedule_burst(&mut machine);
    for (k, work) in (0u64..).zip(works) {
        machine
            .schedule_irq_with_work(IRQ0, at_us(HORIZON - 1_000 * k), us(work))
            .expect("in the future");
    }
    machine.run_until(at);
    machine
}

#[test]
fn state_hash_covers_each_pending_payload() {
    let t = at_us(20_000);
    let base = pending_machine([30, 40, 50], t);
    for works in [[31, 40, 50], [30, 40, 49], [30, 40, 500]] {
        assert_ne!(
            pending_machine(works, t).state_hash(),
            base.state_hash(),
            "works={works:?}"
        );
    }
}

#[test]
fn state_hash_binds_each_payload_to_its_event() {
    // The same multiset of pending work values, assigned to different
    // arrivals: an order-independent digest must still tell them apart.
    let t = at_us(20_000);
    let base = pending_machine([30, 40, 50], t);
    for works in [[40, 30, 50], [30, 50, 40], [50, 40, 30]] {
        assert_ne!(
            pending_machine(works, t).state_hash(),
            base.state_hash(),
            "works={works:?}"
        );
    }
}

#[test]
fn stream_and_side_heap_hash_the_same_pending_content_equal() {
    // The burst plus a second source's trace, scheduled two ways. Merged in
    // time order, every arrival joins one stream. With the second source's
    // trace scheduled first, the burst lands before the stream's tail and
    // waits in the side heap. Each arrival keeps its per-source sequence
    // number, and no two share an instant, so both machines run the same
    // events, and the digest must not see where they wait at any point of
    // the run.
    let mut config = busy_config(true);
    config
        .sources
        .push(IrqSourceSpec::new("nic", PartitionId::new(0), us(20)));
    let nic = IrqSourceId::new(1);
    let burst: Vec<Instant> = (0..200u64)
        .map(|k| at_us(100 + k * 450 + (k % 7) * 40))
        .collect();
    let nic_trace: Vec<Instant> = (0..40u64)
        .map(|k| Instant::from_nanos(1_150_001 + k * 2_900_000))
        .collect();
    let build = |merged: bool| {
        let mut machine = Machine::new(config.clone()).expect("valid config");
        let mut arrivals: Vec<(Instant, IrqSourceId)> = nic_trace
            .iter()
            .map(|&at| (at, nic))
            .chain(burst.iter().map(|&at| (at, IRQ0)))
            .collect();
        if merged {
            arrivals.sort_unstable();
        }
        for (at, source) in arrivals {
            machine.schedule_irq(source, at).expect("in the future");
        }
        machine
    };
    let mut stream = build(true);
    let mut side = build(false);
    assert_eq!(stream.state_hash(), side.state_hash(), "before the run");
    for step in [0, 1, 7, 20, 55, 119] {
        let t = at_us(step * 1_000 + 300);
        stream.run_until(t);
        side.run_until(t);
        assert_eq!(stream.state_hash(), side.state_hash(), "at {t:?}");
    }
    assert!(stream.run_until_complete(at_us(HORIZON)));
    assert!(side.run_until_complete(at_us(HORIZON)));
    assert_eq!(stream.finish(), side.finish());
}
