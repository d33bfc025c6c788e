//! Perf-trajectory exporter: runs the Figure-6c conformant scenario at
//! three scales, sequentially and fanned over all cores, and writes
//! `BENCH_sim.json` with events/sec, IRQs/sec and wall-clock per sweep
//! point — the numbers to track across commits for engine-performance
//! regressions.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin bench_export
//! [output-path] [--metrics <json>]` (default `BENCH_sim.json` in the
//! working directory). With `--metrics`, the observability probe's metrics
//! snapshot is also written to the given path — deterministic across runs.
//!
//! The parallel pass fans the scenario's independent load levels over host
//! cores with [`SweepRunner`] and cross-checks that the merged result is
//! identical to the sequential one before reporting its timing. A
//! single-core host cannot demonstrate parallel speedup, so each sweep
//! point records how many workers actually ran and whether its speedup
//! number is meaningful at all. Every single-threaded probe records
//! `"threads": 1` so the export is explicit about what ran where.

use std::fmt::Write as _;
use std::time::Instant as HostInstant;

use rthv::monitor::DeltaFunction;
use rthv::scenarios::{merge_fig6_loads, run_fig6_load, Fig6Config, Fig6Run, Fig6Variant};
use rthv::sim::EngineQueue;
use rthv::time::{Duration as SimDuration, Instant as SimInstant};
use rthv::{
    EngineChoice, EngineKind, IrqHandlingMode, IrqSourceId, Machine, PaperSetup, SupervisionPolicy,
};
use rthv_admit::{AdmitFleet, FleetConfig, FleetReport, TenantConfig, TenantSpec};
use rthv_experiments::{Cli, SweepRunner};
use rthv_workload::FloodEvent;

/// IRQs per load level at each scale; the paper's Figure 6 uses 5000.
const SCALES: [usize; 3] = [1_000, 5_000, 20_000];

/// Both engines, heap first (the reference).
const ENGINES: [EngineKind; 2] = [EngineKind::Heap, EngineKind::Wheel];

struct Measured {
    wall_seconds: f64,
    events: u64,
    irqs: u64,
    run: Fig6Run,
}

impl Measured {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_seconds
    }

    fn irqs_per_sec(&self) -> f64 {
        self.irqs as f64 / self.wall_seconds
    }
}

fn choice(kind: EngineKind) -> EngineChoice {
    match kind {
        EngineKind::Heap => EngineChoice::Heap,
        EngineKind::Wheel => EngineChoice::Wheel,
    }
}

fn measure(config: &Fig6Config, runner: &SweepRunner) -> Measured {
    let indices: Vec<usize> = (0..config.loads.len()).collect();
    let start = HostInstant::now();
    let outcomes = runner.run(&indices, |_, &index| {
        run_fig6_load(config, Fig6Variant::MonitoredNoViolations, index)
    });
    let wall_seconds = start.elapsed().as_secs_f64();
    let events = outcomes.iter().map(|o| o.events_processed).sum();
    let run = merge_fig6_loads(Fig6Variant::MonitoredNoViolations, outcomes);
    Measured {
        wall_seconds,
        events,
        irqs: run.total() as u64,
        run,
    }
}

fn assert_identical(sequential: &Fig6Run, parallel: &Fig6Run) {
    assert_eq!(sequential.mean_latency, parallel.mean_latency);
    assert_eq!(sequential.max_latency, parallel.max_latency);
    assert_eq!(sequential.class_counts, parallel.class_counts);
    assert_eq!(sequential.histogram.count(), parallel.histogram.count());
    assert!(
        sequential.histogram.iter().eq(parallel.histogram.iter()),
        "parallel histogram diverged from sequential"
    );
}

/// Arrivals in the supervision-overhead probe. All are δ⁻-conformant, so
/// both runs make the identical admission decisions and the timing delta is
/// purely the supervision bookkeeping on the admission hot path.
const SUPERVISION_ARRIVALS: u64 = 50_000;

struct SupervisionMeasured {
    wall_seconds: f64,
    decisions: u64,
}

impl SupervisionMeasured {
    fn decisions_per_sec(&self) -> f64 {
        self.decisions as f64 / self.wall_seconds
    }
}

/// Runs a fully conformant monitored workload (arrivals at exactly `d_min`)
/// with supervision on or off and times the whole run. Conformant streams
/// never quarantine, so the two runs traverse the same admission decisions.
fn measure_supervision(supervised: bool) -> SupervisionMeasured {
    let setup = PaperSetup::default();
    let dmin = SimDuration::from_millis(3);
    let delta = DeltaFunction::from_dmin(dmin).expect("positive d_min");
    let mut hv = setup.config(IrqHandlingMode::Interposed, Some(delta));
    if supervised {
        hv.policies.supervision = Some(SupervisionPolicy::default());
    }
    let mut machine = Machine::new(hv).expect("paper setup is valid");
    for i in 1..=SUPERVISION_ARRIVALS {
        machine
            .schedule_irq(
                IrqSourceId::new(0),
                SimInstant::ZERO + dmin.saturating_mul(i),
            )
            .expect("conformant arrival schedules");
    }
    let horizon = SimInstant::ZERO + dmin.saturating_mul(SUPERVISION_ARRIVALS + 2);

    let start = HostInstant::now();
    machine.run_until(horizon);
    let report = machine.finish();
    let wall_seconds = start.elapsed().as_secs_f64();

    assert_eq!(
        report.counters.quarantine_entries, 0,
        "a conformant stream must never quarantine"
    );
    SupervisionMeasured {
        wall_seconds,
        decisions: report.counters.monitor_admitted + report.counters.monitor_denied,
    }
}

/// Arrivals in the observability-overhead probe: same conformant shape as
/// the supervision probe (but longer, to lift the signal above scheduler
/// noise), so the timing delta is purely the flight-recorder hooks on the
/// hot path.
const OBS_ARRIVALS: u64 = 120_000;

/// The instrumented hot path must stay within this factor of the bare one.
const OBS_OVERHEAD_BUDGET: f64 = 1.05;

/// Bare/instrumented run pairs; the reported overhead is the *median* of
/// the pairwise ratios. A single ~100 ms run is hostage to scheduler noise
/// on a busy host; pairing the two modes back to back cancels slow drift,
/// and the median discards the outlier pairs a noisy neighbour produces.
const OBS_REPS: usize = 9;

struct ObsMeasured {
    wall_seconds: f64,
    decisions: u64,
    snapshot: Option<String>,
}

impl ObsMeasured {
    fn decisions_per_sec(&self) -> f64 {
        self.decisions as f64 / self.wall_seconds
    }
}

/// Runs a fully conformant monitored workload (arrivals at exactly `d_min`)
/// with the observability layer off or on and times the whole run. Metrics
/// are pure observation, so both runs make identical admission decisions —
/// asserted by the caller — and the delta is the cost of the counter,
/// histogram, gauge and flight-recorder hooks.
fn measure_obs(instrumented: bool) -> ObsMeasured {
    let setup = PaperSetup::default();
    let dmin = SimDuration::from_millis(3);
    let delta = DeltaFunction::from_dmin(dmin).expect("positive d_min");
    let hv = setup.config(IrqHandlingMode::Interposed, Some(delta));
    let mut machine = Machine::new(hv).expect("paper setup is valid");
    if instrumented {
        let obs_config = machine.default_obs_config();
        machine.enable_metrics(obs_config);
    }
    for i in 1..=OBS_ARRIVALS {
        machine
            .schedule_irq(
                IrqSourceId::new(0),
                SimInstant::ZERO + dmin.saturating_mul(i),
            )
            .expect("conformant arrival schedules");
    }
    let horizon = SimInstant::ZERO + dmin.saturating_mul(OBS_ARRIVALS + 2);

    let start = HostInstant::now();
    machine.run_until(horizon);
    let wall_seconds = start.elapsed().as_secs_f64();
    let snapshot = machine.metrics_snapshot_json();
    let report = machine.finish();

    ObsMeasured {
        wall_seconds,
        decisions: report.counters.monitor_admitted + report.counters.monitor_denied,
        snapshot,
    }
}

/// Conformant arrivals per source in the tenant-hierarchy overhead probe.
const TENANT_ARRIVALS_PER_SOURCE: u64 = 4_000;

/// Sources in the tenant probe fleet (split across two tenants).
const TENANT_SOURCES: u32 = 16;

/// Flat/hierarchical run pairs; the reported overhead is the median of the
/// pairwise ratios, for the same noise-cancelling reasons as the
/// observability probe.
const TENANT_REPS: usize = 9;

/// The hierarchical admission path (tenant table, brownout roll, group
/// window + aggregate monitor, global window) must stay within this factor
/// of the flat path's per-decision cost.
const TENANT_OVERHEAD_BUDGET: f64 = 1.3;

/// A conformant fleet trace: every source fires exactly at `d_min`, with a
/// small per-source phase offset so arrivals interleave rather than
/// colliding on one instant. Both fleet shapes admit every arrival, so the
/// timing delta is purely the hierarchy bookkeeping.
fn tenant_probe_arrivals() -> Vec<FloodEvent> {
    let dmin = SimDuration::from_millis(1);
    let phase = SimDuration::from_micros(25);
    let mut arrivals = Vec::with_capacity((TENANT_ARRIVALS_PER_SOURCE * 16) as usize);
    for i in 1..=TENANT_ARRIVALS_PER_SOURCE {
        for source in 0..TENANT_SOURCES {
            arrivals.push(FloodEvent {
                at: SimInstant::ZERO + dmin.saturating_mul(i) + phase.saturating_mul(source.into()),
                source,
            });
        }
    }
    arrivals
}

/// The probe fleet: deep queues so sheds are structurally impossible, and
/// — when hierarchical — a 2-tenant split whose budgets (9 admissions per
/// 500 µs window against an 8-arrival burst per tenant per millisecond) never deny a conformant stream.
/// The short window also keeps the group's aggregate δ⁻ short — the
/// group check is O(budget) per decision — so the probe prices the
/// hierarchy's bookkeeping, not a degenerate monitor scan.
fn tenant_probe_fleet(hierarchical: bool) -> AdmitFleet {
    let mut config = FleetConfig::paper(4, TENANT_SOURCES);
    config.queue_capacity = 1 << 20;
    if hierarchical {
        config.tenancy = Some(TenantConfig {
            window: SimDuration::from_micros(500),
            global_budget: 18,
            tenants: vec![
                TenantSpec {
                    sources: TENANT_SOURCES / 2,
                    budget: 9,
                },
                TenantSpec {
                    sources: TENANT_SOURCES / 2,
                    budget: 9,
                },
            ],
            brownout: Default::default(),
            seed: 0x7E4A_BE4C,
            retry_ladder: true,
        });
    }
    AdmitFleet::new(config).expect("tenant probe config is valid")
}

struct TenantMeasured {
    wall_seconds: f64,
    decisions: u64,
    report: FleetReport,
}

impl TenantMeasured {
    fn decisions_per_sec(&self) -> f64 {
        self.decisions as f64 / self.wall_seconds
    }
}

/// Times one full fleet run over the conformant trace, flat or
/// hierarchical. The caller asserts both shapes admit byte-identically —
/// the hierarchy must be pure bookkeeping on a stream it never refuses.
fn measure_tenant(hierarchical: bool, arrivals: &[FloodEvent]) -> TenantMeasured {
    let fleet = tenant_probe_fleet(hierarchical);
    let start = HostInstant::now();
    let report = fleet.run(arrivals, &[], None);
    let wall_seconds = start.elapsed().as_secs_f64();
    TenantMeasured {
        wall_seconds,
        decisions: report.counters.scheduled,
        report,
    }
}

/// Arrivals in the checkpoint-overhead probe. Smaller than the supervision
/// probe because the hashed pass steps the machine slot by slot.
const CHECKPOINT_ARRIVALS: u64 = 20_000;

/// Snapshot/restore repetitions for a stable mean.
const CHECKPOINT_REPS: u32 = 100;

struct CheckpointMeasured {
    plain_seconds: f64,
    hashed_seconds: f64,
    boundaries: u64,
    snapshot_mean_seconds: f64,
    restore_mean_seconds: f64,
}

impl CheckpointMeasured {
    /// Relative cost of hashing every slot boundary, in percent.
    fn overhead_percent(&self) -> f64 {
        (self.hashed_seconds / self.plain_seconds - 1.0) * 100.0
    }
}

/// The conformant monitored machine the checkpoint probe runs (the same
/// shape as the supervision probe), without any arrivals scheduled yet.
fn checkpoint_machine() -> Machine {
    let setup = PaperSetup::default();
    let dmin = SimDuration::from_millis(3);
    let delta = DeltaFunction::from_dmin(dmin).expect("positive d_min");
    let hv = setup.config(IrqHandlingMode::Interposed, Some(delta));
    Machine::new(hv).expect("paper setup is valid")
}

/// Runs the probe's conformant scenario slot by slot, injecting arrivals
/// online — each slot's arrivals are scheduled just before the slot runs,
/// the way a real system receives IRQs, so the pending event queue stays
/// small and the per-boundary `observe` hook measures exactly what it
/// costs, not the size of a pre-loaded future. Both checkpoint passes use
/// this driver; their only difference is the hook.
fn drive_checkpoint_run(mut observe: impl FnMut(&Machine)) -> (u64, rthv::RunReport) {
    let dmin = SimDuration::from_millis(3);
    let horizon = SimInstant::ZERO + dmin.saturating_mul(CHECKPOINT_ARRIVALS + 2);
    let mut machine = checkpoint_machine();
    let schedule = machine.schedule().clone();
    let mut next_arrival = 1u64;
    let mut boundaries = 0u64;
    while schedule.boundary_time(boundaries + 1) <= horizon {
        boundaries += 1;
        let boundary = schedule.boundary_time(boundaries);
        while next_arrival <= CHECKPOINT_ARRIVALS
            && SimInstant::ZERO + dmin.saturating_mul(next_arrival) <= boundary
        {
            machine
                .schedule_irq(
                    IrqSourceId::new(0),
                    SimInstant::ZERO + dmin.saturating_mul(next_arrival),
                )
                .expect("conformant arrival schedules");
            next_arrival += 1;
        }
        machine.run_until(boundary);
        observe(&machine);
    }
    machine.run_until(horizon);
    (boundaries, machine.finish())
}

/// Times the Fig. 6c-style conformant scenario three ways: stepped slot by
/// slot without hashing (the reference), the identical stepping with
/// `state_hash()` at every boundary (the cost of continuous divergence
/// checking), and repeated `snapshot()`/`restore()` of a mid-run machine.
/// The hashed run is verified to produce the identical report — hashing is
/// observation, not perturbation.
fn measure_checkpoint() -> CheckpointMeasured {
    let start = HostInstant::now();
    let (boundaries, plain_report) = drive_checkpoint_run(|_| {});
    let plain_seconds = start.elapsed().as_secs_f64();

    let mut digest = 0u64;
    let start = HostInstant::now();
    let (_, hashed_report) = drive_checkpoint_run(|machine| digest ^= machine.state_hash());
    let hashed_seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(digest);
    assert_eq!(
        plain_report, hashed_report,
        "per-slot state hashing must not perturb the run"
    );

    let dmin = SimDuration::from_millis(3);
    let mut machine = checkpoint_machine();
    machine.run_until(SimInstant::ZERO + dmin.saturating_mul(4));
    let start = HostInstant::now();
    for _ in 0..CHECKPOINT_REPS {
        std::hint::black_box(machine.snapshot());
    }
    let snapshot_mean_seconds = start.elapsed().as_secs_f64() / f64::from(CHECKPOINT_REPS);
    let snapshot = machine.snapshot();
    let mut target = checkpoint_machine();
    let start = HostInstant::now();
    for _ in 0..CHECKPOINT_REPS {
        target.restore(&snapshot);
    }
    let restore_mean_seconds = start.elapsed().as_secs_f64() / f64::from(CHECKPOINT_REPS);
    assert_eq!(
        target.state_hash(),
        machine.state_hash(),
        "a restored machine must hash identically to its source"
    );

    CheckpointMeasured {
        plain_seconds,
        hashed_seconds,
        boundaries,
        snapshot_mean_seconds,
        restore_mean_seconds,
    }
}

/// Physical host core count — the single source of truth for every
/// probe's `host_cores` field and speedup-meaningful flag; computing it
/// in one place means the flags can never disagree between probes.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A measured speedup says something only when the host can actually run
/// more than one worker *and* the probe used more than one.
fn speedup_meaningful(host_cores: usize, threads_used: usize) -> bool {
    host_cores > 1 && threads_used > 1
}

/// Live-population levels for the `queue_micro` probe: small (a single
/// scenario's working set), medium (a pre-scheduled campaign), large (the
/// scaling-cliff regime the heap degraded in).
const QUEUE_FILLS: [usize; 3] = [1_000, 32_000, 256_000];

/// Timed operations per phase at each fill level.
const QUEUE_OPS: usize = 200_000;

struct QueueMicro {
    engine: EngineKind,
    fill: usize,
    schedule_per_sec: f64,
    cancel_per_sec: f64,
    pop_per_sec: f64,
}

/// SplitMix64 step — a deterministic offset stream with no external deps.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times raw engine operations against a queue held at `fill` live events:
/// `QUEUE_OPS` schedules at seeded offsets spread over ~100 TDMA cycles
/// (so the wheel populates several levels), then cancellation of exactly
/// those events (compaction-guard cost included — that is the amortized
/// price of lazy deletion), then `QUEUE_OPS` pops against the same fill.
fn measure_queue_micro(kind: EngineKind, fill: usize) -> QueueMicro {
    let cycle = PaperSetup::default().tdma_cycle();
    let span = cycle.as_nanos().saturating_mul(100).max(1);
    let mut state = 0x5EED_0BAD_u64 ^ ((fill as u64) << 1) ^ kind as u64;
    let mut offset = || SimDuration::from_nanos(1 + splitmix(&mut state) % span);

    let mut queue: EngineQueue<u64> = EngineQueue::new(kind, cycle);
    queue.reserve(fill + QUEUE_OPS);
    for i in 0..fill {
        queue.schedule_in(offset(), i as u64);
    }

    let start = HostInstant::now();
    let mut ids = Vec::with_capacity(QUEUE_OPS);
    for i in 0..QUEUE_OPS {
        ids.push(queue.schedule_in(offset(), i as u64));
    }
    let schedule_per_sec = QUEUE_OPS as f64 / start.elapsed().as_secs_f64();

    let start = HostInstant::now();
    for id in ids {
        queue.cancel(id);
    }
    let cancel_per_sec = QUEUE_OPS as f64 / start.elapsed().as_secs_f64();

    for i in 0..QUEUE_OPS {
        queue.schedule_in(offset(), i as u64);
    }
    let start = HostInstant::now();
    for _ in 0..QUEUE_OPS {
        std::hint::black_box(queue.pop());
    }
    let pop_per_sec = QUEUE_OPS as f64 / start.elapsed().as_secs_f64();
    assert_eq!(queue.len(), fill, "pop phase must leave the fill intact");

    QueueMicro {
        engine: kind,
        fill,
        schedule_per_sec,
        cancel_per_sec,
        pop_per_sec,
    }
}

/// `[output-path] [--metrics <path>]`; anything else is a usage error
/// (exit 2).
const CLI: Cli = Cli {
    name: "bench_export",
    count: false,
    seed: false,
    journal: false,
    switches: &[],
};

fn main() {
    let options = CLI.args();
    let path = options.path.as_deref().unwrap_or("BENCH_sim.json");
    let cores = host_cores();
    let parallel_runner = SweepRunner::available();

    let mut points = String::new();
    let total_points = ENGINES.len() * SCALES.len();
    let mut point_index = 0usize;
    let mut reference_runs: Vec<Fig6Run> = Vec::new();
    for engine in ENGINES {
        for &scale in &SCALES {
            let config = Fig6Config {
                irqs_per_load: scale,
                engine: choice(engine),
                ..Fig6Config::default()
            };
            let sequential = measure(&config, &SweepRunner::sequential());
            let parallel = measure(&config, &parallel_runner);
            assert_identical(&sequential.run, &parallel.run);
            // The wheel points must be observationally identical to the
            // heap points measured first — the benchmark doubles as a
            // cross-engine differential check on the exported numbers.
            match engine {
                EngineKind::Heap => reference_runs.push(sequential.run.clone()),
                EngineKind::Wheel => {
                    assert_identical(&reference_runs[point_index % SCALES.len()], &sequential.run);
                }
            }
            let speedup = parallel.events_per_sec() / sequential.events_per_sec();
            // On a single-core host (or a single-load sweep) the "parallel"
            // pass is just the sequential pass with extra bookkeeping; its
            // speedup says nothing about the engine and is flagged as such.
            let threads_used = parallel_runner.effective_threads(config.loads.len());
            let speedup_meaningful = speedup_meaningful(cores, threads_used);

            eprintln!(
                "{engine} @ scale {scale}: sequential {:.0} events/s ({:.3} s), parallel {:.0} \
                 events/s ({:.3} s), speedup {speedup:.2}x on {threads_used} worker(s), {cores} \
                 core(s){}",
                sequential.events_per_sec(),
                sequential.wall_seconds,
                parallel.events_per_sec(),
                parallel.wall_seconds,
                if speedup_meaningful {
                    ""
                } else {
                    " [speedup not meaningful]"
                },
            );

            let _ = write!(
                points,
                r#"    {{
      "engine": "{engine}",
      "host_cores": {cores},
      "irqs_per_load": {scale},
      "total_irqs": {irqs},
      "total_events": {events},
      "sequential": {{
        "wall_seconds": {sw:.6},
        "events_per_sec": {se:.1},
        "irqs_per_sec": {si:.1}
      }},
      "parallel": {{
        "threads": {threads},
        "threads_used": {threads_used},
        "wall_seconds": {pw:.6},
        "events_per_sec": {pe:.1},
        "irqs_per_sec": {pi:.1}
      }},
      "parallel_speedup": {speedup:.3},
      "parallel_speedup_meaningful": {speedup_meaningful},
      "mean_latency_us": {mean},
      "max_latency_us": {max}
    }}"#,
                irqs = sequential.irqs,
                events = sequential.events,
                sw = sequential.wall_seconds,
                se = sequential.events_per_sec(),
                si = sequential.irqs_per_sec(),
                threads = parallel_runner.threads(),
                pw = parallel.wall_seconds,
                pe = parallel.events_per_sec(),
                pi = parallel.irqs_per_sec(),
                mean = sequential.run.mean_latency.as_micros(),
                max = sequential.run.max_latency.as_micros(),
            );
            point_index += 1;
            if point_index < total_points {
                points.push_str(",\n");
            } else {
                points.push('\n');
            }
        }
    }

    let mut queue_micro = String::new();
    for (i, point) in ENGINES
        .iter()
        .flat_map(|&engine| QUEUE_FILLS.iter().map(move |&fill| (engine, fill)))
        .map(|(engine, fill)| measure_queue_micro(engine, fill))
        .enumerate()
    {
        eprintln!(
            "queue_micro {} @ fill {}: schedule {:.1}M ops/s, cancel {:.1}M ops/s, pop {:.1}M \
             ops/s",
            point.engine,
            point.fill,
            point.schedule_per_sec / 1e6,
            point.cancel_per_sec / 1e6,
            point.pop_per_sec / 1e6,
        );
        let _ = write!(
            queue_micro,
            r#"    {{
      "engine": "{engine}",
      "host_cores": {cores},
      "fill": {fill},
      "timed_ops": {ops},
      "threads": 1,
      "schedule_ops_per_sec": {s:.1},
      "cancel_ops_per_sec": {c:.1},
      "pop_ops_per_sec": {p:.1}
    }}"#,
            engine = point.engine,
            fill = point.fill,
            ops = QUEUE_OPS,
            s = point.schedule_per_sec,
            c = point.cancel_per_sec,
            p = point.pop_per_sec,
        );
        if i + 1 < ENGINES.len() * QUEUE_FILLS.len() {
            queue_micro.push_str(",\n");
        } else {
            queue_micro.push('\n');
        }
    }

    let off = measure_supervision(false);
    let on = measure_supervision(true);
    assert_eq!(
        off.decisions, on.decisions,
        "supervision must not change a conformant stream's admission decisions"
    );
    let overhead_ratio = on.wall_seconds / off.wall_seconds;
    eprintln!(
        "supervision overhead: {} decisions — off {:.0} decisions/s ({:.3} s), on {:.0} \
         decisions/s ({:.3} s), ratio {overhead_ratio:.3}x",
        off.decisions,
        off.decisions_per_sec(),
        off.wall_seconds,
        on.decisions_per_sec(),
        on.wall_seconds,
    );

    // Run the two modes back to back OBS_REPS times; keep each mode's best
    // run for the throughput numbers and the median pairwise ratio as the
    // overhead estimate.
    let mut ratios = Vec::with_capacity(OBS_REPS);
    let mut bare = measure_obs(false);
    let mut instrumented = measure_obs(true);
    ratios.push(instrumented.wall_seconds / bare.wall_seconds);
    for _ in 1..OBS_REPS {
        let b = measure_obs(false);
        let i = measure_obs(true);
        ratios.push(i.wall_seconds / b.wall_seconds);
        if b.wall_seconds < bare.wall_seconds {
            bare = b;
        }
        if i.wall_seconds < instrumented.wall_seconds {
            instrumented = i;
        }
    }
    assert_eq!(
        bare.decisions, instrumented.decisions,
        "observability must not change a conformant stream's admission decisions"
    );
    ratios.sort_by(f64::total_cmp);
    let obs_ratio = ratios[ratios.len() / 2];
    eprintln!(
        "observability overhead: {} decisions — bare {:.0} decisions/s ({:.3} s), instrumented \
         {:.0} decisions/s ({:.3} s), ratio {obs_ratio:.3}x (budget {OBS_OVERHEAD_BUDGET:.2}x)",
        bare.decisions,
        bare.decisions_per_sec(),
        bare.wall_seconds,
        instrumented.decisions_per_sec(),
        instrumented.wall_seconds,
    );
    if obs_ratio > OBS_OVERHEAD_BUDGET {
        eprintln!(
            "WARNING: observability overhead {obs_ratio:.3}x exceeds the \
             {OBS_OVERHEAD_BUDGET:.2}x budget on this host"
        );
    }
    if let Some(metrics_path) = &options.metrics {
        let snapshot = instrumented
            .snapshot
            .as_ref()
            .expect("instrumented probe has metrics");
        std::fs::write(metrics_path, snapshot).expect("write metrics snapshot");
        eprintln!(
            "bench_export: metrics snapshot -> {}",
            metrics_path.display()
        );
    }

    // Flat vs hierarchical admission cost, paired back to back with the
    // median pairwise ratio, exactly like the observability probe.
    let arrivals = tenant_probe_arrivals();
    let mut tenant_ratios = Vec::with_capacity(TENANT_REPS);
    let mut flat = measure_tenant(false, &arrivals);
    let mut hierarchical = measure_tenant(true, &arrivals);
    assert_eq!(
        flat.report.merged_bytes(),
        hierarchical.report.merged_bytes(),
        "the hierarchy must not move a conformant stream it never refuses"
    );
    assert_eq!(flat.decisions, hierarchical.decisions);
    tenant_ratios.push(hierarchical.wall_seconds / flat.wall_seconds);
    for _ in 1..TENANT_REPS {
        let f = measure_tenant(false, &arrivals);
        let h = measure_tenant(true, &arrivals);
        tenant_ratios.push(h.wall_seconds / f.wall_seconds);
        if f.wall_seconds < flat.wall_seconds {
            flat = f;
        }
        if h.wall_seconds < hierarchical.wall_seconds {
            hierarchical = h;
        }
    }
    tenant_ratios.sort_by(f64::total_cmp);
    let tenant_ratio = tenant_ratios[tenant_ratios.len() / 2];
    eprintln!(
        "tenant hierarchy overhead: {} decisions — flat {:.0} decisions/s ({:.3} s), \
         hierarchical {:.0} decisions/s ({:.3} s), ratio {tenant_ratio:.3}x (budget \
         {TENANT_OVERHEAD_BUDGET:.2}x)",
        flat.decisions,
        flat.decisions_per_sec(),
        flat.wall_seconds,
        hierarchical.decisions_per_sec(),
        hierarchical.wall_seconds,
    );
    if tenant_ratio > TENANT_OVERHEAD_BUDGET {
        eprintln!(
            "WARNING: tenant hierarchy overhead {tenant_ratio:.3}x exceeds the \
             {TENANT_OVERHEAD_BUDGET:.2}x budget on this host"
        );
    }

    let checkpoint = measure_checkpoint();
    eprintln!(
        "checkpoint overhead: {} boundaries — plain {:.3} s, hashed {:.3} s ({:+.2}%), \
         snapshot {:.1} us, restore {:.1} us",
        checkpoint.boundaries,
        checkpoint.plain_seconds,
        checkpoint.hashed_seconds,
        checkpoint.overhead_percent(),
        checkpoint.snapshot_mean_seconds * 1e6,
        checkpoint.restore_mean_seconds * 1e6,
    );

    let json = format!(
        r#"{{
  "benchmark": "fig6c_conformant_scenario",
  "description": "Fig. 6c (monitored, d_min-conformant arrivals) at three scales per event engine (heap reference vs hierarchical timing wheel, verified observationally identical); parallel pass fans the three load levels over host cores and is verified bit-identical to the sequential pass; queue_micro times raw engine schedule/cancel/pop ops at three fill levels; every probe records the thread count it ran on, and per-core speedups are flagged not-meaningful on a single-core host",
  "host_cores": {cores},
  "supervision_overhead": {{
    "description": "conformant monitored workload timed with health supervision off vs on; both runs make identical admission decisions, so the delta is pure supervision bookkeeping",
    "threads": 1,
    "arrivals": {arrivals},
    "admission_decisions": {decisions},
    "off": {{
      "wall_seconds": {ow:.6},
      "decisions_per_sec": {od:.1}
    }},
    "on": {{
      "wall_seconds": {nw:.6},
      "decisions_per_sec": {nd:.1}
    }},
    "overhead_ratio": {overhead_ratio:.4}
  }},
  "observability_overhead": {{
    "description": "conformant monitored workload timed with the flight-recorder observability layer off vs on; both runs make identical admission decisions, so the delta is the cost of the counter/histogram/gauge/recorder hooks",
    "threads": 1,
    "arrivals": {oarrivals},
    "admission_decisions": {odecisions},
    "bare": {{
      "wall_seconds": {bw:.6},
      "decisions_per_sec": {bd:.1}
    }},
    "instrumented": {{
      "wall_seconds": {iw:.6},
      "decisions_per_sec": {id:.1}
    }},
    "overhead_ratio": {obs_ratio:.4},
    "overhead_budget_ratio": {OBS_OVERHEAD_BUDGET:.2},
    "within_budget": {within_budget}
  }},
  "tenant_hierarchy_overhead": {{
    "description": "conformant 16-source fleet trace run through the flat fleet vs the 2-tenant budget hierarchy; both shapes admit byte-identically (asserted), so the delta is the tenant table, brownout roll, group window + aggregate monitor and global window on the admission hot path",
    "threads": 1,
    "arrivals": {tarrivals},
    "admission_decisions": {tdecisions},
    "flat": {{
      "wall_seconds": {tfw:.6},
      "decisions_per_sec": {tfd:.1}
    }},
    "hierarchical": {{
      "wall_seconds": {thw:.6},
      "decisions_per_sec": {thd:.1}
    }},
    "overhead_ratio": {tenant_ratio:.4},
    "overhead_budget_ratio": {TENANT_OVERHEAD_BUDGET:.2},
    "within_budget": {tenant_within_budget}
  }},
  "checkpoint_overhead": {{
    "description": "conformant monitored workload with online arrival injection, stepped slot-by-slot without vs with state_hash() at every boundary (verified non-perturbing), plus mean snapshot()/restore() cost of a mid-run machine; state_hash is O(live machine state), so pre-scheduling an entire campaign's arrivals would inflate it",
    "threads": 1,
    "arrivals": {carrivals},
    "slot_boundaries": {boundaries},
    "plain_wall_seconds": {cplain:.6},
    "hashed_wall_seconds": {chashed:.6},
    "per_slot_hash_overhead_percent": {coverhead:.2},
    "snapshot_mean_us": {csnap:.2},
    "restore_mean_us": {crestore:.2}
  }},
  "queue_micro": [
{queue_micro}  ],
  "points": [
{points}  ]
}}
"#,
        arrivals = SUPERVISION_ARRIVALS,
        decisions = off.decisions,
        ow = off.wall_seconds,
        od = off.decisions_per_sec(),
        nw = on.wall_seconds,
        nd = on.decisions_per_sec(),
        oarrivals = OBS_ARRIVALS,
        odecisions = bare.decisions,
        bw = bare.wall_seconds,
        bd = bare.decisions_per_sec(),
        iw = instrumented.wall_seconds,
        id = instrumented.decisions_per_sec(),
        within_budget = obs_ratio <= OBS_OVERHEAD_BUDGET,
        tarrivals = TENANT_ARRIVALS_PER_SOURCE * u64::from(TENANT_SOURCES),
        tdecisions = flat.decisions,
        tfw = flat.wall_seconds,
        tfd = flat.decisions_per_sec(),
        thw = hierarchical.wall_seconds,
        thd = hierarchical.decisions_per_sec(),
        tenant_within_budget = tenant_ratio <= TENANT_OVERHEAD_BUDGET,
        carrivals = CHECKPOINT_ARRIVALS,
        boundaries = checkpoint.boundaries,
        cplain = checkpoint.plain_seconds,
        chashed = checkpoint.hashed_seconds,
        coverhead = checkpoint.overhead_percent(),
        csnap = checkpoint.snapshot_mean_seconds * 1e6,
        crestore = checkpoint.restore_mean_seconds * 1e6,
    );
    std::fs::write(path, json).expect("write benchmark export");
    eprintln!("wrote {path}");
}
