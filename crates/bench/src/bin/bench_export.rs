//! Timing exporter for what the repo benchmark (`benchmark/`) cannot
//! measure inside its workloads: the [`SweepRunner`] fan-out of the
//! Figure-6c conformant scenario, sequential against parallel, at three
//! scales, and three on/off overhead ratios (health supervision, the
//! observability layer and the tenant hierarchy). Writes `BENCH_sim.json`.
//!
//! Usage: `cargo run --release -p rthv-experiments --bin bench_export
//! [output-path] [--metrics <json>]` (default `BENCH_sim.json` in the
//! working directory). With `--metrics`, the observability probe's metrics
//! snapshot is also written to the given path — deterministic across runs.
//!
//! Every probe is timed by [`measure`]: [`WARMUP`] discarded repetitions,
//! then [`REPS`] timed ones, each running both arms of the probe back to
//! back. Each arm's wall time is reported as median, min and max over the
//! repetitions, and each ratio as the median, min and max of the
//! per-repetition ratios. The parallel pass is asserted identical to the
//! sequential one, and each on/off pair to make identical admission
//! decisions. A single-core host cannot demonstrate parallel speedup, so
//! each point records how many workers ran and whether its speedup means
//! anything.

use rthv::monitor::DeltaFunction;
use rthv::scenarios::{merge_fig6_loads, run_fig6_load, Fig6Config, Fig6Run, Fig6Variant};
use rthv::time::{Duration as SimDuration, Instant as SimInstant};
use rthv::{IrqHandlingMode, IrqSourceId, Machine, PaperSetup, RunReport, SupervisionPolicy};
use rthv_admit::{AdmitFleet, FleetConfig, TenantConfig, TenantSpec};
use rthv_experiments::{Cli, SweepRunner};
use rthv_workload::FloodEvent;

/// IRQs per load level at each scale; the paper's Figure 6 uses 5000.
const SCALES: [usize; 3] = [1_000, 5_000, 20_000];

/// Repetitions run first and discarded: they fill caches and the
/// allocator's free lists before any timing counts.
const WARMUP: usize = 1;

/// Timed repetitions behind every median, min and max. Odd, so each
/// median is one measured run.
const REPS: usize = 9;

/// Median, min and max of a probe's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stats {
    median: f64,
    min: f64,
    max: f64,
}

impl Stats {
    /// Summarises `samples`; an even count's median is the mean of the two
    /// middle samples.
    fn of(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "no samples to summarise");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Stats {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }

    /// Summarises the per-repetition ratios `num[i] / den[i]`. Both arms of
    /// a repetition ran back to back, so host drift between repetitions
    /// cancels in each ratio, where a ratio of two medians would keep it.
    fn of_ratios(num: &[f64], den: &[f64]) -> Stats {
        let ratios: Vec<f64> = num.iter().zip(den).map(|(n, d)| n / d).collect();
        Stats::of(&ratios)
    }

    fn json(self, decimals: usize) -> String {
        format!(
            "{{\"median\": {:.decimals$}, \"min\": {:.decimals$}, \"max\": {:.decimals$}}}",
            self.median, self.min, self.max
        )
    }
}

/// What [`measure`] returns: both arms' wall seconds per timed repetition,
/// and each arm's output from the last repetition.
struct Timed<T> {
    seconds: [Vec<f64>; 2],
    last: [T; 2],
}

/// The one timing path of this binary. Each of `warmup + reps`
/// repetitions calls `setup(false)`, then `setup(true)`, and times only the
/// closure each call returns, so building a run's inputs stays untimed.
/// The first `warmup` repetitions are discarded.
fn measure<T, F: FnOnce() -> T>(
    warmup: usize,
    reps: usize,
    mut setup: impl FnMut(bool) -> F,
) -> Timed<T> {
    assert!(reps > 0, "measure needs a timed repetition");
    let mut seconds = [Vec::with_capacity(reps), Vec::with_capacity(reps)];
    let mut last = [None, None];
    for rep in 0..warmup + reps {
        for (arm, on) in [false, true].into_iter().enumerate() {
            let run = setup(on);
            let start = std::time::Instant::now();
            let output = run();
            let elapsed = start.elapsed().as_secs_f64();
            if rep >= warmup {
                seconds[arm].push(elapsed);
            }
            last[arm] = Some(output);
        }
    }
    Timed {
        seconds,
        last: last.map(|output| output.expect("every arm ran")),
    }
}

/// Renders `members` (pre-rendered JSON values) as a JSON object, one
/// member per line, nested `indent` levels deep.
fn object(indent: usize, members: &[(&str, String)]) -> String {
    let pad = "  ".repeat(indent + 1);
    let body: Vec<String> = members
        .iter()
        .map(|(key, value)| format!("{pad}\"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(indent))
}

/// One arm of a timed pair: its wall seconds, and `work` units per second
/// under `rate`.
fn arm_json(indent: usize, seconds: &[f64], work: u64, rate: &str) -> String {
    let rates: Vec<f64> = seconds.iter().map(|s| work as f64 / s).collect();
    object(
        indent,
        &[
            ("wall_seconds", Stats::of(seconds).json(6)),
            (rate, Stats::of(&rates).json(1)),
        ],
    )
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

/// Times the Fig. 6c conformant scenario at `scale` IRQs per load,
/// sequentially against fanned over `parallel`'s workers, asserts both
/// passes identical, and returns the point's JSON object.
fn fig6c_point(scale: usize, cores: usize, parallel: &SweepRunner) -> String {
    let config = Fig6Config {
        irqs_per_load: scale,
        ..Fig6Config::default()
    };
    let indices: Vec<usize> = (0..config.loads.len()).collect();
    let sequential = SweepRunner::sequential();
    let timed = measure(WARMUP, REPS, |fanned| {
        let runner = if fanned { parallel } else { &sequential };
        let (config, indices) = (&config, &indices);
        move || {
            runner.run(indices, |_, &index| {
                run_fig6_load(config, Fig6Variant::MonitoredNoViolations, index)
            })
        }
    });
    let [(events, run), (_, fanned_run)] = timed.last.map(|outcomes| {
        let events: u64 = outcomes.iter().map(|o| o.events_processed).sum();
        (
            events,
            merge_fig6_loads(Fig6Variant::MonitoredNoViolations, outcomes),
        )
    });
    assert_identical(&run, &fanned_run);

    let [seq_s, par_s] = &timed.seconds;
    let speedup = Stats::of_ratios(seq_s, par_s);
    // On a single-core host (or a single-load sweep) the "parallel" pass is
    // the sequential pass with extra bookkeeping; its speedup says nothing.
    let threads_used = parallel.effective_threads(config.loads.len());
    let meaningful = cores > 1 && threads_used > 1;
    eprintln!(
        "scale {scale}: sequential {:.3} s, parallel {:.3} s, speedup {:.2}x [{:.2}, {:.2}] on \
         {threads_used} worker(s), {cores} core(s){}",
        Stats::of(seq_s).median,
        Stats::of(par_s).median,
        speedup.median,
        speedup.min,
        speedup.max,
        if meaningful {
            ""
        } else {
            " [speedup not meaningful]"
        },
    );
    object(
        2,
        &[
            ("irqs_per_load", scale.to_string()),
            ("total_irqs", run.total().to_string()),
            ("total_events", events.to_string()),
            ("mean_latency_us", run.mean_latency.as_micros().to_string()),
            ("max_latency_us", run.max_latency.as_micros().to_string()),
            ("warmup", WARMUP.to_string()),
            ("reps", REPS.to_string()),
            ("sequential", arm_json(3, seq_s, events, "events_per_sec")),
            ("parallel_threads", parallel.threads().to_string()),
            ("parallel_threads_used", threads_used.to_string()),
            ("parallel", arm_json(3, par_s, events, "events_per_sec")),
            ("parallel_speedup", speedup.json(3)),
            ("parallel_speedup_meaningful", meaningful.to_string()),
        ],
    )
}

/// An on/off probe: `arms` name its off and on runs, which make
/// `decisions` identical admission decisions over `arrivals` arrivals, and
/// the on run may take at most `budget` times the off run's wall time.
struct OnOff {
    key: &'static str,
    description: &'static str,
    arms: [&'static str; 2],
    arrivals: u64,
    decisions: u64,
    budget: Option<f64>,
}

/// Prints one on/off probe's summary and returns its key and JSON object:
/// each arm's wall time and decisions per second, then the median pairwise
/// on/off ratio against the budget.
fn on_off_json(probe: &OnOff, seconds: &[Vec<f64>; 2]) -> (&'static str, String) {
    let ratio = Stats::of_ratios(&seconds[1], &seconds[0]);
    eprintln!(
        "{}: {} decisions, {} {:.3} s, {} {:.3} s, ratio {:.3}x [{:.3}, {:.3}] over {REPS} reps",
        probe.key,
        probe.decisions,
        probe.arms[0],
        Stats::of(&seconds[0]).median,
        probe.arms[1],
        Stats::of(&seconds[1]).median,
        ratio.median,
        ratio.min,
        ratio.max,
    );
    let mut members = vec![
        ("description", format!("\"{}\"", probe.description)),
        ("threads", "1".to_string()),
        ("arrivals", probe.arrivals.to_string()),
        ("admission_decisions", probe.decisions.to_string()),
        ("warmup", WARMUP.to_string()),
        ("reps", REPS.to_string()),
        (
            probe.arms[0],
            arm_json(2, &seconds[0], probe.decisions, "decisions_per_sec"),
        ),
        (
            probe.arms[1],
            arm_json(2, &seconds[1], probe.decisions, "decisions_per_sec"),
        ),
        ("overhead_ratio", ratio.json(4)),
    ];
    if let Some(budget) = probe.budget {
        let within = ratio.median <= budget;
        if !within {
            eprintln!(
                "WARNING: {} {:.3}x exceeds the {budget:.2}x budget on this host",
                probe.key, ratio.median
            );
        }
        members.push(("overhead_budget_ratio", format!("{budget:.2}")));
        members.push(("within_budget", within.to_string()));
    }
    (probe.key, object(1, &members))
}

/// Arrivals in the supervision probe.
const SUPERVISION_ARRIVALS: u64 = 50_000;

/// Arrivals in the observability probe: longer than the supervision
/// probe, to lift its smaller signal above scheduler noise.
const OBS_ARRIVALS: u64 = 120_000;

/// The instrumented hot path must stay within this factor of the bare one.
const OBS_OVERHEAD_BUDGET: f64 = 1.05;

/// A monitored paper machine with `arrivals` conformant arrivals (exactly
/// `d_min` apart) scheduled, and a horizon past the last of them.
/// Conformant streams never quarantine and metrics are pure observation,
/// so every variant makes the same admission decisions.
fn conformant_machine(
    arrivals: u64,
    supervised: bool,
    instrumented: bool,
) -> (Machine, SimInstant) {
    let dmin = SimDuration::from_millis(3);
    let delta = DeltaFunction::from_dmin(dmin).expect("positive d_min");
    let mut hv = PaperSetup::default().config(IrqHandlingMode::Interposed, Some(delta));
    if supervised {
        hv.policies.supervision = Some(SupervisionPolicy::default());
    }
    let mut machine = Machine::new(hv).expect("paper setup is valid");
    if instrumented {
        let obs_config = machine.default_obs_config();
        machine.enable_metrics(obs_config);
    }
    for i in 1..=arrivals {
        machine
            .schedule_irq(
                IrqSourceId::new(0),
                SimInstant::ZERO + dmin.saturating_mul(i),
            )
            .expect("conformant arrival schedules");
    }
    (
        machine,
        SimInstant::ZERO + dmin.saturating_mul(arrivals + 2),
    )
}

fn decisions(report: &RunReport) -> u64 {
    report.counters.monitor_admitted + report.counters.monitor_denied
}

/// Conformant arrivals per source in the tenant-hierarchy probe.
const TENANT_ARRIVALS_PER_SOURCE: u64 = 4_000;

/// Sources in the tenant probe fleet (split across two tenants).
const TENANT_SOURCES: u32 = 16;

/// The hierarchical admission path (tenant table, brownout roll, group
/// window, global window) must stay within this factor of the flat path's
/// per-decision cost.
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
/// — when hierarchical — the tenant campaign's 2-tenant budgets (120 and
/// 160 admissions per 10 ms window, global 280). Each tenant offers 80
/// arrivals per window, so the hierarchy never denies this conformant
/// stream.
fn tenant_probe_fleet(hierarchical: bool) -> AdmitFleet {
    let mut config = FleetConfig::paper(4, TENANT_SOURCES);
    config.queue_capacity = 1 << 20;
    if hierarchical {
        config.tenancy = Some(TenantConfig {
            window: SimDuration::from_millis(10),
            global_budget: 280,
            tenants: vec![
                TenantSpec {
                    sources: TENANT_SOURCES / 2,
                    budget: 120,
                },
                TenantSpec {
                    sources: TENANT_SOURCES / 2,
                    budget: 160,
                },
            ],
            brownout: Default::default(),
            seed: 0x7E4A_BE4C,
        });
    }
    AdmitFleet::new(config).expect("tenant probe config is valid")
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
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let parallel = SweepRunner::available();
    let points: Vec<String> = SCALES
        .iter()
        .map(|&scale| format!("    {}", fig6c_point(scale, cores, &parallel)))
        .collect();

    let supervision = measure(WARMUP, REPS, |supervised| {
        let (mut machine, horizon) = conformant_machine(SUPERVISION_ARRIVALS, supervised, false);
        move || {
            machine.run_until(horizon);
            machine.finish()
        }
    });
    let [off, on] = &supervision.last;
    assert_eq!(
        decisions(off),
        decisions(on),
        "supervision must not change a conformant stream's admission decisions"
    );
    assert_eq!(
        on.counters.quarantine_entries, 0,
        "a conformant stream must never quarantine"
    );
    let supervision = on_off_json(
        &OnOff {
            key: "supervision_overhead",
            description: "conformant monitored workload timed with health supervision off vs on; both runs make identical admission decisions, so the delta is pure supervision bookkeeping",
            arms: ["off", "on"],
            arrivals: SUPERVISION_ARRIVALS,
            decisions: decisions(off),
            budget: None,
        },
        &supervision.seconds,
    );

    let obs = measure(WARMUP, REPS, |instrumented| {
        let (mut machine, horizon) = conformant_machine(OBS_ARRIVALS, false, instrumented);
        move || {
            machine.run_until(horizon);
            machine
        }
    });
    let [bare, instrumented] = obs.last;
    if let Some(metrics_path) = &options.metrics {
        let snapshot = instrumented
            .metrics_snapshot_json()
            .expect("instrumented probe has metrics");
        std::fs::write(metrics_path, snapshot).expect("write metrics snapshot");
        eprintln!(
            "bench_export: metrics snapshot -> {}",
            metrics_path.display()
        );
    }
    let obs_decisions = decisions(&bare.finish());
    assert_eq!(
        obs_decisions,
        decisions(&instrumented.finish()),
        "observability must not change a conformant stream's admission decisions"
    );
    let obs = on_off_json(
        &OnOff {
            key: "observability_overhead",
            description: "conformant monitored workload timed with the flight-recorder observability layer off vs on; both runs make identical admission decisions, so the delta is the cost of the counter/histogram/gauge/recorder hooks",
            arms: ["bare", "instrumented"],
            arrivals: OBS_ARRIVALS,
            decisions: obs_decisions,
            budget: Some(OBS_OVERHEAD_BUDGET),
        },
        &obs.seconds,
    );

    let arrivals = tenant_probe_arrivals();
    let tenant = measure(WARMUP, REPS, |hierarchical| {
        let fleet = tenant_probe_fleet(hierarchical);
        let arrivals = &arrivals;
        move || fleet.run(arrivals, &[], None)
    });
    let [flat, hierarchical] = &tenant.last;
    assert_eq!(
        flat.merged_bytes(),
        hierarchical.merged_bytes(),
        "the hierarchy must not move a conformant stream it never refuses"
    );
    assert_eq!(flat.counters.scheduled, hierarchical.counters.scheduled);
    let tenant = on_off_json(
        &OnOff {
            key: "tenant_hierarchy_overhead",
            description: "conformant 16-source fleet trace run through the flat fleet vs the 2-tenant budget hierarchy; both shapes admit byte-identically (asserted), so the delta is the tenant table, brownout roll, group window and global window on the admission hot path",
            arms: ["flat", "hierarchical"],
            arrivals: arrivals.len() as u64,
            decisions: flat.counters.scheduled,
            budget: Some(TENANT_OVERHEAD_BUDGET),
        },
        &tenant.seconds,
    );

    let json = object(
        0,
        &[
            ("benchmark", "\"fig6c_conformant_scenario\"".to_string()),
            ("description", "\"Fig. 6c (monitored, d_min-conformant arrivals) at three scales, sequential vs fanned over host cores (verified identical), plus three on/off overhead ratios; every timing is the median, min and max over the timed repetitions after the discarded warm-up ones, and every ratio the median, min and max of the per-repetition ratios\"".to_string()),
            ("host_cores", cores.to_string()),
            supervision,
            obs,
            tenant,
            ("points", format!("[\n{}\n  ]", points.join(",\n"))),
        ],
    );
    std::fs::write(path, json + "\n").expect("write benchmark export");
    eprintln!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_take_median_min_and_max_for_odd_and_even_counts() {
        let odd = Stats::of(&[5.0, 1.0, 3.0]);
        assert_eq!(
            odd,
            Stats {
                median: 3.0,
                min: 1.0,
                max: 5.0
            }
        );
        let even = Stats::of(&[4.0, 1.0, 3.0, 10.0]);
        assert_eq!(
            even,
            Stats {
                median: 3.5,
                min: 1.0,
                max: 10.0
            }
        );
        assert_eq!(Stats::of(&[2.0]).median, 2.0);
    }

    #[test]
    fn ratio_is_the_median_of_pairwise_ratios_not_of_medians() {
        let off = [1.0, 10.0, 100.0];
        let on = [3.0, 10.0, 300.0];
        let ratio = Stats::of_ratios(&on, &off);
        assert_eq!(ratio.median, 3.0);
        assert_eq!(Stats::of(&on).median / Stats::of(&off).median, 1.0);
        assert_eq!((ratio.min, ratio.max), (1.0, 3.0));
    }

    #[test]
    fn warmup_runs_never_enter_the_samples() {
        // Warm-up runs return at once; timed runs sleep, so a warm-up
        // sample would show up as the minimum.
        let (warmup, reps) = (2, 3);
        let nap = std::time::Duration::from_millis(2);
        let mut calls = 0;
        let timed = measure(warmup, reps, |on| {
            calls += 1;
            let timed_run = calls > 2 * warmup;
            move || {
                if timed_run {
                    std::thread::sleep(nap);
                }
                (on, calls)
            }
        });
        assert_eq!(calls, 2 * (warmup + reps));
        assert_eq!(timed.last, [(false, calls - 1), (true, calls)]);
        for samples in &timed.seconds {
            assert_eq!(samples.len(), reps);
            assert!(samples.iter().all(|&s| s >= nap.as_secs_f64()));
        }
    }
}
