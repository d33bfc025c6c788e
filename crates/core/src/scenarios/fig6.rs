//! Figure 6: IRQ latency histograms for 15000 IRQs (Section 6.1).
//!
//! Three variants over the same arrival statistics:
//!
//! * **6a** — monitoring disabled: ~40 % direct (≤ 50 µs), ~60 % delayed,
//!   roughly uniform up to `T_TDMA − T_i = 8000 µs`; average ≈ 2500 µs.
//! * **6b** — monitoring enabled, arrivals may violate `d_min`: roughly
//!   40/40/20 direct/interposed/delayed; average ≈ 1200 µs.
//! * **6c** — monitoring enabled, interarrivals clamped to `d_min`: no
//!   delayed IRQs at all; average ≈ 150 µs (~16× better than 6a) and the
//!   worst case decoupled from the TDMA cycle.

use rthv_hypervisor::{EngineChoice, HandlingClass, IrqHandlingMode, IrqSourceId, Machine};
use rthv_monitor::DeltaFunction;
use rthv_stats::LatencyHistogram;
use rthv_time::{Duration, Instant};
use rthv_workload::{ArrivalTrace, ExponentialArrivals};

use crate::PaperSetup;

/// Which Figure-6 panel to reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fig6Variant {
    /// Figure 6a: monitoring disabled (baseline top handler).
    Unmonitored,
    /// Figure 6b: monitoring enabled, arrivals unconstrained (`λ = d_min`
    /// but exponential gaps may undercut it).
    Monitored,
    /// Figure 6c: monitoring enabled and every interarrival ≥ `d_min`.
    MonitoredNoViolations,
}

impl Fig6Variant {
    /// Short label matching the paper's sub-figure.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Fig6Variant::Unmonitored => "6a monitoring disabled",
            Fig6Variant::Monitored => "6b monitoring enabled",
            Fig6Variant::MonitoredNoViolations => "6c monitoring enabled, no violations",
        }
    }
}

/// Parameters of the Figure-6 experiment.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Platform setup (defaults to the paper's).
    pub setup: PaperSetup,
    /// Long-term bottom-handler loads `U_IRQ` (paper: 1 %, 5 %, 10 %).
    pub loads: Vec<f64>,
    /// IRQs generated per load (paper: 15000 cumulative over three loads).
    pub irqs_per_load: usize,
    /// Histogram bin width.
    pub bin_width: Duration,
    /// Histogram range (overflow beyond).
    pub range: Duration,
    /// Base RNG seed; each load perturbs it.
    pub seed: u64,
    /// Copied into every load's
    /// [`PolicyOptions::engine`](rthv_hypervisor::PolicyOptions), which
    /// selects nothing for a machine: the outputs never depend on it.
    pub engine: EngineChoice,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            setup: PaperSetup::default(),
            loads: vec![0.01, 0.05, 0.10],
            irqs_per_load: 5_000,
            bin_width: Duration::from_micros(250),
            range: Duration::from_micros(8_500),
            seed: 0xD4C_2014,
            engine: EngineChoice::Auto,
        }
    }
}

/// Result of one load level within a variant.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// The long-term bottom-handler load `U_IRQ`.
    pub load: f64,
    /// Mean interarrival time `λ = C'_BH / U` (also `d_min`).
    pub lambda: Duration,
    /// Mean latency at this load.
    pub mean_latency: Duration,
    /// Maximum latency at this load.
    pub max_latency: Duration,
    /// Completions per handling class: (direct, interposed, delayed).
    pub class_counts: (usize, usize, usize),
    /// Total partition context switches in this run.
    pub context_switches: u64,
    /// Context switches caused by TDMA rotation alone.
    pub slot_switches: u64,
}

/// Cumulative result of one Figure-6 variant over all loads.
#[derive(Debug, Clone)]
pub struct Fig6Run {
    /// The reproduced panel.
    pub variant: Fig6Variant,
    /// Latency histogram cumulative over all loads (the plotted data).
    pub histogram: LatencyHistogram,
    /// Mean latency over all IRQs (the vertical line in the plots).
    pub mean_latency: Duration,
    /// Maximum observed latency.
    pub max_latency: Duration,
    /// Cumulative class counts: (direct, interposed, delayed).
    pub class_counts: (usize, usize, usize),
    /// Per-load breakdown.
    pub per_load: Vec<LoadRun>,
}

impl Fig6Run {
    /// Total number of completed IRQs.
    #[must_use]
    pub fn total(&self) -> usize {
        self.class_counts.0 + self.class_counts.1 + self.class_counts.2
    }

    /// Fractions (direct, interposed, delayed) of all completions.
    #[must_use]
    pub fn class_fractions(&self) -> (f64, f64, f64) {
        let n = self.total().max(1) as f64;
        (
            self.class_counts.0 as f64 / n,
            self.class_counts.1 as f64 / n,
            self.class_counts.2 as f64 / n,
        )
    }
}

/// Completed simulation of a single load level — the unit a parallel sweep
/// fans out. [`merge_fig6_loads`] folds outcomes (in load order) into the
/// exact [`Fig6Run`] the sequential loop produces: histogram bins, class
/// counts and latency sums are all plain additions, so the merge is
/// bit-identical regardless of which thread ran which load.
#[derive(Debug, Clone)]
pub struct Fig6LoadOutcome {
    /// This load's latency histogram (the configured geometry).
    pub histogram: LatencyHistogram,
    /// The per-load summary row.
    pub run: LoadRun,
    /// Sum of all latencies at this load, for the exact cumulative mean.
    pub total_latency_nanos: u128,
    /// Simulation events the machine processed for this load.
    pub events_processed: u64,
}

/// Runs a single load level of a Figure-6 variant (`index` into
/// [`Fig6Config::loads`]). Each load owns its RNG seed, so loads can run
/// concurrently and still reproduce the sequential experiment exactly.
///
/// # Panics
///
/// Panics if `index` is out of range, the configuration is structurally
/// invalid, or the run fails to complete within a generous deadline (which
/// would indicate overload and a mis-parameterized experiment).
#[must_use]
pub fn run_fig6_load(config: &Fig6Config, variant: Fig6Variant, index: usize) -> Fig6LoadOutcome {
    let (mut machine, trace) = load_machine(config, variant, index);
    machine
        .schedule_irq_trace(IrqSourceId::new(0), trace.as_slice())
        .expect("trace lies in the future");
    complete_load(config, index, machine, trace.as_slice())
}

/// The machine of one load level, with nothing scheduled yet, and the
/// load's arrival trace.
fn load_machine(
    config: &Fig6Config,
    variant: Fig6Variant,
    index: usize,
) -> (Machine, ArrivalTrace) {
    let lambda = config.setup.mean_interarrival(config.loads[index]);
    let seed = config
        .seed
        .wrapping_add(index as u64)
        .wrapping_mul(0x9E37_79B9);
    let mut generator = ExponentialArrivals::new(lambda, seed);
    if variant == Fig6Variant::MonitoredNoViolations {
        generator = generator.with_min_distance(lambda);
    }
    let trace = generator.generate(config.irqs_per_load, Instant::ZERO);

    let (mode, monitor) = match variant {
        Fig6Variant::Unmonitored => (IrqHandlingMode::Baseline, None),
        Fig6Variant::Monitored | Fig6Variant::MonitoredNoViolations => (
            IrqHandlingMode::Interposed,
            Some(DeltaFunction::from_dmin(lambda).expect("positive d_min")),
        ),
    };
    let mut hv = config.setup.config(mode, monitor);
    hv.policies.engine = config.engine;
    let machine = Machine::new(hv).expect("paper setup is a valid configuration");
    (machine, trace)
}

/// Runs a load level's machine, with `trace` scheduled, until every IRQ
/// completes, and folds its report into the load's outcome.
fn complete_load(
    config: &Fig6Config,
    index: usize,
    mut machine: Machine,
    trace: &[Instant],
) -> Fig6LoadOutcome {
    let load = config.loads[index];
    let lambda = config.setup.mean_interarrival(load);
    let last = *trace.last().expect("non-empty trace");
    let deadline = last + config.setup.tdma_cycle() * 100;
    assert!(
        machine.run_until_complete(deadline),
        "figure-6 run did not complete — configuration overloaded?"
    );
    let report = machine.finish();

    let mut histogram = LatencyHistogram::new(config.bin_width, config.range)
        .expect("experiment histogram geometry is valid");
    let mut load_hist_count = 0u64;
    let mut load_total: u128 = 0;
    let mut load_max = Duration::ZERO;
    let mut load_classes = (0usize, 0usize, 0usize);
    for completion in report.recorder.completions() {
        let latency = completion.latency();
        histogram.add(latency);
        load_total += u128::from(latency.as_nanos());
        load_hist_count += 1;
        load_max = load_max.max(latency);
        match completion.class {
            HandlingClass::Direct => load_classes.0 += 1,
            HandlingClass::Interposed => load_classes.1 += 1,
            HandlingClass::Delayed => load_classes.2 += 1,
        }
    }
    Fig6LoadOutcome {
        histogram,
        run: LoadRun {
            load,
            lambda,
            mean_latency: Duration::from_nanos(
                u64::try_from(load_total / u128::from(load_hist_count.max(1))).unwrap_or(u64::MAX),
            ),
            max_latency: load_max,
            class_counts: load_classes,
            context_switches: report.counters.context_switches,
            slot_switches: report.counters.slot_switches,
        },
        total_latency_nanos: load_total,
        events_processed: report.counters.events_processed,
    }
}

/// Folds per-load outcomes — **in load order** — into the cumulative
/// [`Fig6Run`]. Every aggregate is a sum or max of per-load values, so the
/// result is identical to running the loads sequentially into one
/// accumulator.
///
/// # Panics
///
/// Panics if `outcomes` is empty or the histograms disagree on geometry
/// (they cannot, when produced by [`run_fig6_load`] from one config).
#[must_use]
pub fn merge_fig6_loads(variant: Fig6Variant, outcomes: Vec<Fig6LoadOutcome>) -> Fig6Run {
    let mut outcomes = outcomes.into_iter();
    let first = outcomes.next().expect("at least one load outcome");
    let mut histogram = first.histogram;
    let mut total_nanos = first.total_latency_nanos;
    let mut max_latency = first.run.max_latency;
    let mut class_counts = first.run.class_counts;
    let mut per_load = vec![first.run];
    for outcome in outcomes {
        histogram.merge(&outcome.histogram);
        total_nanos += outcome.total_latency_nanos;
        max_latency = max_latency.max(outcome.run.max_latency);
        class_counts.0 += outcome.run.class_counts.0;
        class_counts.1 += outcome.run.class_counts.1;
        class_counts.2 += outcome.run.class_counts.2;
        per_load.push(outcome.run);
    }
    let total_count = (class_counts.0 + class_counts.1 + class_counts.2) as u128;
    Fig6Run {
        variant,
        histogram,
        mean_latency: Duration::from_nanos(
            u64::try_from(total_nanos / total_count.max(1)).unwrap_or(u64::MAX),
        ),
        max_latency,
        class_counts,
        per_load,
    }
}

/// Runs one Figure-6 variant (all loads, sequentially).
///
/// # Panics
///
/// Panics if the configuration is structurally invalid or a run fails to
/// complete within a generous deadline (which would indicate overload and a
/// mis-parameterized experiment).
#[must_use]
pub fn run_fig6(config: &Fig6Config, variant: Fig6Variant) -> Fig6Run {
    let outcomes = (0..config.loads.len())
        .map(|index| run_fig6_load(config, variant, index))
        .collect();
    merge_fig6_loads(variant, outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scaled-down config so the test suite stays fast; statistics over
    /// 600 IRQs per load are stable enough for the shape assertions.
    fn small() -> Fig6Config {
        Fig6Config {
            irqs_per_load: 600,
            ..Fig6Config::default()
        }
    }

    #[test]
    fn unmonitored_shape_matches_fig6a() {
        let run = run_fig6(&small(), Fig6Variant::Unmonitored);
        let (direct, interposed, delayed) = run.class_fractions();
        // Paper: ~40 % direct, ~60 % delayed, nothing interposed.
        assert!((0.32..0.54).contains(&direct), "direct fraction {direct}");
        assert_eq!(interposed, 0.0);
        assert!(
            (0.46..0.68).contains(&delayed),
            "delayed fraction {delayed}"
        );
        // Average ≈ 2500 µs; worst ≈ T_TDMA − T_i.
        assert!(
            (1_900..3_100).contains(&run.mean_latency.as_micros()),
            "mean {}",
            run.mean_latency
        );
        assert!(run.max_latency > Duration::from_micros(7_000));
        assert_eq!(run.total(), 1_800);
    }

    #[test]
    fn monitored_shape_matches_fig6b() {
        let run = run_fig6(&small(), Fig6Variant::Monitored);
        let (direct, interposed, delayed) = run.class_fractions();
        // Paper: ~40/40/20.
        assert!((0.30..0.55).contains(&direct), "direct {direct}");
        assert!(
            (0.25..0.55).contains(&interposed),
            "interposed {interposed}"
        );
        assert!((0.05..0.35).contains(&delayed), "delayed {delayed}");
        // Average roughly halves; worst case still TDMA-bound.
        assert!(
            run.mean_latency < Duration::from_micros(1_900),
            "mean {}",
            run.mean_latency
        );
        assert!(run.max_latency > Duration::from_micros(6_000));
    }

    #[test]
    fn clamped_shape_matches_fig6c() {
        let run = run_fig6(&small(), Fig6Variant::MonitoredNoViolations);
        let (direct, interposed, delayed) = run.class_fractions();
        // Paper: "no IRQ is delayed (direct 40 %, interposed 60 %)". The
        // only delayed events left are the FIFO shadow of bottom handlers
        // that straddled their own slot end (≈ C_BH/T_TDMA ≈ 0.2 % of all
        // IRQs) — invisible in the paper's rounded percentages.
        assert!(
            delayed < 0.005,
            "delayed fraction {delayed} too high for 6c"
        );
        assert!(direct > 0.2 && interposed > 0.4, "{direct}/{interposed}");
        // Average collapses by an order of magnitude.
        assert!(
            run.mean_latency < Duration::from_micros(300),
            "mean {}",
            run.mean_latency
        );
        // Worst case is decoupled from the TDMA cycle for all but the rare
        // bottom handlers that straddle their own slot end (≈ C_BH/T_TDMA
        // of all IRQs): at least 99 % of latencies stay below 1 ms.
        let above_1ms: u64 = run
            .histogram
            .iter()
            .filter(|(start, _)| *start >= Duration::from_millis(1))
            .map(|(_, count)| count)
            .sum::<u64>()
            + run.histogram.overflow();
        assert!(
            (above_1ms as f64) < 0.01 * run.total() as f64,
            "{above_1ms} of {} latencies above 1 ms",
            run.total()
        );
    }

    #[test]
    fn histogram_covers_all_completions() {
        let run = run_fig6(&small(), Fig6Variant::Unmonitored);
        assert_eq!(run.histogram.count() as usize, run.total());
    }

    #[test]
    fn per_load_rows_are_reported() {
        let run = run_fig6(&small(), Fig6Variant::Monitored);
        assert_eq!(run.per_load.len(), 3);
        for row in &run.per_load {
            let n = row.class_counts.0 + row.class_counts.1 + row.class_counts.2;
            assert_eq!(n, 600);
            assert!(row.lambda >= Duration::from_micros(1_000));
        }
        // Higher load → shorter λ.
        assert!(run.per_load[0].lambda > run.per_load[2].lambda);
    }

    #[test]
    fn every_variant_is_injection_order_invariant() {
        // In time order the trace forms one arrival stream; in reverse, all
        // but its last arrival wait in the side heap. Only the per-source
        // sequence numbers differ, and no figure reads them.
        let config = small();
        for variant in [
            Fig6Variant::Unmonitored,
            Fig6Variant::Monitored,
            Fig6Variant::MonitoredNoViolations,
        ] {
            for index in 0..config.loads.len() {
                let forward = run_fig6_load(&config, variant, index);
                let (mut machine, trace) = load_machine(&config, variant, index);
                for &at in trace.as_slice().iter().rev() {
                    machine
                        .schedule_irq(IrqSourceId::new(0), at)
                        .expect("trace lies in the future");
                }
                let reversed = complete_load(&config, index, machine, trace.as_slice());
                let figures = |o: &Fig6LoadOutcome| {
                    (
                        o.events_processed,
                        o.run.context_switches,
                        o.run.slot_switches,
                        o.run.class_counts,
                        o.run.max_latency,
                        o.total_latency_nanos,
                    )
                };
                let label = variant.label();
                assert_eq!(figures(&reversed), figures(&forward), "{label} {index}");
                assert_eq!(reversed.histogram, forward.histogram, "{label} {index}");
            }
        }
    }

    /// Every load of every variant at full scale, as the `fig6` binary
    /// runs it: events processed, context switches, slot switches, the
    /// (direct, interposed, delayed) class counts and the summed latency
    /// in ns. A change to the step loop that moves any of them changes
    /// the published figure.
    #[test]
    fn full_scale_counters_are_pinned() {
        type Row = (u64, u64, u64, (usize, usize, usize), u128);
        let expected: [(Fig6Variant, [Row; 3]); 3] = [
            (
                Fig6Variant::Unmonitored,
                [
                    (43_796, 14_398, 14_398, (2_123, 0, 2_877), 12_028_024_317),
                    (20_810, 2_905, 2_905, (2_120, 0, 2_880), 11_922_162_134),
                    (17_924, 1_462, 1_462, (2_129, 0, 2_871), 12_139_984_017),
                ],
            ),
            (
                Fig6Variant::Monitored,
                [
                    (47_538, 18_126, 14_398, (2_122, 1_850, 1_028), 4_545_534_399),
                    (23_981, 6_039, 2_905, (2_104, 1_530, 1_366), 5_382_578_311),
                    (21_003, 4_475, 1_461, (2_115, 1_439, 1_446), 5_862_057_970),
                ],
            ),
            (
                Fig6Variant::MonitoredNoViolations,
                [
                    (60_020, 25_375, 19_645, (2_135, 2_865, 0), 399_383_072),
                    (28_607, 9_654, 3_954, (2_140, 2_850, 10), 398_540_336),
                    (24_714, 7_733, 1_981, (2_113, 2_876, 11), 407_991_558),
                ],
            ),
        ];
        let config = Fig6Config::default();
        for (variant, rows) in expected {
            for (index, row) in rows.into_iter().enumerate() {
                let outcome = run_fig6_load(&config, variant, index);
                let actual = (
                    outcome.events_processed,
                    outcome.run.context_switches,
                    outcome.run.slot_switches,
                    outcome.run.class_counts,
                    outcome.total_latency_nanos,
                );
                assert_eq!(
                    actual,
                    row,
                    "{} at load {}",
                    variant.label(),
                    config.loads[index]
                );
            }
        }
    }

    #[test]
    fn variant_labels() {
        assert!(Fig6Variant::Unmonitored.label().contains("disabled"));
        assert!(Fig6Variant::MonitoredNoViolations
            .label()
            .contains("no violations"));
    }
}
