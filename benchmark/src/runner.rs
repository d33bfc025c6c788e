//! Runs one workload for a fixed time and turns its unit timings, or its
//! spans, into the reported metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::calib::{calibrate, scale, NOMINAL_MS};
use crate::heap;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::workloads::{Fnv, Verdict, Workload};

/// Every end-to-end metric with its unit, in report order.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_norm_s", "s"),
    ("unit_p50_norm_ms", "ms"),
    ("unit_tail_norm_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Run time between calibration points. Host speed also dips for
/// fractions of a second; a 100-ms cadence follows those dips (at 300 ms
/// the `fig6c` tail spread over ten seeds was 10.7 %, at 100 ms 2.9 %),
/// for a 5-ms calibration point.
const CALIB_EVERY: Duration = Duration::from_millis(100);

/// Passes over each batch in the end-to-end loop. A unit counts its
/// fastest pass; its runs lie a whole batch apart, so a burst of host
/// contention shorter than a batch reaches the tail only through a unit it
/// slowed in every pass.
const PASSES: usize = 2;

pub struct Options {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Digest of the warm-up batch, a pure function of the seed.
    pub digest: u64,
    pub metrics: Vec<Metric>,
    /// Figures printed for information only (raw times, sample counts).
    pub info: Vec<(&'static str, f64)>,
    /// Why units failed, with how many did.
    pub failures: BTreeMap<String, u64>,
}

/// Unit verdict bookkeeping.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    reasons: BTreeMap<String, u64>,
}

impl Tally {
    fn record(&mut self, verdict: &Verdict) {
        self.attempted += 1;
        if let Some(reason) = &verdict.failure {
            self.fail(reason);
        }
    }

    fn fail(&mut self, reason: &str) {
        self.failed += 1;
        *self.reasons.entry(reason.to_string()).or_insert(0) += 1;
    }
}

/// Runs `W` as `options` say: set-up, then either the timed end-to-end
/// loop or the traced loop, each for `options.seconds`.
pub fn run<W: Workload>(name: &str, options: &Options) -> RunResult {
    let mut tally = Tally::default();

    // Set-up: build the workload's context and run the warm-up batch,
    // several times, so `setup_s` is a median and the warm-up digest is
    // checked to repeat exactly.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut digests = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        let before = calibrate();
        let start = Instant::now();
        let context = W::setup(options.seed);
        let mut digest = Fnv::new();
        for unit in context.batch(0) {
            let output = context.run(&unit);
            let verdict = context.verdict(&unit, output);
            tally.record(&verdict);
            digest = digest.word(verdict.digest);
        }
        let raw = start.elapsed().as_secs_f64();
        setups.push(raw * scale(before, calibrate(), W::ELASTICITY));
        digests.push(digest.finish());
        workload = Some(context);
    }
    let workload = workload.expect("at least one set-up");
    if digests.windows(2).any(|pair| pair[0] != pair[1]) {
        tally.fail("warm-up batch digest differs between set-ups");
    }

    let budget = Duration::from_secs(options.seconds);
    let (metrics, info) = if options.trace {
        traced_loop(name, &workload, budget, &mut tally)
    } else {
        timed_loop::<W>(&workload, budget, &setups, &mut tally)
    };
    RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        digest: digests[0],
        metrics,
        info,
        failures: tally.reasons,
    }
}

/// The end-to-end loop. Each batch runs [`PASSES`] times over; a unit is
/// checked after every run and counts its fastest pass. A calibration
/// point follows every [`CALIB_EVERY`] of runs, and the runs between two
/// points are normalised by their mean. Every run also counts the unit's
/// peak heap growth, which repeats exactly from pass to pass.
fn timed_loop<W: Workload>(
    workload: &W,
    budget: Duration,
    setups: &[f64],
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    let mut best = Timings {
        raw_ns: Vec::new(),
        norm_ns: Vec::new(),
        pending: Vec::new(),
    };
    let mut peaks = Vec::new();
    let mut calibs = vec![calibrate()];
    let start = Instant::now();
    let mut segment = Instant::now();
    let mut batch = 1u64;
    while start.elapsed() < budget {
        let units = workload.batch(batch);
        let first = best.raw_ns.len();
        best.raw_ns.resize(first + units.len(), f64::INFINITY);
        best.norm_ns.resize(first + units.len(), f64::INFINITY);
        let mut digests = vec![0u64; units.len()];
        for pass in 0..PASSES {
            for (i, unit) in units.iter().enumerate() {
                let begin = Instant::now();
                let (output, peak) = heap::peak_growth(|| workload.run(unit));
                best.pending
                    .push((first + i, begin.elapsed().as_nanos() as f64));
                let verdict = workload.verdict(unit, output);
                if pass == 0 {
                    peaks.push(peak as f64);
                    digests[i] = verdict.digest;
                } else if digests[i] != verdict.digest {
                    tally.fail("a unit's second pass gave another output");
                }
                tally.record(&verdict);
                if segment.elapsed() >= CALIB_EVERY {
                    best.close_segment(&mut calibs, W::ELASTICITY);
                    segment = Instant::now();
                }
            }
        }
        batch += 1;
    }
    best.close_segment(&mut calibs, W::ELASTICITY);
    let (raw_ns, norm_ns) = (best.raw_ns, best.norm_ns);

    let tail = tail_percentile(W::REFERENCE_UNITS);
    let reference = W::REFERENCE_UNITS as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let values = [
        median(setups),
        mean(&norm_ns) * reference / 1e9,
        median(&norm_ns) / 1e6,
        percentile(&norm_ns, tail) / 1e6,
        // The median, not the maximum: the largest `admit_fleet` unit sits
        // right at a buffer's capacity doubling, so its peak alone jumps by
        // 4 MB from seed to seed.
        median(&peaks) / (1024.0 * 1024.0),
    ];
    let metrics = E2E_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect();
    let info = vec![
        ("units", norm_ns.len() as f64),
        ("batches", (batch - 1) as f64),
        ("reference_units", reference),
        ("tail_percentile", f64::from(tail)),
        ("elasticity", W::ELASTICITY),
        ("calib_ms", median(&calibs)),
        ("nominal_ms", NOMINAL_MS),
        ("wall_raw_s", mean(&raw_ns) * reference / 1e9),
        ("unit_p50_raw_ms", median(&raw_ns) / 1e6),
        ("unit_tail_raw_ms", percentile(&raw_ns, tail) / 1e6),
        ("vm_hwm_mb", vm_hwm_mb()),
        ("host_cores", host_cores() as f64),
    ];
    (metrics, info)
}

/// Per unit, the fastest pass of the end-to-end loop, raw and normalised.
struct Timings {
    raw_ns: Vec<f64>,
    norm_ns: Vec<f64>,
    /// Runs since the last calibration point: (unit index, raw ns).
    pending: Vec<(usize, f64)>,
}

impl Timings {
    /// Takes a calibration point, normalises the pending runs by the mean
    /// of it and the previous one, and keeps each unit's fastest run.
    fn close_segment(&mut self, calibs: &mut Vec<f64>, elasticity: f64) {
        let before = *calibs
            .last()
            .expect("the loop opens with a calibration point");
        let after = calibrate();
        calibs.push(after);
        let factor = scale(before, after, elasticity);
        for (unit, raw) in self.pending.drain(..) {
            self.raw_ns[unit] = self.raw_ns[unit].min(raw);
            self.norm_ns[unit] = self.norm_ns[unit].min(raw * factor);
        }
    }
}

/// The traced loop: every unit runs plain (timed) first, then traced,
/// back to back, so the tracing overhead compares adjacent runs and any
/// output the tracing perturbed fails the unit. Per-layer times are
/// normalised by the run's median calibration point.
fn traced_loop<W: Workload>(
    name: &str,
    workload: &W,
    budget: Duration,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<(&'static str, f64)>) {
    let mut tracer = Tracer::new();
    let mut calibs = vec![calibrate()];
    let start = Instant::now();
    let mut batch = 1u64;
    let mut unit_id = 0u64;
    while start.elapsed() < budget {
        for unit in workload.batch(batch) {
            let begin = Instant::now();
            let output = workload.run(&unit);
            tracer.count("e2e.unit_ns", begin.elapsed().as_nanos() as f64);
            let plain = workload.verdict(&unit, output);
            tally.record(&plain);
            tracer.set_unit(unit_id);
            let traced = workload.traced(&unit, &mut tracer);
            if traced != plain {
                tally.fail("tracing changed the unit's output");
            }
            unit_id += 1;
        }
        calibs.push(calibrate());
        batch += 1;
    }

    let path = Path::new("target")
        .join("benchmark")
        .join(format!("{name}.spans.jsonl"));
    if let Err(error) = tracer.write_spans(&path) {
        eprintln!("benchmark: cannot write {}: {error}", path.display());
    }
    let calib = median(&calibs);
    let factor = scale(calib, calib, W::ELASTICITY);
    let metrics = tracer
        .summary()
        .layer_metrics()
        .into_iter()
        .map(|(name, unit, value)| {
            let is_time = unit.starts_with("ns/") || unit.starts_with("us/");
            Metric {
                name,
                unit,
                value: if is_time { value * factor } else { value },
            }
        })
        .collect();
    let info = vec![
        ("units", unit_id as f64),
        ("batches", (batch - 1) as f64),
        ("calib_ms", calib),
        ("nominal_ms", NOMINAL_MS),
        ("host_cores", host_cores() as f64),
    ];
    (metrics, info)
}

/// Peak resident set of this process (`VmHWM`), in MB; printed for
/// information.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
