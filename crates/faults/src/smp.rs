//! The `smp_storm` campaign: seeded traffic/fault scenarios driven through
//! the multi-core platform ([`MultiMachine`]) across core counts and two
//! placement arms — hierarchical affinity (every line lands on its
//! subscriber's core) versus round-robin (every aggressor line pays an
//! IPI hop) — once with the budgeted, δ⁻-admitted failover path and once
//! with failover discipline disabled (the ablation), every admitted
//! stream replayed through the per-victim-core Eq. 13–16 oracle.
//!
//! The campaign's claim extends the paper's temporal-independence argument
//! to the platform level:
//!
//! * **monitored clean** — with the reroute budget and a real-`d_min`
//!   failover twin, *no* per-victim-core admitted stream violates the
//!   oracle, across every arm, core count and crash/stall/storm plan;
//! * **victim identity** — the victim line's admission stream (home core
//!   0, which never crashes and hosts no aggressor line) is
//!   byte-identical across core counts {1, 2, 4} on crash-free plans:
//!   growing the platform — more cores, each bringing its own aggressor
//!   load and routing traffic — changes nothing the victim core can
//!   observe. This is deliberately a *cross-core* claim: co-located
//!   lines on one core share interposed-window hardware and interact
//!   within the Eq. 13–16 bound (that is the single-core campaign's
//!   subject), so the victim core carries exactly the victim line at
//!   every count;
//! * **ablation broken** — with the platform budget removed and the twin
//!   monitor opened to an admit-everything 1 ns δ⁻, a storm rerouted by a
//!   core crash demonstrably violates the fallback core's independence
//!   bound. The failover discipline is load-bearing, and the campaign
//!   proves it by turning it off.
//!
//! Scenario outcomes are pure functions of `(config, scenario)`; the
//! `smp_storm` binary fans them out with the bench crate's `SweepRunner`
//! and journals each [`SmpRecord`] for crash-resumable, byte-identical
//! report assembly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rthv::monitor::{DeltaFunction, ShaperConfig};
use rthv::obs::ObsConfig;
use rthv::sim::Fnv1a;
use rthv::time::{Duration, Instant};
use rthv::{
    CoreFault, CostModel, FailoverPolicy, FallbackRoute, HypervisorConfig, IrqHandlingMode,
    IrqSourceId, IrqSourceSpec, MultiMachine, MultiRunReport, PartitionId, PartitionSpec, Platform,
    PlatformError, PlatformScheduleError, PlatformSource,
};

use crate::inject::{FaultKind, FaultScenario};
use crate::journal::{JournalError, LineFields};
use crate::oracle::check_admitted_stream;

/// Golden-ratio stride shared with [`crate::inject::standard_scenarios`]
/// for per-scenario and per-source seed derivation.
const SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Campaign geometry: the per-core machine both arms share, the core
/// counts swept, the routing cost model and the traffic horizon.
#[derive(Debug, Clone)]
pub struct SmpConfig {
    /// Traffic/fault horizon per run.
    pub horizon: Duration,
    /// Monitoring distance `d_min` of every platform line (and of the
    /// failover twin outside the ablation).
    pub dmin: Duration,
    /// Bottom-handler WCET `C_BH` of every line.
    pub bottom_cost: Duration,
    /// Core counts the campaign sweeps (victim identity is asserted
    /// across all of them).
    pub core_counts: Vec<usize>,
    /// Platform IRQ lines at the largest core count: line 0 is the
    /// victim, pinned to core 0 (alone — the identity verdict is a
    /// cross-core claim); lines `1..sources` are aggressors homed on the
    /// non-victim cores, so a single-core platform carries only the
    /// victim line.
    pub sources: usize,
    /// Uniform cross-core routing cost (IPI latency).
    pub route_cost: Duration,
    /// Shared-interconnect penalty per cross-core hop.
    pub shared_penalty: Duration,
}

impl SmpConfig {
    /// The standard campaign: 4 lines over a 1 s horizon on core counts
    /// {1, 2, 4}, 5 µs routing + 1 µs interconnect penalty, the paper's
    /// `d_min = 3 ms` and `C_BH = 30 µs`.
    #[must_use]
    pub fn standard() -> Self {
        SmpConfig {
            horizon: Duration::from_millis(1000),
            dmin: Duration::from_millis(3),
            bottom_cost: Duration::from_micros(30),
            core_counts: vec![1, 2, 4],
            sources: 4,
            route_cost: Duration::from_micros(5),
            shared_penalty: Duration::from_micros(1),
        }
    }

    /// The smoke campaign: the same geometry over 250 ms — small enough
    /// for CI, same families and verdict.
    #[must_use]
    pub fn smoke() -> Self {
        SmpConfig {
            horizon: Duration::from_millis(250),
            ..SmpConfig::standard()
        }
    }

    /// `C'_BH` (Eq. 15): the per-admission charge the oracle replays.
    #[must_use]
    pub fn effective_cost(&self) -> Duration {
        CostModel::paper_arm926ejs().effective_bottom_cost(self.bottom_cost)
    }

    /// The largest swept core count (the ablation geometry).
    #[must_use]
    pub fn max_cores(&self) -> usize {
        self.core_counts.iter().copied().max().unwrap_or(1)
    }
}

/// Why an SMP campaign run could not be set up or driven.
#[derive(Debug, Clone, PartialEq)]
pub enum SmpError {
    /// `d_min` must be positive (a zero distance admits everything and
    /// the oracle bound degenerates).
    InvalidDmin {
        /// The rejected distance.
        dmin: Duration,
    },
    /// The assembled [`Platform`] failed validation.
    Platform(PlatformError),
    /// An arrival could not be scheduled.
    Schedule(PlatformScheduleError),
}

impl std::fmt::Display for SmpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmpError::InvalidDmin { dmin } => {
                write!(f, "invalid d_min {} ns: must be positive", dmin.as_nanos())
            }
            SmpError::Platform(error) => write!(f, "invalid platform: {error}"),
            SmpError::Schedule(error) => write!(f, "arrival rejected: {error:?}"),
        }
    }
}

impl std::error::Error for SmpError {}

impl From<PlatformError> for SmpError {
    fn from(error: PlatformError) -> Self {
        SmpError::Platform(error)
    }
}

/// IRQ-line placement policy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmpArm {
    /// Every line's hardware input lands on its subscriber's core: no
    /// steady-state IPIs, routing only on failover.
    HierAffinity,
    /// Aggressor lines land one core away from their subscriber, so every
    /// aggressor arrival pays a routing hop. The victim line stays local
    /// — its stream must not care how the rest of the platform routes.
    RoundRobin,
}

impl SmpArm {
    /// Stable machine-readable label.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            SmpArm::HierAffinity => "hier",
            SmpArm::RoundRobin => "rr",
        }
    }

    /// Both arms, in campaign order.
    pub const ALL: [SmpArm; 2] = [SmpArm::HierAffinity, SmpArm::RoundRobin];
}

/// What drives the platform lines in a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmpTraffic {
    /// Every line near `d_min`-spaced (jittered) — the conformant load.
    Nominal,
    /// Aggressor lines at `d_min / 4` (jittered) — far above the
    /// admissible rate; the victim line stays nominal.
    Storm,
}

impl SmpTraffic {
    /// Stable machine-readable label.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            SmpTraffic::Nominal => "nominal",
            SmpTraffic::Storm => "storm",
        }
    }
}

/// One SMP scenario: a traffic shape plus a core-fault adversity, both
/// pure functions of the scenario seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmpScenario {
    /// Position in the campaign (stable across runs; part of the label).
    pub id: u32,
    /// Line traffic shape.
    pub traffic: SmpTraffic,
    /// Core-fault adversity (kind + seed); [`FaultKind::Nominal`] means
    /// no platform faults.
    pub fault: FaultScenario,
}

impl SmpScenario {
    /// Stable scenario label, e.g. `03-storm-core-crash`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{:02}-{}-{}",
            self.id,
            self.traffic.slug(),
            self.fault.kind.slug()
        )
    }

    /// Crash/stall-free — the victim-identity verdict covers exactly
    /// these scenarios (identity in fact holds for every family, and the
    /// report records it per scenario, but the verdict claims only what
    /// the issue demands).
    #[must_use]
    pub fn identity_family(&self) -> bool {
        matches!(self.fault.kind, FaultKind::Nominal { .. })
    }

    /// Storm traffic rerouted by a core crash — the family whose ablation
    /// run must demonstrably violate independence.
    #[must_use]
    pub fn breakage_family(&self) -> bool {
        self.traffic == SmpTraffic::Storm && matches!(self.fault.kind, FaultKind::CoreCrash { .. })
    }
}

/// The five SMP families, cycled `count` times with per-scenario derived
/// seeds. Mirrors [`crate::inject::standard_scenarios`]'s shape: the list
/// is a pure function of `(count, base_seed)`.
#[must_use]
pub fn smp_scenarios(count: u32, base_seed: u64, horizon: Duration) -> Vec<SmpScenario> {
    let crash_period = Duration::from_nanos((horizon.as_nanos() / 4).max(1));
    let stall_period = Duration::from_nanos((horizon.as_nanos() / 4).max(1));
    let families: [(SmpTraffic, FaultKind); 5] = [
        (
            SmpTraffic::Nominal,
            FaultKind::Nominal {
                period: Duration::from_millis(3),
            },
        ),
        (
            SmpTraffic::Nominal,
            FaultKind::CoreCrash {
                period: crash_period,
                crashes: 1,
            },
        ),
        (
            SmpTraffic::Storm,
            FaultKind::Nominal {
                period: Duration::from_millis(3),
            },
        ),
        (
            SmpTraffic::Storm,
            FaultKind::CoreCrash {
                period: crash_period,
                crashes: 2,
            },
        ),
        (
            SmpTraffic::Storm,
            FaultKind::RouteStall {
                period: stall_period,
                stall: Duration::from_millis(2),
            },
        ),
    ];
    (0..count)
        .map(|i| {
            let (traffic, kind) = families[(i as usize) % families.len()];
            SmpScenario {
                id: i,
                traffic,
                fault: FaultScenario {
                    id: i,
                    kind,
                    seed: base_seed ^ u64::from(i).wrapping_mul(SEED_STRIDE),
                },
            }
        })
        .collect()
}

/// One core's hypervisor configuration: the paper's three-partition TDMA
/// table (6000/6000/2000 µs), one monitored local line per platform
/// source (distinct monitors, so co-located lines cannot pollute each
/// other's admission state) and the failover twin at index
/// `config.sources`, all subscribed by partition 1 under
/// [`IrqHandlingMode::Interposed`].
fn core_config(
    config: &SmpConfig,
    delta: &DeltaFunction,
    twin_delta: &DeltaFunction,
) -> HypervisorConfig {
    let mut sources = Vec::with_capacity(config.sources + 1);
    for line in 0..config.sources {
        let mut spec = IrqSourceSpec::new(
            format!("line{line}"),
            PartitionId::new(1),
            config.bottom_cost,
        );
        spec.monitor = Some(ShaperConfig::Delta(delta.clone()));
        sources.push(spec);
    }
    let mut twin = IrqSourceSpec::new("failover-in", PartitionId::new(1), config.bottom_cost);
    twin.monitor = Some(ShaperConfig::Delta(twin_delta.clone()));
    sources.push(twin);
    HypervisorConfig {
        partitions: vec![
            PartitionSpec::new("app1", Duration::from_micros(6_000)),
            PartitionSpec::new("app2", Duration::from_micros(6_000)),
            PartitionSpec::new("hk", Duration::from_micros(2_000)),
        ],
        sources,
        costs: CostModel::paper_arm926ejs(),
        mode: IrqHandlingMode::Interposed,
        policies: Default::default(),
        windows: None,
    }
}

/// Builds the platform for one `(arm, cores, failover)` case. With
/// `failover_enabled` the default budgeted policy and a real-`d_min` twin
/// guard the reroute path; without it the budget is removed and the twin
/// admits everything — the ablation the breakage verdict turns on.
///
/// # Errors
///
/// [`SmpError::InvalidDmin`] on a zero `d_min`; [`SmpError::Platform`]
/// when the assembled platform fails validation.
pub fn build_platform(
    config: &SmpConfig,
    arm: SmpArm,
    cores: usize,
    failover_enabled: bool,
) -> Result<Platform, SmpError> {
    if config.dmin.is_zero() {
        return Err(SmpError::InvalidDmin { dmin: config.dmin });
    }
    let delta = DeltaFunction::from_dmin(config.dmin)
        .map_err(|_| SmpError::InvalidDmin { dmin: config.dmin })?;
    let twin_delta = if failover_enabled {
        delta.clone()
    } else {
        DeltaFunction::from_dmin(Duration::from_nanos(1)).expect("1 ns d_min is valid")
    };
    let core = core_config(config, &delta, &twin_delta);
    let twin_id = IrqSourceId::new(config.sources as u32);
    // A single-core platform carries only the victim line: aggressors
    // live on the cores the sweep adds, so the victim core's workload —
    // and therefore the victim's admission stream — is invariant in the
    // core count.
    let line_count = if cores > 1 { config.sources } else { 1 };
    let sources = (0..line_count)
        .map(|line| {
            let home = if line == 0 {
                0
            } else {
                1 + (line - 1) % (cores - 1)
            };
            // The victim line (0) is pinned local in both arms: the
            // identity verdict compares its stream across core counts,
            // so its own path must not change with the routing policy.
            let origin = match arm {
                SmpArm::HierAffinity => home,
                SmpArm::RoundRobin if line == 0 => home,
                SmpArm::RoundRobin => (home + 1) % cores,
            };
            let fallback = (cores > 1).then_some(FallbackRoute {
                core: (home + 1) % cores,
                source: twin_id,
            });
            PlatformSource {
                origin,
                home,
                home_source: IrqSourceId::new(line as u32),
                fallback,
            }
        })
        .collect();
    let failover = if failover_enabled {
        FailoverPolicy::default()
    } else {
        FailoverPolicy {
            budget: None,
            ..FailoverPolicy::default()
        }
    };
    Ok(Platform {
        cores: vec![core; cores],
        route_cost: uniform_route(cores, config.route_cost),
        shared_penalty: config.shared_penalty,
        sources,
        failover,
    })
}

/// A square routing matrix with `cost` everywhere off the diagonal.
fn uniform_route(cores: usize, cost: Duration) -> Vec<Vec<Duration>> {
    (0..cores)
        .map(|from| {
            (0..cores)
                .map(|to| if from == to { Duration::ZERO } else { cost })
                .collect()
        })
        .collect()
}

/// One line's arrival schedule: a pure function of `(scenario seed,
/// line)`, independent of arm and core count — that independence is what
/// the victim-identity verdict leans on.
pub fn line_arrivals(config: &SmpConfig, scenario: &SmpScenario, line: usize) -> Vec<Instant> {
    let mut rng =
        StdRng::seed_from_u64(scenario.fault.seed ^ (line as u64 + 1).wrapping_mul(SEED_STRIDE));
    let dmin = config.dmin.as_nanos();
    let dense = scenario.traffic == SmpTraffic::Storm && line != 0;
    // Nominal lines hover just above d_min with jitter dipping below it
    // (some denials, deterministically); storm aggressors run at d_min/4.
    let (base, jitter) = if dense {
        (dmin / 4, dmin / 16)
    } else {
        (dmin + dmin / 8, dmin / 4)
    };
    let end = Instant::ZERO + config.horizon;
    let mut at = Instant::ZERO + Duration::from_nanos(1 + rng.gen_range(0..base.max(1)));
    let mut out = Vec::new();
    while at < end {
        out.push(at);
        at += Duration::from_nanos(base.max(1) + rng.gen_range(0..=jitter));
    }
    out
}

/// Derives the seeded [`CoreFault`] plan for one `(scenario, cores)`
/// case. Crash victims are distinct cores drawn from `1..cores` — core 0
/// hosts the victim line and must survive, exactly like the crash plans
/// one layer down never target shard 0's journal. Single-core platforms
/// have nothing to crash or stall; the plan degenerates to calm.
pub fn core_faults(scenario: &SmpScenario, cores: usize, horizon: Duration) -> Vec<CoreFault> {
    if cores <= 1 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(scenario.fault.seed ^ 0xC0DE_FA17);
    match scenario.fault.kind {
        FaultKind::CoreCrash { period, crashes } => {
            let mut pool: Vec<usize> = (1..cores).collect();
            let n = (crashes as usize).min(pool.len());
            (0..n)
                .map(|i| {
                    let pick = rng.gen_range(0..pool.len());
                    let core = pool.swap_remove(pick);
                    let jitter = rng.gen_range(0..=period.as_nanos() / 8);
                    let at = Instant::ZERO
                        + Duration::from_nanos(period.as_nanos() * (i as u64 + 1) + jitter);
                    CoreFault::Crash { at, core }
                })
                .collect()
        }
        FaultKind::RouteStall { period, stall } => {
            let mut out = Vec::new();
            let mut k = 1u64;
            while period.as_nanos() * k + stall.as_nanos() < horizon.as_nanos() {
                let from = rng.gen_range(0..cores);
                let mut to = rng.gen_range(0..cores);
                if to == from {
                    to = (to + 1) % cores;
                }
                let start = Instant::ZERO + Duration::from_nanos(period.as_nanos() * k);
                out.push(CoreFault::RouteStall {
                    from,
                    to,
                    start,
                    until: start + stall,
                });
                k += 1;
            }
            out
        }
        _ => Vec::new(),
    }
}

/// The distilled result of one `(arm, cores, failover)` platform run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmpCase {
    /// Placement arm.
    pub arm: SmpArm,
    /// Core count.
    pub cores: usize,
    /// Per-victim-core oracle violations (δ⁻ replay, η⁺ windows,
    /// Eq. 13–16 bound) summed over every `(core, line)` admitted stream.
    pub violations: u64,
    /// FNV-1a digest of the victim line's admission stream on core 0
    /// (per-record admit/deny flag and check-instant gap — shift- and
    /// interleaving-invariant, so it must not move across core counts).
    pub victim_digest: u64,
    /// Typed platform sheds.
    pub sheds: u64,
    /// In-flight activations lost to core crashes.
    pub lost: u64,
    /// Cross-core deliveries (IPIs received, platform-wide).
    pub ipi_in: u64,
    /// Failed-over arrivals accepted (platform-wide).
    pub failover_in: u64,
    /// Plain IPIs deferred behind stalled routes (platform-wide).
    pub stall_deferrals: u64,
    /// Cores lost to the crash plan.
    pub crashed: u32,
    /// Arrival/service conservation held and no core reported a defect.
    pub ledger_ok: bool,
}

/// Runs one `(arm, cores, failover)` case and distills it.
///
/// # Errors
///
/// Propagates [`build_platform`] errors; [`SmpError::Schedule`] when an
/// arrival lands outside the platform's accepted range.
pub fn run_smp_case(
    config: &SmpConfig,
    scenario: &SmpScenario,
    arm: SmpArm,
    cores: usize,
    failover_enabled: bool,
    metrics: Option<ObsConfig>,
) -> Result<(SmpCase, Option<String>), SmpError> {
    let platform = build_platform(config, arm, cores, failover_enabled)?;
    let line_count = platform.sources.len();
    let faults = core_faults(scenario, cores, config.horizon);
    let mut multi = MultiMachine::new(platform, &faults)?;
    if let Some(obs) = metrics {
        multi.enable_metrics(obs);
    }
    for line in 0..line_count {
        for at in line_arrivals(config, scenario, line) {
            multi.schedule_irq(line, at).map_err(SmpError::Schedule)?;
        }
    }
    multi.run_until(Instant::ZERO + config.horizon);
    let snapshot = multi.metrics_snapshot_json();
    let report = multi.finish();

    let delta = DeltaFunction::from_dmin(config.dmin)
        .map_err(|_| SmpError::InvalidDmin { dmin: config.dmin })?;
    let violations = platform_violations(&report, &delta, config.effective_cost());
    let counters = report
        .counters
        .iter()
        .fold(rthv::CoreCounters::default(), |acc, c| rthv::CoreCounters {
            ipi_in: acc.ipi_in + c.ipi_in,
            ipi_out: acc.ipi_out + c.ipi_out,
            failover_in: acc.failover_in + c.failover_in,
            failover_retries: acc.failover_retries + c.failover_retries,
            stall_deferrals: acc.stall_deferrals + c.stall_deferrals,
            shed: acc.shed + c.shed,
        });
    let ledger_ok = report.conserved() && report.cores.iter().all(|core| core.defect.is_none());
    Ok((
        SmpCase {
            arm,
            cores,
            violations,
            victim_digest: victim_digest(&report),
            sheds: report.shed_total(),
            lost: report.lost_in_flight(),
            ipi_in: counters.ipi_in,
            failover_in: counters.failover_in,
            stall_deferrals: counters.stall_deferrals,
            crashed: report.crashed.iter().filter(|c| **c).count() as u32,
            ledger_ok,
        },
        snapshot,
    ))
}

/// The per-victim-core oracle sweep: every `(core, line)` admitted stream
/// replayed through [`check_admitted_stream`] against the campaign's real
/// `d_min` — including the failover twin's stream, which is how the
/// ablation's blind reroutes are caught.
fn platform_violations(
    report: &MultiRunReport,
    delta: &DeltaFunction,
    effective_cost: Duration,
) -> u64 {
    let mut total = 0u64;
    let mut lines: Vec<Vec<Instant>> = Vec::new();
    for (core, run) in report.cores.iter().enumerate() {
        // One pass splits the core's admitted stream by line.
        lines.iter_mut().for_each(Vec::clear);
        for record in run.admissions.iter().filter(|r| r.admitted) {
            let line = record.source.index();
            if line >= lines.len() {
                lines.resize_with(line + 1, Vec::new);
            }
            lines[line].push(record.check_at);
        }
        for (line, admitted) in lines.iter().enumerate() {
            if admitted.is_empty() {
                continue;
            }
            total +=
                check_admitted_stream(core, line, admitted, delta, effective_cost).len() as u64;
        }
    }
    total
}

/// FNV-1a digest of the victim line's admission stream on core 0: for
/// each record in order, the admit/deny flag and the gap to the previous
/// check instant. Gaps (not absolute instants) make the digest invariant
/// to constant routing shifts; per-line monitors make it invariant to
/// co-located aggressors. It must therefore be byte-identical across
/// core counts — the identity verdict.
fn victim_digest(report: &MultiRunReport) -> u64 {
    let mut hash = Fnv1a::new();
    let victim = report.cores.first();
    let mut last: Option<Instant> = None;
    for record in victim.map(|r| r.admissions.as_slice()).unwrap_or(&[]) {
        if record.source.index() != 0 {
            continue;
        }
        hash.word(u64::from(record.admitted));
        hash.word(last.map_or(0, |prev| {
            record.check_at.saturating_duration_since(prev).as_nanos()
        }));
        last = Some(record.check_at);
    }
    hash.finish()
}

/// The full scenario outcome: every enabled `(arm, cores)` case, the
/// failover-disabled ablation, and the optional observability snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpOutcome {
    /// Scenario label.
    pub label: String,
    /// Scenario seed.
    pub seed: u64,
    /// Crash/stall-free scenario (identity verdict family)?
    pub identity_family: bool,
    /// Storm-plus-crash scenario (ablation breakage family)?
    pub breakage_family: bool,
    /// Every enabled case, arms × core counts in campaign order.
    pub cases: Vec<SmpCase>,
    /// The failover-disabled run (hierarchical arm, largest core count).
    pub ablation: SmpCase,
    /// Observability snapshot of the first enabled case, when requested.
    pub snapshot: Option<String>,
}

impl SmpOutcome {
    /// Victim digests identical across core counts within each arm (and,
    /// by construction, across arms — the digest is routing-invariant)?
    #[must_use]
    pub fn identity_ok(&self) -> bool {
        self.cases
            .windows(2)
            .all(|pair| pair[0].victim_digest == pair[1].victim_digest)
    }

    /// Oracle violations summed over every enabled case.
    #[must_use]
    pub fn enabled_violations(&self) -> u64 {
        self.cases.iter().map(|c| c.violations).sum()
    }

    /// Conservation and defect-freedom across every enabled case.
    #[must_use]
    pub fn ledger_ok(&self) -> bool {
        self.cases.iter().all(|c| c.ledger_ok)
    }

    /// The scenario's verbatim report fragment (compact JSON, integers
    /// and fixed keys only — byte-stable across runs and resumes).
    #[must_use]
    pub fn to_json_fragment(&self) -> String {
        let mut runs = String::new();
        for (i, case) in self.cases.iter().enumerate() {
            if i > 0 {
                runs.push(',');
            }
            runs.push_str(&case_json(case));
        }
        format!(
            "{{\"label\":\"{}\",\"seed\":{},\"identity_family\":{},\"breakage_family\":{},\"identity_ok\":{},\"runs\":[{}],\"ablation\":{}}}",
            self.label,
            self.seed,
            u8::from(self.identity_family),
            u8::from(self.breakage_family),
            u8::from(self.identity_ok()),
            runs,
            case_json(&self.ablation),
        )
    }

    /// Distills the journal/report record.
    #[must_use]
    pub fn record(&self) -> SmpRecord {
        SmpRecord {
            label: self.label.clone(),
            seed: self.seed,
            identity_family: self.identity_family,
            breakage_family: self.breakage_family,
            enabled_violations: self.enabled_violations(),
            ablation_violations: self.ablation.violations,
            identity_ok: self.identity_ok(),
            ledger_ok: self.ledger_ok() && self.ablation.ledger_ok,
            sheds: self.cases.iter().map(|c| c.sheds).sum(),
            lost: self.cases.iter().map(|c| c.lost).sum(),
            fragment: self.to_json_fragment(),
        }
    }
}

/// One case as a compact JSON object.
fn case_json(case: &SmpCase) -> String {
    format!(
        "{{\"arm\":\"{}\",\"cores\":{},\"violations\":{},\"victim_digest\":{},\"sheds\":{},\"lost\":{},\"ipi_in\":{},\"failover_in\":{},\"stall_deferrals\":{},\"crashed\":{},\"ledger_ok\":{}}}",
        case.arm.slug(),
        case.cores,
        case.violations,
        case.victim_digest,
        case.sheds,
        case.lost,
        case.ipi_in,
        case.failover_in,
        case.stall_deferrals,
        case.crashed,
        u8::from(case.ledger_ok),
    )
}

/// Runs one scenario: both arms across every configured core count with
/// the budgeted failover path, then the failover-disabled ablation on the
/// hierarchical arm at the largest core count. With `metrics` the first
/// enabled case re-runs nothing — the hub rides along on the first case
/// itself, and metrics are pure observation (the binary pins that by
/// comparing records).
///
/// # Errors
///
/// Propagates [`run_smp_case`] setup errors.
pub fn run_smp_scenario(
    config: &SmpConfig,
    scenario: &SmpScenario,
    metrics: Option<ObsConfig>,
) -> Result<SmpOutcome, SmpError> {
    let mut cases = Vec::with_capacity(SmpArm::ALL.len() * config.core_counts.len());
    let mut snapshot = None;
    let mut first = true;
    for arm in SmpArm::ALL {
        for &cores in &config.core_counts {
            let obs = if first { metrics } else { None };
            let (case, observed) = run_smp_case(config, scenario, arm, cores, true, obs)?;
            if first {
                snapshot = observed;
                first = false;
            }
            cases.push(case);
        }
    }
    let (ablation, _) = run_smp_case(
        config,
        scenario,
        SmpArm::HierAffinity,
        config.max_cores(),
        false,
        None,
    )?;
    Ok(SmpOutcome {
        label: scenario.label(),
        seed: scenario.fault.seed,
        identity_family: scenario.identity_family(),
        breakage_family: scenario.breakage_family(),
        cases,
        ablation,
        snapshot,
    })
}

/// The journal/report unit: the digest integers the verdict needs plus
/// the full JSON fragment spliced verbatim, so a `--resume` run assembles
/// a byte-identical report without re-serializing old results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmpRecord {
    /// Scenario label.
    pub label: String,
    /// Scenario seed.
    pub seed: u64,
    /// Crash/stall-free (identity verdict family)?
    pub identity_family: bool,
    /// Storm-plus-crash (ablation breakage family)?
    pub breakage_family: bool,
    /// Oracle violations summed over every enabled case.
    pub enabled_violations: u64,
    /// Oracle violations of the failover-disabled ablation.
    pub ablation_violations: u64,
    /// Victim digests identical across all enabled cases?
    pub identity_ok: bool,
    /// Conservation and defect-freedom across every run.
    pub ledger_ok: bool,
    /// Typed sheds summed over the enabled cases.
    pub sheds: u64,
    /// In-flight losses summed over the enabled cases.
    pub lost: u64,
    /// Verbatim scenario JSON fragment.
    pub fragment: String,
}

impl SmpRecord {
    /// One journal line: `label seed identity breakage enabled_viol
    /// ablation_viol identity_ok ledger_ok sheds lost fragment`.
    #[must_use]
    pub fn to_journal_line(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {} {}",
            self.label,
            self.seed,
            u8::from(self.identity_family),
            u8::from(self.breakage_family),
            self.enabled_violations,
            self.ablation_violations,
            u8::from(self.identity_ok),
            u8::from(self.ledger_ok),
            self.sheds,
            self.lost,
            self.fragment,
        )
    }

    /// Decodes a [`to_journal_line`](SmpRecord::to_journal_line) line.
    ///
    /// # Errors
    ///
    /// [`JournalError::Field`] naming the first missing or malformed field.
    pub fn from_journal_line(line: &str) -> Result<SmpRecord, JournalError> {
        let mut fields = LineFields::new(line);
        let label = fields.text("label")?.to_owned();
        let seed = fields.num("seed")?;
        Ok(SmpRecord {
            identity_family: fields.flag("identity_family")?,
            breakage_family: fields.flag("breakage_family")?,
            enabled_violations: fields.num("enabled_violations")?,
            ablation_violations: fields.num("ablation_violations")?,
            identity_ok: fields.flag("identity_ok")?,
            ledger_ok: fields.flag("ledger_ok")?,
            sheds: fields.num("sheds")?,
            lost: fields.num("lost")?,
            fragment: fields.fragment(&label, seed)?,
            label,
            seed,
        })
    }
}

/// Assembles the deterministic campaign report from scenario records (in
/// campaign order): a config header, the verbatim fragments, totals and
/// the three-part verdict.
#[must_use]
pub fn assemble_smp_report(config: &SmpConfig, base_seed: u64, records: &[SmpRecord]) -> String {
    let enabled_violations: u64 = records.iter().map(|r| r.enabled_violations).sum();
    let sheds: u64 = records.iter().map(|r| r.sheds).sum();
    let lost: u64 = records.iter().map(|r| r.lost).sum();
    let identity_records = records.iter().filter(|r| r.identity_family).count();
    let breakage_records: Vec<&SmpRecord> = records.iter().filter(|r| r.breakage_family).collect();
    let monitored_clean = enabled_violations == 0 && records.iter().all(|r| r.ledger_ok);
    let identity_held = records
        .iter()
        .filter(|r| r.identity_family)
        .all(|r| r.identity_ok);
    let ablation_broken =
        !breakage_records.is_empty() && breakage_records.iter().all(|r| r.ablation_violations > 0);
    let pass = monitored_clean && identity_held && ablation_broken;

    let core_counts = config
        .core_counts
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"cores\":[{}],\"sources\":{},\"horizon_ns\":{},\"dmin_ns\":{},\"bottom_cost_ns\":{},\"route_cost_ns\":{},\"shared_penalty_ns\":{},\"base_seed\":{}}},\n",
        core_counts,
        config.sources,
        config.horizon.as_nanos(),
        config.dmin.as_nanos(),
        config.bottom_cost.as_nanos(),
        config.route_cost.as_nanos(),
        config.shared_penalty.as_nanos(),
        base_seed,
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, record) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", record.fragment, comma));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"totals\": {{\"scenarios\":{},\"identity_scenarios\":{},\"breakage_scenarios\":{},\"enabled_violations\":{},\"sheds\":{},\"lost_in_flight\":{}}},\n",
        records.len(),
        identity_records,
        breakage_records.len(),
        enabled_violations,
        sheds,
        lost,
    ));
    out.push_str(&format!(
        "  \"verdict\": {{\"monitored_clean\":{monitored_clean},\"identity_held\":{identity_held},\"ablation_broken\":{ablation_broken},\"pass\":{pass}}}\n",
    ));
    out.push_str("}\n");
    out
}

/// Whether an assembled report's verdict passes (used by the binary's
/// exit code and the smoke gate).
#[must_use]
pub fn smp_report_passes(report: &str) -> bool {
    report.contains("\"pass\":true")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> SmpConfig {
        SmpConfig::smoke()
    }

    fn scenario_by_family(family: usize) -> SmpScenario {
        smp_scenarios(5, 0xBEEF, smoke().horizon)[family]
    }

    #[test]
    fn scenario_list_is_a_pure_seed_function() {
        let a = smp_scenarios(7, 11, smoke().horizon);
        let b = smp_scenarios(7, 11, smoke().horizon);
        let c = smp_scenarios(7, 12, smoke().horizon);
        assert_eq!(a, b);
        assert_ne!(
            a.iter().map(|s| s.fault.seed).collect::<Vec<_>>(),
            c.iter().map(|s| s.fault.seed).collect::<Vec<_>>()
        );
        assert!(a[0].identity_family());
        assert!(a[3].breakage_family());
    }

    #[test]
    fn outcomes_are_deterministic() {
        let config = smoke();
        let scenario = scenario_by_family(3);
        let a = run_smp_scenario(&config, &scenario, None).expect("valid config");
        let b = run_smp_scenario(&config, &scenario, None).expect("valid config");
        assert_eq!(a.to_json_fragment(), b.to_json_fragment());
    }

    #[test]
    fn enabled_cases_are_violation_free_and_conserved() {
        let config = smoke();
        for family in 0..5 {
            let outcome =
                run_smp_scenario(&config, &scenario_by_family(family), None).expect("valid config");
            assert_eq!(
                outcome.enabled_violations(),
                0,
                "family {family} violated the bound under budgeted failover"
            );
            assert!(
                outcome.ledger_ok(),
                "family {family} lost arrivals silently"
            );
        }
    }

    #[test]
    fn victim_stream_is_identical_across_core_counts_and_arms() {
        let config = smoke();
        // Identity holds whenever nothing fails over *onto* the victim
        // core: both calm families (the verdict's claim) and the stall
        // family, whose deferrals never touch core 0's local line. Crash
        // families may legitimately land a monitored, bounded twin
        // stream on core 0 — that is the failover path working, not an
        // identity defect, and the verdict excludes them.
        for family in [0usize, 2, 4] {
            let outcome =
                run_smp_scenario(&config, &scenario_by_family(family), None).expect("valid config");
            assert!(
                outcome.identity_ok(),
                "family {family} victim digest moved across cases"
            );
        }
    }

    #[test]
    fn ablation_breaks_independence_under_rerouted_storms() {
        let config = smoke();
        let outcome =
            run_smp_scenario(&config, &scenario_by_family(3), None).expect("valid config");
        assert!(outcome.breakage_family);
        assert!(
            outcome.ablation.violations > 0,
            "failover-disabled ablation failed to demonstrate breakage"
        );
        // The same storm stays clean when the budget and twin monitor
        // are in place.
        assert_eq!(outcome.enabled_violations(), 0);
    }

    #[test]
    fn crash_families_exercise_failover_and_shed_typed() {
        let config = smoke();
        let outcome =
            run_smp_scenario(&config, &scenario_by_family(3), None).expect("valid config");
        let multi_core = outcome
            .cases
            .iter()
            .filter(|c| c.cores > 1)
            .collect::<Vec<_>>();
        assert!(multi_core.iter().any(|c| c.crashed > 0));
        assert!(multi_core.iter().any(|c| c.failover_in > 0));
        assert!(
            multi_core.iter().any(|c| c.sheds > 0),
            "a dense rerouted storm must exhaust the reroute budget"
        );
    }

    #[test]
    fn round_robin_pays_routing_hops() {
        let config = smoke();
        let outcome =
            run_smp_scenario(&config, &scenario_by_family(0), None).expect("valid config");
        let rr_multi = outcome
            .cases
            .iter()
            .find(|c| c.arm == SmpArm::RoundRobin && c.cores > 1)
            .expect("round-robin multi-core case");
        assert!(rr_multi.ipi_in > 0);
        let hier = outcome
            .cases
            .iter()
            .filter(|c| c.arm == SmpArm::HierAffinity)
            .collect::<Vec<_>>();
        assert!(hier.iter().all(|c| c.ipi_in == 0));
    }

    #[test]
    fn journal_lines_round_trip() {
        let config = smoke();
        let outcome =
            run_smp_scenario(&config, &scenario_by_family(1), None).expect("valid config");
        let record = outcome.record();
        let line = record.to_journal_line();
        assert_eq!(SmpRecord::from_journal_line(&line), Ok(record));
        assert_eq!(
            SmpRecord::from_journal_line("garbage"),
            Err(JournalError::Field("label"))
        );
        assert_eq!(
            SmpRecord::from_journal_line("a 1 2 0 0 0 1 1 0 0 x"),
            Err(JournalError::Field("identity_family"))
        );
    }

    #[test]
    fn report_verdict_reflects_records() {
        let config = smoke();
        let scenarios = smp_scenarios(5, 0xBEEF, config.horizon);
        let records: Vec<SmpRecord> = scenarios
            .iter()
            .map(|s| {
                run_smp_scenario(&config, s, None)
                    .expect("valid config")
                    .record()
            })
            .collect();
        let report = assemble_smp_report(&config, 0xBEEF, &records);
        assert!(
            smp_report_passes(&report),
            "smoke campaign must pass:\n{report}"
        );
        let mut broken = records;
        broken[0].enabled_violations = 1;
        let report = assemble_smp_report(&config, 0xBEEF, &broken);
        assert!(!smp_report_passes(&report));
    }

    #[test]
    fn zero_dmin_is_a_typed_error() {
        let mut config = smoke();
        config.dmin = Duration::ZERO;
        let scenario = scenario_by_family(0);
        assert_eq!(
            run_smp_scenario(&config, &scenario, None),
            Err(SmpError::InvalidDmin {
                dmin: Duration::ZERO
            })
        );
    }

    #[test]
    fn metrics_are_pure_observation() {
        let config = smoke();
        let scenario = scenario_by_family(2);
        let plain = run_smp_scenario(&config, &scenario, None).expect("valid config");
        let observed =
            run_smp_scenario(&config, &scenario, Some(ObsConfig::default())).expect("valid config");
        assert!(observed.snapshot.is_some());
        assert_eq!(plain.record(), observed.record());
    }
}
