//! The `admit_storm` campaign: seeded storm scenarios driven through the
//! fleet twice — once with checkpoint failover (the system under test) and
//! once with fresh-state restarts (the no-failover baseline) — plus the
//! deterministic, journal-resumable JSON report the campaign binary emits.
//!
//! The campaign's claim mirrors the fault campaign one layer up: under
//! seeded shard-crash storms the failover arm keeps every victim's
//! admitted stream inside the Eq. 13–16 bound (zero oracle violations),
//! while the fresh-state baseline demonstrably breaks it; and under
//! open-loop floods the typed shed rate stays inside a stated budget.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rthv_faults::{FaultKind, FaultScenario, JournalError, LineFields, Violation};
use rthv_obs::{MetricsHub, ObsConfig, SourceObs};
use rthv_stats::LatencyHistogram;
use rthv_time::{Duration, Instant};
use rthv_workload::{
    ecu_fleet, flood_overlay, open_loop_flood, FloodEvent, FloodSpec, OverlaySpec,
};

use crate::fleet::{
    AdmitFleet, FailoverMode, FleetConfig, FleetError, FleetReport, ShardFault, ShardFaultKind,
};
use crate::shard::ShardCounters;
use crate::tenant::{BrownoutPolicy, TenantConfig, TenantLedger, TenantSpec};

/// Campaign geometry: the fleet config both arms share, the traffic
/// horizon and the shed budget the verdict enforces.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Traffic/fault horizon per scenario.
    pub horizon: Duration,
    /// Verdict budget: worst failover-arm shed rate (‰ of scheduled)
    /// over the flood-family scenarios.
    pub shed_budget_permille: u64,
    /// The shared fleet geometry; [`FleetConfig::failover`] is overridden
    /// per arm.
    pub base: FleetConfig,
}

impl StormConfig {
    /// The standard campaign: 8 shards × 64 sources over a 1 s horizon,
    /// 16-deep shard queues, shed budget 120 ‰. Note that under pure
    /// floods δ⁻ admission caps each shard's admitted rate below its
    /// drain rate, so campaign sheds come from faults (fail-closed stall
    /// sheds, crash drops), not queue overflow — the budget bounds those.
    #[must_use]
    pub fn standard_campaign() -> Self {
        let mut base = FleetConfig::paper(8, 64);
        base.queue_capacity = 16;
        StormConfig {
            horizon: Duration::from_millis(1000),
            shed_budget_permille: 120,
            base,
        }
    }

    /// The smoke campaign: 4 shards × 16 sources over 250 ms — small
    /// enough for CI, same families and verdict.
    #[must_use]
    pub fn smoke_campaign() -> Self {
        let mut base = FleetConfig::paper(4, 16);
        base.queue_capacity = 16;
        StormConfig {
            horizon: Duration::from_millis(250),
            shed_budget_permille: 120,
            base,
        }
    }

    /// [`standard_campaign`](Self::standard_campaign). The fleet has no
    /// event engine to choose any more, so the name is ignored.
    #[must_use]
    pub fn standard(_engine: &str) -> Self {
        Self::standard_campaign()
    }

    /// [`smoke_campaign`](Self::smoke_campaign). The fleet has no event
    /// engine to choose any more, so the name is ignored.
    #[must_use]
    pub fn smoke(_engine: &str) -> Self {
        Self::smoke_campaign()
    }
}

/// What drives the fleet ingress in a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// Open-loop Poisson flood, every source at mean rate `mean`.
    Flood {
        /// Per-source mean interarrival time.
        mean: Duration,
    },
    /// One typical-ECU trace per source ([`ecu_fleet`]).
    EcuFleet,
    /// An adversarial [`FaultScenario`] plan, concentrated onto the
    /// first [`HOT_SOURCES`] source ids round-robin — the paper's single
    /// misbehaving-line adversity aimed at a small victim set.
    FaultPlan {
        /// The injected adversity generating the arrivals.
        kind: FaultKind,
    },
}

/// How many source ids concentrated [`TrafficKind::FaultPlan`] traffic
/// lands on: small enough that storms and bursts stay well below `d_min`
/// per source, so a fresh-state restart demonstrably over-admits.
pub const HOT_SOURCES: u32 = 2;

impl TrafficKind {
    /// Stable machine-readable label.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            TrafficKind::Flood { .. } => "flood",
            TrafficKind::EcuFleet => "ecu-fleet",
            TrafficKind::FaultPlan { kind } => kind.slug(),
        }
    }
}

/// One storm scenario: a traffic generator plus a shard-fault adversity,
/// both pure functions of the scenario seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StormScenario {
    /// Position in the campaign (stable across runs; part of the label).
    pub id: u32,
    /// Ingress traffic.
    pub traffic: TrafficKind,
    /// Shard-fault adversity (kind + seed); [`FaultKind::Nominal`] means
    /// no shard faults.
    pub fault: FaultScenario,
}

impl StormScenario {
    /// Stable scenario label, e.g. `00-flood-shard-crash`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{:02}-{}-{}",
            self.id,
            self.traffic.slug(),
            self.fault.kind.slug()
        )
    }

    /// Whether the adversity crashes shards (the failover-vs-baseline
    /// differentiator).
    #[must_use]
    pub fn crash_family(&self) -> bool {
        matches!(self.fault.kind, FaultKind::ShardCrash { .. })
    }

    /// Whether the scenario counts toward the shed budget: open-loop
    /// fleet-wide traffic without stalls (stall scenarios shed by design —
    /// that is the fail-closed contract, not an overload symptom).
    #[must_use]
    pub fn flood_family(&self) -> bool {
        matches!(
            self.traffic,
            TrafficKind::Flood { .. } | TrafficKind::EcuFleet
        ) && !matches!(self.fault.kind, FaultKind::ShardStall { .. })
    }
}

/// The seven storm families, cycled `count` times with per-scenario
/// derived seeds. Mirrors [`rthv_faults::standard_scenarios`]'s shape: the
/// list is a pure function of `(count, base_seed)`.
#[must_use]
pub fn storm_scenarios(count: u32, base_seed: u64, horizon: Duration) -> Vec<StormScenario> {
    let crash_period = Duration::from_nanos((horizon.as_nanos() / 5).max(1));
    let stall_period = Duration::from_nanos((horizon.as_nanos() / 4).max(1));
    let families: [(TrafficKind, FaultKind); 7] = [
        (
            TrafficKind::Flood {
                mean: Duration::from_micros(500),
            },
            FaultKind::ShardCrash {
                period: crash_period,
                crashes: 4,
            },
        ),
        (
            TrafficKind::EcuFleet,
            FaultKind::ShardStall {
                period: stall_period,
                stall: Duration::from_millis(2),
            },
        ),
        (
            TrafficKind::FaultPlan {
                kind: FaultKind::BurstyFlood {
                    burst: 24,
                    spacing: Duration::from_micros(20),
                    every: Duration::from_millis(4),
                },
            },
            FaultKind::ShardCrash {
                period: stall_period,
                crashes: 3,
            },
        ),
        (
            TrafficKind::Flood {
                mean: Duration::from_micros(300),
            },
            FaultKind::ShardCrash {
                period: stall_period,
                crashes: 3,
            },
        ),
        (
            TrafficKind::FaultPlan {
                kind: FaultKind::IrqStorm {
                    period: Duration::from_micros(400),
                },
            },
            FaultKind::ShardStall {
                period: crash_period,
                stall: Duration::from_millis(1),
            },
        ),
        (
            TrafficKind::Flood {
                mean: Duration::from_micros(250),
            },
            FaultKind::Nominal {
                period: Duration::from_millis(1),
            },
        ),
        (
            TrafficKind::Flood {
                mean: Duration::from_millis(3),
            },
            FaultKind::Nominal {
                period: Duration::from_millis(1),
            },
        ),
    ];
    (0..count)
        .map(|id| {
            let (traffic, kind) = families[(id as usize) % families.len()];
            StormScenario {
                id,
                traffic,
                fault: FaultScenario {
                    id,
                    kind,
                    seed: derive_seed(base_seed, id),
                },
            }
        })
        .collect()
}

/// Splitmix64 finalizer — the same derivation the flood generators use.
fn derive_seed(base: u64, lane: u32) -> u64 {
    let mut z = base ^ u64::from(lane).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands a scenario's traffic into the merged fleet arrival schedule.
#[must_use]
pub fn traffic_events(scenario: &StormScenario, config: &StormConfig) -> Vec<FloodEvent> {
    match scenario.traffic {
        TrafficKind::Flood { mean } => open_loop_flood(&FloodSpec {
            sources: config.base.sources,
            mean,
            horizon: config.horizon,
            seed: scenario.fault.seed ^ 0xF10_0D5,
        }),
        TrafficKind::EcuFleet => ecu_fleet(
            config.base.sources,
            config.horizon,
            scenario.fault.seed ^ 0xEC0_FA5,
        ),
        TrafficKind::FaultPlan { kind } => {
            let plan = FaultScenario {
                id: scenario.id,
                kind,
                seed: scenario.fault.seed ^ 0xAD_7E55,
            }
            .plan(config.horizon, config.base.service_cost);
            let hot = config.base.sources.min(HOT_SOURCES);
            plan.arrivals
                .iter()
                .enumerate()
                .map(|(i, a)| FloodEvent {
                    at: a.at,
                    source: (i as u32) % hot,
                })
                .collect()
        }
    }
}

/// Expands a scenario's [`FaultScenario`] into concrete shard faults:
/// crash/stall `i` strikes a seeded shard at `(i+1) · period` plus seeded
/// sub-period jitter. Nominal (and any non-shard) kinds inject nothing.
#[must_use]
pub fn fleet_faults(fault: &FaultScenario, shards: u32, horizon: Duration) -> Vec<ShardFault> {
    let mut rng = StdRng::seed_from_u64(fault.seed ^ 0x5AAD_FA17);
    let mut out = Vec::new();
    let horizon_ns = horizon.as_nanos();
    match fault.kind {
        // RecoveryFlood shares ShardCrash's crash schedule; its "flood"
        // half is the aggressor-tenant traffic overlay the tenant campaign
        // pours on top while these failovers run.
        FaultKind::ShardCrash { period, crashes }
        | FaultKind::RecoveryFlood { period, crashes } => {
            let period_ns = period.as_nanos().max(1);
            for i in 0..u64::from(crashes) {
                let jitter = rng.gen_range(0..(period_ns / 8).max(1));
                let at = (i + 1) * period_ns + jitter;
                let shard = rng.gen_range(0..shards);
                if at < horizon_ns {
                    out.push(ShardFault {
                        at: Instant::from_nanos(at),
                        shard,
                        kind: ShardFaultKind::Crash,
                    });
                }
            }
        }
        FaultKind::ShardStall { period, stall } => {
            let period_ns = period.as_nanos().max(1);
            let mut i = 0u64;
            loop {
                let jitter = rng.gen_range(0..(period_ns / 8).max(1));
                let at = (i + 1) * period_ns + jitter;
                let shard = rng.gen_range(0..shards);
                if at >= horizon_ns {
                    break;
                }
                out.push(ShardFault {
                    at: Instant::from_nanos(at),
                    shard,
                    kind: ShardFaultKind::Stall { duration: stall },
                });
                i += 1;
            }
        }
        FaultKind::CorrelatedCrash { window, k } => {
            // k crashes on k *distinct* shards, all landing inside one
            // window opening a third of the way into the run — the
            // correlated-failure burst a per-crash schedule cannot model.
            let window_ns = window.as_nanos().max(1);
            let open = horizon_ns / 3;
            let k = k.min(shards) as usize;
            let mut targets: Vec<u32> = (0..shards).collect();
            for i in 0..k {
                let j = rng.gen_range(i..targets.len());
                targets.swap(i, j);
            }
            for &shard in targets.iter().take(k) {
                let at = open + rng.gen_range(0..window_ns);
                if at < horizon_ns {
                    out.push(ShardFault {
                        at: Instant::from_nanos(at),
                        shard,
                        kind: ShardFaultKind::Crash,
                    });
                }
            }
        }
        FaultKind::FailoverStall { period, stall } => {
            // Crash, then a stall on the *same* shard right after its
            // failover — recovery immediately meets unresponsiveness.
            let period_ns = period.as_nanos().max(1);
            let mut i = 0u64;
            loop {
                let jitter = rng.gen_range(0..(period_ns / 8).max(1));
                let at = (i + 1) * period_ns + jitter;
                let shard = rng.gen_range(0..shards);
                if at >= horizon_ns {
                    break;
                }
                out.push(ShardFault {
                    at: Instant::from_nanos(at),
                    shard,
                    kind: ShardFaultKind::Crash,
                });
                let stall_at = at + 1;
                if stall_at < horizon_ns {
                    out.push(ShardFault {
                        at: Instant::from_nanos(stall_at),
                        shard,
                        kind: ShardFaultKind::Stall { duration: stall },
                    });
                }
                i += 1;
            }
        }
        _ => {}
    }
    out.sort_by_key(|f| (f.at, f.shard));
    out
}

/// One arm's distilled result: the ledger, the fleet-oracle verdict and
/// bin-quantized latency percentiles. Everything is an integer or a stable
/// slug, so the serialized form is byte-identical across hosts and
/// resumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArmOutcome {
    /// Fleet-aggregated ledger.
    pub counters: ShardCounters,
    /// Fleet-oracle violation count.
    pub violations: u64,
    /// Sorted, de-duplicated violation-kind slugs.
    pub violation_kinds: Vec<&'static str>,
    /// Typed sheds per 1000 scheduled arrivals.
    pub shed_permille: u64,
    /// Median ingress-to-completion latency, quantized to the histogram
    /// bin's upper edge, in ns (−1 when nothing completed).
    pub p50_latency_ns: i64,
    /// 99th-percentile latency, same quantization.
    pub p99_latency_ns: i64,
    /// Exact worst completion latency in ns (−1 when nothing completed).
    pub max_latency_ns: i64,
}

impl ArmOutcome {
    fn distill(report: &FleetReport, config: &StormConfig) -> ArmOutcome {
        let violations = report.check(&config.base.delta, config.base.service_cost);
        ArmOutcome::distill_with(report, &violations)
    }

    /// Distills from a violation list the caller already computed (the
    /// tenant campaign inspects the list for budget-level slugs first).
    fn distill_with(report: &FleetReport, violations: &[Violation]) -> ArmOutcome {
        let mut kinds: Vec<&'static str> = violations.iter().map(|v| v.slug()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let completed = report.latency.count();
        ArmOutcome {
            counters: report.counters,
            violations: violations.len() as u64,
            violation_kinds: kinds,
            shed_permille: report.shed_permille(),
            p50_latency_ns: percentile_ns(&report.latency, 500),
            p99_latency_ns: percentile_ns(&report.latency, 990),
            max_latency_ns: if completed == 0 {
                -1
            } else {
                report.max_latency.as_nanos() as i64
            },
        }
    }

    /// One-line JSON object (integers and stable slugs only).
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let kinds = self
            .violation_kinds
            .iter()
            .map(|k| format!("\"{k}\""))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"scheduled\":{},\"admitted\":{},\"denied\":{},",
                "\"shed_queue_full\":{},\"shed_stalled\":{},\"shed_demoted\":{},",
                "\"lost_in_flight\":{},\"completed\":{},\"retries\":{},",
                "\"crashes\":{},\"stalls\":{},\"checkpoints\":{},",
                "\"journal_replayed\":{},\"shed_permille\":{},",
                "\"violations\":{},\"violation_kinds\":[{}],",
                "\"p50_latency_ns\":{},\"p99_latency_ns\":{},\"max_latency_ns\":{}}}"
            ),
            c.scheduled,
            c.admitted,
            c.denied,
            c.shed_queue_full,
            c.shed_stalled,
            c.shed_demoted,
            c.lost_in_flight,
            c.completed,
            c.retries,
            c.crashes,
            c.stalls,
            c.checkpoints,
            c.journal_replayed,
            self.shed_permille,
            self.violations,
            kinds,
            self.p50_latency_ns,
            self.p99_latency_ns,
            self.max_latency_ns,
        )
    }
}

/// `permille`-quantile latency as the upper edge of the bin holding that
/// rank, in ns. Ranks landing in the overflow bin report the histogram
/// range (a "≥ range" quantization); an empty histogram reports −1.
fn percentile_ns(latency: &LatencyHistogram, permille: u64) -> i64 {
    let total = latency.count();
    if total == 0 {
        return -1;
    }
    let target = (total * permille).div_ceil(1000).max(1);
    let mut cum = 0u64;
    for i in 0..latency.bins() {
        cum += latency.bin_count(i);
        if cum >= target {
            return (latency.bin_start(i) + latency.bin_width()).as_nanos() as i64;
        }
    }
    (latency.bin_start(latency.bins())).as_nanos() as i64
}

/// One scenario's two-arm result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormOutcome {
    /// Scenario label (stable across runs).
    pub label: String,
    /// Scenario seed.
    pub seed: u64,
    /// Shard-crash adversity?
    pub crash_family: bool,
    /// Counts toward the shed budget?
    pub flood_family: bool,
    /// Checkpoint-failover arm (the system under test).
    pub failover: ArmOutcome,
    /// Fresh-state baseline arm.
    pub baseline: ArmOutcome,
}

impl StormOutcome {
    /// The one-line JSON fragment embedded verbatim in report and journal.
    #[must_use]
    pub fn to_json_fragment(&self) -> String {
        format!(
            "{{\"label\":\"{}\",\"seed\":{},\"crash_family\":{},\"flood_family\":{},\"failover\":{},\"baseline\":{}}}",
            self.label,
            self.seed,
            u8::from(self.crash_family),
            u8::from(self.flood_family),
            self.failover.to_json(),
            self.baseline.to_json(),
        )
    }

    /// Distills the journal/report record.
    #[must_use]
    pub fn record(&self) -> ScenarioRecord {
        ScenarioRecord {
            label: self.label.clone(),
            seed: self.seed,
            crash_family: self.crash_family,
            flood_family: self.flood_family,
            failover_violations: self.failover.violations,
            baseline_violations: self.baseline.violations,
            shed_permille: self.failover.shed_permille,
            failover_sheds: self.failover.counters.shed_total(),
            failover_lost: self.failover.counters.lost_in_flight,
            fragment: self.to_json_fragment(),
        }
    }
}

/// The journal/report unit: the digest integers the verdict needs plus the
/// full JSON fragment spliced verbatim, so a `--resume` run assembles a
/// byte-identical report without re-serializing old results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioRecord {
    /// Scenario label.
    pub label: String,
    /// Scenario seed.
    pub seed: u64,
    /// Shard-crash adversity?
    pub crash_family: bool,
    /// Counts toward the shed budget?
    pub flood_family: bool,
    /// Failover-arm oracle violations.
    pub failover_violations: u64,
    /// Baseline-arm oracle violations.
    pub baseline_violations: u64,
    /// Failover-arm shed rate (‰).
    pub shed_permille: u64,
    /// Failover-arm typed sheds (queue-full + stalled + demoted).
    pub failover_sheds: u64,
    /// Failover-arm in-flight activations dropped by crashes.
    pub failover_lost: u64,
    /// Verbatim scenario JSON fragment.
    pub fragment: String,
}

impl ScenarioRecord {
    /// One journal line: `label seed crash flood failover_viol
    /// baseline_viol shed_permille sheds lost fragment`.
    #[must_use]
    pub fn to_journal_line(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {}",
            self.label,
            self.seed,
            u8::from(self.crash_family),
            u8::from(self.flood_family),
            self.failover_violations,
            self.baseline_violations,
            self.shed_permille,
            self.failover_sheds,
            self.failover_lost,
            self.fragment,
        )
    }

    /// Decodes a [`to_journal_line`](ScenarioRecord::to_journal_line)
    /// line.
    ///
    /// # Errors
    ///
    /// [`JournalError::Field`] naming the first missing or malformed field.
    pub fn from_journal_line(line: &str) -> Result<ScenarioRecord, JournalError> {
        let mut fields = LineFields::new(line);
        let label = fields.text("label")?.to_owned();
        let seed = fields.num("seed")?;
        Ok(ScenarioRecord {
            crash_family: fields.flag("crash_family")?,
            flood_family: fields.flag("flood_family")?,
            failover_violations: fields.num("failover_violations")?,
            baseline_violations: fields.num("baseline_violations")?,
            shed_permille: fields.num("shed_permille")?,
            failover_sheds: fields.num("failover_sheds")?,
            failover_lost: fields.num("failover_lost")?,
            fragment: fields.fragment(&label, seed)?,
            label,
            seed,
        })
    }
}

/// Builds the observability hub matching a storm config: one gauge per
/// source, budgeted at `η⁺(gauge_window)` of the shared δ⁻ with the shard
/// service cost as the per-admission charge, and the fleet's latency
/// binning. Pure observation — feeding it never changes a campaign number.
#[must_use]
pub fn storm_hub(config: &StormConfig) -> MetricsHub {
    hub_for(&config.base)
}

/// The hub construction both campaigns share.
fn hub_for(base: &FleetConfig) -> MetricsHub {
    let obs = ObsConfig {
        latency_bin_width: base.latency_bin_width,
        latency_range: base.latency_range,
        ..ObsConfig::default()
    };
    let per_source = SourceObs {
        budget_events: Some(base.delta.eta_plus(obs.gauge_window)),
        effective_cost: base.service_cost,
    };
    let sources = vec![per_source; base.sources as usize];
    MetricsHub::new(obs, &sources)
}

/// Runs one scenario's two arms. The failover arm optionally feeds `hub`
/// (the baseline arm never does — it exists only to be caught by the
/// oracle, not to pollute the export).
pub fn run_storm_scenario(
    config: &StormConfig,
    scenario: &StormScenario,
    hub: Option<&mut MetricsHub>,
) -> Result<StormOutcome, FleetError> {
    let arrivals = traffic_events(scenario, config);
    let faults = fleet_faults(&scenario.fault, config.base.shards, config.horizon);

    let mut failover_cfg = config.base.clone();
    failover_cfg.failover = FailoverMode::Checkpoint;
    let failover_fleet = AdmitFleet::new(failover_cfg)?;
    let failover_report = failover_fleet.run(&arrivals, &faults, hub);

    let mut baseline_cfg = config.base.clone();
    baseline_cfg.failover = FailoverMode::FreshState;
    let baseline_fleet = AdmitFleet::new(baseline_cfg)?;
    let baseline_report = baseline_fleet.run(&arrivals, &faults, None);

    Ok(StormOutcome {
        label: scenario.label(),
        seed: scenario.fault.seed,
        crash_family: scenario.crash_family(),
        flood_family: scenario.flood_family(),
        failover: ArmOutcome::distill(&failover_report, config),
        baseline: ArmOutcome::distill(&baseline_report, config),
    })
}

/// Assembles the deterministic campaign report from scenario records (in
/// campaign order): a config header, the verbatim fragments, totals and
/// the three-part verdict.
#[must_use]
pub fn assemble_report(config: &StormConfig, base_seed: u64, records: &[ScenarioRecord]) -> String {
    let crash_records: Vec<&ScenarioRecord> = records.iter().filter(|r| r.crash_family).collect();
    // Baseline breakage is structurally guaranteed only for fleet-wide
    // floods (every shard hosts sub-d_min-dense sources, so any crash cut
    // lands inside pending traffic); concentrated fault-plan crashes may
    // miss the hot shards and merely contribute to the totals.
    let crash_flood_records: Vec<&ScenarioRecord> = crash_records
        .iter()
        .copied()
        .filter(|r| r.flood_family)
        .collect();
    let failover_violations: u64 = records.iter().map(|r| r.failover_violations).sum();
    let baseline_violations: u64 = records.iter().map(|r| r.baseline_violations).sum();
    let failover_sheds: u64 = records.iter().map(|r| r.failover_sheds).sum();
    let failover_lost: u64 = records.iter().map(|r| r.failover_lost).sum();
    let worst_flood_shed = records
        .iter()
        .filter(|r| r.flood_family)
        .map(|r| r.shed_permille)
        .max()
        .unwrap_or(0);
    let failover_clean = failover_violations == 0;
    let baseline_broken = !crash_flood_records.is_empty()
        && crash_flood_records
            .iter()
            .all(|r| r.baseline_violations > 0);
    let shed_within_budget = worst_flood_shed <= config.shed_budget_permille;
    let pass = failover_clean && baseline_broken && shed_within_budget;

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"config\": {{\"shards\":{},\"sources\":{},\"horizon_ns\":{},\"queue_capacity\":{},\"service_cost_ns\":{},\"max_retries\":{},\"retry_backoff_ns\":{},\"shed_watermark_permille\":{},\"checkpoint_every\":{},\"shed_budget_permille\":{},\"base_seed\":{}}},\n",
        config.base.shards,
        config.base.sources,
        config.horizon.as_nanos(),
        config.base.queue_capacity,
        config.base.service_cost.as_nanos(),
        config.base.max_retries,
        config.base.retry_backoff.as_nanos(),
        config.base.shed_watermark_permille,
        config.base.checkpoint_every,
        config.shed_budget_permille,
        base_seed,
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, record) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", record.fragment, comma));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"totals\": {{\"scenarios\":{},\"crash_scenarios\":{},\"failover_violations\":{},\"baseline_violations\":{},\"failover_sheds\":{},\"failover_lost_in_flight\":{},\"worst_flood_shed_permille\":{}}},\n",
        records.len(),
        crash_records.len(),
        failover_violations,
        baseline_violations,
        failover_sheds,
        failover_lost,
        worst_flood_shed,
    ));
    out.push_str(&format!(
        "  \"verdict\": {{\"failover_clean\":{failover_clean},\"baseline_broken\":{baseline_broken},\"shed_within_budget\":{shed_within_budget},\"pass\":{pass}}}\n",
    ));
    out.push_str("}\n");
    out
}

/// Whether an assembled report's verdict passes (used by the binary's
/// exit code and the smoke gate).
#[must_use]
pub fn report_passes(report: &str) -> bool {
    report.contains("\"pass\":true")
}

// ---------------------------------------------------------------------------
// Tenant-isolation campaign
// ---------------------------------------------------------------------------

/// Geometry of the tenant-isolation campaign: a two-tenant fleet (victim
/// first, aggressor second), sparse baseline traffic every source emits,
/// and a dense aggressor-only overlay that switches on mid-run. The queue
/// is deliberately shallow and the service cost deliberately high so the
/// δ⁻-capped aggressor rate exceeds the per-shard drain rate: the *flat*
/// ablation's shared queues overflow into the victim's arrivals, while the
/// hierarchy's group budget brownouts the aggressor and the victim's
/// stream stays byte-identical to a calm run.
#[derive(Debug, Clone)]
pub struct TenantStormConfig {
    /// Traffic/fault horizon per scenario.
    pub horizon: Duration,
    /// Sparse baseline mean interarrival per source (both tenants).
    pub victim_mean: Duration,
    /// Dense overlay mean interarrival per aggressor source.
    pub overlay_mean: Duration,
    /// Overlay onset — the calm prefix before the aggressor turns on.
    pub overlay_onset: Duration,
    /// The shared fleet geometry; `tenancy` is `Some` here and stripped
    /// for the flat-ablation arms.
    pub base: FleetConfig,
}

/// Shared base for both tenant-campaign sizes: shallow queues, heavy
/// service cost (per-shard drain 1.25/ms against a δ⁻ cap of 1/ms per
/// source), and a two-tenant split with the aggressor owning the upper
/// half of the id space. Budget sums equal the global budget exactly, so
/// the global level is a pure backstop — the oracle still checks it.
fn tenant_fleet_base(
    shards: u32,
    sources: u32,
    victim_budget: u64,
    aggressor_budget: u64,
) -> FleetConfig {
    let mut base = FleetConfig::paper(shards, sources);
    base.queue_capacity = 8;
    base.service_cost = Duration::from_micros(800);
    // Disable the per-source watermark ladder (a 1000 ‰ watermark sits at
    // the queue-full check, which fires first). The ladder only demotes
    // sources the δ⁻ monitor has already marked sick, so it shields
    // victims from *non-conformant* aggressors — exactly the defense the
    // tenant hierarchy must not get credit for. With it off, the flat
    // ablation shows the raw shared-queue interference; the hierarchy arm
    // must win on group budgets and lanes alone.
    base.shed_watermark_permille = 1000;
    let half = sources / 2;
    base.tenancy = Some(TenantConfig {
        window: Duration::from_millis(10),
        global_budget: victim_budget + aggressor_budget,
        tenants: vec![
            TenantSpec {
                sources: half,
                budget: victim_budget,
            },
            TenantSpec {
                sources: sources - half,
                budget: aggressor_budget,
            },
        ],
        brownout: BrownoutPolicy::default(),
        seed: 0x7E4A_5EED,
    });
    base
}

impl TenantStormConfig {
    /// The standard tenant campaign: 8 shards × 64 sources over 1 s.
    #[must_use]
    pub fn standard_campaign() -> Self {
        TenantStormConfig {
            horizon: Duration::from_millis(1000),
            victim_mean: Duration::from_millis(6),
            overlay_mean: Duration::from_micros(300),
            overlay_onset: Duration::from_millis(150),
            base: tenant_fleet_base(8, 64, 120, 160),
        }
    }

    /// The smoke tenant campaign: 4 shards × 16 sources over 250 ms.
    #[must_use]
    pub fn smoke_campaign() -> Self {
        TenantStormConfig {
            horizon: Duration::from_millis(250),
            victim_mean: Duration::from_millis(6),
            overlay_mean: Duration::from_micros(300),
            overlay_onset: Duration::from_millis(40),
            base: tenant_fleet_base(4, 16, 40, 60),
        }
    }

    /// [`standard_campaign`](Self::standard_campaign). The fleet has no
    /// event engine to choose any more, so the name is ignored.
    #[must_use]
    pub fn standard(_engine: &str) -> Self {
        Self::standard_campaign()
    }

    /// [`smoke_campaign`](Self::smoke_campaign). The fleet has no event
    /// engine to choose any more, so the name is ignored.
    #[must_use]
    pub fn smoke(_engine: &str) -> Self {
        Self::smoke_campaign()
    }

    /// The tenancy this campaign runs under.
    ///
    /// # Panics
    ///
    /// Panics if the base config carries no tenancy — the constructors
    /// always set one.
    #[must_use]
    pub fn tenancy(&self) -> &TenantConfig {
        self.base
            .tenancy
            .as_ref()
            .expect("tenant storm config carries a tenancy")
    }
}

/// One tenant-campaign scenario: a correlated-failure adversity struck
/// while the aggressor overlay floods. `identity_family` marks crash-only
/// adversities, where the victim's admitted stream must be byte-identical
/// to the calm run; stall families legitimately move victim arrivals
/// (fail-closed sheds and retries hit whoever meets the stalled shard), so
/// they are exercised for oracle-cleanliness, not byte-identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantScenario {
    /// Position in the campaign (stable across runs; part of the label).
    pub id: u32,
    /// Correlated-failure adversity (kind + seed).
    pub fault: FaultScenario,
    /// Does the byte-identity predicate apply?
    pub identity_family: bool,
}

impl TenantScenario {
    /// Stable scenario label, e.g. `t00-correlated-crash`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("t{:02}-{}", self.id, self.fault.kind.slug())
    }
}

/// The three correlated-failure families, cycled `count` times with
/// per-scenario derived seeds — a pure function of `(count, base_seed)`.
#[must_use]
pub fn tenant_scenarios(count: u32, base_seed: u64, horizon: Duration) -> Vec<TenantScenario> {
    let burst_window = Duration::from_nanos((horizon.as_nanos() / 8).max(1));
    let stall_period = Duration::from_nanos((horizon.as_nanos() / 4).max(1));
    let crash_period = Duration::from_nanos((horizon.as_nanos() / 5).max(1));
    let families: [(FaultKind, bool); 3] = [
        (
            FaultKind::CorrelatedCrash {
                window: burst_window,
                k: 3,
            },
            true,
        ),
        (
            FaultKind::FailoverStall {
                period: stall_period,
                stall: Duration::from_millis(2),
            },
            false,
        ),
        (
            FaultKind::RecoveryFlood {
                period: crash_period,
                crashes: 3,
            },
            true,
        ),
    ];
    (0..count)
        .map(|id| {
            let (kind, identity_family) = families[(id as usize) % families.len()];
            TenantScenario {
                id,
                fault: FaultScenario {
                    id,
                    kind,
                    seed: derive_seed(base_seed ^ 0x007E_4A07, id),
                },
                identity_family,
            }
        })
        .collect()
}

/// One tenant's admitted stream pulled from *any* report — including flat
/// runs, where `FleetReport::tenant_of` is empty — by filtering on the
/// source-id range the tenancy assigns that tenant.
fn range_stream(report: &FleetReport, range: &std::ops::Range<u32>) -> Vec<(Instant, u32)> {
    let mut merged: Vec<(Instant, u32)> = report
        .admitted
        .iter()
        .enumerate()
        .filter(|&(source, _)| range.contains(&(source as u32)))
        .flat_map(|(source, times)| times.iter().map(move |&at| (at, source as u32)))
        .collect();
    merged.sort_unstable();
    merged
}

/// One-line JSON for a tenant's run ledger (integers and slugs only).
fn tenant_ledger_json(tenant: usize, ledger: &TenantLedger) -> String {
    let c = &ledger.counters;
    format!(
        concat!(
            "{{\"tenant\":{},\"scheduled\":{},\"admitted\":{},",
            "\"denied_source\":{},\"denied_group\":{},\"denied_global\":{},",
            "\"shed_queue_full\":{},\"shed_stalled\":{},\"shed_demoted\":{},",
            "\"shed_quarantined\":{},\"lost_in_flight\":{},\"completed\":{},",
            "\"retries\":{},\"rescued\":{},\"in_flight_at_end\":{},",
            "\"final_level\":\"{}\",\"escalations\":{},\"recoveries\":{},",
            "\"headroom_at_end\":{}}}"
        ),
        tenant,
        c.scheduled,
        c.admitted,
        c.denied_source,
        c.denied_group,
        c.denied_global,
        c.shed_queue_full,
        c.shed_stalled,
        c.shed_demoted,
        c.shed_quarantined,
        c.lost_in_flight,
        c.completed,
        c.retries,
        c.rescued,
        ledger.in_flight_at_end,
        ledger.final_level.slug(),
        ledger.escalations,
        ledger.recoveries,
        ledger.headroom_at_end,
    )
}

/// One tenant scenario's four-arm result: the hierarchy under calm and
/// storm, and the flat ablation under both (only the flat-calm victim
/// count is kept — it is the baseline the flat diff is taken against).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantOutcome {
    /// Scenario label (stable across runs).
    pub label: String,
    /// Scenario seed.
    pub seed: u64,
    /// Does the byte-identity predicate apply?
    pub identity_family: bool,
    /// Victim stream byte-identical between hierarchy storm and calm?
    pub hier_isolated: bool,
    /// Victim stream *moved* between flat storm and flat calm?
    pub flat_violates: bool,
    /// Group-budget oracle violations across both hierarchy arms.
    pub group_budget_violations: u64,
    /// Global-budget oracle violations across both hierarchy arms.
    pub global_budget_violations: u64,
    /// Victim tenant's typed-shed rate (‰) in the hierarchy storm arm.
    pub victim_shed_permille: u64,
    /// Aggressor's final brownout level in the hierarchy storm arm.
    pub aggressor_level: &'static str,
    /// Victim admissions, hierarchy calm arm.
    pub victim_admitted_hier_calm: u64,
    /// Victim admissions, hierarchy storm arm.
    pub victim_admitted_hier_storm: u64,
    /// Victim admissions, flat calm arm.
    pub victim_admitted_flat_calm: u64,
    /// Victim admissions, flat storm arm.
    pub victim_admitted_flat_storm: u64,
    /// Hierarchy calm arm.
    pub hier_calm: ArmOutcome,
    /// Hierarchy storm arm (the system under test).
    pub hier_storm: ArmOutcome,
    /// Flat-ablation storm arm.
    pub flat_storm: ArmOutcome,
    /// Per-tenant ledgers of the hierarchy storm arm.
    pub tenants: Vec<TenantLedger>,
}

impl TenantOutcome {
    /// The one-line JSON fragment embedded verbatim in report and journal.
    #[must_use]
    pub fn to_json_fragment(&self) -> String {
        let ledgers = self
            .tenants
            .iter()
            .enumerate()
            .map(|(t, l)| tenant_ledger_json(t, l))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            concat!(
                "{{\"label\":\"{}\",\"seed\":{},\"identity_family\":{},",
                "\"hier_isolated\":{},\"flat_violates\":{},",
                "\"group_budget_violations\":{},\"global_budget_violations\":{},",
                "\"victim_shed_permille\":{},\"aggressor_level\":\"{}\",",
                "\"victim_admitted\":{{\"hier_calm\":{},\"hier_storm\":{},",
                "\"flat_calm\":{},\"flat_storm\":{}}},",
                "\"tenants\":[{}],",
                "\"hier_calm\":{},\"hier_storm\":{},\"flat_storm\":{}}}"
            ),
            self.label,
            self.seed,
            u8::from(self.identity_family),
            u8::from(self.hier_isolated),
            u8::from(self.flat_violates),
            self.group_budget_violations,
            self.global_budget_violations,
            self.victim_shed_permille,
            self.aggressor_level,
            self.victim_admitted_hier_calm,
            self.victim_admitted_hier_storm,
            self.victim_admitted_flat_calm,
            self.victim_admitted_flat_storm,
            ledgers,
            self.hier_calm.to_json(),
            self.hier_storm.to_json(),
            self.flat_storm.to_json(),
        )
    }

    /// Distills the journal/report record.
    #[must_use]
    pub fn record(&self) -> TenantRecord {
        TenantRecord {
            label: self.label.clone(),
            seed: self.seed,
            identity_family: self.identity_family,
            hier_isolated: self.hier_isolated,
            flat_violates: self.flat_violates,
            hier_violations: self.hier_calm.violations + self.hier_storm.violations,
            flat_violations: self.flat_storm.violations,
            group_budget_violations: self.group_budget_violations,
            global_budget_violations: self.global_budget_violations,
            victim_shed_permille: self.victim_shed_permille,
            victim_admitted_flat_calm: self.victim_admitted_flat_calm,
            victim_admitted_flat_storm: self.victim_admitted_flat_storm,
            fragment: self.to_json_fragment(),
        }
    }
}

/// The tenant campaign's journal/report unit: verdict digests plus the
/// full JSON fragment spliced verbatim on `--resume`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantRecord {
    /// Scenario label.
    pub label: String,
    /// Scenario seed.
    pub seed: u64,
    /// Does the byte-identity predicate apply?
    pub identity_family: bool,
    /// Victim stream byte-identical between hierarchy storm and calm?
    pub hier_isolated: bool,
    /// Victim stream moved between flat storm and flat calm?
    pub flat_violates: bool,
    /// Oracle violations across both hierarchy arms.
    pub hier_violations: u64,
    /// Oracle violations in the flat storm arm.
    pub flat_violations: u64,
    /// Group-budget oracle violations across the hierarchy arms.
    pub group_budget_violations: u64,
    /// Global-budget oracle violations across the hierarchy arms.
    pub global_budget_violations: u64,
    /// Victim typed-shed rate (‰), hierarchy storm arm.
    pub victim_shed_permille: u64,
    /// Victim admissions, flat calm arm.
    pub victim_admitted_flat_calm: u64,
    /// Victim admissions, flat storm arm.
    pub victim_admitted_flat_storm: u64,
    /// Verbatim scenario JSON fragment.
    pub fragment: String,
}

impl TenantRecord {
    /// One journal line: `label seed identity isolated violates hier_viol
    /// flat_viol group_viol global_viol shed flat_calm flat_storm
    /// fragment`.
    #[must_use]
    pub fn to_journal_line(&self) -> String {
        format!(
            "{} {} {} {} {} {} {} {} {} {} {} {} {}",
            self.label,
            self.seed,
            u8::from(self.identity_family),
            u8::from(self.hier_isolated),
            u8::from(self.flat_violates),
            self.hier_violations,
            self.flat_violations,
            self.group_budget_violations,
            self.global_budget_violations,
            self.victim_shed_permille,
            self.victim_admitted_flat_calm,
            self.victim_admitted_flat_storm,
            self.fragment,
        )
    }

    /// Decodes a [`to_journal_line`](TenantRecord::to_journal_line) line.
    ///
    /// # Errors
    ///
    /// [`JournalError::Field`] naming the first missing or malformed field.
    pub fn from_journal_line(line: &str) -> Result<TenantRecord, JournalError> {
        let mut fields = LineFields::new(line);
        let label = fields.text("label")?.to_owned();
        let seed = fields.num("seed")?;
        Ok(TenantRecord {
            identity_family: fields.flag("identity_family")?,
            hier_isolated: fields.flag("hier_isolated")?,
            flat_violates: fields.flag("flat_violates")?,
            hier_violations: fields.num("hier_violations")?,
            flat_violations: fields.num("flat_violations")?,
            group_budget_violations: fields.num("group_budget_violations")?,
            global_budget_violations: fields.num("global_budget_violations")?,
            victim_shed_permille: fields.num("victim_shed_permille")?,
            victim_admitted_flat_calm: fields.num("victim_admitted_flat_calm")?,
            victim_admitted_flat_storm: fields.num("victim_admitted_flat_storm")?,
            fragment: fields.fragment(&label, seed)?,
            label,
            seed,
        })
    }
}

/// Builds the observability hub matching a tenant campaign config.
#[must_use]
pub fn tenant_storm_hub(config: &TenantStormConfig) -> MetricsHub {
    hub_for(&config.base)
}

/// Runs one tenant scenario's four arms. Only the hierarchy storm arm
/// (the system under test) optionally feeds `hub`.
///
/// # Errors
///
/// Propagates [`FleetError`] from fleet construction (invalid tenancy) —
/// the campaign config is validated loudly, never silently repaired.
pub fn run_tenant_scenario(
    config: &TenantStormConfig,
    scenario: &TenantScenario,
    hub: Option<&mut MetricsHub>,
) -> Result<TenantOutcome, FleetError> {
    let tenancy = config.tenancy();
    let victim = tenancy.source_range(0);
    let aggressor = tenancy.source_range(1);

    let calm = open_loop_flood(&FloodSpec {
        sources: config.base.sources,
        mean: config.victim_mean,
        horizon: config.horizon,
        seed: scenario.fault.seed ^ 0x7E4A_F10D,
    });
    let storm = flood_overlay(
        &calm,
        &OverlaySpec {
            first_source: aggressor.start,
            sources: aggressor.end - aggressor.start,
            mean: config.overlay_mean,
            onset: config.overlay_onset,
            horizon: config.horizon,
            seed: scenario.fault.seed ^ 0x0A66_0E55,
        },
    );
    let faults = fleet_faults(&scenario.fault, config.base.shards, config.horizon);

    let mut hier_cfg = config.base.clone();
    hier_cfg.failover = FailoverMode::Checkpoint;
    let mut flat_cfg = hier_cfg.clone();
    flat_cfg.tenancy = None;
    let hier_fleet = AdmitFleet::new(hier_cfg)?;
    let flat_fleet = AdmitFleet::new(flat_cfg)?;

    let hier_calm_report = hier_fleet.run(&calm, &[], None);
    let hier_storm_report = hier_fleet.run(&storm, &faults, hub);
    let flat_calm_report = flat_fleet.run(&calm, &[], None);
    let flat_storm_report = flat_fleet.run(&storm, &faults, None);

    let delta = &config.base.delta;
    let cost = config.base.service_cost;
    let hier_calm_violations = hier_calm_report.check(delta, cost);
    let hier_storm_violations = hier_storm_report.check(delta, cost);
    let flat_storm_violations = flat_storm_report.check(delta, cost);
    let budget_count = |violations: &[Violation], slug: &str| {
        violations.iter().filter(|v| v.slug() == slug).count() as u64
    };

    let victim_calm = range_stream(&hier_calm_report, &victim);
    let victim_storm = range_stream(&hier_storm_report, &victim);
    let victim_flat_calm = range_stream(&flat_calm_report, &victim);
    let victim_flat_storm = range_stream(&flat_storm_report, &victim);

    Ok(TenantOutcome {
        label: scenario.label(),
        seed: scenario.fault.seed,
        identity_family: scenario.identity_family,
        hier_isolated: victim_storm == victim_calm,
        flat_violates: victim_flat_storm != victim_flat_calm,
        group_budget_violations: budget_count(&hier_calm_violations, "group-budget")
            + budget_count(&hier_storm_violations, "group-budget"),
        global_budget_violations: budget_count(&hier_calm_violations, "global-budget")
            + budget_count(&hier_storm_violations, "global-budget"),
        victim_shed_permille: hier_storm_report.tenants[0].counters.shed_permille(),
        aggressor_level: hier_storm_report.tenants[1].final_level.slug(),
        victim_admitted_hier_calm: victim_calm.len() as u64,
        victim_admitted_hier_storm: victim_storm.len() as u64,
        victim_admitted_flat_calm: victim_flat_calm.len() as u64,
        victim_admitted_flat_storm: victim_flat_storm.len() as u64,
        hier_calm: ArmOutcome::distill_with(&hier_calm_report, &hier_calm_violations),
        hier_storm: ArmOutcome::distill_with(&hier_storm_report, &hier_storm_violations),
        flat_storm: ArmOutcome::distill_with(&flat_storm_report, &flat_storm_violations),
        tenants: hier_storm_report.tenants.clone(),
    })
}

/// Assembles the deterministic tenant-campaign report: a config header,
/// the verbatim fragments, totals and the four-part verdict
/// (`hier_clean`, `tenant_isolated`, `flat_ablation_broken`,
/// `budgets_clean`).
#[must_use]
pub fn assemble_tenant_report(
    config: &TenantStormConfig,
    base_seed: u64,
    records: &[TenantRecord],
) -> String {
    let tenancy = config.tenancy();
    let identity: Vec<&TenantRecord> = records.iter().filter(|r| r.identity_family).collect();
    let hier_violations: u64 = records.iter().map(|r| r.hier_violations).sum();
    let flat_violations: u64 = records.iter().map(|r| r.flat_violations).sum();
    let group_budget_violations: u64 = records.iter().map(|r| r.group_budget_violations).sum();
    let global_budget_violations: u64 = records.iter().map(|r| r.global_budget_violations).sum();
    let worst_victim_shed = records
        .iter()
        .map(|r| r.victim_shed_permille)
        .max()
        .unwrap_or(0);
    let flat_victim_lost: u64 = records
        .iter()
        .map(|r| {
            r.victim_admitted_flat_calm
                .saturating_sub(r.victim_admitted_flat_storm)
        })
        .sum();
    let hier_clean = hier_violations == 0;
    let tenant_isolated = !identity.is_empty() && identity.iter().all(|r| r.hier_isolated);
    let flat_ablation_broken = !identity.is_empty() && identity.iter().all(|r| r.flat_violates);
    let budgets_clean = group_budget_violations == 0 && global_budget_violations == 0;
    let pass = hier_clean && tenant_isolated && flat_ablation_broken && budgets_clean;

    let budgets = tenancy
        .tenants
        .iter()
        .map(|t| t.budget.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut out = String::new();
    out.push_str("{\n");
    // Every tenanted fleet runs the retry ladder; the key stays in the
    // config block so reports keep their published shape.
    out.push_str(&format!(
        concat!(
            "  \"config\": {{\"shards\":{},\"sources\":{},\"horizon_ns\":{},",
            "\"queue_capacity\":{},\"service_cost_ns\":{},\"window_ns\":{},",
            "\"global_budget\":{},\"budgets\":[{}],\"retry_ladder\":true,",
            "\"victim_mean_ns\":{},\"overlay_mean_ns\":{},\"overlay_onset_ns\":{},",
            "\"base_seed\":{}}},\n"
        ),
        config.base.shards,
        config.base.sources,
        config.horizon.as_nanos(),
        config.base.queue_capacity,
        config.base.service_cost.as_nanos(),
        tenancy.window.as_nanos(),
        tenancy.global_budget,
        budgets,
        config.victim_mean.as_nanos(),
        config.overlay_mean.as_nanos(),
        config.overlay_onset.as_nanos(),
        base_seed,
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, record) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!("    {}{}\n", record.fragment, comma));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        concat!(
            "  \"totals\": {{\"scenarios\":{},\"identity_scenarios\":{},",
            "\"hier_violations\":{},\"flat_violations\":{},",
            "\"group_budget_violations\":{},\"global_budget_violations\":{},",
            "\"worst_victim_shed_permille\":{},\"flat_victim_lost\":{}}},\n"
        ),
        records.len(),
        identity.len(),
        hier_violations,
        flat_violations,
        group_budget_violations,
        global_budget_violations,
        worst_victim_shed,
        flat_victim_lost,
    ));
    out.push_str(&format!(
        "  \"verdict\": {{\"hier_clean\":{hier_clean},\"tenant_isolated\":{tenant_isolated},\"flat_ablation_broken\":{flat_ablation_broken},\"budgets_clean\":{budgets_clean},\"pass\":{pass}}}\n",
    ));
    out.push_str("}\n");
    out
}
