//! Divergence-detecting checkpoint replay.
//!
//! [`record_scenario`] drives one campaign machine to the horizon slot
//! boundary by slot boundary, recording the machine's
//! [`state_hash`](rthv::Machine::state_hash) at every boundary and a full
//! [`MachineSnapshot`] every [`ReplayConfig::checkpoint_every`] boundaries.
//! The snapshots share the run's recorded history, so each costs what the
//! machine's live state costs. [`verify_from`] then resumes the run from
//! the nearest checkpoint at or before a chosen slot and compares hashes
//! boundary by boundary, then the finished [`RunReport`] with `==`: the
//! first mismatch is reported as [`Violation::ReplayDivergence`] carrying
//! the diverging slot, both hashes (for the report, digests of its `Debug`
//! rendering, computed only on a mismatch), and the scenario seed that
//! reproduces the run.
//!
//! Because scenario plans are pure seed functions and the machine is a
//! pure function of `(config, plan)`, a clean replay proves the recorded
//! `RunReport` is reproducible from its inputs; a divergence pinpoints
//! *when* the re-execution first went off the recorded trajectory — at
//! slot granularity, not merely "the final report differs".

use rthv::time::Instant;
use rthv::{Machine, MachineSnapshot, RunReport, SupervisionPolicy};

use crate::campaign::{scenario_machine, CampaignConfig, CampaignConfigError};
use crate::inject::FaultScenario;
use crate::oracle::Violation;

/// Why a replay verification failed: the re-execution diverged from the
/// recording. The configuration needs no second check: the recording
/// validated it when it built the machine, and the replay resumes that
/// machine's checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The re-execution went off the recorded trajectory; always a
    /// [`Violation::ReplayDivergence`].
    Divergence(Violation),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Divergence(violation) => write!(f, "replay diverged: {violation}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// How a scenario is recorded and replayed.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Run with the real δ⁻ monitor (`true`) or the admit-everything
    /// baseline shaper (`false`).
    pub monitored: bool,
    /// Runtime health supervision for the run, if any.
    pub supervision: Option<SupervisionPolicy>,
    /// Keep a full machine snapshot every this many slot boundaries (the
    /// initial state is always checkpoint 0). Must be non-zero.
    pub checkpoint_every: u64,
}

impl Default for ReplayConfig {
    /// Monitored, unsupervised, a checkpoint every 8 slot boundaries.
    fn default() -> Self {
        ReplayConfig {
            monitored: true,
            supervision: None,
            checkpoint_every: 8,
        }
    }
}

/// The recording of one scenario run: per-boundary state hashes, periodic
/// checkpoints, and the finished [`RunReport`].
#[derive(Debug, Clone)]
pub struct ReplayTrace {
    seed: u64,
    /// `boundary_hashes[k - 1]` is the state hash after processing every
    /// event up to and including slot boundary `k`.
    boundary_hashes: Vec<u64>,
    /// Snapshots keyed by the boundary index they were taken at; always
    /// starts with `(0, <initial state>)`.
    checkpoints: Vec<(u64, MachineSnapshot)>,
    /// The finished run's report; a replay must reproduce it exactly,
    /// record buffers in full, beyond the per-boundary length+last summary
    /// inside `state_hash`.
    report: RunReport,
}

impl ReplayTrace {
    /// The scenario seed that reproduces this run.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Slot boundaries recorded before the horizon.
    #[must_use]
    pub fn boundaries(&self) -> u64 {
        self.boundary_hashes.len() as u64
    }

    /// Full checkpoints kept (including the initial state).
    #[must_use]
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.len() as u64
    }

    /// The finished run's report.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        &self.report
    }
}

/// Runs one scenario to the horizon, recording boundary hashes and
/// periodic checkpoints.
///
/// # Errors
///
/// [`CampaignConfigError`] if `replay.checkpoint_every` is zero or the
/// campaign platform configuration is invalid.
pub fn record_scenario(
    config: &CampaignConfig,
    scenario: &FaultScenario,
    replay: &ReplayConfig,
) -> Result<ReplayTrace, CampaignConfigError> {
    if replay.checkpoint_every == 0 {
        return Err(CampaignConfigError::ZeroCheckpointPeriod);
    }
    let plan = scenario.plan(config.horizon, config.setup.bottom_cost);
    let mut machine = scenario_machine(config, &plan, replay.monitored, replay.supervision)?;
    let horizon = Instant::ZERO + config.horizon;

    let mut checkpoints = vec![(0, machine.snapshot())];
    let mut boundary_hashes = Vec::new();
    let mut k = 1u64;
    while machine.schedule().boundary_time(k) <= horizon {
        machine.run_until(machine.schedule().boundary_time(k));
        boundary_hashes.push(machine.state_hash());
        if k.is_multiple_of(replay.checkpoint_every) {
            checkpoints.push((k, machine.snapshot()));
        }
        k += 1;
    }
    machine.run_until(horizon);
    Ok(ReplayTrace {
        seed: scenario.seed,
        boundary_hashes,
        checkpoints,
        report: machine.finish(),
    })
}

/// Re-executes the recorded run from its initial state and checks every
/// slot boundary. Equivalent to [`verify_from`] with `from_slot = 0`.
///
/// # Errors
///
/// The first diverging boundary, as [`ReplayError::Divergence`].
pub fn verify(
    config: &CampaignConfig,
    scenario: &FaultScenario,
    replay: &ReplayConfig,
    trace: &ReplayTrace,
) -> Result<(), ReplayError> {
    verify_from(config, scenario, replay, trace, 0)
}

/// Re-executes the recorded run from the nearest checkpoint at or before
/// slot boundary `from_slot`, comparing the machine's state hash against
/// the recording at every subsequent boundary and the finished report at
/// the horizon.
///
/// The replay resumes the checkpoint's own machine
/// ([`MachineSnapshot::resume`]): a checkpoint holds the whole machine,
/// configuration and pending plan arrivals included, so the replay
/// regenerates nothing. `config` sets the horizon; the scenario and replay
/// configuration the trace was recorded with are not read again.
///
/// # Errors
///
/// The first diverging boundary, as [`ReplayError::Divergence`] carrying
/// a [`Violation::ReplayDivergence`] with `(slot, expected hash, actual
/// hash, scenario seed)` — slot `boundaries() + 1` for a report-only
/// divergence at the horizon.
pub fn verify_from(
    config: &CampaignConfig,
    _scenario: &FaultScenario,
    _replay: &ReplayConfig,
    trace: &ReplayTrace,
    from_slot: u64,
) -> Result<(), ReplayError> {
    verify_from_with(config, trace, from_slot, |_, _| {})
}

/// [`verify_from`] with a state-mutation hook, called as `mutate(k,
/// &mut machine)` right before the replay executes the segment ending at
/// boundary `k`. The no-op hook is the production path; tests inject
/// mid-run corruption through it and assert the oracle pins the first
/// diverging slot.
///
/// # Errors
///
/// See [`verify_from`].
pub fn verify_from_with(
    config: &CampaignConfig,
    trace: &ReplayTrace,
    from_slot: u64,
    mut mutate: impl FnMut(u64, &mut Machine),
) -> Result<(), ReplayError> {
    let (start, snapshot) = trace
        .checkpoints
        .iter()
        .rev()
        .find(|(k, _)| *k <= from_slot)
        .expect("checkpoint 0 always exists");

    let mut machine = snapshot.resume();
    let horizon = Instant::ZERO + config.horizon;

    for k in (start + 1)..=trace.boundaries() {
        mutate(k, &mut machine);
        machine.run_until(machine.schedule().boundary_time(k));
        let actual = machine.state_hash();
        let expected = trace.boundary_hashes[(k - 1) as usize];
        if actual != expected {
            return Err(ReplayError::Divergence(Violation::ReplayDivergence {
                slot: k,
                expected,
                actual,
                seed: trace.seed,
            }));
        }
    }

    // Past the last boundary: the report comparison covers the full record
    // buffers (completions, admissions, spans), catching any tail-only
    // divergence the length+last boundary hash could miss.
    mutate(trace.boundaries() + 1, &mut machine);
    machine.run_until(horizon);
    check_report(trace, &machine.finish())
}

/// Compares a replay's finished report with the recorded one. Equal
/// reports cost one structural `==`; only a mismatch renders both reports
/// to fill the divergence's `(expected, actual)` digests, at slot
/// `boundaries() + 1`.
fn check_report(trace: &ReplayTrace, report: &RunReport) -> Result<(), ReplayError> {
    if *report == trace.report {
        return Ok(());
    }
    Err(ReplayError::Divergence(Violation::ReplayDivergence {
        slot: trace.boundaries() + 1,
        expected: report_digest(&trace.report),
        actual: report_digest(report),
        seed: trace.seed,
    }))
}

/// 64-bit FNV-1a over a report's `Debug` rendering.
fn report_digest(report: &RunReport) -> u64 {
    let rendering = format!("{report:?}");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendering.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::FaultKind;
    use rthv::time::Duration;
    use rthv::{IrqHandlingMode, IrqSourceId};

    fn config() -> CampaignConfig {
        CampaignConfig {
            horizon: Duration::from_millis(200),
            scenarios: Vec::new(),
            ..CampaignConfig::default()
        }
    }

    fn storm() -> FaultScenario {
        FaultScenario {
            id: 0,
            kind: FaultKind::IrqStorm {
                period: Duration::from_micros(300),
            },
            seed: 0xFA,
        }
    }

    #[test]
    fn clean_replay_verifies_from_every_checkpoint() {
        let config = config();
        let replay = ReplayConfig::default();
        let trace = record_scenario(&config, &storm(), &replay).expect("valid config");
        assert!(trace.boundaries() > 10);
        assert!(trace.checkpoints() > 1);
        for from_slot in [0, 1, 7, 8, 9, trace.boundaries()] {
            assert_eq!(
                verify_from(&config, &storm(), &replay, &trace, from_slot),
                Ok(()),
                "from_slot={from_slot}"
            );
        }
    }

    /// The benchmark's unit: every standard scenario at the default 500 ms
    /// horizon, recorded, then verified from the start, the middle and the
    /// last boundary.
    #[test]
    fn standard_scenarios_replay_from_start_middle_and_end() {
        let config = CampaignConfig {
            scenarios: Vec::new(),
            ..CampaignConfig::default()
        };
        assert_eq!(config.horizon, Duration::from_millis(500));
        let replay = ReplayConfig::default();
        for scenario in crate::standard_scenarios(21, 0x5107) {
            let label = scenario.label();
            let trace = record_scenario(&config, &scenario, &replay).expect("valid config");
            assert!(trace.boundaries() > 0, "{label}");
            assert_eq!(
                trace.checkpoints(),
                trace.boundaries() / replay.checkpoint_every + 1,
                "{label}"
            );
            for from_slot in [0, trace.boundaries() / 2, trace.boundaries()] {
                assert_eq!(
                    verify_from(&config, &scenario, &replay, &trace, from_slot),
                    Ok(()),
                    "{label} from slot {from_slot}"
                );
            }
        }
    }

    #[test]
    fn supervised_replay_verifies() {
        let config = config();
        let replay = ReplayConfig {
            supervision: Some(rthv::SupervisionPolicy::default()),
            ..ReplayConfig::default()
        };
        let trace = record_scenario(&config, &storm(), &replay).expect("valid config");
        assert_eq!(verify(&config, &storm(), &replay, &trace), Ok(()));
    }

    #[test]
    fn zero_checkpoint_period_is_a_typed_error() {
        let replay = ReplayConfig {
            checkpoint_every: 0,
            ..ReplayConfig::default()
        };
        assert!(matches!(
            record_scenario(&config(), &storm(), &replay),
            Err(CampaignConfigError::ZeroCheckpointPeriod)
        ));
    }

    #[test]
    fn injected_mutation_is_pinned_to_its_slot() {
        let config = config();
        let replay = ReplayConfig::default();
        let trace = record_scenario(&config, &storm(), &replay).expect("valid config");

        // Corrupt the machine right before the segment ending at boundary
        // 11: a δ⁻ swap silently changes future admissions. The oracle
        // must report slot 11 — not the end of the run.
        let verdict = verify_from_with(&config, &trace, 0, |k, machine| {
            if k == 11 {
                let delta = rthv::monitor::DeltaFunction::from_dmin(Duration::from_millis(9))
                    .expect("valid δ⁻");
                assert!(machine.set_monitor_delta(IrqSourceId::new(0), delta));
            }
        });
        match verdict {
            Err(ReplayError::Divergence(Violation::ReplayDivergence {
                slot,
                expected,
                actual,
                seed,
            })) => {
                assert_eq!(slot, 11);
                assert_ne!(expected, actual);
                assert_eq!(seed, 0xFA);
            }
            other => panic!("expected a replay divergence, got {other:?}"),
        }
    }

    #[test]
    fn report_only_divergence_is_pinned_past_the_last_boundary() {
        let config = config();
        let replay = ReplayConfig::default();
        let trace = record_scenario(&config, &storm(), &replay).expect("valid config");
        let end_slot = trace.boundaries() + 1;

        // Mutations made after the last boundary hash never reach a
        // boundary check: only the report comparison can catch them.
        let extra_irq = |machine: &mut Machine| {
            let now = machine.now();
            machine
                .schedule_irq(IrqSourceId::new(0), now)
                .expect("not in the past");
        };
        let baseline = |machine: &mut Machine| machine.set_mode(IrqHandlingMode::Baseline);
        let mutations: [&dyn Fn(&mut Machine); 2] = [&extra_irq, &baseline];
        for (i, mutation) in mutations.into_iter().enumerate() {
            let verdict = verify_from_with(&config, &trace, trace.boundaries(), |k, machine| {
                if k == end_slot {
                    mutation(machine);
                }
            });
            match verdict {
                Err(ReplayError::Divergence(Violation::ReplayDivergence {
                    slot,
                    expected,
                    actual,
                    seed,
                })) => {
                    assert_eq!(slot, end_slot, "mutation {i}");
                    assert_ne!(expected, actual, "mutation {i}");
                    assert_eq!(seed, 0xFA);
                }
                other => panic!("mutation {i}: expected a replay divergence, got {other:?}"),
            }
        }
    }

    #[test]
    fn divergence_json_is_integer_only() {
        let v = Violation::ReplayDivergence {
            slot: 11,
            expected: 0xDEAD,
            actual: 0xBEEF,
            seed: 7,
        };
        assert_eq!(v.slug(), "replay-divergence");
        assert_eq!(
            v.to_json(),
            r#"{"kind":"replay-divergence","slot":11,"expected":57005,"actual":48879,"seed":7}"#
        );
        assert!(!v.to_json().contains('.'));
    }
}
