//! Complete one-line JSON round-trips for campaign scenario outcomes.
//!
//! The campaign reports ([`CampaignReport::to_json`]) summarize some
//! fields (e.g. the supervised report emits only a *count* of supervision
//! violations), so they cannot reconstruct an outcome. The journal format
//! here is lossless: every field of [`ScenarioOutcome`] and
//! [`SupervisedScenarioOutcome`] — including full violation lists — is
//! emitted on one line and parsed back bit-identically. A resumable sweep
//! runner appends one journal line per finished scenario; on `--resume`
//! the parsed outcomes replace re-execution and the assembled report is
//! byte-identical to an uninterrupted run.
//!
//! The fleet and platform campaigns journal a different line shape —
//! `label seed <numbers and flags…> <report fragment>` — decoded through
//! [`LineFields`], so every journal codec fails the same typed way.
//!
//! [`CampaignReport::to_json`]: crate::campaign::CampaignReport::to_json

use std::fmt;
use std::fmt::Write as _;

use rthv::time::{Duration, Instant};

use crate::campaign::{ModeOutcome, ScenarioOutcome};
use crate::json::Json;
use crate::oracle::Violation;
use crate::supervised::{SupervisedModeOutcome, SupervisedScenarioOutcome};

/// Why a journal line could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The line is not syntactically valid JSON (typically torn by a
    /// crash mid-append).
    Parse(String),
    /// The line parsed but a required field is missing or has the wrong
    /// type.
    Field(&'static str),
    /// A violation object carries an unknown `kind`.
    UnknownViolation(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Parse(detail) => write!(f, "journal line is not valid JSON: {detail}"),
            JournalError::Field(field) => {
                write!(f, "journal line misses or mistypes field '{field}'")
            }
            JournalError::UnknownViolation(kind) => {
                write!(f, "journal line has unknown violation kind '{kind}'")
            }
        }
    }
}

impl std::error::Error for JournalError {}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn field<'a>(v: &'a Json, key: &'static str) -> Result<&'a Json, JournalError> {
    v.get(key).ok_or(JournalError::Field(key))
}

fn num(v: &Json, key: &'static str) -> Result<u64, JournalError> {
    field(v, key)?.as_u64().ok_or(JournalError::Field(key))
}

fn duration(v: &Json, key: &'static str) -> Result<Duration, JournalError> {
    Ok(Duration::from_nanos(num(v, key)?))
}

fn instant(v: &Json, key: &'static str) -> Result<Instant, JournalError> {
    Ok(Instant::from_nanos(num(v, key)?))
}

fn string(v: &Json, key: &'static str) -> Result<String, JournalError> {
    Ok(field(v, key)?
        .as_str()
        .ok_or(JournalError::Field(key))?
        .to_string())
}

fn violations(v: &Json, key: &'static str) -> Result<Vec<Violation>, JournalError> {
    field(v, key)?
        .as_array()
        .ok_or(JournalError::Field(key))?
        .iter()
        .map(violation_from_json)
        .collect()
}

/// Decodes one violation object ([`Violation::to_json`] is the encoder).
fn violation_from_json(v: &Json) -> Result<Violation, JournalError> {
    let kind = string(v, "kind")?;
    Ok(match kind.as_str() {
        "delta-distance" => Violation::DeltaDistance {
            index: num(v, "index")? as usize,
            at: instant(v, "at_ns")?,
            violated_distance: num(v, "violated_distance")? as usize,
        },
        "window-count" => Violation::WindowCount {
            width: duration(v, "width_ns")?,
            start: instant(v, "start_ns")?,
            observed: num(v, "observed")?,
            allowed: num(v, "allowed")?,
        },
        "window-overrun" => Violation::WindowOverrun {
            start: instant(v, "start_ns")?,
            length: duration(v, "length_ns")?,
            allowed: duration(v, "allowed_ns")?,
        },
        "irq-lost" => Violation::IrqLost {
            scheduled: num(v, "scheduled")?,
            accounted: num(v, "accounted")?,
        },
        "defect" => Violation::Defect {
            context: string(v, "context")?,
        },
        "independence" => Violation::Independence {
            core: num(v, "core")? as usize,
            victim: num(v, "victim")? as usize,
            lost: duration(v, "lost_ns")?,
            bound: duration(v, "bound_ns")?,
        },
        "quarantine-on-nominal" => Violation::QuarantineOnNominal {
            source: num(v, "source")? as usize,
            at: instant(v, "at_ns")?,
        },
        "unjustified-quarantine" => Violation::UnjustifiedQuarantine {
            source: num(v, "source")? as usize,
            at: instant(v, "at_ns")?,
        },
        "premature-recovery" => Violation::PrematureRecovery {
            source: num(v, "source")? as usize,
            at: instant(v, "at_ns")?,
            elapsed: duration(v, "elapsed_ns")?,
            window: duration(v, "window_ns")?,
        },
        "replay-divergence" => Violation::ReplayDivergence {
            slot: num(v, "slot")?,
            expected: num(v, "expected")?,
            actual: num(v, "actual")?,
            seed: num(v, "seed")?,
        },
        "tenant-conservation" => Violation::TenantConservation {
            tenant: num(v, "tenant")? as usize,
            expected: num(v, "expected")?,
            accounted: num(v, "accounted")?,
        },
        "group-budget" => Violation::GroupBudget {
            tenant: num(v, "tenant")? as usize,
            start: instant(v, "start_ns")?,
            observed: num(v, "observed")?,
            allowed: num(v, "allowed")?,
        },
        "global-budget" => Violation::GlobalBudget {
            start: instant(v, "start_ns")?,
            observed: num(v, "observed")?,
            allowed: num(v, "allowed")?,
        },
        _ => return Err(JournalError::UnknownViolation(kind)),
    })
}

/// Reads a record journal line field by field — the one decoder behind
/// every `label seed <numbers and 0/1 flags…> <fragment>` line
/// (`ScenarioRecord`, `TenantRecord`, [`SmpRecord`]). Fields are single
/// spaces apart; the fragment is the rest of the line, the record's report
/// JSON spliced verbatim into the assembled report. Every error names the
/// field that failed.
///
/// [`SmpRecord`]: crate::smp::SmpRecord
#[derive(Debug, Clone)]
pub struct LineFields<'a> {
    rest: &'a str,
}

impl<'a> LineFields<'a> {
    /// Starts reading `line` at its first field.
    #[must_use]
    pub fn new(line: &'a str) -> Self {
        LineFields { rest: line }
    }

    /// The next non-empty space-terminated field.
    ///
    /// # Errors
    ///
    /// [`JournalError::Field`] naming `field` when the line ends first.
    pub fn text(&mut self, field: &'static str) -> Result<&'a str, JournalError> {
        match self.rest.split_once(' ') {
            Some((text, rest)) if !text.is_empty() => {
                self.rest = rest;
                Ok(text)
            }
            _ => Err(JournalError::Field(field)),
        }
    }

    /// The next field as a decimal `u64` (digits only).
    ///
    /// # Errors
    ///
    /// [`JournalError::Field`] naming `field` when it is missing, not all
    /// digits, or out of range.
    pub fn num(&mut self, field: &'static str) -> Result<u64, JournalError> {
        let text = self.text(field)?;
        if !text.bytes().all(|b| b.is_ascii_digit()) {
            return Err(JournalError::Field(field));
        }
        text.parse().map_err(|_| JournalError::Field(field))
    }

    /// The next field as a `0`/`1` flag.
    ///
    /// # Errors
    ///
    /// [`JournalError::Field`] naming `field` for anything but `0` or `1`.
    pub fn flag(&mut self, field: &'static str) -> Result<bool, JournalError> {
        match self.text(field)? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(JournalError::Field(field)),
        }
    }

    /// The rest of the line as the record's report fragment: one JSON
    /// object whose `label` and `seed` are the line's own, so a torn line
    /// run into the next can never pass for a record.
    ///
    /// # Errors
    ///
    /// [`JournalError::Field`]`("fragment")` otherwise.
    pub fn fragment(self, label: &str, seed: u64) -> Result<String, JournalError> {
        let json = Json::parse_fragment(self.rest).map_err(|_| JournalError::Field("fragment"))?;
        if json.get("label").and_then(Json::as_str) != Some(label)
            || json.get("seed").and_then(Json::as_u64) != Some(seed)
        {
            return Err(JournalError::Field("fragment"));
        }
        Ok(self.rest.to_owned())
    }
}

fn mode_to_json(mode: &ModeOutcome) -> String {
    let violations: Vec<String> = mode.violations.iter().map(Violation::to_json).collect();
    format!(
        concat!(
            r#"{{"monitored":{},"completions":{},"interposed_windows":{},"#,
            r#""monitor_denied":{},"overflow_rejected":{},"overflow_dropped":{},"#,
            r#""coalesced":{},"outstanding":{},"expired_windows":{},"#,
            r#""worst_victim_loss_ns":{},"independence_bound_ns":{},"violations":[{}]}}"#
        ),
        u64::from(mode.monitored),
        mode.completions,
        mode.interposed_windows,
        mode.monitor_denied,
        mode.overflow_rejected,
        mode.overflow_dropped,
        mode.coalesced,
        mode.outstanding,
        mode.expired_windows,
        mode.worst_victim_loss.as_nanos(),
        mode.independence_bound.as_nanos(),
        violations.join(",")
    )
}

fn mode_from_json(v: &Json) -> Result<ModeOutcome, JournalError> {
    Ok(ModeOutcome {
        monitored: num(v, "monitored")? != 0,
        completions: num(v, "completions")?,
        interposed_windows: num(v, "interposed_windows")?,
        monitor_denied: num(v, "monitor_denied")?,
        overflow_rejected: num(v, "overflow_rejected")?,
        overflow_dropped: num(v, "overflow_dropped")?,
        coalesced: num(v, "coalesced")?,
        outstanding: num(v, "outstanding")?,
        expired_windows: num(v, "expired_windows")?,
        worst_victim_loss: duration(v, "worst_victim_loss_ns")?,
        independence_bound: duration(v, "independence_bound_ns")?,
        violations: violations(v, "violations")?,
    })
}

impl ScenarioOutcome {
    /// Encodes the complete outcome as one JSON line (no trailing
    /// newline). Integer-only, deterministic, lossless.
    #[must_use]
    pub fn to_journal_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"label":"{}","seed":{},"scheduled":{},"monitored":{},"unmonitored":{}}}"#,
            escape(&self.label),
            self.seed,
            self.scheduled,
            mode_to_json(&self.monitored),
            mode_to_json(&self.unmonitored),
        );
        out
    }

    /// Decodes a [`to_journal_json`](ScenarioOutcome::to_journal_json)
    /// line.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on torn lines, missing fields, or unknown
    /// violation kinds.
    pub fn from_journal_json(line: &str) -> Result<Self, JournalError> {
        let v = Json::parse(line).map_err(JournalError::Parse)?;
        Ok(ScenarioOutcome {
            label: string(&v, "label")?,
            seed: num(&v, "seed")?,
            scheduled: num(&v, "scheduled")?,
            monitored: mode_from_json(field(&v, "monitored")?)?,
            unmonitored: mode_from_json(field(&v, "unmonitored")?)?,
        })
    }
}

impl SupervisedScenarioOutcome {
    /// Encodes the complete outcome as one JSON line (no trailing
    /// newline). Unlike the campaign report — which collapses supervision
    /// violations to a count — this keeps the full lists.
    #[must_use]
    pub fn to_journal_json(&self) -> String {
        let supervision_violations: Vec<String> = self
            .supervised
            .supervision_violations
            .iter()
            .map(Violation::to_json)
            .collect();
        format!(
            concat!(
                r#"{{"label":"{}","seed":{},"scheduled":{},"baseline":{},"#,
                r#""supervised_mode":{},"quarantines":{},"recoveries":{},"#,
                r#""demoted_arrivals":{},"shrunk_windows":{},"supervision_violations":[{}]}}"#
            ),
            escape(&self.label),
            self.seed,
            self.scheduled,
            mode_to_json(&self.baseline),
            mode_to_json(&self.supervised.mode),
            self.supervised.quarantines,
            self.supervised.recoveries,
            self.supervised.demoted_arrivals,
            self.supervised.shrunk_windows,
            supervision_violations.join(",")
        )
    }

    /// Decodes a
    /// [`to_journal_json`](SupervisedScenarioOutcome::to_journal_json)
    /// line.
    ///
    /// # Errors
    ///
    /// [`JournalError`] on torn lines, missing fields, or unknown
    /// violation kinds.
    pub fn from_journal_json(line: &str) -> Result<Self, JournalError> {
        let v = Json::parse(line).map_err(JournalError::Parse)?;
        Ok(SupervisedScenarioOutcome {
            label: string(&v, "label")?,
            seed: num(&v, "seed")?,
            scheduled: num(&v, "scheduled")?,
            baseline: mode_from_json(field(&v, "baseline")?)?,
            supervised: SupervisedModeOutcome {
                mode: mode_from_json(field(&v, "supervised_mode")?)?,
                quarantines: num(&v, "quarantines")?,
                recoveries: num(&v, "recoveries")?,
                demoted_arrivals: num(&v, "demoted_arrivals")?,
                shrunk_windows: num(&v, "shrunk_windows")?,
                supervision_violations: violations(&v, "supervision_violations")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{idle_reference, run_scenario, CampaignConfig};
    use crate::inject::{FaultKind, FaultScenario};
    use crate::supervised::{
        run_supervised_scenario, supervised_scenarios, SupervisedCampaignConfig,
    };

    fn campaign() -> CampaignConfig {
        CampaignConfig {
            horizon: Duration::from_millis(200),
            scenarios: vec![
                FaultScenario {
                    id: 0,
                    kind: FaultKind::IrqStorm {
                        period: Duration::from_micros(300),
                    },
                    seed: 0xFA,
                },
                FaultScenario {
                    id: 1,
                    kind: FaultKind::BudgetOverrun {
                        period: Duration::from_millis(1),
                        factor: 4,
                    },
                    seed: 0xFB,
                },
            ],
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn scenario_outcomes_round_trip_losslessly() {
        let config = campaign();
        let idle = idle_reference(&config).expect("valid config");
        for scenario in &config.scenarios {
            let outcome = run_scenario(&config, &idle, scenario).expect("valid config");
            let line = outcome.to_journal_json();
            assert!(!line.contains('\n'), "journal lines must be single-line");
            assert!(!line.contains('.'), "journal lines must be integer-only");
            let parsed = ScenarioOutcome::from_journal_json(&line).expect("round-trip");
            assert_eq!(parsed, outcome);
            // And the re-encoding is byte-identical, so resumed reports
            // cannot drift.
            assert_eq!(parsed.to_journal_json(), line);
        }
    }

    #[test]
    fn supervised_outcomes_round_trip_losslessly() {
        let mut config = SupervisedCampaignConfig::default();
        config.base.horizon = Duration::from_millis(250);
        config.base.scenarios = supervised_scenarios(0xFA_2014)
            .into_iter()
            .filter(|s| s.id <= 2)
            .collect();
        let idle = idle_reference(&config.base).expect("valid config");
        for scenario in &config.base.scenarios {
            let outcome = run_supervised_scenario(&config, &idle, scenario).expect("valid config");
            let line = outcome.to_journal_json();
            let parsed = SupervisedScenarioOutcome::from_journal_json(&line).expect("round-trip");
            assert_eq!(parsed, outcome);
            assert_eq!(parsed.to_journal_json(), line);
        }
    }

    #[test]
    fn every_violation_kind_round_trips() {
        let all = vec![
            Violation::DeltaDistance {
                index: 3,
                at: Instant::from_nanos(17),
                violated_distance: 1,
            },
            Violation::WindowCount {
                width: Duration::from_nanos(5),
                start: Instant::from_nanos(9),
                observed: 4,
                allowed: 2,
            },
            Violation::WindowOverrun {
                start: Instant::from_nanos(11),
                length: Duration::from_nanos(50),
                allowed: Duration::from_nanos(30),
            },
            Violation::IrqLost {
                scheduled: 10,
                accounted: 9,
            },
            Violation::Defect {
                context: r#"invariant "window\budget" broke"#.to_string(),
            },
            Violation::Independence {
                core: 1,
                victim: 2,
                lost: Duration::from_nanos(100),
                bound: Duration::from_nanos(90),
            },
            Violation::QuarantineOnNominal {
                source: 0,
                at: Instant::from_nanos(33),
            },
            Violation::UnjustifiedQuarantine {
                source: 1,
                at: Instant::from_nanos(44),
            },
            Violation::PrematureRecovery {
                source: 0,
                at: Instant::from_nanos(55),
                elapsed: Duration::from_nanos(5),
                window: Duration::from_nanos(12),
            },
            Violation::ReplayDivergence {
                slot: 11,
                expected: 1,
                actual: 2,
                seed: 7,
            },
            Violation::TenantConservation {
                tenant: 1,
                expected: 64,
                accounted: 63,
            },
            Violation::GroupBudget {
                tenant: 2,
                start: Instant::from_nanos(66),
                observed: 9,
                allowed: 8,
            },
            Violation::GlobalBudget {
                start: Instant::from_nanos(77),
                observed: 33,
                allowed: 32,
            },
        ];
        for violation in all {
            let json = Json::parse(&violation.to_json()).expect("violation JSON parses");
            assert_eq!(
                violation_from_json(&json).expect("round-trip"),
                violation,
                "{}",
                violation.slug()
            );
        }
    }

    #[test]
    fn record_line_errors_name_the_failing_field() {
        let read = |line: &str| {
            let mut fields = LineFields::new(line);
            let label = fields.text("label")?.to_owned();
            let seed = fields.num("seed")?;
            let flag = fields.flag("flag")?;
            let count = fields.num("count")?;
            Ok((flag, count, fields.fragment(&label, seed)?))
        };
        let fragment = r#"{"label":"x-1","seed":7,"p50":-1,"runs":[{"n":2}]}"#;
        assert_eq!(
            read(&format!("x-1 7 1 42 {fragment}")),
            Ok((true, 42, fragment.to_string()))
        );
        for (line, field) in [
            ("", "label"),
            ("x-1", "label"),
            (" 7 1 42 {}", "label"),
            ("x-1 +7 1 42 {}", "seed"),
            ("x-1 7 2 42 {}", "flag"),
            ("x-1 7 1 4x2 {}", "count"),
            ("x-1 7 1 42", "count"),
            ("x-1 7 1 42 torn", "fragment"),
            ("x-1 7 1 42 {}", "fragment"),
            ("x-1 7 1 42 [1]", "fragment"),
            (r#"x-1 7 1 42 {"label":"x-1","seed":8}"#, "fragment"),
            (r#"x-1 7 1 42 {"label":"y","seed":7}"#, "fragment"),
            // A torn line that the next append ran into.
            (
                r#"x-1 7 1 42 {"label":"x-1","seed":7,"a":{"b":1}x-2 8 0 1 {"label":"x-2","seed":8}}"#,
                "fragment",
            ),
        ] {
            assert_eq!(read(line), Err(JournalError::Field(field)), "{line:?}");
        }
    }

    /// The reader recurses per bracket; a million of them used to
    /// overflow the stack and abort the resuming process.
    #[test]
    fn deeply_nested_line_is_a_parse_error() {
        let line = "[".repeat(1_000_000);
        for decoded in [
            ScenarioOutcome::from_journal_json(&line).err(),
            SupervisedScenarioOutcome::from_journal_json(&line).err(),
        ] {
            assert!(matches!(decoded, Some(JournalError::Parse(_))));
        }
    }

    #[test]
    fn torn_and_mistyped_lines_are_typed_errors() {
        assert!(matches!(
            ScenarioOutcome::from_journal_json(r#"{"label":"x","seed":1,"sched"#),
            Err(JournalError::Parse(_))
        ));
        assert!(matches!(
            ScenarioOutcome::from_journal_json(r#"{"label":"x","seed":1}"#),
            Err(JournalError::Field("scheduled"))
        ));
        assert!(matches!(
            violation_from_json(&Json::parse(r#"{"kind":"no-such-kind"}"#).unwrap()),
            Err(JournalError::UnknownViolation(_))
        ));
    }
}
