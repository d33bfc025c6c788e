//! One driver for the fault-campaign binaries: `campaign`, `supervised`,
//! `admit_storm` (flat and `--tenants`) and `smp_storm`. Each binary is a
//! [`Campaign`] impl plus a `main` that parses its [`Cli`] and calls
//! [`drive`]; everything else lives here, once.
//!
//! Every campaign binary takes `[report-path] [scenario-count] [base-seed]`
//! (`supervised` takes no count), its own switches (`--smoke`,
//! `--tenants`), and these flags:
//!
//! * `--journal <path>` — append each completed scenario to a journal
//!   the moment it finishes (checksummed lines, see [`crate::journal`]).
//! * `--resume <path>` — load the scenarios already in a journal, matched
//!   by label *and* seed, instead of re-running them. Every scenario is
//!   pure in `(config, seed)` and the codecs are lossless, so a resumed
//!   report is byte-identical to an uninterrupted run: `--resume` can
//!   never change a published number, only skip work.
//! * `--abort-after <n>` — crash-test hook: `abort()` right after the
//!   n-th journal append of this run is flushed.
//! * `--metrics <path>` — re-run the first scenario with the flight
//!   recorder on and write its deterministic metrics snapshot. Metrics are
//!   pure observation: the report is unchanged, and where the observation
//!   reproduces a record the driver asserts it equals the report's.
//!
//! Scenarios fan across host cores with [`SweepRunner`]. When more than
//! one thread ran or anything was resumed, a campaign of at most eight
//! scenarios is re-executed sequentially and the report must match byte
//! for byte — a determinism self-check that also cross-checks every
//! resumed record.
//!
//! Exit codes: 0 the verdict passes; 1 the verdict fails, or the run is
//! refused before any scenario starts (invalid campaign config,
//! unreadable resume journal); 2 usage error — nothing ran and no file
//! was written.

use std::error::Error;
use std::fmt::Debug;
use std::path::PathBuf;
use std::process::ExitCode;

use rthv_admit::{ScenarioRecord, TenantRecord};
use rthv_faults::{JournalError, ScenarioOutcome, SmpRecord, SupervisedScenarioOutcome};

use crate::journal::{read_complete_lines, Journal};
use crate::runner::SweepRunner;

/// One fault campaign: its scenarios, how one runs to a journaled
/// [`Record`], and how records become a report and a verdict.
pub trait Campaign: Sync {
    /// One seeded scenario.
    type Scenario: Sync;
    /// What a scenario distils to: journaled, resumed and assembled.
    type Record: Record;

    /// Report path when none is given.
    const REPORT: &'static str;

    /// The scenarios, in report order.
    fn scenarios(&self) -> &[Self::Scenario];
    /// A scenario's resume key, `(label, seed)`: its record's
    /// [`Record::key`].
    fn key(scenario: &Self::Scenario) -> (String, u64);
    /// Runs one scenario.
    fn run(&self, scenario: &Self::Scenario) -> Self::Record;
    /// The report bytes for records in scenario order.
    fn assemble(&self, records: &[Self::Record]) -> String;
    /// Re-runs `scenario` with metrics on: the snapshot bytes, plus the
    /// record the observed run produced when it is comparable to
    /// [`run`](Campaign::run)'s.
    fn observe(&self, scenario: &Self::Scenario) -> (String, Option<Self::Record>);
    /// Prints the campaign's summary to stderr and judges the report.
    ///
    /// # Errors
    ///
    /// Every failure, one message each, when the verdict fails; `Ok`
    /// says why it passes.
    fn verdict(&self, records: &[Self::Record], report: &str) -> Result<&'static str, Vec<String>>;
}

/// A journaled scenario result: its resume key and its journal line codec.
pub trait Record: Clone + Debug + PartialEq + Send + Sync + Sized {
    /// `(label, seed)`.
    fn key(&self) -> (&str, u64);
    /// The journal line payload.
    fn encode(&self) -> String;
    /// Decodes an [`encode`](Record::encode)d payload.
    ///
    /// # Errors
    ///
    /// [`JournalError`] naming what failed.
    fn decode(line: &str) -> Result<Self, JournalError>;
}

macro_rules! records {
    ($($record:ty: $encode:ident, $decode:ident;)*) => {$(
        impl Record for $record {
            fn key(&self) -> (&str, u64) {
                (&self.label, self.seed)
            }
            fn encode(&self) -> String {
                self.$encode()
            }
            fn decode(line: &str) -> Result<Self, JournalError> {
                Self::$decode(line)
            }
        }
    )*};
}

records! {
    ScenarioOutcome: to_journal_json, from_journal_json;
    SupervisedScenarioOutcome: to_journal_json, from_journal_json;
    ScenarioRecord: to_journal_line, from_journal_line;
    TenantRecord: to_journal_line, from_journal_line;
    SmpRecord: to_journal_line, from_journal_line;
}

/// What a binary's command line accepts besides `[report-path]` and
/// `--metrics <path>`.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Binary name, prefixed to every message.
    pub name: &'static str,
    /// Takes a `[scenario-count]` after the report path?
    pub count: bool,
    /// Takes a `[base-seed]` after that?
    pub seed: bool,
    /// Takes `--journal`, `--resume` and `--abort-after`?
    pub journal: bool,
    /// Boolean switches, e.g. `--smoke`.
    pub switches: &'static [&'static str],
}

/// A parsed command line.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Args {
    /// Report path.
    pub path: Option<String>,
    /// Scenario count (never zero).
    pub count: Option<u32>,
    /// Base seed.
    pub seed: Option<u64>,
    /// Switches given, in order.
    pub switches: Vec<&'static str>,
    /// `--journal`.
    pub journal: Option<PathBuf>,
    /// `--resume`.
    pub resume: Option<PathBuf>,
    /// `--abort-after`.
    pub abort_after: Option<u64>,
    /// `--metrics`.
    pub metrics: Option<PathBuf>,
}

impl Args {
    /// Whether `switch` was given.
    #[must_use]
    pub fn switch(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }
}

impl Cli {
    /// The one-line usage.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut usage = format!("usage: {} [report-path]", self.name);
        if self.count {
            usage.push_str(" [scenario-count]");
        }
        if self.seed {
            usage.push_str(" [base-seed]");
        }
        for switch in self.switches {
            usage.push_str(&format!(" [{switch}]"));
        }
        if self.journal {
            usage.push_str(" [--journal <path>] [--resume <path>] [--abort-after <n>]");
        }
        usage + " [--metrics <path>]"
    }

    /// Parses an argument list (without the program name).
    ///
    /// # Errors
    ///
    /// What is wrong: an unknown flag, a flag without its value or given
    /// twice, a non-numeric or zero count, a non-numeric seed or
    /// `--abort-after`, or an extra positional argument.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let number = |what: &str, text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{what} must be a number, got '{text}'"))
        };
        let mut parsed = Args::default();
        let mut positional = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if let Some(switch) = self.switches.iter().find(|s| **s == arg) {
                parsed.switches.push(switch);
                continue;
            }
            let journal_flag = matches!(arg.as_str(), "--journal" | "--resume" | "--abort-after");
            if !(arg == "--metrics" || self.journal && journal_flag) {
                if arg.starts_with('-') {
                    return Err(format!("unknown flag '{arg}'"));
                }
                positional.push(arg);
                continue;
            }
            let value = args
                .next()
                .ok_or_else(|| format!("{arg} requires a value"))?;
            let taken = match arg.as_str() {
                "--journal" => parsed.journal.replace(value.into()).is_some(),
                "--resume" => parsed.resume.replace(value.into()).is_some(),
                "--metrics" => parsed.metrics.replace(value.into()).is_some(),
                _ => parsed.abort_after.replace(number(&arg, &value)?).is_some(),
            };
            if taken {
                return Err(format!("{arg} given twice"));
            }
        }
        let mut positional = positional.into_iter();
        parsed.path = positional.next();
        if self.count {
            if let Some(text) = positional.next() {
                let count = text.parse::<u32>().ok().filter(|&count| count > 0);
                let error = || format!("scenario count must be a positive number, got '{text}'");
                parsed.count = Some(count.ok_or_else(error)?);
            }
        }
        if self.seed {
            parsed.seed = positional
                .next()
                .map(|s| number("base seed", &s))
                .transpose()?;
        }
        match positional.next() {
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
            None => Ok(parsed),
        }
    }

    /// Parses the process arguments; on a usage error, prints it with the
    /// usage line and exits with status 2.
    #[must_use]
    pub fn args(&self) -> Args {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|message| {
                eprintln!("{}: {message}\n{}", self.name, self.usage());
                std::process::exit(2)
            })
    }
}

/// Runs a campaign end to end: builds the campaign (`build` validates its
/// config), resumes, sweeps, journals,
/// self-checks, writes the report and `--metrics` snapshot, and maps the
/// verdict to the exit code (see the module docs).
pub fn drive<C: Campaign>(
    cli: &Cli,
    args: &Args,
    build: impl FnOnce() -> Result<C, Box<dyn Error>>,
) -> ExitCode {
    sweep(cli.name, args, build).unwrap_or_else(|error| {
        eprintln!("{}: {error}", cli.name);
        ExitCode::FAILURE
    })
}

/// The verdict of a report that carries its own `"totals"` and
/// `"verdict"` blocks: prints both, and passes when `passes`, saying `why`.
///
/// # Errors
///
/// One message when the report's verdict fails.
pub fn report_verdict(
    report: &str,
    passes: bool,
    why: &'static str,
) -> Result<&'static str, Vec<String>> {
    let summary = ["  \"totals\"", "  \"verdict\""];
    for line in report
        .lines()
        .filter(|l| summary.iter().any(|s| l.starts_with(s)))
    {
        eprintln!("{line}");
    }
    passes
        .then_some(why)
        .ok_or_else(|| vec!["the report's verdict block fails".into()])
}

fn sweep<C: Campaign>(
    name: &str,
    args: &Args,
    build: impl FnOnce() -> Result<C, Box<dyn Error>>,
) -> Result<ExitCode, Box<dyn Error>> {
    // Fail loudly on a bad config before any scenario runs.
    let campaign = build()?;
    let scenarios = campaign.scenarios();

    // Completed records from the resume journal, aligned to the scenario
    // list by (label, seed): a journal from another seed or count resumes
    // nothing rather than corrupting the report.
    let mut resumed = vec![None; scenarios.len()];
    if let Some(path) = &args.resume {
        let lines = read_complete_lines(path)
            .map_err(|e| format!("cannot read resume journal {}: {e}", path.display()))?;
        let completed: Vec<C::Record> = lines
            .iter()
            .filter_map(|line| {
                C::Record::decode(line)
                    .map_err(|e| eprintln!("{name}: ignoring journal line: {e}"))
                    .ok()
            })
            .collect();
        for (slot, scenario) in resumed.iter_mut().zip(scenarios) {
            let (label, seed) = C::key(scenario);
            *slot = completed
                .iter()
                .find(|r| r.key() == (&label, seed))
                .cloned();
        }
    }
    let journal = args.journal.as_deref().map(Journal::open_append);
    let journal = journal
        .transpose()
        .map_err(|e| format!("cannot open journal: {e}"))?;

    let runner = SweepRunner::available();
    let records = runner.run(scenarios, |index, scenario| {
        if let Some(done) = &resumed[index] {
            return done.clone();
        }
        let record = campaign.run(scenario);
        if let Some(journal) = &journal {
            let appended = journal.append(&record.encode()).expect("journal append");
            if args.abort_after.is_some_and(|limit| appended >= limit) {
                // Crash-test hook: die without unwinding or cleanup —
                // exactly the failure the resume path must survive.
                eprintln!("{name}: --abort-after {appended} reached, aborting");
                std::process::abort();
            }
        }
        record
    });
    let report = campaign.assemble(&records);

    let resumed_count = resumed.iter().flatten().count();
    if (runner.threads() > 1 || resumed_count > 0) && scenarios.len() <= 8 {
        let reference = SweepRunner::sequential().run(scenarios, |_, s| campaign.run(s));
        assert_eq!(
            campaign.assemble(&reference),
            report,
            "parallel/resumed {name} report diverged from sequential re-execution"
        );
    }

    let path = args.path.as_deref().unwrap_or(C::REPORT);
    std::fs::write(path, &report).map_err(|e| format!("cannot write {path}: {e}"))?;
    if let Some(metrics) = &args.metrics {
        let (snapshot, observed) = campaign.observe(&scenarios[0]);
        if let Some(observed) = observed {
            assert_eq!(
                observed, records[0],
                "metrics instrumentation changed a scenario outcome"
            );
        }
        std::fs::write(metrics, snapshot)
            .map_err(|e| format!("cannot write {}: {e}", metrics.display()))?;
        eprintln!("{name}: metrics snapshot -> {}", metrics.display());
    }

    eprintln!(
        "{name}: {} scenarios ({resumed_count} resumed) on {} thread(s) -> {path}",
        records.len(),
        runner.threads(),
    );
    let verdict = campaign.verdict(&records, &report);
    match &verdict {
        Ok(pass) => eprintln!("PASS: {pass}"),
        Err(failures) => failures.iter().for_each(|f| eprintln!("FAIL: {f}")),
    }
    Ok(verdict.map_or(ExitCode::FAILURE, |_| ExitCode::SUCCESS))
}

#[cfg(test)]
mod tests {
    use super::*;

    const STORM: Cli = Cli {
        name: "storm",
        count: true,
        seed: true,
        journal: true,
        switches: &["--smoke"],
    };

    const EXPORT: Cli = Cli {
        name: "bench_export",
        count: false,
        seed: false,
        journal: false,
        switches: &[],
    };

    fn parse(cli: &Cli, args: &str) -> Result<Args, String> {
        cli.parse(args.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_positionals_switches_and_flags_in_any_order() {
        let line = "out.json --journal j 7 --smoke --resume r --abort-after 3 42 --metrics m";
        let args = parse(&STORM, line).expect("valid");
        let expected = Args {
            path: Some("out.json".into()),
            count: Some(7),
            seed: Some(42),
            switches: vec!["--smoke"],
            journal: Some("j".into()),
            resume: Some("r".into()),
            abort_after: Some(3),
            metrics: Some("m".into()),
        };
        assert_eq!(args, expected);
        assert!(args.switch("--smoke") && !args.switch("--tenants"));
        assert_eq!(parse(&STORM, ""), Ok(Args::default()));
        assert!(parse(&EXPORT, "out.json --metrics m").is_ok());
        assert_eq!(
            EXPORT.usage(),
            "usage: bench_export [report-path] [--metrics <path>]"
        );
    }

    #[test]
    fn rejects_every_malformed_command_line() {
        for bad in [
            "out.json seven",
            "out.json 0",
            "out.json -3",
            "out.json 4294967296",
            "out.json 3 x",
            "out.json 3 1 extra",
            "out.json 3 1 --bogus-flag",
            "--resum j",
            "--tenants",
            "--journal",
            "--metrics",
            "--abort-after three",
            "--resume a --resume b",
            "--metrics a --metrics b",
        ] {
            assert!(parse(&STORM, bad).is_err(), "accepted {bad:?}");
        }
        let seed_only = Cli {
            count: false,
            ..STORM
        };
        assert_eq!(parse(&seed_only, "out.json 5").unwrap().seed, Some(5));
        for bad in ["out.json x", "out.json 5 6"] {
            assert!(parse(&seed_only, bad).is_err(), "accepted {bad:?}");
        }
        for bad in [
            "out.json 5",
            "--journal j",
            "--resume j",
            "--abort-after 1",
            "--smoke",
        ] {
            assert!(parse(&EXPORT, bad).is_err(), "accepted {bad:?}");
        }
    }
}
