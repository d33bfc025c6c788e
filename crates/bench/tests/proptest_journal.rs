//! Property tests for every journal codec — `ScenarioOutcome`,
//! `SupervisedScenarioOutcome`, `ScenarioRecord`, `TenantRecord` and
//! `SmpRecord` — and for the checksummed journal file layer under them.
//!
//! For each record type: decode(encode) is the record and re-encodes
//! byte-identically; arbitrary bytes, every strict prefix and every
//! single-byte change of an encoded line decode to a typed error or a
//! record, never a panic (a strict prefix is always an error); and once
//! the line is journaled, no truncation or single-byte change of the
//! stored bytes reads back as a line at all.

use std::path::PathBuf;

use proptest::prelude::*;
use rthv::time::{Duration, Instant};
use rthv_admit::{
    ArmOutcome, BrownoutLevel, ShardCounters, StormOutcome, TenantCounters, TenantLedger,
    TenantOutcome,
};
use rthv_experiments::{read_complete_lines, verified_lines, Journal, Record};
use rthv_faults::{
    ModeOutcome, ScenarioOutcome, SmpArm, SmpCase, SmpOutcome, SupervisedModeOutcome,
    SupervisedScenarioOutcome, Violation,
};

/// Random words a record is built from, handed out in order.
struct Words(Vec<u64>, usize);

impl Words {
    fn next(&mut self) -> u64 {
        self.1 += 1;
        self.0[(self.1 - 1) % self.0.len()]
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    fn flag(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// A latency in ns, or the `-1` "nothing completed" sentinel.
    fn latency(&mut self) -> i64 {
        if self.flag() {
            -1
        } else {
            (self.next() >> 1) as i64
        }
    }
}

/// Label-shaped text: the space-separated record lines need labels
/// without spaces, as every generated scenario label is.
fn label() -> impl Strategy<Value = String> {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_";
    prop::collection::vec(0..ALPHABET.len(), 1..24)
        .prop_map(|ix| ix.iter().map(|&i| char::from(ALPHABET[i])).collect())
}

fn words() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(any::<u64>(), 64)
}

fn noise() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..=255, 0..200)
}

fn violation(w: &mut Words, context: &str) -> Violation {
    let (a, b) = (w.next(), w.next());
    match w.below(13) {
        0 => Violation::DeltaDistance {
            index: a as usize,
            at: Instant::from_nanos(b),
            violated_distance: w.below(8) as usize,
        },
        1 => Violation::WindowCount {
            width: Duration::from_nanos(a),
            start: Instant::from_nanos(b),
            observed: w.next(),
            allowed: w.next(),
        },
        2 => Violation::WindowOverrun {
            start: Instant::from_nanos(a),
            length: Duration::from_nanos(b),
            allowed: Duration::from_nanos(w.next()),
        },
        3 => Violation::IrqLost {
            scheduled: a,
            accounted: b,
        },
        4 => Violation::Defect {
            context: context.to_string(),
        },
        5 => Violation::Independence {
            core: a as usize,
            victim: b as usize,
            lost: Duration::from_nanos(w.next()),
            bound: Duration::from_nanos(w.next()),
        },
        6 => Violation::QuarantineOnNominal {
            source: a as usize,
            at: Instant::from_nanos(b),
        },
        7 => Violation::UnjustifiedQuarantine {
            source: a as usize,
            at: Instant::from_nanos(b),
        },
        8 => Violation::PrematureRecovery {
            source: a as usize,
            at: Instant::from_nanos(b),
            elapsed: Duration::from_nanos(w.next()),
            window: Duration::from_nanos(w.next()),
        },
        9 => Violation::ReplayDivergence {
            slot: a,
            expected: b,
            actual: w.next(),
            seed: w.next(),
        },
        10 => Violation::TenantConservation {
            tenant: a as usize,
            expected: b,
            accounted: w.next(),
        },
        11 => Violation::GroupBudget {
            tenant: a as usize,
            start: Instant::from_nanos(b),
            observed: w.next(),
            allowed: w.next(),
        },
        _ => Violation::GlobalBudget {
            start: Instant::from_nanos(a),
            observed: b,
            allowed: w.next(),
        },
    }
}

fn violations(w: &mut Words, context: &str) -> Vec<Violation> {
    (0..w.below(4)).map(|_| violation(w, context)).collect()
}

fn mode(w: &mut Words, context: &str) -> ModeOutcome {
    ModeOutcome {
        monitored: w.flag(),
        completions: w.next(),
        interposed_windows: w.next(),
        monitor_denied: w.next(),
        overflow_rejected: w.next(),
        overflow_dropped: w.next(),
        coalesced: w.next(),
        outstanding: w.next(),
        expired_windows: w.next(),
        worst_victim_loss: Duration::from_nanos(w.next()),
        independence_bound: Duration::from_nanos(w.next()),
        violations: violations(w, context),
    }
}

fn arm(w: &mut Words) -> ArmOutcome {
    const KINDS: [&str; 4] = [
        "delta-distance",
        "global-budget",
        "group-budget",
        "irq-lost",
    ];
    let nothing_completed = w.flag();
    let latency = |w: &mut Words| if nothing_completed { -1 } else { w.latency() };
    ArmOutcome {
        counters: ShardCounters {
            scheduled: w.next(),
            admitted: w.next(),
            denied: w.next(),
            shed_queue_full: w.below(1 << 60),
            shed_stalled: w.below(1 << 60),
            shed_demoted: w.below(1 << 60),
            shed_quarantined: w.below(1 << 60),
            lost_in_flight: w.next(),
            completed: w.next(),
            retries: w.next(),
            crashes: w.next(),
            stalls: w.next(),
            checkpoints: w.next(),
            journal_replayed: w.next(),
        },
        violations: w.below(1 << 62),
        violation_kinds: KINDS[..w.below(5) as usize].to_vec(),
        shed_permille: w.next(),
        p50_latency_ns: latency(w),
        p99_latency_ns: latency(w),
        max_latency_ns: latency(w),
    }
}

fn ledger(w: &mut Words) -> TenantLedger {
    let levels = [
        BrownoutLevel::Nominal,
        BrownoutLevel::Shrunk,
        BrownoutLevel::BestEffort,
        BrownoutLevel::Quarantined,
    ];
    TenantLedger {
        counters: TenantCounters {
            scheduled: w.next(),
            admitted: w.next(),
            denied_source: w.next(),
            denied_group: w.next(),
            denied_global: w.next(),
            shed_queue_full: w.next(),
            shed_stalled: w.next(),
            shed_demoted: w.next(),
            shed_quarantined: w.next(),
            lost_in_flight: w.next(),
            completed: w.next(),
            retries: w.next(),
            rescued: w.next(),
        },
        in_flight_at_end: w.next(),
        final_level: levels[w.below(4) as usize],
        escalations: w.next(),
        recoveries: w.next(),
        headroom_at_end: w.next(),
    }
}

fn smp_case(w: &mut Words) -> SmpCase {
    SmpCase {
        arm: if w.flag() {
            SmpArm::HierAffinity
        } else {
            SmpArm::RoundRobin
        },
        cores: 1 << w.below(3),
        violations: w.below(1 << 60),
        victim_digest: w.next(),
        sheds: w.below(1 << 60),
        lost: w.below(1 << 60),
        ipi_in: w.next(),
        failover_in: w.next(),
        stall_deferrals: w.next(),
        crashed: w.below(4) as u32,
        ledger_ok: w.flag(),
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "rthv-proptest-journal-{}-{name}",
        std::process::id()
    ));
    path
}

/// The whole property for one record: codec, then file layer.
fn check<R: Record>(record: &R, noise: &[u8], salt: u64, name: &str) {
    let line = record.encode();
    assert!(!line.contains(['\n', '\t']), "payload must stay one field");
    let decoded = R::decode(&line).expect("an encoded record decodes");
    assert_eq!(&decoded, record);
    assert_eq!(decoded.encode(), line, "re-encoding must be byte-identical");

    let _ = R::decode(&String::from_utf8_lossy(noise));
    if let Ok(text) = std::str::from_utf8(noise) {
        let _ = R::decode(text);
    }
    for cut in (0..line.len()).filter(|&cut| line.is_char_boundary(cut)) {
        assert!(R::decode(&line[..cut]).is_err(), "prefix {cut} decoded");
    }
    let changed = |bytes: &[u8], at: usize| {
        let mut bytes = bytes.to_vec();
        let delta = 1 + (salt.rotate_left(at as u32 % 64) % 255) as u8;
        bytes[at] = bytes[at].wrapping_add(delta);
        bytes
    };
    for at in 0..line.len() {
        if let Ok(text) = String::from_utf8(changed(line.as_bytes(), at)) {
            let _ = R::decode(&text);
        }
    }

    let path = temp_path(name);
    let _ = std::fs::remove_file(&path);
    Journal::open_append(&path)
        .expect("open")
        .append(&line)
        .expect("append");
    let stored = std::fs::read(&path).expect("read back");
    assert_eq!(verified_lines(&stored), vec![line.clone()]);
    for cut in 0..stored.len() {
        assert!(verified_lines(&stored[..cut]).is_empty(), "cut {cut} read");
    }
    for at in 0..stored.len() {
        let damaged = changed(&stored, at);
        assert!(verified_lines(&damaged).is_empty(), "change at {at} read");
    }
    // Through real files: damage the stored line, then resume-append the
    // record again; only the fresh copy reads back.
    let at = (salt % stored.len() as u64) as usize;
    let cut = (salt.rotate_left(32) % stored.len() as u64) as usize;
    for damaged in [changed(&stored, at), stored[..cut].to_vec()] {
        std::fs::write(&path, &damaged).expect("write damage");
        assert!(read_complete_lines(&path).expect("read").is_empty());
        Journal::open_append(&path)
            .expect("reopen")
            .append(&line)
            .expect("append");
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec![line.clone()]
        );
    }
    std::fs::remove_file(&path).expect("cleanup");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn scenario_outcome_journal_lines(
        label in ".{0,16}",
        seed in any::<u64>(),
        words in words(),
        noise in noise(),
        salt in any::<u64>(),
    ) {
        let w = &mut Words(words, 0);
        let outcome = ScenarioOutcome {
            label: label.clone(),
            seed,
            scheduled: w.next(),
            monitored: mode(w, &label),
            unmonitored: mode(w, &label),
        };
        check(&outcome, &noise, salt, "scenario-outcome");
    }

    #[test]
    fn supervised_outcome_journal_lines(
        label in ".{0,16}",
        seed in any::<u64>(),
        words in words(),
        noise in noise(),
        salt in any::<u64>(),
    ) {
        let w = &mut Words(words, 0);
        let outcome = SupervisedScenarioOutcome {
            label: label.clone(),
            seed,
            scheduled: w.next(),
            baseline: mode(w, &label),
            supervised: SupervisedModeOutcome {
                mode: mode(w, &label),
                quarantines: w.next(),
                recoveries: w.next(),
                demoted_arrivals: w.next(),
                shrunk_windows: w.next(),
                supervision_violations: violations(w, &label),
            },
        };
        check(&outcome, &noise, salt, "supervised-outcome");
    }

    #[test]
    fn storm_record_journal_lines(
        label in label(),
        seed in any::<u64>(),
        words in words(),
        noise in noise(),
        salt in any::<u64>(),
    ) {
        let w = &mut Words(words, 0);
        let outcome = StormOutcome {
            label,
            seed,
            crash_family: w.flag(),
            flood_family: w.flag(),
            failover: arm(w),
            baseline: arm(w),
        };
        check(&outcome.record(), &noise, salt, "storm-record");
    }

    #[test]
    fn smp_record_journal_lines(
        label in label(),
        seed in any::<u64>(),
        words in words(),
        noise in noise(),
        salt in any::<u64>(),
    ) {
        let w = &mut Words(words, 0);
        let outcome = SmpOutcome {
            label,
            seed,
            identity_family: w.flag(),
            breakage_family: w.flag(),
            cases: (0..w.below(4)).map(|_| smp_case(w)).collect(),
            ablation: smp_case(w),
            snapshot: None,
        };
        check(&outcome.record(), &noise, salt, "smp-record");
    }
}

proptest! {
    // Tenant lines are the longest (three arms plus ledgers), and every
    // case decodes each of their single-byte changes: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn tenant_record_journal_lines(
        label in label(),
        seed in any::<u64>(),
        words in words(),
        noise in noise(),
        salt in any::<u64>(),
    ) {
        let w = &mut Words(words, 0);
        let outcome = TenantOutcome {
            label,
            seed,
            identity_family: w.flag(),
            hier_isolated: w.flag(),
            flat_violates: w.flag(),
            group_budget_violations: w.next(),
            global_budget_violations: w.next(),
            victim_shed_permille: w.next(),
            aggressor_level: ["nominal", "shrunk", "quarantined"][w.below(3) as usize],
            victim_admitted_hier_calm: w.next(),
            victim_admitted_hier_storm: w.next(),
            victim_admitted_flat_calm: w.next(),
            victim_admitted_flat_storm: w.next(),
            hier_calm: arm(w),
            hier_storm: arm(w),
            flat_storm: arm(w),
            tenants: (0..w.below(3)).map(|_| ledger(w)).collect(),
        };
        check(&outcome.record(), &noise, salt, "tenant-record");
    }
}
