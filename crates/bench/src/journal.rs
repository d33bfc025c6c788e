//! Crash-safe scenario journals for resumable campaign runs.
//!
//! A journal is a text file with one line per completed scenario, appended
//! atomically (single `write` + flush under a mutex) as each scenario
//! finishes. Each line is `<payload>\t<checksum>`: the checksum is the
//! payload's FNV-1a hash as 16 lowercase hex digits. If the process dies
//! mid-campaign — panic, OOM kill, `abort()` — the journal holds every
//! scenario completed so far, with at most one torn trailing line (a power
//! cut can also lose lines the OS had not yet written; those scenarios
//! simply re-run). A later run started with `--resume <journal>` loads the
//! completed records and re-executes only the missing scenarios; because
//! every scenario is pure in `(config, seed)`, the resumed report is
//! byte-identical to an uninterrupted run.
//!
//! [`read_complete_lines`] returns only lines whose checksum and UTF-8
//! verify, so a torn tail — even one a later append ran into — or a
//! damaged byte drops that line and its scenario is re-run; it never
//! resumes as a record. Payloads are the typed journal codecs from
//! `rthv-faults` and `rthv-admit` (`ScenarioOutcome::to_journal_json`,
//! `SmpRecord::to_journal_line` and friends); this module only deals in
//! whole lines and stays generic over what they encode.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Mutex;

/// An append-only journal file shared by the sweep's worker threads.
#[derive(Debug)]
pub struct Journal {
    inner: Mutex<JournalInner>,
}

#[derive(Debug)]
struct JournalInner {
    file: File,
    appended: u64,
}

impl Journal {
    /// Opens `path` for appending, creating it (and its parent directory)
    /// if missing. Existing content is preserved so a resumed run can keep
    /// journaling into the same file; a torn trailing line is closed with a
    /// newline first, so the next append starts a line of its own.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory or opening the file.
    pub fn open_append(path: &Path) -> io::Result<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        if file.metadata()?.len() > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last != *b"\n" {
                file.write_all(b"\n")?;
            }
        }
        Ok(Journal {
            inner: Mutex::new(JournalInner { file, appended: 0 }),
        })
    }

    /// Appends one journal line — the payload, its checksum and a newline
    /// — and flushes it, then returns how many lines **this process** has
    /// appended so far. The line goes down in a single `write` call, so a
    /// crash can tear at most the line being written — never reorder or
    /// interleave lines.
    ///
    /// # Errors
    ///
    /// Any I/O error from the write or flush.
    pub fn append(&self, payload: &str) -> io::Result<u64> {
        let line = format!("{payload}\t{:016x}\n", fnv1a(payload.as_bytes()));
        let mut inner = self
            .inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        inner.file.write_all(line.as_bytes())?;
        inner.file.flush()?;
        inner.appended += 1;
        Ok(inner.appended)
    }
}

/// Reads the payload of every *complete*, intact line of a journal, in
/// order. A line counts only if it ends in a newline and both its
/// checksum and its UTF-8 verify: a torn trailing line — the mark of a
/// crash mid-append — and any damaged line are dropped, so the resume path
/// re-runs their scenarios. Validating the payloads is the caller's
/// (typed, per-line) job.
///
/// # Errors
///
/// Any I/O error from reading the file, including it not existing — a
/// missing resume journal is a user error, not an empty campaign.
pub fn read_complete_lines(path: &Path) -> io::Result<Vec<String>> {
    Ok(verified_lines(&std::fs::read(path)?))
}

/// The payloads [`read_complete_lines`] keeps from a journal's bytes.
#[must_use]
pub fn verified_lines(bytes: &[u8]) -> Vec<String> {
    // Whatever follows the last newline is a torn tail (or nothing).
    let Some(end) = bytes.iter().rposition(|&b| b == b'\n') else {
        return Vec::new();
    };
    bytes[..end]
        .split(|&b| b == b'\n')
        .filter_map(|line| {
            let tab = line.iter().rposition(|&b| b == b'\t')?;
            let (payload, checksum) = (&line[..tab], &line[tab + 1..]);
            if checksum != format!("{:016x}", fnv1a(payload)).as_bytes() {
                return None;
            }
            String::from_utf8(payload.to_vec()).ok()
        })
        .collect()
}

/// 64-bit FNV-1a over bytes: any single changed byte changes the hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Renders a [`ScenarioObservation`] — one scenario's monitored and
/// unmonitored metrics snapshots — as a single deterministic JSON file.
/// The embedded snapshots come out of the observability hub
/// byte-identical across runs, so two invocations with the same campaign
/// arguments produce byte-identical files; the `check.sh` smoke pins this
/// with `cmp`.
///
/// [`ScenarioObservation`]: rthv_faults::ScenarioObservation
#[must_use]
pub fn scenario_observation_json(observation: &rthv_faults::ScenarioObservation) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!(
        "  \"scenario\": \"{}\",\n",
        observation.outcome.label
    ));
    out.push_str(&format!("  \"seed\": {},\n", observation.outcome.seed));
    out.push_str("  \"monitored\": ");
    out.push_str(observation.monitored_obs.trim_end());
    out.push_str(",\n  \"unmonitored\": ");
    out.push_str(observation.unmonitored_obs.trim_end());
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("rthv-journal-test-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn append_then_read_round_trips_in_order() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open_append(&path).expect("open");
        assert_eq!(journal.append("{\"a\":1}").expect("append"), 1);
        assert_eq!(journal.append("{\"b\":2}").expect("append"), 2);
        drop(journal);
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn torn_trailing_line_is_dropped_but_interior_lines_survive() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open_append(&path).expect("open");
        journal.append("{\"a\":1}").expect("append");
        journal.append("{\"b\":2}").expect("append");
        drop(journal);
        let mut raw = std::fs::read(&path).expect("read back");
        raw.extend_from_slice(b"{\"torn\":");
        std::fs::write(&path, raw).expect("write torn tail");
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec!["{\"a\":1}".to_string(), "{\"b\":2}".to_string()]
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn reopening_appends_after_existing_lines() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        Journal::open_append(&path)
            .expect("open")
            .append("first")
            .expect("append");
        let second = Journal::open_append(&path).expect("reopen");
        // Per-process count restarts; file content accumulates.
        assert_eq!(second.append("second").expect("append"), 1);
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec!["first".to_string(), "second".to_string()]
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    /// A crash tears the last line; the next run appends after it. The
    /// torn line must not swallow the fresh one, nor pass for a record.
    #[test]
    fn reopening_after_a_torn_tail_starts_a_fresh_line() {
        let path = temp_path("reopen-torn");
        let _ = std::fs::remove_file(&path);
        Journal::open_append(&path)
            .expect("open")
            .append("first")
            .expect("append");
        let mut raw = std::fs::read(&path).expect("read back");
        raw.extend_from_slice(b"second, torn");
        std::fs::write(&path, raw).expect("write torn tail");
        Journal::open_append(&path)
            .expect("reopen")
            .append("third")
            .expect("append");
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec!["first".to_string(), "third".to_string()]
        );
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn damaged_and_non_utf8_lines_are_dropped() {
        let path = temp_path("damaged");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open_append(&path).expect("open");
        for payload in ["one", "two", "three", "four"] {
            journal.append(payload).expect("append");
        }
        drop(journal);
        let mut raw = std::fs::read(&path).expect("read back");
        let second = raw.iter().position(|&b| b == b't').expect("line two");
        raw[second] = 0xFF; // not UTF-8, checksum now wrong too
        let third = raw.iter().position(|&b| b == b'h').expect("line three");
        raw[third] = b'H';
        raw.extend_from_slice(b"\xFF\xFE\tnot-a-checksum\nno checksum\n");
        std::fs::write(&path, &raw).expect("write damage");
        assert_eq!(
            read_complete_lines(&path).expect("read"),
            vec!["one".to_string(), "four".to_string()]
        );
        // A well-checksummed line that is not UTF-8 is dropped as well.
        let payload = [b'o', 0xFF, b'k'];
        let mut line = payload.to_vec();
        line.extend_from_slice(format!("\t{:016x}\n", fnv1a(&payload)).as_bytes());
        assert!(verified_lines(&line).is_empty());
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn missing_journal_is_an_error() {
        assert!(read_complete_lines(&temp_path("missing-never-created")).is_err());
    }
}
