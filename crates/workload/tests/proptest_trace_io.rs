//! Property test for checksummed trace files: a trace written with
//! `write_trace_file`, then arbitrary bytes, every strict prefix of the
//! file and a single-byte change at every offset of it, fed to
//! `read_trace` and `read_trace_file`. Neither reader may panic, and
//! `read_trace_file` may never return a trace other than the one written.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use rthv_time::Instant;
use rthv_workload::{read_trace, read_trace_file, write_trace_file, ArrivalTrace};

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "rthv-proptest-trace-io-{}-{name}",
        std::process::id()
    ));
    path
}

/// Stores `bytes` at `path` and reads them back through both readers:
/// the lenient one must not panic, the verified one must fail or return
/// exactly `written`.
fn read_back(path: &Path, bytes: &[u8], written: &ArrivalTrace, what: &str) {
    let _ = read_trace(bytes);
    std::fs::write(path, bytes).expect("write damaged file");
    if let Ok(trace) = read_trace_file(path) {
        assert_eq!(&trace, written, "{what} read back as another trace");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn damaged_trace_files_never_read_back_as_another_trace(
        gaps in prop::collection::vec(prop_oneof![0u64..4, 0u64..1_000_000_000_000], 0..24),
        noise in prop::collection::vec(0u8..=255, 0..200),
        salt in any::<u64>(),
    ) {
        let arrivals = gaps
            .iter()
            .scan(0u64, |at, gap| {
                *at += gap;
                Some(Instant::from_nanos(*at))
            })
            .collect();
        let trace = ArrivalTrace::new(arrivals).expect("cumulative gaps are ordered");
        let path = temp_path("damaged.trace");
        write_trace_file(&path, &trace).expect("write trace file");
        let stored = std::fs::read(&path).expect("read back");
        prop_assert_eq!(read_trace_file(&path).expect("intact file"), trace.clone());
        prop_assert_eq!(read_trace(stored.as_slice()).expect("lenient read"), trace.clone());

        // Arbitrary bytes: a typed error or some trace, never a panic.
        let _ = read_trace(noise.as_slice());
        std::fs::write(&path, &noise).expect("write noise");
        let _ = read_trace_file(&path);

        for cut in 0..stored.len() {
            read_back(&path, &stored[..cut], &trace, &format!("prefix {cut}"));
        }
        for at in 0..stored.len() {
            let mut damaged = stored.clone();
            let delta = 1 + (salt.rotate_left(at as u32 % 64) % 255) as u8;
            damaged[at] = damaged[at].wrapping_add(delta);
            read_back(&path, &damaged, &trace, &format!("change {delta:+} at {at}"));
        }
        std::fs::remove_file(&path).expect("cleanup");
    }
}
