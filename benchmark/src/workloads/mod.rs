//! The five workloads. Each is a stream of fixed-work *units* derived from
//! the run seed; the runner times units one by one and checks each unit's
//! output, untimed, right after it.

pub mod admit_fleet;
pub mod checkpoint_replay;
pub mod fault_campaign;
pub mod fig6c;
pub mod smp_platform;

use crate::calib::splitmix;
use crate::trace::Tracer;

/// Names of the workloads, in report order.
pub const NAMES: [&str; 5] = [
    fig6c::NAME,
    fault_campaign::NAME,
    checkpoint_replay::NAME,
    admit_fleet::NAME,
    smp_platform::NAME,
];

/// What the benchmark keeps of one unit's output: a digest of everything
/// the unit computed, and why its correctness check failed, if it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub digest: u64,
    pub failure: Option<String>,
}

impl Verdict {
    /// A verdict that fails with the first `(condition, reason)` pair whose
    /// condition is false.
    pub fn checked(digest: u64, checks: &[(bool, &str)]) -> Verdict {
        Verdict {
            digest,
            failure: checks
                .iter()
                .find(|(ok, _)| !ok)
                .map(|(_, reason)| (*reason).to_string()),
        }
    }
}

/// One workload: how to build its context, derive unit inputs, run a unit
/// through the public API (the timed call), check the output, and run the
/// same unit traced.
pub trait Workload: Sized {
    /// The input of one unit.
    type Unit;
    /// What the timed call returns.
    type Output;

    /// Units in the workload's reference pass. `wall_norm_s` reports the
    /// normalised time of that many units, so it reads the same whether a
    /// run measured a few seconds or a minute.
    const REFERENCE_UNITS: usize;

    /// How this workload's unit time scales with the calibration kernel's
    /// time as host speed drifts: `unit ∝ kernel^ELASTICITY`, fitted on the
    /// reference host (see the README). Normalisation divides by the
    /// kernel's slowdown to this power.
    const ELASTICITY: f64;

    /// Builds everything the units share (configurations, reference runs).
    fn setup(seed: u64) -> Self;

    /// The units of batch `index`: whole cycles of the workload's scenario
    /// families, so every batch carries the same mix.
    fn batch(&self, index: u64) -> Vec<Self::Unit>;

    /// The timed call.
    fn run(&self, unit: &Self::Unit) -> Self::Output;

    /// Digests and checks `output`.
    fn verdict(&self, unit: &Self::Unit, output: Self::Output) -> Verdict;

    /// Runs `unit` again through the same public sub-calls, each inside a
    /// span, plus the layer probes, and returns the same verdict as the
    /// timed call would.
    fn traced(&self, unit: &Self::Unit, tracer: &mut Tracer) -> Verdict;
}

/// Seed of item `item` of batch `batch` in a run with seed `seed`.
pub fn derive_seed(seed: u64, batch: u64, item: u64) -> u64 {
    let mut state = seed ^ batch.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix(&mut state);
    state ^= item.wrapping_mul(0x9FB2_1C65_1E98_DF25);
    splitmix(&mut state)
}

/// 64-bit FNV-1a, the digest the repository's own checks use.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn word(self, word: u64) -> Self {
        self.bytes(&word.to_le_bytes())
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of a value's `Debug` rendering: the repository's report digests
/// use the same form.
pub fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    Fnv::new().bytes(format!("{value:?}").as_bytes()).finish()
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Runs batch 1 of `W` untraced and traced, and returns the untraced
    /// verdicts after asserting the traced ones equal them.
    pub fn smoke<W: Workload>(seed: u64) -> Vec<Verdict> {
        let workload = W::setup(seed);
        let units = workload.batch(1);
        assert!(!units.is_empty());
        let mut tracer = Tracer::new();
        units
            .iter()
            .enumerate()
            .map(|(i, unit)| {
                let output = workload.run(unit);
                let plain = workload.verdict(unit, output);
                tracer.set_unit(i as u64);
                let traced = workload.traced(unit, &mut tracer);
                assert_eq!(plain, traced, "tracing changed unit {i}'s output");
                assert_eq!(plain.failure, None, "unit {i} failed its check");
                plain
            })
            .collect()
    }

    #[test]
    fn seeds_differ_across_batches_and_items() {
        let mut seen = std::collections::HashSet::new();
        for batch in 0..50 {
            for item in 0..50 {
                assert!(seen.insert(derive_seed(1, batch, item)));
            }
        }
        assert_eq!(derive_seed(9, 3, 4), derive_seed(9, 3, 4));
        assert_ne!(derive_seed(9, 3, 4), derive_seed(10, 3, 4));
    }

    #[test]
    fn verdict_reports_first_failed_check() {
        let v = Verdict::checked(1, &[(true, "a"), (false, "b"), (false, "c")]);
        assert_eq!(v.failure.as_deref(), Some("b"));
        assert_eq!(Verdict::checked(1, &[(true, "a")]).failure, None);
    }
}
