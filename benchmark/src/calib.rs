//! Host-speed calibration.
//!
//! Host speed on a shared machine drifts by up to 2× over minutes while the
//! simulator's work stays fixed, so every timing is scaled by the time of a
//! fixed calibration kernel measured next to it, to a fixed nominal host
//! speed; [`scale`] gives the factor. The README's calibration section
//! holds the evidence for the kernel and the per-workload elasticities.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// The kernel time, in ms, that defines the nominal host speed. A host on
/// which the kernel takes exactly this long reports raw times unchanged.
pub const NOMINAL_MS: f64 = 5.0;

/// Keys in the kernel's ordered map, and random remove-or-insert steps on it.
const MAP_KEYS: u64 = 24_000;
const MAP_STEPS: u32 = 12_000;

/// Keys in the kernel's heap, and branchy pop/push steps on it.
const HEAP_KEYS: usize = 24_576;
const HEAP_STEPS: u32 = 20_000;

/// SplitMix64 step: the benchmark's only random-number source.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The calibration kernel, about 5 ms on the reference host: a fixed
/// sequence of random steps on a `BTreeMap` and a `BinaryHeap` of a few
/// hundred KiB each. Std only, so no change to the repository's crates can
/// move it.
fn kernel() -> u64 {
    let mut state = 0x5EED_CA1B;
    let mut acc = 0u64;

    let mut map: BTreeMap<u64, u64> = (0..MAP_KEYS)
        .map(|i| (splitmix(&mut state) % (4 * MAP_KEYS), i))
        .collect();
    for _ in 0..MAP_STEPS {
        let key = splitmix(&mut state) % (4 * MAP_KEYS);
        match map.remove(&key) {
            Some(value) => acc ^= value,
            None => {
                map.insert(key, acc);
            }
        }
    }
    acc = acc.wrapping_add(map.len() as u64);

    let mut heap: BinaryHeap<Reverse<u64>> = (0..HEAP_KEYS)
        .map(|_| Reverse(splitmix(&mut state) >> 16))
        .collect();
    for _ in 0..HEAP_STEPS {
        let Reverse(top) = heap.pop().expect("the heap never drains");
        let r = splitmix(&mut state);
        acc = acc.wrapping_add(top);
        match r & 3 {
            0 => heap.push(Reverse(top + (r >> 40))),
            1 => {
                heap.push(Reverse(top + (r >> 44)));
                let Reverse(next) = heap.pop().expect("the heap never drains");
                acc ^= next;
                heap.push(Reverse(next + (r >> 48)));
            }
            _ => heap.push(Reverse(top.wrapping_add(r >> 36))),
        }
    }
    acc
}

/// One calibration point: one timed kernel call, in ms.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// Factor that turns a raw time measured between calibration points
/// `before` and `after` (both in ms) into nominal-host time, for a workload
/// whose time grows as the kernel's time to the power `elasticity`.
pub fn scale(before: f64, after: f64, elasticity: f64) -> f64 {
    (NOMINAL_MS / (0.5 * (before + after))).powf(elasticity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scale_is_identity_at_nominal_speed() {
        assert_eq!(scale(NOMINAL_MS, NOMINAL_MS, 1.2), 1.0);
        // A host twice as slow reads twice as long raw, so halves it.
        assert_eq!(scale(2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS, 1.0), 0.5);
        // The two calibration points around a segment are averaged.
        assert_eq!(scale(4.0, 6.0, 1.0), 1.0);
        // A workload more sensitive than the kernel is scaled harder.
        assert_eq!(scale(2.0 * NOMINAL_MS, 2.0 * NOMINAL_MS, 2.0), 0.25);
    }
}
