//! Open-loop multi-source floods for the sharded admission fleet.
//!
//! The fleet in `rthv-admit` multiplexes many dense source ids over sharded
//! δ⁻ monitor arenas; its storm campaigns drive it with *open-loop* traffic
//! — arrivals keep coming at the configured rate no matter how the fleet
//! answers, which is exactly the regime where graceful degradation (typed
//! sheds, ladder demotion) must hold. Two generators:
//!
//! * [`open_loop_flood`] — every source emits an independent Poisson stream
//!   ([`ExponentialArrivals`]) with its own derived seed;
//! * [`ecu_fleet`] — every source emits a jittered-periodic-plus-CAN-burst
//!   trace ([`AutomotiveTraceBuilder::typical_ecu`]), the Appendix-A
//!   workload multiplied across a fleet.
//!
//! Both are pure functions of their spec: per-source streams are merged
//! into one schedule sorted by `(time, source)`, so the merged flood is
//! byte-identical across hosts and — because a source's own sub-stream
//! never depends on the merge — across shard counts.

use rthv_time::{Duration, Instant};

use crate::{AutomotiveTraceBuilder, ExponentialArrivals};

/// One arrival of a multi-source flood: when it fires and which dense
/// source id raised it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodEvent {
    /// Hardware interrupt timestamp.
    pub at: Instant,
    /// Dense source id in `0..sources`.
    pub source: u32,
}

/// Geometry of an open-loop Poisson flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodSpec {
    /// Number of independent sources.
    pub sources: u32,
    /// Mean interarrival time per source.
    pub mean: Duration,
    /// Generation horizon; every arrival satisfies `at < horizon`.
    pub horizon: Duration,
    /// Base seed; each source derives its own stream seed from it.
    pub seed: u64,
}

/// Expands a [`FloodSpec`] into the merged arrival schedule: one seeded
/// exponential stream per source (gaps clamped to ≥ 1 ns so each source's
/// own timestamps stay strictly increasing), truncated at the horizon and
/// merged in `(time, source)` order.
///
/// # Panics
///
/// Panics if the spec has zero sources, a zero mean or a zero horizon.
#[must_use]
pub fn open_loop_flood(spec: &FloodSpec) -> Vec<FloodEvent> {
    assert!(spec.sources > 0, "flood needs at least one source");
    assert!(!spec.horizon.is_zero(), "flood horizon must be positive");
    let (expected, cap) = stream_cap(spec.horizon, spec.mean);
    let mut events = Vec::with_capacity(expected * spec.sources as usize);
    for source in 0..spec.sources {
        let stream = ExponentialArrivals::new(spec.mean, derive_seed(spec.seed, source))
            .with_min_distance(Duration::from_nanos(1))
            .stream(Instant::ZERO);
        collect_until(&mut events, stream.take(cap), source, spec.horizon);
    }
    merge(events)
}

/// An automotive fleet: `sources` independent typical-ECU traces
/// ([`AutomotiveTraceBuilder::typical_ecu`] — jittered periodics plus
/// sporadic CAN bursts), each with a derived seed, truncated at `horizon`
/// and merged in `(time, source)` order.
///
/// # Panics
///
/// Panics if `sources` is zero or `horizon` is zero.
#[must_use]
pub fn ecu_fleet(sources: u32, horizon: Duration, seed: u64) -> Vec<FloodEvent> {
    assert!(sources > 0, "fleet needs at least one source");
    assert!(!horizon.is_zero(), "fleet horizon must be positive");
    // The typical ECU mixture averages roughly one arrival per 2 ms over
    // its periodic tasks and bursts; oversample and truncate like the flood.
    let expected = (horizon.as_nanos() / 2_000_000).max(1) as usize;
    let count = expected * 2 + 32;
    let mut events = Vec::with_capacity(expected * sources as usize);
    for source in 0..sources {
        let trace = AutomotiveTraceBuilder::typical_ecu(derive_seed(seed, source)).build(count);
        collect_until(&mut events, trace.iter().copied(), source, horizon);
    }
    merge(events)
}

/// Geometry of a tenant flood overlay: extra Poisson traffic poured onto a
/// contiguous range of sources (one tenant's slice of the fleet) from an
/// onset instant — the aggressor half of an isolation experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlaySpec {
    /// First source receiving overlay traffic.
    pub first_source: u32,
    /// Number of consecutive sources receiving overlay traffic.
    pub sources: u32,
    /// Mean interarrival time per overlaid source.
    pub mean: Duration,
    /// Overlay onset; no overlay arrival fires before it.
    pub onset: Duration,
    /// Generation horizon; every arrival satisfies `at < horizon`.
    pub horizon: Duration,
    /// Base seed; each overlaid source derives its own stream seed.
    pub seed: u64,
}

/// Merges `base` with an aggressor overlay: every source in
/// `[first_source, first_source + sources)` gains an independent seeded
/// Poisson stream starting at `onset`. Sources outside the range keep
/// their base sub-streams byte-identical (overlay seeds derive from
/// `(spec.seed, source)` only), which is the property tenant-isolation
/// experiments rest on.
///
/// # Panics
///
/// Panics if the overlay has zero sources or its onset is at/after the
/// horizon.
#[must_use]
pub fn flood_overlay(base: &[FloodEvent], spec: &OverlaySpec) -> Vec<FloodEvent> {
    assert!(spec.sources > 0, "overlay needs at least one source");
    assert!(
        spec.onset < spec.horizon,
        "overlay onset must precede the horizon"
    );
    let (expected, cap) = stream_cap(spec.horizon - spec.onset, spec.mean);
    let mut events = Vec::with_capacity(base.len() + expected * spec.sources as usize);
    events.extend_from_slice(base);
    for source in spec.first_source..spec.first_source + spec.sources {
        // A distinct lane space (high bit) keeps overlay streams
        // independent of the base flood's per-source streams.
        let lane_seed = derive_seed(spec.seed ^ 0x0E7A_11AD, source);
        let stream = ExponentialArrivals::new(spec.mean, lane_seed)
            .with_min_distance(Duration::from_nanos(1))
            .stream(Instant::ZERO + spec.onset);
        collect_until(&mut events, stream.take(cap), source, spec.horizon);
    }
    merge(events)
}

/// The expected arrivals of one Poisson stream over `span`, and the cap on
/// the samples it may draw: 2× the expected count plus slack for seed
/// variance, so the horizon, not the cap, ends every stream.
fn stream_cap(span: Duration, mean: Duration) -> (usize, usize) {
    let expected = (span.as_nanos() / mean.as_nanos().max(1)) as usize;
    (expected, expected * 2 + 32)
}

/// Appends `(at, source)` events for every timestamp before the first one
/// at or past the horizon; nothing after it is read, so a lazy stream
/// draws no further sample.
fn collect_until(
    events: &mut Vec<FloodEvent>,
    times: impl Iterator<Item = Instant>,
    source: u32,
    horizon: Duration,
) {
    let end = Instant::ZERO + horizon;
    events.extend(
        times
            .take_while(|&at| at < end)
            .map(|at| FloodEvent { at, source }),
    );
}

/// Sorts by `(time, source)`. Ties across sources are allowed — the fleet
/// breaks them by schedule order, which this sort pins — but a single
/// source's sub-stream is already strictly increasing by construction.
/// Events with equal keys are equal values (an overlay may repeat a base
/// event), so the unstable sort yields the one sorted vector.
fn merge(mut events: Vec<FloodEvent>) -> Vec<FloodEvent> {
    events.sort_unstable_by_key(|e| (e.at, e.source));
    events
}

/// Splitmix64 finalizer over `(base, lane)` — the same independent-stream
/// seed derivation the fault campaign uses for scenario seeds.
fn derive_seed(base: u64, lane: u32) -> u64 {
    let mut z = base ^ u64::from(lane).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HORIZON: Duration = Duration::from_millis(50);

    fn spec() -> FloodSpec {
        FloodSpec {
            sources: 8,
            mean: Duration::from_millis(1),
            horizon: HORIZON,
            seed: 0xF100D,
        }
    }

    #[test]
    fn flood_is_a_pure_seed_function() {
        let a = open_loop_flood(&spec());
        let b = open_loop_flood(&spec());
        assert_eq!(a, b);
        let c = open_loop_flood(&FloodSpec {
            seed: 0xF100E,
            ..spec()
        });
        assert_ne!(a, c, "flood ignores its seed");
    }

    #[test]
    fn flood_is_sorted_and_inside_horizon() {
        let events = open_loop_flood(&spec());
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!((pair[0].at, pair[0].source) < (pair[1].at, pair[1].source));
        }
        assert!(events.last().unwrap().at < Instant::ZERO + HORIZON);
    }

    #[test]
    fn per_source_substreams_are_strictly_increasing() {
        for events in [open_loop_flood(&spec()), ecu_fleet(6, HORIZON, 0x000E_C0FA)] {
            let sources = events.iter().map(|e| e.source).max().unwrap() + 1;
            for s in 0..sources {
                let times: Vec<Instant> = events
                    .iter()
                    .filter(|e| e.source == s)
                    .map(|e| e.at)
                    .collect();
                assert!(!times.is_empty(), "source {s} silent");
                for pair in times.windows(2) {
                    assert!(pair[0] < pair[1], "source {s} not strictly increasing");
                }
            }
        }
    }

    #[test]
    fn flood_rate_tracks_the_mean() {
        let events = open_loop_flood(&spec());
        // 8 sources × 50 ms / 1 ms ≈ 400 arrivals; the ≥ 1 ns clamp barely
        // shifts the effective mean.
        let expected = 400.0;
        let ratio = events.len() as f64 / expected;
        assert!((0.8..1.2).contains(&ratio), "rate off: {}", events.len());
    }

    #[test]
    fn overlay_leaves_other_sources_byte_identical() {
        let base = open_loop_flood(&spec());
        let overlay = OverlaySpec {
            first_source: 4,
            sources: 4,
            mean: Duration::from_micros(100),
            onset: Duration::from_millis(10),
            horizon: HORIZON,
            seed: 0xA66_0E55,
        };
        let flooded = flood_overlay(&base, &overlay);
        assert!(flooded.len() > base.len(), "overlay added nothing");
        for s in 0..4 {
            let a: Vec<Instant> = base
                .iter()
                .filter(|e| e.source == s)
                .map(|e| e.at)
                .collect();
            let b: Vec<Instant> = flooded
                .iter()
                .filter(|e| e.source == s)
                .map(|e| e.at)
                .collect();
            assert_eq!(a, b, "overlay moved untargeted source {s}");
        }
        for e in &flooded {
            if !base.contains(e) {
                assert!(
                    (4..8).contains(&e.source),
                    "overlay hit source {}",
                    e.source
                );
                assert!(
                    e.at >= Instant::ZERO + overlay.onset,
                    "overlay before onset"
                );
            }
        }
    }

    #[test]
    fn overlay_is_a_pure_seed_function() {
        let base = open_loop_flood(&spec());
        let overlay = OverlaySpec {
            first_source: 0,
            sources: 2,
            mean: Duration::from_micros(200),
            onset: Duration::from_millis(5),
            horizon: HORIZON,
            seed: 1,
        };
        let a = flood_overlay(&base, &overlay);
        let b = flood_overlay(&base, &overlay);
        assert_eq!(a, b);
        let c = flood_overlay(&base, &OverlaySpec { seed: 2, ..overlay });
        assert_ne!(a, c, "overlay ignores its seed");
    }

    #[test]
    fn sources_are_independent_streams() {
        // Doubling the fleet keeps the original sources' sub-streams
        // byte-identical: stream seeds derive from (seed, source), not from
        // fleet size — the property shard-count invariance rests on.
        let small = open_loop_flood(&spec());
        let big = open_loop_flood(&FloodSpec {
            sources: 16,
            ..spec()
        });
        for s in 0..8 {
            let a: Vec<Instant> = small
                .iter()
                .filter(|e| e.source == s)
                .map(|e| e.at)
                .collect();
            let b: Vec<Instant> = big.iter().filter(|e| e.source == s).map(|e| e.at).collect();
            assert_eq!(a, b, "source {s} stream depends on fleet size");
        }
    }
}
