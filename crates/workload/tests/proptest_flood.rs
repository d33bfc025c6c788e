//! Property tests for the flood generators: sampling each source only up to
//! its horizon and merging with an unstable sort yields exactly the flood
//! of the reference construction — `generate(count)` per source, truncated
//! at the horizon, merged with a stable sort.

use proptest::prelude::*;

use rthv_time::{Duration, Instant};
use rthv_workload::{
    flood_overlay, open_loop_flood, ExponentialArrivals, FloodEvent, FloodSpec, OverlaySpec,
};

/// The flood generators' per-source seed derivation (splitmix64 over
/// `(base, lane)`).
fn derive_seed(base: u64, lane: u32) -> u64 {
    let mut z = base ^ u64::from(lane).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One source's events the reference way: `2 × expected + 32` samples
/// generated up front, kept up to the first one at or past the horizon.
fn reference_source(
    events: &mut Vec<FloodEvent>,
    mean: Duration,
    seed: u64,
    start: Instant,
    span: Duration,
    horizon: Duration,
    source: u32,
) {
    let expected = (span.as_nanos() / mean.as_nanos().max(1)) as usize;
    let trace = ExponentialArrivals::new(mean, seed)
        .with_min_distance(Duration::from_nanos(1))
        .generate(expected * 2 + 32, start);
    let end = Instant::ZERO + horizon;
    events.extend(
        trace
            .iter()
            .take_while(|&&at| at < end)
            .map(|&at| FloodEvent { at, source }),
    );
}

fn stable_merge(mut events: Vec<FloodEvent>) -> Vec<FloodEvent> {
    events.sort_by_key(|e| (e.at, e.source));
    events
}

fn reference_flood(spec: &FloodSpec) -> Vec<FloodEvent> {
    let mut events = Vec::new();
    for source in 0..spec.sources {
        let seed = derive_seed(spec.seed, source);
        reference_source(
            &mut events,
            spec.mean,
            seed,
            Instant::ZERO,
            spec.horizon,
            spec.horizon,
            source,
        );
    }
    stable_merge(events)
}

fn reference_overlay(base: &[FloodEvent], spec: &OverlaySpec) -> Vec<FloodEvent> {
    let mut events = base.to_vec();
    for source in spec.first_source..spec.first_source + spec.sources {
        let seed = derive_seed(spec.seed ^ 0x0E7A_11AD, source);
        reference_source(
            &mut events,
            spec.mean,
            seed,
            Instant::ZERO + spec.onset,
            spec.horizon - spec.onset,
            spec.horizon,
            source,
        );
    }
    stable_merge(events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `open_loop_flood` is the reference flood, event for event.
    #[test]
    fn flood_matches_the_reference(
        sources in 1u32..12,
        mean_us in 5u64..4_000,
        horizon_us in 1u64..40_000,
        seed in any::<u64>(),
    ) {
        let spec = FloodSpec {
            sources,
            mean: Duration::from_micros(mean_us),
            horizon: Duration::from_micros(horizon_us),
            seed,
        };
        prop_assert_eq!(open_loop_flood(&spec), reference_flood(&spec));
    }

    /// `flood_overlay` is the reference overlay, event for event — also
    /// when the base already holds some of the overlay's own events, so the
    /// merge sorts equal `(at, source)` keys, and the same instants under
    /// the next source id, so it must order sources within an instant.
    #[test]
    fn overlay_matches_the_reference(
        sources in 1u32..12,
        first_source in 0u32..6,
        overlaid in 1u32..8,
        base_mean_us in 50u64..4_000,
        mean_us in 5u64..2_000,
        onset_us in 0u64..20_000,
        span_us in 1u64..30_000,
        seed in any::<u64>(),
        repeat_every in 1usize..5,
    ) {
        let horizon = Duration::from_micros(onset_us + span_us);
        let mut base = open_loop_flood(&FloodSpec {
            sources,
            mean: Duration::from_micros(base_mean_us),
            horizon,
            seed: seed ^ 0xBA5E,
        });
        let spec = OverlaySpec {
            first_source,
            sources: overlaid,
            mean: Duration::from_micros(mean_us),
            onset: Duration::from_micros(onset_us),
            horizon,
            seed,
        };
        let own = flood_overlay(&[], &spec);
        for &event in own.iter().step_by(repeat_every) {
            let neighbour = FloodEvent {
                source: event.source + 1,
                ..event
            };
            base.extend([event, neighbour]);
        }
        base.sort_by_key(|e| (e.at, e.source));
        let overlay = flood_overlay(&base, &spec);
        if !own.is_empty() {
            prop_assert!(
                overlay.windows(2).any(|w| w[0] == w[1]),
                "the base repeats overlay events, so the merge sees equal keys"
            );
        }
        prop_assert_eq!(overlay, reference_overlay(&base, &spec));
    }
}
