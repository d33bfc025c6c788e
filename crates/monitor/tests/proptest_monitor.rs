//! Property tests for the δ⁻ monitor — the invariants on which the paper's
//! sufficient-temporal-independence argument rests.

use proptest::prelude::*;

use rthv_monitor::{ActivationMonitor, Admission, DeltaFunction, DeltaLearner, TokenBucket};
use rthv_time::{Duration, Instant};

/// Strategy: a normalized (non-decreasing) δ⁻ with 1..=5 entries in
/// microsecond scale.
fn delta_strategy() -> impl Strategy<Value = DeltaFunction> {
    prop::collection::vec(1u64..5_000, 1..=5).prop_map(|raw| {
        let mut sum = 0u64;
        let entries = raw
            .into_iter()
            .map(|gap| {
                sum += gap;
                Duration::from_micros(sum)
            })
            .collect();
        DeltaFunction::new(entries).expect("cumulative sums are monotonic")
    })
}

/// Strategy: a time-ordered arrival sequence from positive gaps.
fn arrivals_strategy() -> impl Strategy<Value = Vec<Instant>> {
    prop::collection::vec(1u64..2_000, 1..200).prop_map(|gaps| {
        let mut t = 0u64;
        gaps.into_iter()
            .map(|g| {
                t += g;
                Instant::from_micros(t)
            })
            .collect()
    })
}

proptest! {
    /// Whatever arrives, the *admitted* subsequence conforms to δ⁻: the
    /// distance from each admitted event to its k-th admitted predecessor
    /// is at least δ⁻[k−1]. This is exactly the premise of Eq. 14.
    #[test]
    fn admitted_stream_conforms_to_delta(
        delta in delta_strategy(),
        arrivals in arrivals_strategy(),
    ) {
        let l = delta.len();
        let mut monitor = ActivationMonitor::new(delta.clone());
        let mut admitted: Vec<Instant> = Vec::new();
        for t in arrivals {
            if monitor.try_admit(t) {
                admitted.push(t);
            }
        }
        for (i, &t) in admitted.iter().enumerate() {
            for k in 1..=l.min(i) {
                let predecessor = admitted[i - k];
                prop_assert!(
                    t.duration_since(predecessor) >= delta.entries()[k - 1],
                    "admitted event {i} violates δ⁻[{}.]", k - 1
                );
            }
        }
    }

    /// In any closed window Δt, the number of admitted events never exceeds
    /// η⁺(Δt) of the enforced δ⁻ — the counting form of Eq. 14.
    #[test]
    fn admissions_in_any_window_bounded_by_eta(
        delta in delta_strategy(),
        arrivals in arrivals_strategy(),
        window_us in 1u64..50_000,
    ) {
        let window = Duration::from_micros(window_us);
        let mut monitor = ActivationMonitor::new(delta.clone());
        let admitted: Vec<Instant> = arrivals
            .into_iter()
            .filter(|&t| monitor.try_admit(t))
            .collect();
        let eta = delta.eta_plus(window);
        for (i, &start) in admitted.iter().enumerate() {
            let in_window = admitted[i..]
                .iter()
                .take_while(|&&t| t.duration_since(start) <= window)
                .count() as u64;
            prop_assert!(
                in_window <= eta,
                "{in_window} admissions in a {window} window exceed η⁺ = {eta}"
            );
        }
    }

    /// Denials never block a later conforming event: an arrival ≥ δ⁻ after
    /// every retained admitted predecessor is always admitted.
    #[test]
    fn conforming_event_is_always_admitted(
        delta in delta_strategy(),
        arrivals in arrivals_strategy(),
    ) {
        let mut monitor = ActivationMonitor::new(delta.clone());
        let mut last_admitted: Option<Instant> = None;
        for t in arrivals {
            // An event later than the largest entry after the last admitted
            // one satisfies every distance constraint.
            let clearly_conforming = last_admitted.is_none_or(|last| {
                t.duration_since(last) >= *delta.entries().last().expect("non-empty")
            });
            let admitted = monitor.try_admit(t);
            if clearly_conforming {
                prop_assert!(admitted, "conforming event at {t} was denied");
            }
            if admitted {
                last_admitted = Some(t);
            }
        }
    }

    /// Algorithm 1 learns exactly the brute-force minimum distances.
    #[test]
    fn learner_matches_brute_force(
        arrivals in arrivals_strategy(),
        l in 1usize..=5,
    ) {
        let mut learner = DeltaLearner::new(l);
        for &t in &arrivals {
            learner.observe(t);
        }
        let learned = learner.learned_delta().expect("monotonic");
        for i in 0..l {
            let span = i + 1;
            let expected = arrivals
                .windows(span + 1)
                .map(|w| w[span].duration_since(w[0]))
                .min()
                .unwrap_or(Duration::MAX);
            prop_assert_eq!(learned.entries()[i], expected, "entry {}", i);
        }
    }

    /// Algorithm 2 never lowers an entry, and the result admits no more
    /// load than the bound allows (pointwise ≥ bound on the common prefix).
    #[test]
    fn bounding_is_monotone(
        learned in delta_strategy(),
        bound in delta_strategy(),
    ) {
        let adjusted = learned.bounded_by(&bound);
        for (i, entry) in adjusted.entries().iter().enumerate() {
            if i < learned.len() {
                prop_assert!(*entry >= learned.entries()[i]);
            }
            if i < bound.len() {
                prop_assert!(*entry >= bound.entries()[i]);
            }
        }
    }

    /// δ̂ extension is superadditive: δ(a + b − 1) ≥ δ(a) + δ(b).
    #[test]
    fn delta_extension_is_superadditive(
        delta in delta_strategy(),
        a in 2u64..20,
        b in 2u64..20,
    ) {
        let lhs = delta.delta(a + b - 1);
        let rhs = delta.delta(a).saturating_add(delta.delta(b));
        prop_assert!(lhs >= rhs, "δ({}) = {} < {}", a + b - 1, lhs, rhs);
    }

    /// Exhaustive form of superadditivity: for every split `a + b = q + 1`
    /// (two spans sharing one event), `δ(q) ≥ δ(a) + δ(b)` — not just for a
    /// sampled pair. This pins down both the `q - 2 < l` fast path and the
    /// `prev_q = n + 1 - i` extension index: an off-by-one in either breaks
    /// some split for some q.
    #[test]
    fn delta_superadditive_over_every_split(
        delta in delta_strategy(),
        q in 3u64..40,
    ) {
        for a in 2..q {
            let b = q + 1 - a;
            let lhs = delta.delta(q);
            let rhs = delta.delta(a).saturating_add(delta.delta(b));
            prop_assert!(
                lhs >= rhs,
                "δ({q}) = {lhs} < δ({a}) + δ({b}) = {rhs}"
            );
        }
    }

    /// η⁺/δ duality for multi-entry functions: η⁺(Δt) is the *largest* q
    /// whose span fits the closed window — δ(η⁺(Δt)) ≤ Δt < δ(η⁺(Δt) + 1).
    /// Exercises the incremental table walk in `eta_plus` against the
    /// from-scratch `delta` for every length the monitor supports.
    #[test]
    fn eta_plus_is_the_exact_delta_inverse(
        delta in delta_strategy(),
        dt_us in 0u64..25_000,
    ) {
        let dt = Duration::from_micros(dt_us);
        let eta = delta.eta_plus(dt);
        prop_assert!(
            delta.delta(eta) <= dt,
            "δ(η⁺) = {} exceeds the window {dt}", delta.delta(eta)
        );
        prop_assert!(
            delta.delta(eta + 1) > dt,
            "η⁺ = {eta} not maximal: δ(η⁺ + 1) = {} still fits {dt}",
            delta.delta(eta + 1)
        );
    }

    /// The duality holds exactly *at* the stored-prefix boundary too: for
    /// Δt = δ(q) the window fits q events, for Δt = δ(q) − 1 ns it cannot
    /// (when δ is strictly increasing there).
    #[test]
    fn eta_plus_boundary_at_stored_entries(
        delta in delta_strategy(),
    ) {
        for (i, &entry) in delta.entries().iter().enumerate() {
            let q = i as u64 + 2;
            prop_assert!(delta.eta_plus(entry) >= q, "window δ({q}) must fit {q} events");
            let shaved = entry - Duration::from_nanos(1);
            prop_assert!(
                delta.eta_plus(shaved) < q || delta.delta(q) <= shaved,
                "window below δ({q}) cannot fit {q} events"
            );
        }
    }

    /// Scaling the load down stretches every distance accordingly.
    #[test]
    fn scale_load_stretches(
        delta in delta_strategy(),
        denom in 2u64..=16,
    ) {
        let fraction = 1.0 / denom as f64;
        let scaled = delta.scale_load(fraction);
        for (orig, stretched) in delta.entries().iter().zip(scaled.entries()) {
            prop_assert_eq!(*stretched, *orig * denom);
        }
    }
}

/// Strategy: an *adversarial* arrival stream — duplicate timestamps
/// (zero gaps), dense bursts, and long silences that let shapers refill.
/// This is the fault-injection shape the δ⁻ argument must survive.
fn adversarial_strategy() -> impl Strategy<Value = Vec<Instant>> {
    prop::collection::vec(
        prop_oneof![
            Just(0u64),       // same-instant duplicate
            1u64..50,         // dense burst
            5_000u64..20_000, // silence
        ],
        1..250,
    )
    .prop_map(|gaps| {
        let mut t = 0u64;
        gaps.into_iter()
            .map(|g| {
                t += g;
                Instant::from_micros(t)
            })
            .collect()
    })
}

proptest! {
    /// δ⁻ conformance of the admitted stream survives adversarial input:
    /// duplicates and zero-gap bursts are denied, never corrupting the
    /// distance invariant that Eq. 14 rests on.
    #[test]
    fn monitor_survives_adversarial_streams(
        delta in delta_strategy(),
        arrivals in adversarial_strategy(),
    ) {
        let l = delta.len();
        let mut monitor = ActivationMonitor::new(delta.clone());
        let mut admitted: Vec<Instant> = Vec::new();
        for t in arrivals {
            if monitor.try_admit(t) {
                admitted.push(t);
            }
        }
        for (i, &t) in admitted.iter().enumerate() {
            for k in 1..=l.min(i) {
                prop_assert!(
                    t.duration_since(admitted[i - k]) >= delta.entries()[k - 1],
                    "admitted event {i} violates δ⁻[{}.] under adversarial input", k - 1
                );
            }
        }
    }

    /// A same-instant storm is collapsed to exactly one admission: the
    /// duplicates all violate d_min against the first.
    #[test]
    fn same_instant_storm_admits_exactly_one(
        dmin_us in 1u64..5_000,
        burst in 2usize..100,
        at_us in 0u64..1_000_000,
    ) {
        let delta = DeltaFunction::from_dmin(Duration::from_micros(dmin_us)).expect("positive");
        let mut monitor = ActivationMonitor::new(delta);
        let t = Instant::from_micros(at_us);
        let admitted = (0..burst).filter(|_| monitor.try_admit(t)).count();
        prop_assert_eq!(admitted, 1);
    }

    /// Token-bucket admissions in any half-open window `[s, s + Δt)`
    /// anchored at an admission never exceed `capacity + ⌈Δt/refill⌉` —
    /// the premise of [`token_bucket_interference`]'s bound.
    ///
    /// [`token_bucket_interference`]: rthv_monitor::token_bucket_interference
    #[test]
    fn bucket_admissions_bounded_in_every_window(
        capacity in 1u32..8,
        refill_us in 100u64..5_000,
        arrivals in adversarial_strategy(),
        window_factor in 1u64..20,
    ) {
        let refill = Duration::from_micros(refill_us);
        let window = refill * window_factor;
        let mut bucket = TokenBucket::new(capacity, refill);
        let admitted: Vec<Instant> = arrivals
            .into_iter()
            .filter(|&t| bucket.try_admit(t))
            .collect();
        let allowed = u64::from(capacity) + window.div_ceil(refill);
        for (i, &start) in admitted.iter().enumerate() {
            let in_window = admitted[i..]
                .iter()
                .take_while(|&&t| t.duration_since(start) < window)
                .count() as u64;
            prop_assert!(
                in_window <= allowed,
                "{in_window} bucket admissions in a {window} window exceed {allowed}"
            );
        }
    }

    /// The bucket's long-run admission count is capped by its initial
    /// tokens plus everything it could possibly refill over the horizon.
    #[test]
    fn bucket_long_run_rate_is_capped(
        capacity in 1u32..8,
        refill_us in 100u64..5_000,
        arrivals in adversarial_strategy(),
    ) {
        let refill = Duration::from_micros(refill_us);
        let mut bucket = TokenBucket::new(capacity, refill);
        let horizon = *arrivals.last().expect("non-empty");
        let admitted = arrivals
            .iter()
            .filter(|&&t| bucket.try_admit(t))
            .count() as u64;
        let cap = u64::from(capacity) + horizon.duration_since(Instant::ZERO).div_floor(refill);
        prop_assert!(admitted <= cap, "{admitted} admissions exceed long-run cap {cap}");
    }

    /// Under a sustained same-instant burst the bucket admits exactly its
    /// stored tokens and nothing more — burst tolerance is `capacity`,
    /// never beyond.
    #[test]
    fn bucket_burst_tolerance_is_its_capacity(
        capacity in 1u32..16,
        refill_us in 100u64..5_000,
        burst in 1usize..64,
    ) {
        let mut bucket = TokenBucket::new(capacity, Duration::from_micros(refill_us));
        let t = Instant::from_micros(7);
        let admitted = (0..burst).filter(|_| bucket.try_admit(t)).count();
        prop_assert_eq!(admitted, burst.min(capacity as usize));
    }
}

/// Strategy: a δ⁻ shaped like a group budget — up to 12 leading zero
/// entries, then up to 4 positive, non-decreasing ones (an all-zero δ⁻
/// when there are none).
fn zero_padded_delta_strategy() -> impl Strategy<Value = DeltaFunction> {
    (0usize..=12, prop::collection::vec(1u64..3_000, 0..=4)).prop_map(|(zeros, raw)| {
        let mut entries = vec![Duration::ZERO; zeros.max(usize::from(raw.is_empty()))];
        let mut sum = 0u64;
        for gap in raw {
            sum += gap;
            entries.push(Duration::from_micros(sum));
        }
        DeltaFunction::new(entries).expect("zeros then cumulative sums are monotonic")
    })
}

/// The check straight from the definition: the first `i` whose distance
/// to the `i`-th previous admission (newest first) is below δ⁻[i].
fn reference_check(delta: &DeltaFunction, admitted: &[Instant], now: Instant) -> Admission {
    for (i, &prev) in admitted.iter().rev().take(delta.len()).enumerate() {
        if now.saturating_duration_since(prev) < delta.entries()[i] {
            return Admission::Denied {
                violated_distance: i,
            };
        }
    }
    Admission::Admitted
}

proptest! {
    /// Skipping δ⁻'s leading zero entries changes no decision and no
    /// reported violated distance, also after `set_delta` swaps in a δ⁻
    /// with another zero count mid-stream (the monitor then remembers
    /// only the admissions its old ring held).
    #[test]
    fn zero_padded_checks_match_the_definition(
        first in zero_padded_delta_strategy(),
        second in zero_padded_delta_strategy(),
        arrivals in adversarial_strategy(),
    ) {
        let mut monitor = ActivationMonitor::new(first.clone());
        let mut delta = first;
        let mut admitted: Vec<Instant> = Vec::new();
        let swap_at = arrivals.len() / 2;
        for (k, t) in arrivals.into_iter().enumerate() {
            if k == swap_at {
                let forgotten = admitted.len().saturating_sub(delta.len());
                admitted.drain(..forgotten);
                monitor.set_delta(second.clone());
                delta = second.clone();
            }
            let expected = reference_check(&delta, &admitted, t);
            prop_assert_eq!(monitor.check(t), expected);
            if monitor.try_admit_detailed(t) == Admission::Admitted {
                admitted.push(t);
            }
        }
    }
}
