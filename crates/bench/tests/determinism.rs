//! Determinism guarantees of the parallel sweep engine: any thread count
//! must produce byte-identical output to the sequential reference, the
//! per-load Figure-6 fan-out must merge into exactly the sequential run,
//! and every campaign report must be the same on one thread and on two.

use rthv::scenarios::{merge_fig6_loads, run_fig6, run_fig6_load, Fig6Config, Fig6Variant};
use rthv_admit::{
    assemble_report, assemble_tenant_report, run_storm_scenario, run_tenant_scenario,
    storm_scenarios, tenant_scenarios, StormConfig, TenantStormConfig,
};
use rthv_experiments::sweep::{compute_rows, render_csv, render_table, SweepConfig};
use rthv_experiments::SweepRunner;
use rthv_faults::{assemble_smp_report, run_smp_scenario, smp_scenarios, SmpConfig};

/// A scaled-down sweep so the test stays fast; the determinism argument is
/// independent of the point count and IRQ volume.
fn small_sweep() -> SweepConfig {
    SweepConfig {
        dmin_points_us: vec![1_000, 3_000, 5_000, 8_000],
        irqs: 200,
        ..SweepConfig::default()
    }
}

#[test]
fn parallel_sweep_csv_is_byte_identical_to_sequential() {
    let config = small_sweep();
    let sequential = compute_rows(&config, &SweepRunner::sequential());
    for threads in [2, 4, 8] {
        let parallel = compute_rows(&config, &SweepRunner::new(threads));
        assert_eq!(
            render_csv(&sequential),
            render_csv(&parallel),
            "CSV diverged at {threads} threads"
        );
        assert_eq!(
            render_table(&sequential, config.irqs),
            render_table(&parallel, config.irqs),
            "table diverged at {threads} threads"
        );
    }
}

#[test]
fn parallel_fig6_loads_merge_into_the_sequential_run() {
    let config = Fig6Config {
        irqs_per_load: 400,
        ..Fig6Config::default()
    };
    for variant in [
        Fig6Variant::Unmonitored,
        Fig6Variant::Monitored,
        Fig6Variant::MonitoredNoViolations,
    ] {
        let sequential = run_fig6(&config, variant);

        let indices: Vec<usize> = (0..config.loads.len()).collect();
        let outcomes =
            SweepRunner::new(3).run(&indices, |_, &index| run_fig6_load(&config, variant, index));
        let parallel = merge_fig6_loads(variant, outcomes);

        assert_eq!(sequential.mean_latency, parallel.mean_latency);
        assert_eq!(sequential.max_latency, parallel.max_latency);
        assert_eq!(sequential.class_counts, parallel.class_counts);
        assert_eq!(sequential.histogram.count(), parallel.histogram.count());
        assert_eq!(
            sequential.histogram.overflow(),
            parallel.histogram.overflow()
        );
        assert!(
            sequential.histogram.iter().eq(parallel.histogram.iter()),
            "histogram bins diverged for {variant:?}"
        );
        assert_eq!(sequential.per_load.len(), parallel.per_load.len());
        for (s, p) in sequential.per_load.iter().zip(&parallel.per_load) {
            assert_eq!(s.load, p.load);
            assert_eq!(s.mean_latency, p.mean_latency);
            assert_eq!(s.max_latency, p.max_latency);
            assert_eq!(s.class_counts, p.class_counts);
            assert_eq!(s.context_switches, p.context_switches);
        }
    }
}

/// Assembles one campaign's report from its scenarios run sequentially and
/// on two worker threads. The campaign binaries fan scenarios over the
/// host's cores; these tests hold each campaign kind's report to the
/// sequential one (`campaign` and `supervised` are held by
/// `campaign_report_is_byte_identical_across_threads_and_repetition` and
/// `supervised_report_is_byte_identical_across_threads_and_repetition`).
fn sequential_and_parallel<S: Sync, R: Send>(
    scenarios: &[S],
    run: impl Fn(&S) -> R + Sync,
    assemble: impl Fn(&[R]) -> String,
) -> (String, String) {
    let sequential = SweepRunner::sequential().run(scenarios, |_, s| run(s));
    let parallel = SweepRunner::new(2).run(scenarios, |_, s| run(s));
    (assemble(&sequential), assemble(&parallel))
}

#[test]
fn admit_storm_report_is_identical_across_thread_counts() {
    let config = StormConfig::smoke_campaign();
    let scenarios = storm_scenarios(5, 16_392_212, config.horizon);
    let (sequential, parallel) = sequential_and_parallel(
        &scenarios,
        |s| {
            run_storm_scenario(&config, s, None)
                .expect("smoke config is valid")
                .record()
        },
        |records| assemble_report(&config, 16_392_212, records),
    );
    assert_eq!(sequential, parallel);
}

#[test]
fn tenant_storm_report_is_identical_across_thread_counts() {
    let config = TenantStormConfig::smoke_campaign();
    let scenarios = tenant_scenarios(3, 16_392_212, config.horizon);
    let (sequential, parallel) = sequential_and_parallel(
        &scenarios,
        |s| {
            run_tenant_scenario(&config, s, None)
                .expect("smoke config is valid")
                .record()
        },
        |records| assemble_tenant_report(&config, 16_392_212, records),
    );
    assert_eq!(sequential, parallel);
}

#[test]
fn smp_storm_report_is_identical_across_thread_counts() {
    let config = SmpConfig::smoke();
    let scenarios = smp_scenarios(5, 16_392_212, config.horizon);
    let (sequential, parallel) = sequential_and_parallel(
        &scenarios,
        |s| {
            run_smp_scenario(&config, s, None)
                .expect("smoke config is valid")
                .record()
        },
        |records| assemble_smp_report(&config, 16_392_212, records),
    );
    assert_eq!(sequential, parallel);
}
