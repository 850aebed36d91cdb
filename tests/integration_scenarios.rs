//! Integration tests of the Scenario/SimSession/ScenarioSet API: matrix
//! coverage, determinism across re-runs and across worker counts, session
//! pooling, and baseline-relative deltas.

use sysscale::{
    GovernorRegistry, Scenario, ScenarioSet, SessionPool, SimSession, SocConfig, SocSimulator,
};
use sysscale_soc::FixedGovernor;
use sysscale_types::SimTime;
use sysscale_workloads::{spec_workload, Workload};

fn spec_suite_subset() -> Vec<Workload> {
    ["gamess", "perlbench", "lbm"]
        .iter()
        .map(|n| spec_workload(n).unwrap())
        .collect()
}

#[test]
fn scenario_set_produces_one_metrics_record_per_cell() {
    // (a) A workloads x governors matrix yields exactly one RunMetrics per
    // (workload, governor) cell.
    let workloads = spec_suite_subset();
    let governors = ["baseline", "sysscale"];
    let runs = ScenarioSet::matrix(&SocConfig::skylake_default(), &workloads, &governors)
        .unwrap()
        .with_baseline("baseline")
        .run(&mut SimSession::new())
        .unwrap();

    assert_eq!(runs.len(), workloads.len() * governors.len());
    for w in &workloads {
        for gov in governors {
            let record = runs
                .get(&w.name, gov)
                .unwrap_or_else(|| panic!("missing cell ({}, {gov})", w.name));
            assert_eq!(record.workload, w.name);
            assert_eq!(record.governor, gov);
            assert!(record.report.metrics.work_done > 0.0);
            assert!(record.report.metrics.energy.as_joules() > 0.0);
            assert!(record.report.metrics.duration > SimTime::ZERO);
        }
    }
    // Exactly one record per key: no duplicates hiding behind get().
    let mut keys: Vec<(String, String)> = runs
        .records()
        .iter()
        .map(|r| (r.workload.clone(), r.governor.clone()))
        .collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), runs.len());
}

#[test]
fn rerunning_a_scenario_on_one_simulator_is_deterministic() {
    // (b) No state leaks between runs: the same scenario executed twice on
    // the same session (and the same underlying SocSimulator) produces
    // identical metrics, counters, and transition statistics.
    let scenario = Scenario::builder(spec_workload("astar").unwrap())
        .governor("sysscale")
        .duration(SimTime::from_millis(250.0))
        .build()
        .unwrap();
    let mut session = SimSession::new();
    let first = session.run(&scenario).unwrap();
    let second = session.run(&scenario).unwrap();
    assert_eq!(
        session.cached_platforms(),
        1,
        "same platform, same simulator"
    );
    assert_eq!(first.report, second.report);

    // The same holds on a bare simulator driven directly.
    let mut sim = SocSimulator::new(SocConfig::skylake_default()).unwrap();
    let w = spec_workload("lbm").unwrap();
    let a = sim
        .run(
            &w,
            &mut FixedGovernor::md_dvfs(true),
            SimTime::from_millis(150.0),
        )
        .unwrap();
    let b = sim
        .run(
            &w,
            &mut FixedGovernor::md_dvfs(true),
            SimTime::from_millis(150.0),
        )
        .unwrap();
    assert_eq!(a, b);
}

#[test]
fn runset_speedup_matches_hand_computed_value() {
    // (c) The RunSet's baseline-relative speedup equals speedup_pct_over
    // computed by hand from the underlying reports.
    let workloads = spec_suite_subset();
    let runs = ScenarioSet::matrix(
        &SocConfig::skylake_default(),
        &workloads,
        &["baseline", "md-dvfs-redist"],
    )
    .unwrap()
    .with_baseline("baseline")
    .run(&mut SimSession::new())
    .unwrap();

    for w in &workloads {
        let baseline = runs.baseline_for(&w.name).unwrap();
        let run = runs.get(&w.name, "md-dvfs-redist").unwrap();
        let cell = runs.cell(&w.name, "md-dvfs-redist").unwrap();
        let by_hand = run.report.speedup_pct_over(&baseline.report);
        assert!(
            (cell.speedup_pct - by_hand).abs() < 1e-12,
            "{}: {} vs {}",
            w.name,
            cell.speedup_pct,
            by_hand
        );
        let power_by_hand = run.report.power_reduction_pct_vs(&baseline.report);
        assert!((cell.power_reduction_pct - power_by_hand).abs() < 1e-12);
    }
}

#[test]
fn governor_restrictions_flow_through_the_matrix() {
    // The MemScale column runs on the restricted platform; the session keeps
    // one simulator per distinct platform.
    let workloads = spec_suite_subset();
    let mut session = SimSession::new();
    let runs = ScenarioSet::matrix(
        &SocConfig::skylake_default(),
        &workloads,
        &["baseline", "memscale"],
    )
    .unwrap()
    .with_baseline("baseline")
    .run(&mut session)
    .unwrap();
    assert_eq!(session.cached_platforms(), 2);
    assert_eq!(runs.len(), 6);
}

#[test]
fn run_parallel_is_bit_identical_to_sequential_at_every_thread_count() {
    // The acceptance property of the parallel executor: the RunSet from
    // run_parallel(n) equals the sequential run() byte for byte, for a
    // matrix that spans both platforms (memscale restricts the platform) and
    // a stateful adaptive governor (sysscale transitions at runtime).
    let workloads = spec_suite_subset();
    let set = ScenarioSet::matrix(
        &SocConfig::skylake_default(),
        &workloads,
        &["baseline", "sysscale", "memscale", "md-dvfs-redist"],
    )
    .unwrap()
    .with_baseline("baseline");

    let sequential = set.run(&mut SimSession::new()).unwrap();
    for threads in [1, 2, 8] {
        let mut pool = SessionPool::new();
        let parallel = set.run_parallel(&mut pool, threads).unwrap();
        assert_eq!(
            sequential, parallel,
            "run_parallel({threads}) diverged from the sequential path"
        );
        // Stable scenario order, not completion order.
        let keys: Vec<(&str, &str)> = parallel
            .records()
            .iter()
            .map(|r| (r.workload.as_str(), r.governor.as_str()))
            .collect();
        let expected: Vec<(&str, &str)> = sequential
            .records()
            .iter()
            .map(|r| (r.workload.as_str(), r.governor.as_str()))
            .collect();
        assert_eq!(keys, expected);
        // Debug formatting is part of "bit-identical" for downstream
        // snapshotting.
        assert_eq!(format!("{sequential:?}"), format!("{parallel:?}"));
    }
    // The memory fixed point runs at least once and at most four times per
    // slice.
    for r in sequential.records() {
        let iters = r.report.loop_stats.iters_per_slice();
        assert!(
            (1.0..=4.0).contains(&iters),
            "{}/{}: {iters} fixed-point iterations per slice",
            r.workload,
            r.governor
        );
    }
}

#[test]
fn session_pool_caches_simulators_across_matrices() {
    // Re-running matrices on the same pool must not rebuild simulators: the
    // cached (worker, platform) count stays flat after the first batch.
    let workloads = spec_suite_subset();
    let set = ScenarioSet::matrix(
        &SocConfig::skylake_default(),
        &workloads,
        &["baseline", "memscale"],
    )
    .unwrap()
    .with_baseline("baseline");

    let mut pool = SessionPool::new();
    let first = set.run_parallel(&mut pool, 2).unwrap();
    assert_eq!(pool.workers(), 2);
    let after_first = pool.cached_platforms();
    // Two platforms (full + memscale-restricted), at most one simulator per
    // (worker, platform).
    assert!((2..=4).contains(&after_first), "{after_first}");

    // Same matrix again: everything is served from the cached simulators.
    let second = set.run_parallel(&mut pool, 2).unwrap();
    assert_eq!(pool.cached_platforms(), after_first);
    assert_eq!(first, second);

    // A different matrix on the same platforms also reuses the cache.
    let other = ScenarioSet::matrix(
        &SocConfig::skylake_default(),
        &workloads[..1],
        &["md-dvfs", "memscale"],
    )
    .unwrap()
    .run_parallel(&mut pool, 2)
    .unwrap();
    assert_eq!(pool.cached_platforms(), after_first);
    assert_eq!(other.len(), 2);

    // Requesting more workers later grows the pool without disturbing the
    // existing sessions.
    let wide = set.run_parallel(&mut pool, 4).unwrap();
    assert_eq!(pool.workers(), 4);
    assert_eq!(wide, first);
}

#[test]
fn unknown_governor_names_error_cleanly() {
    let workloads = spec_suite_subset();
    let err = ScenarioSet::matrix(
        &SocConfig::skylake_default(),
        &workloads,
        &["baseline", "turbo-mode"],
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("turbo-mode"), "{msg}");
    // The registry advertises what IS available.
    assert!(GovernorRegistry::builtin()
        .names()
        .contains(&"sysscale".to_string()));
}
