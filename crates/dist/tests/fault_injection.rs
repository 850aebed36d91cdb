//! Wire-fault and poisoned-cell tests for the distributed executor.
//!
//! Two contracts under test:
//!
//! * **wire hardening** — under every deterministic fault plan
//!   ([`sysscale_dist::FaultPlan`] seeds), the sweep still
//!   completes and its results are byte-identical to the in-process
//!   reference: corrupting faults end in CRC/framing rejection + lease
//!   replay, duplicated `Result` frames are absorbed idempotently, delays
//!   are invisible.
//! * **quarantine** — with a deterministically poisoned cell,
//!   [`run_distributed_partial`] completes the sweep around exactly that
//!   cell (clean failures directly, worker-killing cells via lease
//!   bisection), every other record byte-identical; the non-quarantine API
//!   fails fast with the cell's structured error instead.

use std::path::PathBuf;

use sysscale::{RunSet, SessionPool};
use sysscale_dist::dispatcher::PoisonFault;
use sysscale_dist::{
    run_distributed, run_distributed_partial, sweep_from_sets, DistOptions, GovernorSpec,
    MatrixRecipe, PlatformSpec, SweepRecipe, WorkloadsSpec,
};

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sysscale-dist-worker"))
}

fn options(procs: usize) -> DistOptions {
    DistOptions {
        procs: Some(procs),
        worker_binary: Some(worker_binary()),
        // Never inherit an ambient fault plan from the environment (the CI
        // fault-smoke job sets one for the whole process tree); each test
        // below opts in explicitly.
        fault_plan: Some(0),
        ..DistOptions::default()
    }
}

/// A compact two-platform sweep: 2 platforms × 6 workloads × 2 governors.
fn small_recipe() -> SweepRecipe {
    let member = |tdp_w: f64| MatrixRecipe {
        platform: PlatformSpec::SkylakeM6y75 { tdp_w },
        workloads: WorkloadsSpec::SpecNamed(
            ["mcf", "lbm", "gcc", "milc", "povray", "astar"]
                .map(str::to_string)
                .to_vec(),
        ),
        governors: vec![
            GovernorSpec::Registry("baseline".to_string()),
            GovernorSpec::SysScaleDefault,
        ],
        baseline: Some("baseline".to_string()),
        duration_secs: Some(0.5),
        pinned_fingerprint: None,
    };
    SweepRecipe {
        members: vec![member(4.5), member(6.0)],
        sharding: sysscale::SweepSharding::ByPlatform,
    }
}

fn in_process(recipe: &SweepRecipe) -> Vec<RunSet> {
    let sets = recipe.build().expect("buildable recipe");
    let sweep = sweep_from_sets(&sets);
    let mut pool = SessionPool::new();
    sweep
        .run_parallel_sharded(&mut pool, 3, recipe.sharding)
        .expect("in-process sweep")
}

#[test]
fn every_fault_plan_seed_still_yields_byte_identical_results() {
    let recipe = small_recipe();
    let expected = in_process(&recipe);

    // Each (seed, slot) pair draws its own (ordinal, kind); sweeping seeds
    // covers every FaultKind at several positions.
    for seed in [1, 2, 3, 4, 5, 6] {
        let mut opts = options(2);
        opts.fault_plan = Some(seed);
        let (got, stats) = run_distributed(&recipe, &opts)
            .unwrap_or_else(|e| panic!("faulted run (seed {seed}) must still succeed: {e}"));
        assert_eq!(
            got, expected,
            "seed {seed}: results must be byte-identical despite injected faults"
        );
        // Seed 5 happens to draw DelayFrame on both slots — intact frames,
        // so nothing to reject or replay; byte-identity is the whole check.
        if seed != 5 {
            assert!(
                stats.reissued_leases > 0 || stats.frames_rejected > 0,
                "seed {seed}: a corrupting/duplicating plan must actually do \
                 *something* (replay a torn connection or absorb a duplicate)"
            );
        }
    }
}

/// The in-process reference with one flat index's record removed — what a
/// partial-result run must return when exactly that cell is quarantined.
fn expected_without(recipe: &SweepRecipe, poisoned_flat: usize) -> Vec<RunSet> {
    let mut flat = 0usize;
    in_process(recipe)
        .iter()
        .map(|set| {
            let records: Vec<_> = set
                .records()
                .iter()
                .filter(|_| {
                    let keep = flat != poisoned_flat;
                    flat += 1;
                    keep
                })
                .cloned()
                .collect();
            RunSet::from_records(records, Some("baseline".to_string()))
        })
        .collect()
}

#[test]
fn a_cleanly_failing_cell_is_quarantined_and_the_rest_is_byte_identical() {
    let recipe = small_recipe();
    let poisoned = 7usize;
    let expected = expected_without(&recipe, poisoned);

    for procs in [1, 2, 4] {
        let mut opts = options(procs);
        opts.poison = Some(PoisonFault {
            flat: poisoned,
            crash: false,
        });
        let (got, failed, stats) =
            run_distributed_partial(&recipe, &opts).expect("partial mode completes the sweep");
        assert_eq!(
            failed.len(),
            1,
            "{procs} procs: exactly the poisoned cell is quarantined"
        );
        assert!(failed.contains_flat(poisoned));
        assert_eq!(failed.cells()[0].cell.flat, poisoned);
        assert!(
            failed.cells()[0]
                .error
                .to_string()
                .contains("poisoned cell"),
            "the worker's structured error must round-trip into the manifest"
        );
        assert_eq!(stats.quarantined_cells, 1);
        assert_eq!(
            got, expected,
            "{procs} procs: every surviving record must be byte-identical"
        );
    }
}

#[test]
fn a_worker_killing_cell_is_isolated_by_bisection_and_quarantined() {
    let recipe = small_recipe();
    let poisoned = 13usize;
    let expected = expected_without(&recipe, poisoned);

    let mut opts = options(2);
    opts.poison = Some(PoisonFault {
        flat: poisoned,
        crash: true,
    });
    // Bisection pays for isolation in worker deaths; give it budget.
    opts.max_respawns = 64;
    let (got, failed, stats) =
        run_distributed_partial(&recipe, &opts).expect("bisection completes the sweep");
    assert_eq!(
        failed.len(),
        1,
        "only the killer cell may end up quarantined, not its lease-mates"
    );
    assert!(failed.contains_flat(poisoned));
    assert!(
        failed.cells()[0]
            .error
            .to_string()
            .contains("killed its worker"),
        "a crash-shape cell gets the synthesized kill error"
    );
    assert!(
        failed.cells()[0].executions >= sysscale_dist::MAX_LEASE_EXECUTIONS,
        "quarantine only after the lease execution budget is truly spent"
    );
    assert_eq!(stats.quarantined_cells, 1);
    assert!(
        stats.workers_spawned > stats.slots,
        "isolating a killer cell must have required respawns"
    );
    assert_eq!(
        got, expected,
        "survivors byte-identical despite the carnage"
    );
}

#[test]
fn without_quarantine_a_poisoned_cell_fails_the_run_with_its_error() {
    let recipe = small_recipe();
    let mut opts = options(2);
    opts.poison = Some(PoisonFault {
        flat: 3,
        crash: false,
    });
    let error =
        run_distributed(&recipe, &opts).expect_err("fail-fast mode must surface the poisoned cell");
    assert!(
        error.to_string().contains("poisoned cell 3"),
        "the exact structured error must round-trip: {error}"
    );
}

#[test]
fn quarantine_mode_without_any_poison_is_a_clean_run() {
    let recipe = small_recipe();
    let expected = in_process(&recipe);
    let (got, failed, stats) =
        run_distributed_partial(&recipe, &options(2)).expect("clean partial run");
    assert!(failed.is_empty());
    assert_eq!(stats.quarantined_cells, 0);
    assert_eq!(got, expected);
}
