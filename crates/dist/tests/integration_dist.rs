//! Differential and fault-tolerance tests for the distributed executor.
//!
//! The contract under test: [`run_distributed`] / [`run_distributed_fold`]
//! are **bit-identical** to the in-process sweep executor on the same
//! recipe — at every process count, over both transports, and with a worker
//! process SIGKILLed mid-sweep and its leases replayed.

use std::path::PathBuf;

use sysscale::{CellId, RunConsumer, RunRecord, RunSet, SessionPool};
use sysscale_dist::{
    run_distributed, run_distributed_fold, sweep_from_sets, DistOptions, DistStats, GovernorSpec,
    MatrixRecipe, PlatformSpec, SweepRecipe, TransportKind, WorkerFault, WorkloadsSpec,
};

/// The worker binary cargo built alongside this test.
fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sysscale-dist-worker"))
}

fn options(procs: usize) -> DistOptions {
    DistOptions {
        procs: Some(procs),
        worker_binary: Some(worker_binary()),
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

/// The in-process reference result for a recipe, at the given thread count.
fn in_process(recipe: &SweepRecipe, threads: usize) -> Vec<RunSet> {
    let sets = recipe.build().expect("buildable recipe");
    let sweep = sweep_from_sets(&sets);
    let mut pool = SessionPool::new();
    sweep
        .run_parallel_sharded(&mut pool, threads, recipe.sharding)
        .expect("in-process sweep")
}

fn assert_clean(stats: &DistStats, cells: u64) {
    assert_eq!(stats.reissued_leases, 0, "no worker should have died");
    assert_eq!(stats.reexecuted_cells, 0);
    assert_eq!(stats.result_frames, cells);
    assert_eq!(
        stats.workers_spawned, stats.slots,
        "one process per slot, no respawns"
    );
    assert!(stats.heartbeats > 0, "workers must signal liveness");
    // A healthy run exercises none of the robustness machinery.
    assert_eq!(stats.frames_rejected, 0);
    assert_eq!(stats.quarantined_cells, 0);
    assert_eq!(stats.journal_resumes, 0);
    assert_eq!(stats.retries, 0);
}

#[test]
fn distributed_matches_in_process_at_every_process_count() {
    let recipe = small_recipe();
    let cells = recipe.total_cells() as u64;
    // The reference thread count is deliberately different from every
    // process count below: the contract is invariance, not coincidence.
    let expected = in_process(&recipe, 3);

    for procs in [1, 2, 4] {
        let (got, stats) =
            run_distributed(&recipe, &options(procs)).expect("distributed sweep succeeds");
        assert_eq!(
            got, expected,
            "{procs}-process run must be bit-identical to the in-process result"
        );
        assert_clean(&stats, cells);
        assert_eq!(stats.slots, procs.min(recipe.total_cells()));
    }
}

/// A deliberately order-sensitive consumer: it records `(flat, energy bits)`
/// in fold/merge order without any sorting. Exact `Vec` equality against
/// the in-process fold therefore checks not just the folded *values* but
/// that the dispatcher's lease replay visits cells in the exact partition
/// order the in-process fold core uses.
struct EnergyLedger;

impl RunConsumer for EnergyLedger {
    type Acc = Vec<(usize, u64)>;

    fn accumulator(&self) -> Self::Acc {
        Vec::new()
    }

    fn fold(&self, acc: &mut Self::Acc, cell: CellId, record: RunRecord) {
        acc.push((
            cell.flat,
            record.report.metrics.energy.as_joules().to_bits(),
        ));
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        into.extend(from);
    }
}

#[test]
fn distributed_fold_replays_the_exact_in_process_partition_order() {
    let recipe = small_recipe();
    let sets = recipe.build().expect("buildable recipe");
    let sweep = sweep_from_sets(&sets);
    let mut pool = SessionPool::new();

    for procs in [1, 2] {
        let expected = sweep
            .run_parallel_fold_sharded(&mut pool, procs, recipe.sharding, &EnergyLedger)
            .expect("in-process fold");
        let (got, _) = run_distributed_fold(&recipe, &options(procs), &EnergyLedger)
            .expect("distributed fold");
        assert_eq!(
            got, expected,
            "{procs}-process fold must replay the in-process fold order exactly"
        );
    }
}

#[test]
fn tcp_transport_is_byte_identical_to_pipes() {
    let recipe = small_recipe();
    let cells = recipe.total_cells() as u64;
    let (over_pipes, _) = run_distributed(&recipe, &options(2)).expect("pipe run");
    let (over_tcp, stats) = run_distributed(
        &recipe,
        &DistOptions {
            transport: TransportKind::Tcp,
            ..options(2)
        },
    )
    .expect("tcp run");
    assert_eq!(over_tcp, over_pipes, "transport must not affect results");
    assert_clean(&stats, cells);
}

/// The headline fault-tolerance property (fig. 10 sweep shape): four worker
/// processes, one SIGKILLed mid-lease, and the merged result is still
/// bit-identical to the in-process run — with re-execution bounded to the
/// dead worker's unfinished leases.
#[test]
fn killed_worker_leases_replay_bit_identically() {
    let recipe = SweepRecipe::fig10(&[3.5, 4.5, 6.0, 9.0]);
    let cells = recipe.total_cells() as u64;
    let expected = in_process(&recipe, 2);

    let fault = WorkerFault {
        slot: 1,
        after_results: 5,
        hang: false,
    };
    // The dispatcher cuts every slot into (at most) four leases.
    let leases_per_slot = 4;
    let (got, stats) = run_distributed(
        &recipe,
        &DistOptions {
            fault: Some(fault),
            ..options(4)
        },
    )
    .expect("distributed sweep survives the kill");

    assert_eq!(
        got, expected,
        "a mid-sweep worker kill must not change a single byte of the result"
    );
    assert_eq!(stats.slots, 4);
    assert_eq!(
        stats.workers_spawned, 5,
        "exactly one respawn replaces the sacrificed worker"
    );
    assert!(
        (1..=leases_per_slot).contains(&stats.reissued_leases),
        "only the dead slot's unfinished leases may be re-issued (got {})",
        stats.reissued_leases
    );
    assert_eq!(
        stats.reexecuted_cells, fault.after_results as usize,
        "re-execution is bounded to the partial results the dead worker streamed"
    );
    assert_eq!(
        stats.result_frames,
        cells + fault.after_results,
        "every cell once, plus the discarded partials"
    );
}

/// Satellite: a hung-but-alive worker (stream open, no frames) stalls the
/// sweep forever without a watchdog — with `heartbeat_timeout` set, the
/// dispatcher kills the silent slot and replays its leases through the same
/// generation-tagged death path a crash takes, bit-identically.
#[test]
fn hung_worker_is_killed_by_the_watchdog_and_leases_replay_bit_identically() {
    let recipe = SweepRecipe::fig10(&[4.5, 6.0]);
    let cells = recipe.total_cells() as u64;
    let expected = in_process(&recipe, 3);

    let fault = WorkerFault {
        slot: 1,
        after_results: 3,
        hang: true,
    };
    // Small batches keep healthy workers' frame gaps far below the timeout,
    // so only the genuinely hung slot trips the watchdog.
    let (got, stats) = run_distributed(
        &recipe,
        &DistOptions {
            fault: Some(fault),
            heartbeat_timeout: Some(std::time::Duration::from_millis(2500)),
            batch_cells: 2,
            ..options(2)
        },
    )
    .expect("distributed sweep survives the hang");

    assert_eq!(
        got, expected,
        "a mid-sweep worker hang must not change a single byte of the result"
    );
    assert_eq!(stats.watchdog_kills, 1, "exactly one hang detected");
    assert_eq!(
        stats.workers_spawned, 3,
        "exactly one respawn replaces the hung worker"
    );
    assert!(stats.reissued_leases >= 1, "the hung lease must re-issue");
    assert_eq!(
        stats.result_frames,
        cells + fault.after_results,
        "every cell once, plus the hung worker's discarded partials"
    );
}

/// Cost-sized leases over a [`sysscale::SweepSharding::RoundRobin`] recipe
/// (every other distributed test sends the default `ByPlatform`) produce
/// RunSets byte-identical to the in-process executor at 1, 2, and 4 worker
/// processes.
#[test]
fn cost_sized_leases_are_bit_identical_at_every_process_count() {
    let mut recipe = small_recipe();
    recipe.sharding = sysscale::SweepSharding::RoundRobin;
    let cells = recipe.total_cells() as u64;
    let expected = in_process(&recipe, 3);

    for procs in [1, 2, 4] {
        let (got, stats) =
            run_distributed(&recipe, &options(procs)).expect("distributed sweep succeeds");
        assert_eq!(
            got, expected,
            "{procs}-process round-robin run must be bit-identical to in-process"
        );
        assert_clean(&stats, cells);
    }
}

#[test]
fn unbuildable_recipes_fail_before_any_worker_spawns() {
    let mut recipe = small_recipe();
    recipe.members[0].workloads = WorkloadsSpec::SpecNamed(vec!["no-such-workload".to_string()]);
    let error = run_distributed(&recipe, &options(2)).unwrap_err();
    let rendered = error.to_string();
    assert!(
        rendered.contains("no-such-workload"),
        "error must name the unknown workload: {rendered}"
    );
}
