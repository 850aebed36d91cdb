//! Differential harness for the sharded sweep executor and the fold-based
//! streaming result pipeline.
//!
//! Pins the invariants of `SweepSet`, the generator-backed scenario
//! streams, and the `RunConsumer` fold paths:
//!
//! * the `fig10` sweep is **byte-identical** to one call per TDP point, and
//!   its fold is **bit-identical** to the same sweep materialized as
//!   `RunSet`s, at 1, 2, 4, and 8 workers;
//! * fold-based population calibration samples are **bit-identical** to
//!   the materialized-`RunSet` aggregation, at the same worker counts (the
//!   differentials against the test-only reference paths — Fig. 6,
//!   Figs. 7/8/9, Fig. 10 and the DRAM study — live next to those paths, in
//!   the `experiments` modules' unit tests);
//! * hash-sharding by platform fingerprint strictly reduces simulator
//!   rebuilds versus round-robin on a two-platform sweep;
//! * a pathologically cost-skewed sweep is byte-identical under both
//!   sharding strategies at 1, 2, and 8 workers;
//! * the keyed assignment's platform→worker ownership is a pure function
//!   of the fingerprint multiset and the worker count — permuting member
//!   insertion order (or the cells themselves) never changes which workers
//!   own a platform;
//! * a generator-backed `ScenarioSource` yields the same population, in the
//!   same order, as the materialized `Vec` path (10 000 sampled seeds);
//! * streamed calibration samples equal the materialized batch exactly;
//! * the streamed Fig. 3(a) figure equals a collect-the-full-trace
//!   reference.
//!
//! CI runs this file at `SYSSCALE_THREADS ∈ {1, 4}` on top of the explicit
//! worker counts below, so the differential holds under both env-driven and
//! pinned thread counts.

use sysscale::experiments::motivation;
use sysscale::experiments::sensitivity::{self, TdpPoint};
use sysscale::{
    calibration_source, measure_population_from, samples_from_runs, sysscale_factory,
    CalibrationConfig, DemandPredictor, GovernorRegistry, Scenario, ScenarioSet, ScenarioSource,
    SessionPool, SimSession, SocConfig, SweepSet, SweepSharding,
};
use sysscale_types::exec::Shard;
use sysscale_types::rng::SplitMix64;
use sysscale_types::stats::Summary;
use sysscale_types::{Power, SimTime};
use sysscale_workloads::{
    class_buckets, spec_cpu2006_suite, spec_workload, ClassBucketSource, GeneratorConfig,
    PopulationSource, WorkloadGenerator, WorkloadSource,
};

/// The worker counts every differential below is pinned at (the acceptance
/// criterion's 1/4/8 plus the 2-worker partition-boundary case).
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn fig10_sweep_is_byte_identical_to_the_per_point_path() {
    // One two-TDP sweep vs one single-TDP call per point: the sweep's
    // flattened batch must not let one TDP point perturb another's speedups.
    let predictor = DemandPredictor::skylake_default();
    let tdps = [3.5, 15.0];

    // Reference: the per-point path, sequentially (1 worker is the
    // sequential path by construction).
    let per_point = |threads: usize| -> Vec<_> {
        tdps.iter()
            .flat_map(|&tdp| {
                sensitivity::fig10_fold_in(&mut SessionPool::new(), threads, &predictor, &[tdp])
                    .unwrap()
            })
            .collect()
    };
    let reference = per_point(1);
    assert_eq!(reference.len(), tdps.len());

    for threads in THREAD_COUNTS {
        let sweep = sensitivity::fig10_fold_in(&mut SessionPool::new(), threads, &predictor, &tdps)
            .unwrap();
        assert_eq!(
            sweep, reference,
            "fig10 sweep diverged from per-point at {threads} workers"
        );
        // Byte-identical includes the Debug rendering (downstream snapshots).
        assert_eq!(format!("{sweep:?}"), format!("{reference:?}"));
        assert_eq!(
            per_point(threads),
            reference,
            "fig10 per-point path not thread-invariant at {threads} workers"
        );
    }
}

#[test]
fn fold_fig10_summaries_are_bit_identical_to_the_materialized_path() {
    // Reference: the same `TDPs × suite × {baseline, sysscale}` sweep run
    // through the materialized `SweepSet::run_parallel`, with each point's
    // speedups read off its `RunSet` and summarized in workload order.
    let predictor = DemandPredictor::skylake_default();
    let tdps = [3.5, 15.0];
    let suite = spec_cpu2006_suite();
    let mut registry = GovernorRegistry::builtin();
    registry.register(sysscale_factory(predictor));
    let mut sweep = SweepSet::new();
    for &tdp in &tdps {
        let config = SocConfig::skylake_m_6y75(Power::from_watts(tdp));
        sweep.push_set(
            ScenarioSet::matrix_with(&registry, &config, &suite, &["baseline", "sysscale"])
                .unwrap()
                .with_baseline("baseline"),
        );
    }
    let runs = sweep.run_parallel(&mut SessionPool::new(), 1).unwrap();
    let reference: Vec<TdpPoint> = tdps
        .iter()
        .zip(&runs)
        .map(|(&tdp, run)| {
            let speedups: Vec<f64> = suite
                .iter()
                .map(|w| run.cell(&w.name, "sysscale").unwrap().speedup_pct)
                .collect();
            TdpPoint {
                tdp_w: tdp,
                summary: Summary::of(&speedups),
                speedups_pct: speedups,
            }
        })
        .collect();

    for threads in THREAD_COUNTS {
        let folded =
            sensitivity::fig10_fold_in(&mut SessionPool::new(), threads, &predictor, &tdps)
                .unwrap();
        assert_eq!(
            folded, reference,
            "fig10 fold diverged from the materialized path at {threads} workers"
        );
        assert_eq!(format!("{folded:?}"), format!("{reference:?}"));
    }
}

#[test]
fn platform_hash_sharding_strictly_reduces_simulator_rebuilds() {
    // A two-platform sweep laid out contiguously (all of platform A's cells,
    // then all of platform B's): round-robin hands both platforms to both
    // workers; platform sharding gives each platform to exactly one worker.
    let workloads = vec![
        spec_workload("gamess").unwrap(),
        spec_workload("lbm").unwrap(),
        spec_workload("astar").unwrap(),
    ];
    let configs = [
        SocConfig::skylake_default(),
        SocConfig::skylake_m_6y75(Power::from_watts(9.0)),
    ];
    let mut sweep = SweepSet::new();
    for config in &configs {
        sweep.push_set(
            ScenarioSet::matrix(config, &workloads, &["baseline", "sysscale"])
                .unwrap()
                .with_baseline("baseline"),
        );
    }

    let mut round_robin_pool = SessionPool::new();
    let rr = sweep
        .run_parallel_sharded(&mut round_robin_pool, 2, SweepSharding::RoundRobin)
        .unwrap();
    let mut keyed_pool = SessionPool::new();
    let keyed = sweep
        .run_parallel_sharded(&mut keyed_pool, 2, SweepSharding::ByPlatform)
        .unwrap();

    // Identical results, strictly fewer simulator builds.
    assert_eq!(rr, keyed);
    assert!(
        keyed_pool.cached_platforms() < round_robin_pool.cached_platforms(),
        "hash-sharding must reduce rebuilds: {} vs {}",
        keyed_pool.cached_platforms(),
        round_robin_pool.cached_platforms()
    );
    assert_eq!(round_robin_pool.cached_platforms(), 4);
    assert_eq!(keyed_pool.cached_platforms(), 2);
}

#[test]
fn generator_backed_sources_match_the_materialized_path_across_10k_seeds() {
    // Property test over 10 000 sampled seeds: a `PopulationSource` stream
    // equals `WorkloadGenerator::population` — same workloads, same order.
    let mut rng = SplitMix64::new(0x5EED_5EED);
    for round in 0..10_000u32 {
        let seed = rng.next_u64();
        let count = 1 + (rng.next_u64() % 8) as usize;
        let materialized = WorkloadGenerator::with_seed(seed).population(count);
        let source = PopulationSource::with_seed(seed, count);
        assert_eq!(WorkloadSource::len(&source), count);
        let mut streamed = source.stream();
        for (i, expected) in materialized.iter().enumerate() {
            let got = streamed
                .next()
                .unwrap_or_else(|| panic!("round {round}: stream ended at {i}"));
            assert_eq!(got, *expected, "round {round} seed {seed:#x} item {i}");
        }
        assert!(streamed.next().is_none(), "round {round}: stream too long");
    }
}

#[test]
fn class_bucket_sources_match_the_materialized_buckets_across_seeds() {
    // The Fig. 6 population path: each class's streaming bucket equals the
    // materialized reference for the same (seed, quota).
    let mut rng = SplitMix64::new(0xB0CE7);
    for _ in 0..250 {
        let seed = rng.next_u64();
        let quota = 1 + (rng.next_u64() % 6) as usize;
        let config = GeneratorConfig {
            seed,
            ..GeneratorConfig::default()
        };
        let reference = class_buckets(config, quota);
        for (class, bucket) in &reference {
            let source = ClassBucketSource::new(config, quota, *class);
            assert_eq!(source.materialize(), *bucket, "seed {seed:#x} {class:?}");
        }
    }
}

#[test]
fn streamed_calibration_samples_equal_the_materialized_batch() {
    // measure_population_from over a generator recipe vs over the
    // materialized population: identical samples at every worker count,
    // without ever materializing the streamed population.
    let config = SocConfig::skylake_default();
    let cal = CalibrationConfig {
        degradation_bound: 0.01,
        sim_duration: SimTime::from_millis(40.0),
    };
    let source = PopulationSource::with_seed(0xCA11B, 6);
    let population = source.materialize();

    let reference =
        measure_population_from(&mut SessionPool::new(), &config, &population, &cal, 1).unwrap();
    assert_eq!(reference.len(), 6);
    for threads in THREAD_COUNTS {
        let streamed =
            measure_population_from(&mut SessionPool::new(), &config, &source, &cal, threads)
                .unwrap();
        assert_eq!(streamed, reference, "threads={threads}");
    }
}

// ---------------------------------------------------------------------------
// Fold-based streaming result pipeline
// ---------------------------------------------------------------------------

#[test]
fn fold_calibration_samples_are_bit_identical_to_materialized_aggregation() {
    // Reference: the materialized pipeline — collect the full RunSet, then
    // aggregate with samples_from_runs. Fold: measure_population_from,
    // which reduces each high/low pair the moment both halves have run and
    // never materializes a record.
    let config = SocConfig::skylake_default();
    let cal = CalibrationConfig {
        degradation_bound: 0.01,
        sim_duration: SimTime::from_millis(40.0),
    };
    let population = PopulationSource::with_seed(0xF01D, 8);

    let source = calibration_source(&config, &population, &cal).unwrap();
    let mut sweep = SweepSet::new();
    sweep.push_source(&source, None);
    let runs = sweep
        .run_parallel(&mut SessionPool::new(), 1)
        .unwrap()
        .pop()
        .unwrap();
    let reference = samples_from_runs(&config, &population, &cal, &runs);
    assert_eq!(reference.len(), 8);

    for threads in THREAD_COUNTS {
        let folded =
            measure_population_from(&mut SessionPool::new(), &config, &population, &cal, threads)
                .unwrap();
        assert_eq!(folded, reference, "threads={threads}");
        // Bit-identical includes the Debug rendering (downstream snapshots).
        assert_eq!(format!("{folded:?}"), format!("{reference:?}"));
    }
}

// ---------------------------------------------------------------------------
// Sharding: ownership purity
// ---------------------------------------------------------------------------

/// The sorted worker set each distinct key's items land on.
fn owners_by_key(keys: &[u64], assignment: &[usize]) -> Vec<(u64, Vec<usize>)> {
    let mut distinct: Vec<u64> = keys.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct
        .into_iter()
        .map(|key| {
            let mut workers: Vec<usize> = keys
                .iter()
                .zip(assignment)
                .filter(|(k, _)| **k == key)
                .map(|(_, w)| *w)
                .collect();
            workers.sort_unstable();
            workers.dedup();
            (key, workers)
        })
        .collect()
}

#[test]
fn keyed_worker_ownership_is_a_pure_function_of_fingerprints_and_threads() {
    // Property test over random key multisets: permuting the cells (and
    // with them, the order keys first appear in) must not change which
    // workers own a key — dense ranking is by key value, so the assignment
    // is a pure function of (fingerprint multiset, threads). A
    // first-appearance ranking fails this on the first reversed input.
    let mut rng = SplitMix64::new(0x0BDE7_0BDE7);
    for round in 0..500u32 {
        let len = 2 + (rng.next_u64() % 48) as usize;
        let distinct = 1 + rng.next_u64() % 6;
        let keys: Vec<u64> = (0..len)
            .map(|_| (rng.next_u64() % distinct).wrapping_mul(0x9E37_79B9_97F4_A7C1))
            .collect();
        let workers = 1 + (rng.next_u64() % 8) as usize;
        let mut permuted = keys.clone();
        permuted.rotate_left((rng.next_u64() as usize) % len);
        permuted.reverse();

        let original = owners_by_key(&keys, &Shard::ByKey(&keys).assignments(len, workers));
        let shuffled = owners_by_key(
            &permuted,
            &Shard::ByKey(&permuted).assignments(len, workers),
        );
        assert_eq!(
            original, shuffled,
            "round {round}: ownership changed under permutation (len={len}, workers={workers})"
        );
    }
}

#[test]
fn sweep_member_insertion_order_does_not_change_platform_ownership() {
    // The sweep-level spelling of the purity property: two SweepSets whose
    // members arrive in opposite order must schedule every platform onto
    // the same workers, because dense ranking is by fingerprint value, not
    // first appearance.
    let workloads = vec![
        spec_workload("gamess").unwrap(),
        spec_workload("lbm").unwrap(),
        spec_workload("astar").unwrap(),
    ];
    let config_a = SocConfig::skylake_default();
    let config_b = SocConfig::skylake_m_6y75(Power::from_watts(9.0));
    let make = |config: &SocConfig| {
        ScenarioSet::matrix(config, &workloads, &["baseline", "md-dvfs"]).unwrap()
    };

    let keys_of = |configs: [&SocConfig; 2]| -> Vec<u64> {
        configs
            .iter()
            .flat_map(|config| make(config).shard_keys())
            .collect()
    };
    let forward = keys_of([&config_a, &config_b]);
    let backward = keys_of([&config_b, &config_a]);

    for workers in [2usize, 3, 8] {
        let fwd = owners_by_key(
            &forward,
            &Shard::ByKey(&forward).assignments(forward.len(), workers),
        );
        let bwd = owners_by_key(
            &backward,
            &Shard::ByKey(&backward).assignments(backward.len(), workers),
        );
        assert_eq!(fwd, bwd, "workers={workers}");
    }
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

/// A pathologically skewed single-platform set: `short_cells` short-horizon
/// cells plus one long-horizon cell (inserted mid-set) whose estimated cost
/// dwarfs every other cell's.
fn skewed_set(short_cells: usize) -> ScenarioSet {
    let names = ["mcf", "lbm", "gcc"];
    let mut set = ScenarioSet::new();
    for i in 0..short_cells {
        if i == short_cells / 2 {
            set.push(
                Scenario::builder(spec_workload("lbm").unwrap())
                    .duration(SimTime::from_secs(1.0))
                    .build()
                    .unwrap(),
            );
        }
        set.push(
            Scenario::builder(spec_workload(names[i % names.len()]).unwrap())
                .duration(SimTime::from_secs(0.04))
                .build()
                .unwrap(),
        );
    }
    set
}

#[test]
fn skewed_sweeps_are_byte_identical_under_both_shardings() {
    // The determinism contract on the pathological-skew shape: where the
    // one expensive cell lands must not change a single byte of the
    // results relative to the one-worker round-robin reference, at 1, 2,
    // and 8 workers.
    let set = skewed_set(24);
    let costs = set.cell_costs();
    let (min_cost, max_cost) = (
        costs.iter().copied().min().unwrap(),
        costs.iter().copied().max().unwrap(),
    );
    assert!(
        max_cost >= 20 * min_cost,
        "the skew must be pathological: {max_cost} vs {min_cost}"
    );

    let mut sweep = SweepSet::new();
    sweep.push_set_ref(&set);
    let reference = sweep
        .run_parallel_sharded(&mut SessionPool::new(), 1, SweepSharding::RoundRobin)
        .unwrap();

    for threads in [1, 2, 8] {
        for sharding in [SweepSharding::ByPlatform, SweepSharding::RoundRobin] {
            let got = sweep
                .run_parallel_sharded(&mut SessionPool::new(), threads, sharding)
                .unwrap();
            assert_eq!(
                got, reference,
                "{sharding:?} diverged from the reference at {threads} workers"
            );
            assert_eq!(format!("{got:?}"), format!("{reference:?}"));
        }
    }
}

#[test]
fn estimated_cell_costs_rank_correlate_with_actual_slice_loop_work() {
    // Cost-model accuracy, in two halves. The estimate only has to *order*
    // cells like the work the simulator actually does
    // (`loop_stats.fixed_point_iters`) — scheduling quality is a function
    // of ranks, not scale.
    //
    // (a) On the Fig. 10 matrix (SPEC suite × {baseline, sysscale}), auto
    // durations make real per-cell work near-constant (every slice runs
    // the full fixed-point budget), so the one strong ordering signal is
    // the long-iteration outlier — the estimate must agree with the
    // measurement on which cell dominates each member.
    let config = SocConfig::skylake_m_6y75(Power::from_watts(4.5));
    let suite = sysscale_workloads::spec_cpu2006_suite();
    let mut sweep = SweepSet::new();
    sweep.push_set(ScenarioSet::matrix(&config, &suite, &["baseline", "sysscale"]).unwrap());

    let estimated = sweep.cell_costs();
    let runs = sweep
        .run_parallel(&mut SessionPool::new(), 4)
        .unwrap()
        .pop()
        .unwrap();
    let actual: Vec<u64> = runs
        .records()
        .iter()
        .map(|r| r.report.loop_stats.fixed_point_iters)
        .collect();
    assert_eq!(estimated.len(), actual.len());
    let argmax = |values: &[u64]| {
        values
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| **v)
            .map(|(i, _)| i)
            .unwrap()
    };
    let half = suite.len();
    for (governor, range) in [("baseline", 0..half), ("sysscale", half..2 * half)] {
        assert_eq!(
            argmax(&estimated[range.clone()]),
            argmax(&actual[range.clone()]),
            "estimate must identify the dominant {governor} cell"
        );
    }

    // (b) On a duration-graded column of the same suite — geometric ×2
    // horizons, the spread a skewed sweep actually schedules over — the
    // full ranking must rank-correlate with the measured work, pinned at
    // Spearman rho ≥ 0.85.
    let mut graded = ScenarioSet::new();
    for (i, workload) in suite.iter().enumerate() {
        let secs = 0.05 * f64::from(1u32 << (i % 6));
        graded.push(
            Scenario::builder(workload.clone())
                .config(config.clone())
                .duration(SimTime::from_secs(secs))
                .build()
                .unwrap(),
        );
    }
    let mut graded_sweep = SweepSet::new();
    graded_sweep.push_set_ref(&graded);
    let estimated: Vec<f64> = graded_sweep
        .cell_costs()
        .iter()
        .map(|&c| c as f64)
        .collect();
    let runs = graded_sweep
        .run_parallel(&mut SessionPool::new(), 4)
        .unwrap()
        .pop()
        .unwrap();
    let actual: Vec<f64> = runs
        .records()
        .iter()
        .map(|r| r.report.loop_stats.fixed_point_iters as f64)
        .collect();
    let rho = spearman_rank_correlation(&estimated, &actual);
    assert!(
        rho >= 0.85,
        "estimated cost must rank-order cells like the real slice-loop work \
         (Spearman rho = {rho:.3})"
    );
}

/// Spearman rank correlation with average ranks for ties.
fn spearman_rank_correlation(a: &[f64], b: &[f64]) -> f64 {
    fn ranks(values: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by(|&i, &j| values[i].total_cmp(&values[j]));
        let mut out = vec![0.0; values.len()];
        let mut i = 0;
        while i < order.len() {
            let mut j = i;
            while j + 1 < order.len() && values[order[j + 1]] == values[order[i]] {
                j += 1;
            }
            let avg = (i + j) as f64 / 2.0;
            for &k in &order[i..=j] {
                out[k] = avg;
            }
            i = j + 1;
        }
        out
    }
    let (ra, rb) = (ranks(a), ranks(b));
    let n = ra.len() as f64;
    let mean = (n - 1.0) / 2.0;
    let mut cov = 0.0;
    let mut var_a = 0.0;
    let mut var_b = 0.0;
    for (x, y) in ra.iter().zip(&rb) {
        cov += (x - mean) * (y - mean);
        var_a += (x - mean) * (x - mean);
        var_b += (y - mean) * (y - mean);
    }
    cov / (var_a.sqrt() * var_b.sqrt())
}

#[test]
fn fig3a_streaming_reducer_reproduces_the_collected_figure() {
    // Reference: the pre-streaming path — collect every slice, then reduce —
    // reconstructed from the public API with the same scenarios fig3a runs.
    let config = SocConfig::skylake_default();
    let workloads = [
        spec_workload("perlbench").unwrap(),
        spec_workload("lbm").unwrap(),
        spec_workload("astar").unwrap(),
        sysscale_workloads::graphics_workload("3DMark06").unwrap(),
    ];
    let mut session = SimSession::new();
    let mut reference = Vec::new();
    for workload in &workloads {
        let scenario = Scenario::builder(workload.clone())
            .config(config.clone())
            .trace(true)
            .build()
            .unwrap();
        let record = session.run(&scenario).unwrap();
        let trace = record.trace.expect("trace requested");
        let samples: Vec<(f64, f64)> = trace
            .iter()
            .map(|t| (t.at.as_secs(), t.demanded_gib_s))
            .collect();
        let avg = samples.iter().map(|(_, b)| b).sum::<f64>() / samples.len().max(1) as f64;
        let peak = samples.iter().map(|(_, b)| *b).fold(0.0, f64::max);
        reference.push(motivation::BandwidthTrace {
            workload: record.workload.clone(),
            samples,
            average_gib_s: avg,
            peak_gib_s: peak,
        });
    }

    let streamed = motivation::fig3a(&config).unwrap();
    assert_eq!(streamed, reference, "fig3a changed under streaming");
    // The reservoir really held the whole figure (exact mode), and the
    // figure is comfortably inside the O(reservoir) bound.
    for row in &streamed {
        assert!(row.samples.len() <= motivation::TRACE_RESERVOIR_CAPACITY);
    }
}
