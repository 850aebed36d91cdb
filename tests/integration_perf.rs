//! Performance contracts pinned by a counting global allocator: the
//! untraced slice loop performs no per-slice heap allocation, every
//! registry governor's `decide` is allocation-free per evaluation interval
//! across a full run, streaming a generator-backed workload population
//! holds live workload memory independent of the population size, and the
//! fold-based result pipeline holds peak result memory O(workers) — flat in
//! the cell count — where the materializing path grows O(cells).
//!
//! Allocation counts are per thread, so no other thread can land in a
//! counting window. Live and peak bytes are process-global (the fold tests
//! measure across worker threads), so this file's tests serialize on one
//! mutex instead of relying on `--test-threads=1`.

use std::sync::Mutex;

use sysscale::{
    calibration_source, measure_population_from, CalibrationConfig, FixedGovernor,
    GovernorRegistry, SessionPool, SocConfig, SocSimulator, SweepSet,
};
use sysscale_alloctrack::{allocations_during, peak_growth_during, TrackingAllocator};
use sysscale_types::{exec, SimTime};
use sysscale_workloads::{spec_workload, PopulationSource, WorkloadSource};

#[global_allocator]
static ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Serializes the allocator-observing tests (the byte counters are global).
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn untraced_run_allocations_are_independent_of_slice_count() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let mut sim = SocSimulator::new(SocConfig::skylake_default()).unwrap();
    let lbm = spec_workload("lbm").unwrap();

    // Warm-up: first run pays one-time lazy initialisation.
    sim.run(
        &lbm,
        &mut FixedGovernor::baseline(),
        SimTime::from_millis(300.0),
    )
    .unwrap();

    let (short_allocs, short_report) = allocations_during(|| {
        sim.run(
            &lbm,
            &mut FixedGovernor::baseline(),
            SimTime::from_millis(300.0),
        )
        .unwrap()
    });
    let (long_allocs, long_report) = allocations_during(|| {
        sim.run(
            &lbm,
            &mut FixedGovernor::baseline(),
            SimTime::from_millis(6_000.0),
        )
        .unwrap()
    });
    assert_eq!(short_report.loop_stats.slices, 300);
    assert_eq!(long_report.loop_stats.slices, 6_000);

    // Sanity: the counter is live (a run allocates its per-run state — the
    // compiled phase schedule, the counter window, the report strings) and
    // that state is small.
    assert!(short_allocs > 0, "allocation counter must be hooked");
    assert!(
        short_allocs < 64,
        "per-run setup should allocate O(1) times, got {short_allocs}"
    );

    // 20x the slices must not buy additional allocations: everything the
    // slice loop touches (counter sets, power breakdowns, the phase
    // schedule, the counter window) is fixed-size or preallocated per run.
    // A small slack absorbs allocator-internal bookkeeping.
    assert!(
        long_allocs <= short_allocs + 4,
        "allocations grew with slice count: {short_allocs} for 300 slices, \
         {long_allocs} for 6000 slices"
    );
}

#[test]
fn registry_governors_are_allocation_free_per_evaluation_interval() {
    let _guard = COUNTER_LOCK.lock().unwrap();

    // Every policy of the built-in registry — including the stateful
    // SysScale/MemScale/CoScale governors whose `decide` runs once per
    // evaluation interval — must not allocate per interval: a 20x longer
    // run (20x the intervals, and with it 20x the decisions and DVFS
    // transitions) must not buy additional allocations beyond the fixed
    // per-run setup. This is the ROADMAP's governor-interval audit.
    let registry = GovernorRegistry::builtin();
    let lbm = spec_workload("lbm").unwrap();
    for name in registry.names() {
        let factory = registry.resolve(&name).unwrap();
        let config = factory.platform(&SocConfig::skylake_default());
        let mut sim = SocSimulator::new(config).unwrap();

        // Warm-up: the first run pays one-time lazy initialisation.
        let mut governor = factory.build();
        sim.run(&lbm, governor.as_mut(), SimTime::from_millis(300.0))
            .unwrap();

        let (short_allocs, short_report) = allocations_during(|| {
            let mut governor = factory.build();
            sim.run(&lbm, governor.as_mut(), SimTime::from_millis(300.0))
                .unwrap()
        });
        let (long_allocs, long_report) = allocations_during(|| {
            let mut governor = factory.build();
            sim.run(&lbm, governor.as_mut(), SimTime::from_millis(6_000.0))
                .unwrap()
        });
        assert_eq!(short_report.loop_stats.slices, 300, "{name}");
        assert_eq!(long_report.loop_stats.slices, 6_000, "{name}");
        assert!(
            short_allocs > 0,
            "{name}: allocation counter must be hooked"
        );
        assert!(
            long_allocs <= short_allocs + 4,
            "{name}: allocations grew with interval count: {short_allocs} for 300 slices, \
             {long_allocs} for 6000 slices"
        );
    }
}

#[test]
fn streaming_a_population_holds_workload_memory_independent_of_size() {
    let _guard = COUNTER_LOCK.lock().unwrap();

    // Drain a generator-backed stream, keeping only a scalar digest: live
    // workload memory must stay flat because each workload is dropped before
    // the next is generated.
    let drain = |count: usize| -> u64 {
        let source = PopulationSource::with_seed(0x0A110C, count);
        let (peak, digest) = peak_growth_during(|| {
            source
                .stream()
                .map(|w| w.name.len() as u64 + w.phases.len() as u64)
                .sum::<u64>()
        });
        assert!(digest > 0, "stream was consumed");
        peak
    };

    // Warm-up pass absorbs one-time lazy state.
    let _ = drain(1_000);
    let small_peak = drain(10_000);
    let large_peak = drain(100_000);

    // Reference scale: materializing the large population holds every
    // workload at once.
    let source = PopulationSource::with_seed(0x0A110C, 100_000);
    let (materialized_peak, population) = peak_growth_during(|| source.materialize());
    assert_eq!(population.len(), 100_000);
    drop(population);

    // 10x the population must not grow the streaming peak: a generous
    // absolute slack (64 KiB) absorbs allocator bookkeeping noise, while
    // the materialized path is megabytes.
    assert!(
        large_peak <= small_peak + 64 * 1024,
        "streaming peak grew with population size: {small_peak} B for 10k, \
         {large_peak} B for 100k"
    );
    assert!(
        materialized_peak > 20 * large_peak.max(1),
        "materializing should dwarf streaming: {materialized_peak} B vs {large_peak} B"
    );
}

#[test]
fn folding_a_100k_cell_batch_holds_result_memory_independent_of_cell_count() {
    let _guard = COUNTER_LOCK.lock().unwrap();

    // The exec-level contract of the fold core: every cell produces a
    // heap-allocated "record" (a 256 B payload standing in for a
    // RunRecord); the fold digests and drops it, so peak result memory is
    // the per-worker accumulators — independent of how many cells stream
    // through — while the mapping path materializes every record.
    let workers = 8usize;
    let fold_peak = |cells: usize| -> u64 {
        let mut ctxs = vec![(); workers];
        let (peak, (count, digest)) = peak_growth_during(|| {
            exec::fold_indices_with_workers(
                &mut ctxs,
                cells,
                exec::Shard::RoundRobin,
                || (0u64, 0u64),
                |(), acc: &mut (u64, u64), i| {
                    let record = vec![(i % 251) as u8; 256];
                    acc.0 += 1;
                    acc.1 = acc
                        .1
                        .wrapping_add(record.iter().map(|&b| u64::from(b)).sum::<u64>());
                },
                |into, from| {
                    into.0 += from.0;
                    into.1 = into.1.wrapping_add(from.1);
                },
            )
        });
        assert_eq!(count, cells as u64);
        assert!(digest > 0);
        peak
    };

    // Warm-up pass absorbs one-time lazy state.
    let _ = fold_peak(1_000);
    let small_peak = fold_peak(10_000);
    let large_peak = fold_peak(100_000);

    // 10x the cells must not grow the fold's peak: a generous absolute
    // slack (64 KiB) absorbs allocator bookkeeping noise.
    assert!(
        large_peak <= small_peak + 64 * 1024,
        "fold peak grew with cell count: {small_peak} B for 10k cells, \
         {large_peak} B for 100k"
    );

    // Reference scale: materializing the same 100k records holds them all.
    let mut ctxs = vec![(); workers];
    let (materialized_peak, records) = peak_growth_during(|| {
        exec::fold_indices_with_workers(
            &mut ctxs,
            100_000,
            exec::Shard::RoundRobin,
            Vec::new,
            |(), records: &mut Vec<Vec<u8>>, i| records.push(vec![(i % 251) as u8; 256]),
            |into, from| into.extend(from),
        )
    });
    assert_eq!(records.len(), 100_000);
    drop(records);
    assert!(
        materialized_peak > 20 * large_peak.max(1),
        "materializing should dwarf the fold: {materialized_peak} B vs {large_peak} B"
    );
}

#[test]
fn fold_calibration_uses_less_result_memory_than_the_materialized_runset() {
    let _guard = COUNTER_LOCK.lock().unwrap();

    // The scenario-level spelling: a real calibration sweep (300 cells)
    // aggregated by the fold pipeline versus collected into a RunSet and
    // aggregated afterwards. Both produce bit-identical samples; the fold
    // path's peak heap growth must stay below the materializing path's,
    // which holds every record until the sweep drains. Warm pools keep the
    // one-time simulator construction out of both measurements.
    let config = SocConfig::skylake_default();
    let cal = CalibrationConfig {
        degradation_bound: 0.01,
        sim_duration: SimTime::from_millis(4.0),
    };
    let population = PopulationSource::with_seed(0x0F01D, 150);
    let threads = 4usize;

    let mut fold_pool = SessionPool::new();
    let _ = measure_population_from(&mut fold_pool, &config, &population, &cal, threads).unwrap();
    let (fold_peak, folded) = peak_growth_during(|| {
        measure_population_from(&mut fold_pool, &config, &population, &cal, threads).unwrap()
    });

    let mut collect_pool = SessionPool::new();
    let collect = |pool: &mut SessionPool| {
        let source = calibration_source(&config, &population, &cal).unwrap();
        let mut sweep = SweepSet::new();
        sweep.push_source(&source, None);
        sweep.run_parallel(pool, threads).unwrap().pop().unwrap()
    };
    let _ = collect(&mut collect_pool);
    let (materialized_peak, runs) = peak_growth_during(|| collect(&mut collect_pool));

    let reference = sysscale::samples_from_runs(&config, &population, &cal, &runs);
    assert_eq!(folded, reference, "fold and collected samples diverged");
    assert!(
        materialized_peak > fold_peak,
        "materializing a 300-cell RunSet should out-allocate the fold: \
         {materialized_peak} B vs {fold_peak} B"
    );
}
