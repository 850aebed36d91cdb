//! Stress benchmark of the sweep service (`sysscale_dist::serve`): a
//! fall-then-rise load schedule against one long-running `SweepService`,
//! the way llamaburn stress-tests an inference server, plus a mixed-load
//! schedule measuring what the shared cost-aware scheduler buys.
//!
//! **Staged schedule** — each stage sets a concurrent client count; every
//! client submits a burst of identical small sweeps over an in-memory
//! connection and collects its results. The client count rises and then
//! falls back, so both the degradation point and the recovery point of
//! the schedule are exercised (`sysscale_dist::assess_stages`); one
//! `{"kind":"stress_perf",…}` record per stage is emitted. Per-sweep
//! results stay byte-identical to the in-process fold (asserted before
//! anything is timed).
//!
//! **Mixed-load schedule** — one big population sweep is submitted and run
//! twice: once alone (`"solo"`), then with a stream of small sweeps riding
//! alongside it (`"shared"`). The solo big-sweep latency is what a
//! first-come-first-served queue would make the first small sweep wait;
//! the shared small-sweep p95 is the number the cost-aware scheduler
//! exists to improve (a small sweep no longer waits out the big one).
//! Each run emits one `{"kind":"mixed_perf",…}` record.
//!
//! Records append to the `SYSSCALE_BENCH_HISTORY` JSONL file when that
//! variable is set (tagged via `SYSSCALE_BENCH_TAG`).
//!
//! ```text
//! cargo bench -p sysscale-bench --bench stress            # full schedule
//! cargo bench -p sysscale-bench --bench stress -- --short # CI smoke
//! ```

use sysscale::{CollectRuns, RunRecord, SessionPool};
use sysscale_bench::timing::{MixedPerf, StressPerf};
use sysscale_dist::{
    assess_stages, sweep_from_sets, GovernorSpec, MatrixRecipe, PlatformSpec, ServeOptions,
    StressMetrics, SweepRecipe, SweepService, WorkloadsSpec,
};
use sysscale_types::exec;
use sysscale_workloads::GeneratorConfig;

/// The unit of load: a compact 4-cell sweep (2 workloads × 2 governors),
/// small enough that a stage is dominated by serving, not simulating.
fn unit_recipe() -> SweepRecipe {
    SweepRecipe::single(MatrixRecipe {
        platform: PlatformSpec::SkylakeM6y75 { tdp_w: 4.5 },
        workloads: WorkloadsSpec::SpecNamed(["gamess", "lbm"].map(str::to_string).to_vec()),
        governors: vec![
            GovernorSpec::Registry("baseline".to_string()),
            GovernorSpec::SysScaleDefault,
        ],
        baseline: Some("baseline".to_string()),
        duration_secs: Some(0.25),
        pinned_fingerprint: None,
    })
}

/// The big mixed-load tenant: a synthetic population of `count` workloads
/// × 2 governors, long enough that the small sweeps submitted alongside
/// it land while it is still running.
fn big_recipe(count: usize) -> SweepRecipe {
    SweepRecipe::single(MatrixRecipe {
        platform: PlatformSpec::SkylakeM6y75 { tdp_w: 6.0 },
        workloads: WorkloadsSpec::Population {
            config: GeneratorConfig::default(),
            count,
        },
        governors: vec![
            GovernorSpec::Registry("baseline".to_string()),
            GovernorSpec::SysScaleDefault,
        ],
        baseline: Some("baseline".to_string()),
        duration_secs: Some(0.25),
        pinned_fingerprint: None,
    })
}

/// The in-process reference stream the served results must match.
fn in_process(recipe: &SweepRecipe) -> Vec<(usize, RunRecord)> {
    let sets = recipe.build().expect("buildable recipe");
    let sweep = sweep_from_sets(&sets);
    let mut pool = SessionPool::new();
    let acc = sweep
        .run_parallel_fold_sharded(&mut pool, 3, recipe.sharding, &CollectRuns)
        .expect("in-process sweep");
    CollectRuns::into_flat_records(acc)
}

/// Runs one stage: `clients` concurrent connections, each submitting
/// `burst` sweeps up front and collecting them all. Returns the stage's
/// metrics plus the raw counters the perf record carries.
fn run_stage(
    recipe: &SweepRecipe,
    expected: &[(usize, RunRecord)],
    clients: usize,
    burst: usize,
    workers: usize,
) -> (StressMetrics, u64, u64) {
    let service = SweepService::start(&ServeOptions {
        workers,
        ..ServeOptions::default()
    });
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let mut client = service.connect();
            scope.spawn(move || {
                let ids: Vec<u64> = (0..burst)
                    .map(|_| client.submit(recipe, 0).expect("submit"))
                    .collect();
                let outcomes = client.collect(&ids).expect("collect");
                for id in &ids {
                    let outcome = &outcomes[id];
                    assert!(outcome.error.is_none(), "healthy sweep failed");
                    assert_eq!(
                        outcome.records, expected,
                        "served records must be byte-identical to the in-process fold"
                    );
                }
                client.close();
            });
        }
    });
    let stats = service.shutdown();
    assert_eq!(stats.submissions, (clients * burst) as u64);
    assert_eq!(stats.errors, 0, "healthy schedule must not error");
    assert_eq!(stats.frames_rejected, 0, "healthy schedule rejects nothing");
    assert_eq!(stats.busy_shed, 0, "healthy schedule sheds nothing");
    (
        stats.metrics(),
        stats.max_queue_depth,
        stats.frames_rejected,
    )
}

/// Nearest-rank percentile over request latencies, in milliseconds.
fn percentile_ms(latencies_micros: &mut [u64], q: f64) -> f64 {
    if latencies_micros.is_empty() {
        return 0.0;
    }
    latencies_micros.sort_unstable();
    let rank =
        ((q * latencies_micros.len() as f64).ceil() as usize).clamp(1, latencies_micros.len());
    latencies_micros[rank - 1] as f64 / 1e3
}

/// Runs the mixed-load schedule once: submit the big sweep, then (as soon
/// as it is admitted) `small_requests` small sweeps on a second
/// connection — none for the `"solo"` reference run. Returns the emitted
/// record's fields.
fn run_mixed(
    workers: usize,
    big: &SweepRecipe,
    big_expected: &[(usize, RunRecord)],
    small: &SweepRecipe,
    small_expected: &[(usize, RunRecord)],
    small_requests: usize,
) -> MixedPerf {
    let service = SweepService::start(&ServeOptions {
        workers,
        ..ServeOptions::default()
    });
    let mut big_client = service.connect();
    let mut small_client = service.connect();
    let mode = if small_requests == 0 {
        "solo"
    } else {
        "shared"
    };

    let big_id = big_client.submit(big, 0).expect("submit big");
    // Wait for the admission ack so every small sweep demonstrably
    // arrives with the big sweep holding a depth slot.
    let accepted = big_client.recv().expect("recv").expect("server alive");
    assert!(
        matches!(accepted, sysscale_dist::ServeEvent::Accepted { submit_id, .. } if submit_id == big_id),
        "first frame must be the big sweep's Accepted"
    );
    for _ in 0..small_requests {
        let outcome = small_client.run_sweep(small, 0).expect("small sweep");
        assert_eq!(
            outcome.result().expect("healthy small sweep"),
            small_expected,
            "small sweep must stay byte-identical under mixed load ({mode})"
        );
    }
    let outcomes = big_client.collect(&[big_id]).expect("collect big");
    assert_eq!(
        outcomes[&big_id].result().expect("healthy big sweep"),
        big_expected,
        "big sweep must stay byte-identical under mixed load ({mode})"
    );
    big_client.close();
    small_client.close();
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);

    let small_cells = small.total_cells() as u64;
    let big_cells = big.total_cells() as u64;
    let mut small_latencies: Vec<u64> = stats
        .samples
        .iter()
        .filter(|s| s.cells == small_cells)
        .map(|s| s.total_micros)
        .collect();
    assert_eq!(small_latencies.len(), small_requests);
    let big_latency_micros = stats
        .samples
        .iter()
        .find(|s| s.cells == big_cells)
        .map_or(0, |s| s.total_micros);
    MixedPerf {
        mode,
        workers,
        big_cells,
        small_requests: small_requests as u64,
        small_cells,
        small_p50_latency_ms: percentile_ms(&mut small_latencies, 0.50),
        small_p95_latency_ms: percentile_ms(&mut small_latencies, 0.95),
        big_latency_ms: big_latency_micros as f64 / 1e3,
        busy_shed: stats.busy_shed,
        errors: stats.errors,
    }
}

fn main() {
    let short = std::env::args().any(|a| a == "--short");
    // Fall-then-rise: the load climbs past the service's knee, then drops
    // back to the baseline client count so recovery is observable.
    let (client_stages, burst): (&[usize], usize) = if short {
        (&[1, 4, 1], 2)
    } else {
        (&[1, 2, 4, 8, 2], 3)
    };
    let label = if short {
        "serve_smoke"
    } else {
        "serve_rising_load"
    };
    let workers = exec::default_threads();
    let recipe = unit_recipe();
    let expected = in_process(&recipe);

    let stages: Vec<(StressMetrics, u64, u64, usize)> = client_stages
        .iter()
        .map(|&clients| {
            let (metrics, max_queue_depth, frames_rejected) =
                run_stage(&recipe, &expected, clients, burst, workers);
            println!(
                "stress/{label}: {clients} client(s) -> {:.1} req/s, p95 {:.1} ms, \
                 queue depth {max_queue_depth}",
                metrics.requests_per_sec, metrics.p95_latency_ms,
            );
            (metrics, max_queue_depth, frames_rejected, clients)
        })
        .collect();

    let metrics_only: Vec<StressMetrics> = stages.iter().map(|s| s.0).collect();
    let assessment = assess_stages(&metrics_only);
    let degradation_stage = assessment
        .degradation_stage
        .map_or(-1, |stage| i64::try_from(stage).unwrap_or(-1));
    let recovery_stage = assessment
        .recovery_stage
        .map_or(-1, |stage| i64::try_from(stage).unwrap_or(-1));

    for (stage, (metrics, max_queue_depth, frames_rejected, clients)) in stages.iter().enumerate() {
        let perf = StressPerf {
            stage,
            clients: *clients,
            workers,
            requests: metrics.requests,
            errors: metrics.errors,
            cells: (metrics.requests) * recipe.total_cells() as u64,
            requests_per_sec: metrics.requests_per_sec,
            cells_per_sec: metrics.cells_per_sec,
            p50_latency_ms: metrics.p50_latency_ms,
            p95_latency_ms: metrics.p95_latency_ms,
            p99_latency_ms: metrics.p99_latency_ms,
            p999_latency_ms: metrics.p999_latency_ms,
            queue_share: metrics.queue_share,
            error_rate: metrics.error_rate,
            max_queue_depth: *max_queue_depth,
            frames_rejected: *frames_rejected,
            degradation_stage,
            recovery_stage,
            recovery_ms: assessment.recovery_ms,
        };
        perf.emit("stress", label);
        assert!(perf.requests_per_sec > 0.0);
        assert!(perf.p50_latency_ms <= perf.p95_latency_ms);
        assert!(perf.p95_latency_ms <= perf.p99_latency_ms);
        assert!(perf.p99_latency_ms <= perf.p999_latency_ms);
    }
    match (degradation_stage, recovery_stage) {
        (-1, _) => println!("stress/{label}: no degradation point across the schedule"),
        (d, -1) => println!(
            "stress/{label}: degradation at stage {d}, no recovery ({:.1} ms degraded)",
            assessment.recovery_ms
        ),
        (d, r) => println!(
            "stress/{label}: degradation at stage {d}, recovery at stage {r} \
             ({:.1} ms degraded)",
            assessment.recovery_ms
        ),
    }

    // Mixed load: the big sweep alone, then with a stream of small ones
    // riding alongside. Solo big-sweep latency vs shared small-sweep p95 is
    // the headline: under FIFO the first small sweep would wait out the
    // whole big sweep.
    let mixed_label = if short { "mixed_smoke" } else { "mixed_load" };
    let (big_count, small_requests) = if short { (52, 8) } else { (104, 8) };
    let big = big_recipe(big_count);
    let big_expected = in_process(&big);
    let small_expected = in_process(&recipe);
    let [solo, shared] = [0, small_requests].map(|small_requests| {
        let perf = run_mixed(
            workers,
            &big,
            &big_expected,
            &recipe,
            &small_expected,
            small_requests,
        );
        println!(
            "stress/{mixed_label}: {} -> small p95 {:.1} ms (p50 {:.1} ms), \
             big {:.1} ms, {} cells",
            perf.mode,
            perf.small_p95_latency_ms,
            perf.small_p50_latency_ms,
            perf.big_latency_ms,
            perf.big_cells,
        );
        perf.emit(mixed_label);
        perf
    });
    let speedup = solo.big_latency_ms / shared.small_p95_latency_ms.max(1e-9);
    println!(
        "stress/{mixed_label}: small-sweep p95 is {speedup:.1}x below the FIFO wait \
         (solo big {:.1} ms -> shared small p95 {:.1} ms)",
        solo.big_latency_ms, shared.small_p95_latency_ms,
    );
}
