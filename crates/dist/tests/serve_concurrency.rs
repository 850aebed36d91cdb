//! Concurrency tests for the sweep service ([`sysscale_dist::serve`]).
//!
//! The contract under test: a [`SweepService`] executing many concurrent
//! client submissions against **one shared warm pool** returns, per
//! submission, a record stream **byte-identical** to an in-process
//! [`SweepSet::run_parallel_fold`](sysscale::SweepSet) of the same recipe —
//! at every configured worker count, for every interleaving — while the
//! pool stays bounded by the worker count (no per-request session growth).
//! Every client talks to the service over loopback TCP.

use std::net::TcpStream;
use std::time::Instant;

use sysscale::{CollectRuns, RunRecord, SessionPool};
use sysscale_dist::serve::FT_SUBMIT;
use sysscale_dist::wire::write_frame;
use sysscale_dist::{
    sweep_from_sets, Enc, GovernorSpec, MatrixRecipe, PlatformSpec, ServeClient, ServeError,
    ServeEvent, ServeOptions, SweepOutcome, SweepRecipe, SweepService, WorkloadsSpec,
};
use sysscale_workloads::GeneratorConfig;

/// A compact 4-cell sweep (2 workloads × 2 governors), distinguished per
/// client by TDP so interleaved submissions have distinct right answers.
fn tiny_recipe(tdp_w: f64) -> SweepRecipe {
    SweepRecipe::single(MatrixRecipe {
        platform: PlatformSpec::SkylakeM6y75 { tdp_w },
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

/// A big synthetic-population sweep (`count` workloads × 2 governors) — the
/// long-running tenant the mixed-load tests interleave small sweeps with.
fn population_recipe(count: usize) -> SweepRecipe {
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

/// Deterministic Fisher-Yates over an LCG: the "randomized" in randomized
/// interleavings, reproducible per seed.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    for i in (1..items.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % (i + 1);
        items.swap(i, j);
    }
}

/// The in-process reference stream for a recipe: flat-indexed records from
/// `run_parallel_fold`, at a thread count deliberately different from any
/// the service runs with.
fn in_process(recipe: &SweepRecipe) -> Vec<(usize, RunRecord)> {
    let sets = recipe.build().expect("buildable recipe");
    let sweep = sweep_from_sets(&sets);
    let mut pool = SessionPool::new();
    let acc = sweep
        .run_parallel_fold_sharded(&mut pool, 3, recipe.sharding, &CollectRuns)
        .expect("in-process sweep");
    CollectRuns::into_flat_records(acc)
}

#[test]
fn interleaved_clients_get_byte_identical_results_at_every_worker_count() {
    const CLIENTS: usize = 4;
    let recipes: Vec<SweepRecipe> = (0..CLIENTS)
        .map(|i| tiny_recipe(4.0 + i as f64 * 0.5))
        .collect();
    let expected: Vec<Vec<(usize, RunRecord)>> = recipes.iter().map(in_process).collect();

    for workers in [1usize, 2, 4] {
        let service = SweepService::start(&ServeOptions {
            workers,
            ..ServeOptions::default()
        });
        let mut clients: Vec<ServeClient> = (0..CLIENTS)
            .map(|_| service.connect().expect("connect"))
            .collect();

        // Interleave the submissions: every client submits twice before
        // anyone starts collecting, so the executor sees a mixed queue of
        // eight submissions from four connections.
        let ids: Vec<(u64, u64)> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, client)| {
                let first = client.submit(&recipes[i], 0).expect("submit");
                let second = client.submit(&recipes[i], 0).expect("resubmit");
                (first, second)
            })
            .collect();

        for (i, (client, (first, second))) in clients.into_iter().zip(&ids).enumerate() {
            let mut client = client;
            let outcomes = client.collect(&[*first, *second]).expect("collect");
            for id in [first, second] {
                let outcome = &outcomes[id];
                assert!(outcome.error.is_none(), "healthy sweep must not error");
                assert_eq!(
                    outcome.records, expected[i],
                    "client {i} at {workers} workers must match the in-process fold"
                );
                // Streamed in ascending flat order, not just set-equal.
                assert!(outcome.records.windows(2).all(|w| w[0].0 < w[1].0));
                assert_eq!(outcome.total_cells, expected[i].len() as u64);
            }
            client.close();
        }

        let stats = service.shutdown();
        assert_eq!(stats.submissions, (CLIENTS * 2) as u64);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.frames_rejected, 0, "healthy path rejects nothing");
        assert!(stats.max_queue_depth >= 1);
    }
}

#[test]
fn the_shared_pool_stays_bounded_across_many_submissions() {
    const WORKERS: usize = 2;
    let service = SweepService::start(&ServeOptions {
        workers: WORKERS,
        ..ServeOptions::default()
    });
    let mut client = service.connect().expect("connect");
    let recipe = tiny_recipe(4.5);
    for _ in 0..6 {
        let outcome = client.run_sweep(&recipe, 0).expect("sweep");
        assert!(outcome.error.is_none());
    }
    client.close();
    let stats = service.shutdown();
    assert_eq!(stats.submissions, 6);
    // One warm pool serves every request: sessions are per worker slot,
    // never per submission.
    assert!(
        stats.pool_workers <= WORKERS,
        "pool grew to {} worker sessions for {WORKERS} workers",
        stats.pool_workers
    );
    // Every submission ran the same single-platform recipe: the cache
    // holds at most one platform per worker session.
    assert!(
        stats.pool_cached_platforms <= WORKERS,
        "pool cached {} simulators across {WORKERS} workers",
        stats.pool_cached_platforms
    );
}

#[test]
fn progress_snapshots_are_monotone_and_reach_the_total() {
    let service = SweepService::start(&ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let mut client = service.connect().expect("connect");
    let recipe = tiny_recipe(4.5);
    let total = recipe.total_cells() as u64;
    let outcome = client.run_sweep(&recipe, 1).expect("sweep");
    assert!(outcome.error.is_none());
    // Strictly increasing on the wire — the service's monotone gate —
    // and the final snapshot is (total, total).
    assert!(!outcome.progress.is_empty());
    assert!(outcome
        .progress
        .windows(2)
        .all(|w| w[0].0 < w[1].0 && w[0].1 == w[1].1));
    assert_eq!(*outcome.progress.last().unwrap(), (total, total));
    client.close();
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
}

#[test]
fn sweep_done_timing_fits_inside_the_client_wall_time() {
    // `SweepDone` is the only record of a request's timing: the server's
    // admission-to-completion time must be positive and fit inside what
    // the client measured from submit to the frame's arrival.
    let service = SweepService::start(&ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let mut client = service.connect().expect("connect");
    let recipe = tiny_recipe(4.5);
    let started = Instant::now();
    let outcome = client.run_sweep(&recipe, 0).expect("sweep");
    let wall_micros = u64::try_from(started.elapsed().as_micros()).expect("wall time");
    let records = outcome.result().expect("healthy sweep");
    assert_eq!(records.len(), recipe.total_cells());
    assert!(outcome.exec_micros > 0, "a non-empty sweep takes time");
    assert!(
        outcome.queued_micros + outcome.exec_micros <= wall_micros,
        "server time {} + {} us exceeds the client's {wall_micros} us",
        outcome.queued_micros,
        outcome.exec_micros
    );
    client.close();
    let stats = service.shutdown();
    assert_eq!(stats.submissions, 1);
}

#[test]
fn listening_tcp_clients_get_the_in_process_bytes() {
    let recipe = tiny_recipe(5.0);
    let expected = in_process(&recipe);
    let service = SweepService::start(&ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let addr = service.listen_tcp("127.0.0.1:0").expect("bind");
    let mut client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");
    let outcome = client.run_sweep(&recipe, 0).expect("sweep");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.records, expected);
    client.close();
    let stats = service.shutdown();
    assert_eq!(stats.submissions, 1);
    assert_eq!(stats.frames_rejected, 0);
}

#[test]
fn a_bad_recipe_fails_the_submission_not_the_connection() {
    let service = SweepService::start(&ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let mut client = service.connect().expect("connect");

    // A recipe that decodes but cannot build (unknown workload): the
    // service must answer with a SweepError and keep the connection
    // serving.
    let garbage = SweepRecipe::single(MatrixRecipe {
        platform: PlatformSpec::SkylakeM6y75 { tdp_w: 4.5 },
        workloads: WorkloadsSpec::SpecNamed(vec!["not-a-spec-workload".to_string()]),
        governors: vec![GovernorSpec::Registry("baseline".to_string())],
        baseline: None,
        duration_secs: Some(0.25),
        pinned_fingerprint: None,
    });
    let bad_id = client.submit(&garbage, 0).expect("submit");
    let outcomes = client.collect(&[bad_id]).expect("collect");
    assert!(
        outcomes[&bad_id].error.is_some(),
        "an unknown workload must surface as a SweepError"
    );

    // The same connection still serves healthy sweeps afterwards.
    let good = tiny_recipe(4.5);
    let outcome = client.run_sweep(&good, 0).expect("sweep after error");
    assert!(outcome.error.is_none());
    assert_eq!(outcome.records, in_process(&good));

    client.close();
    let stats = service.shutdown();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.submissions, 2);
}

#[test]
fn an_undecodable_recipe_fails_the_submission_and_counts_as_an_error() {
    let service = SweepService::start(&ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    let addr = service.listen_tcp("127.0.0.1:0").expect("bind");
    let client_reader = TcpStream::connect(addr).expect("connect");
    let mut client_writer = client_reader.try_clone().expect("clone stream");

    // A well-formed Submit header ("SVSW" magic, layout version 1) whose
    // recipe bytes do not decode: the submission is addressable, so it
    // must fail like an unbuildable recipe — not vanish from the counters.
    let mut enc = Enc::new();
    enc.put_u32(0x5753_5653);
    enc.put_u16(1);
    enc.put_u64(7); // submit_id
    enc.put_u64(0); // progress_every
    enc.put_bytes(b"definitely not a sweep recipe");
    write_frame(&mut client_writer, FT_SUBMIT, &enc.into_bytes()).expect("raw submit");

    let mut client = ServeClient::new(Box::new(client_reader), Box::new(client_writer));
    let outcomes = client.collect(&[7]).expect("collect");
    assert!(
        matches!(outcomes[&7].result(), Err(ServeError::Sweep(_))),
        "an undecodable recipe must surface as a SweepError"
    );
    client.close();

    let stats = service.shutdown();
    assert_eq!(stats.errors, 1);
    assert_eq!(stats.submissions, 1, "the failure was admitted");
    assert_eq!(stats.frames_rejected, 0, "the frame itself was well formed");
}

#[test]
fn mixed_load_interleavings_stay_byte_identical_at_every_worker_count() {
    // The tentpole contract: one big sweep plus a handful of small ones,
    // submitted in randomized interleavings, and every submission's record
    // stream under the cost-aware scheduler is byte-identical to its solo
    // in-process fold, at 1/2/4 workers.
    let big = population_recipe(12);
    let smalls: Vec<SweepRecipe> = (0..3).map(|i| tiny_recipe(4.0 + i as f64 * 0.5)).collect();
    let big_expected = in_process(&big);
    let small_expected: Vec<Vec<(usize, RunRecord)>> = smalls.iter().map(in_process).collect();

    for workers in [1usize, 2, 4] {
        let service = SweepService::start(&ServeOptions {
            workers,
            ..ServeOptions::default()
        });
        let mut big_client = service.connect().expect("connect big");
        let mut small_clients: Vec<ServeClient> = smalls
            .iter()
            .map(|_| service.connect().expect("connect small"))
            .collect();

        // Shuffle who submits when; slot 0 is the big sweep.
        let mut order: Vec<usize> = (0..=smalls.len()).collect();
        shuffle(&mut order, workers as u64 * 16 + 1);
        let mut big_id = 0;
        let mut small_ids = vec![0u64; smalls.len()];
        for &who in &order {
            if who == 0 {
                big_id = big_client.submit(&big, 0).expect("submit big");
            } else {
                small_ids[who - 1] = small_clients[who - 1]
                    .submit(&smalls[who - 1], 0)
                    .expect("submit small");
            }
        }

        for (i, client) in small_clients.iter_mut().enumerate() {
            let outcomes = client.collect(&[small_ids[i]]).expect("collect small");
            assert_eq!(
                outcomes[&small_ids[i]].records, small_expected[i],
                "small {i} at {workers} workers must match its solo fold"
            );
        }
        let outcomes = big_client.collect(&[big_id]).expect("collect big");
        assert_eq!(
            outcomes[&big_id].records, big_expected,
            "big sweep at {workers} workers must match its solo fold"
        );

        big_client.close();
        for client in small_clients {
            client.close();
        }
        let stats = service.shutdown();
        assert_eq!(stats.submissions, 1 + smalls.len() as u64);
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.busy_shed, 0);
        assert_eq!(stats.frames_rejected, 0);
    }
}

#[test]
fn small_sweeps_overtake_a_big_sweep_under_cost_fair_scheduling() {
    // Fairness: the two small sweeps' total cost is far below one worker's
    // share of the big sweep, so cost-fair interleaving must complete both
    // before the big sweep finishes — the whole point of the shared
    // scheduler over a first-come-first-served queue.
    let service = SweepService::start(&ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });
    let mut client = service.connect().expect("connect");
    let big = population_recipe(30);
    let big_id = client.submit(&big, 0).expect("submit big");
    let a_id = client.submit(&tiny_recipe(4.5), 0).expect("submit small a");
    let b_id = client.submit(&tiny_recipe(5.0), 0).expect("submit small b");

    // One stream, so completion order is directly observable.
    let mut finish_order: Vec<u64> = Vec::new();
    while finish_order.len() < 3 {
        match client.recv().expect("recv").expect("server hung up") {
            ServeEvent::SweepDone { submit_id, .. } => finish_order.push(submit_id),
            ServeEvent::SweepError { submit_id, error } => {
                panic!("submission {submit_id} failed: {error}")
            }
            _ => {}
        }
    }
    assert_eq!(
        finish_order.last(),
        Some(&big_id),
        "small sweeps must not wait out the big sweep (finish order {finish_order:?})"
    );
    assert!(finish_order.contains(&a_id) && finish_order.contains(&b_id));

    client.close();
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
    // The smalls were admitted while the big sweep was in flight.
    assert!(stats.max_queue_depth >= 2);
}

#[test]
fn admission_bound_sheds_busy_as_a_typed_retryable_error() {
    let service = SweepService::start(&ServeOptions {
        workers: 1,
        max_pending: 1,
    });
    let mut client = service.connect().expect("connect");
    let big = population_recipe(10);
    let small = tiny_recipe(4.5);

    // The big sweep occupies the single admission slot for its whole
    // lifetime; the small one must bounce off the bound.
    let big_id = client.submit(&big, 0).expect("submit big");
    let shed_id = client.submit(&small, 0).expect("submit small");
    let outcomes = client.collect(&[big_id, shed_id]).expect("collect");

    let shed = outcomes[&shed_id].result().expect_err("must be shed");
    assert!(shed.is_retryable(), "busy is retryable by contract");
    assert!(
        matches!(&shed, ServeError::Busy(busy) if busy.max_pending == 1 && busy.queue_depth == 2),
        "unexpected shed error: {shed:?}"
    );
    assert!(outcomes[&big_id].result().is_ok(), "big sweep unaffected");

    // The big sweep has completed (collect saw SweepDone), freeing the
    // slot: the retry goes through and returns the right bytes.
    let retry = client.run_sweep(&small, 0).expect("retry");
    assert_eq!(retry.result().expect("retry succeeds"), in_process(&small));

    client.close();
    let stats = service.shutdown();
    assert_eq!(stats.busy_shed, 1, "exactly one submission shed");
    assert_eq!(stats.submissions, 2, "shed submissions are not admitted");
    assert_eq!(stats.errors, 0, "busy is not an error");
}

/// Nearest-rank percentile of request latencies, in milliseconds.
fn percentile_ms(latencies_micros: &mut [u64], q: f64) -> f64 {
    latencies_micros.sort_unstable();
    let rank =
        ((q * latencies_micros.len() as f64).ceil() as usize).clamp(1, latencies_micros.len());
    latencies_micros[rank - 1] as f64 / 1e3
}

/// One mixed-load run: the big sweep, then, once it is admitted,
/// `small_requests` sequential small sweeps on a second connection.
/// Returns the big sweep's latency and the small sweeps' latencies, in
/// microseconds: each is the server's admission-to-completion time from
/// its `SweepDone` frame.
fn run_mixed(
    workers: usize,
    big: &SweepRecipe,
    big_expected: &[(usize, RunRecord)],
    small: &SweepRecipe,
    small_expected: &[(usize, RunRecord)],
    small_requests: usize,
) -> (u64, Vec<u64>) {
    let service = SweepService::start(&ServeOptions {
        workers,
        ..ServeOptions::default()
    });
    let mut big_client = service.connect().expect("connect big");
    let mut small_client = service.connect().expect("connect small");
    let big_id = big_client.submit(big, 0).expect("submit big");
    // Every small sweep arrives with the big sweep holding a depth slot.
    let accepted = big_client.recv().expect("recv").expect("server alive");
    assert!(
        matches!(accepted, ServeEvent::Accepted { submit_id, .. } if submit_id == big_id),
        "first frame must be the big sweep's Accepted"
    );
    let latency = |outcome: &SweepOutcome| outcome.queued_micros + outcome.exec_micros;
    let mut small_micros = Vec::with_capacity(small_requests);
    for _ in 0..small_requests {
        let outcome = small_client.run_sweep(small, 0).expect("small sweep");
        assert_eq!(
            outcome.result().expect("healthy small sweep"),
            small_expected
        );
        small_micros.push(latency(&outcome));
    }
    let outcomes = big_client.collect(&[big_id]).expect("collect big");
    assert_eq!(
        outcomes[&big_id].result().expect("healthy big sweep"),
        big_expected
    );
    big_client.close();
    small_client.close();
    let stats = service.shutdown();
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.busy_shed, 0);
    (latency(&outcomes[&big_id]), small_micros)
}

/// The cost-aware scheduler's headline under mixed load: the small-sweep
/// p95 beside an in-flight big sweep is at most half the big sweep's solo
/// latency, which is what a first-come-first-served queue would make the
/// first small sweep wait. With 8 small sweeps the nearest-rank p95 is the
/// slowest of them. A wall-clock ratio, so it is ignored by default and run
/// on its own with `-- --ignored --test-threads=1`.
#[test]
#[ignore = "timing ratio; run alone with --ignored --test-threads=1"]
fn small_sweep_p95_is_at_most_half_the_fifo_wait_under_mixed_load() {
    let workers = sysscale_types::exec::default_threads();
    let big = population_recipe(52);
    let small = tiny_recipe(4.5);
    let (big_expected, small_expected) = (in_process(&big), in_process(&small));

    let (solo_big_micros, _) = run_mixed(workers, &big, &big_expected, &small, &small_expected, 0);
    let (_, mut small_micros) = run_mixed(workers, &big, &big_expected, &small, &small_expected, 8);
    let fifo_wait_ms = solo_big_micros as f64 / 1e3;
    let p50 = percentile_ms(&mut small_micros, 0.50);
    let p95 = percentile_ms(&mut small_micros, 0.95);
    println!(
        "mixed load at {workers} workers: solo big {fifo_wait_ms:.1} ms, shared small p95 \
         {p95:.1} ms (p50 {p50:.1} ms), {:.1}x",
        fifo_wait_ms / p95
    );
    assert!(0.0 < p50 && p50 <= p95, "p50 {p50} ms, p95 {p95} ms");
    assert!(
        fifo_wait_ms >= 2.0 * p95,
        "solo big {fifo_wait_ms:.1} ms < 2 x shared small p95 {p95:.1} ms"
    );
}
