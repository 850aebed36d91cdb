//! `serve_open` and `serve_mixed`: sweeps submitted over loopback TCP to a
//! [`SweepService`] with `nproc` workers.
//!
//! Both workloads open-loop small sweeps (2–8 cells of 50 ms simulated,
//! platform, workloads and governors drawn from the seed) at a fixed
//! Poisson rate for the whole run, timing each request from its due time to
//! `SweepDone`. `serve_mixed` runs a second tenant alongside on its own
//! connection: big kernel-bound sweeps back to back.

use std::collections::HashSet;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sysscale::{ScenarioSource, SessionPool, SweepSharding};
use sysscale_dist::serve::{decode_event, encode_submit, FT_CLOSE, FT_SUBMIT};
use sysscale_dist::wire::{read_frame, write_frame, WireError};
use sysscale_dist::{
    sweep_from_sets, GovernorSpec, MatrixRecipe, PlatformSpec, ServeClient, ServeEvent,
    ServeOptions, ServeStats, SweepRecipe, SweepService, WorkloadsSpec,
};
use sysscale_types::rng::SplitMix64;
use sysscale_workloads::SPEC_CPU2006;

use crate::eval::figures_predictor;
use crate::layers::{self, CellLog, LayerTotals};
use crate::probe::{self, Mark};
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use crate::{median, Ctx, Outcome};

/// Offered rate of the open-loop small sweeps, requests per second.
pub const FIXED_RATE_RPS: f64 = 400.0;

/// The open-loop generator may send this late (p99) before the run's
/// latencies stop describing the service and the run is marked invalid.
/// Latencies are timed from the due time, so lateness is charged to them
/// either way; past this the offered load no longer follows the schedule.
/// On 2 cores with the big tenant saturating both, healthy runs reach
/// about 25 ms.
pub const LAG_LIMIT_MS: f64 = 50.0;

/// Simulated length of each small-sweep cell, seconds.
const SMALL_DURATION_S: f64 = 0.05;

const TDPS_W: [f64; 5] = [3.5, 4.5, 6.0, 7.0, 15.0];

const SMALL_GOVERNORS: [&str; 5] = ["baseline", "sysscale", "memscale", "coscale", "md-dvfs"];

/// Distinct small sweeps per run: 70 of each size from 2 to 8 cells.
const RECIPE_POOL: usize = 490;

/// Admission bound of the service: high enough that overload shows as
/// latency, not as shed requests.
const MAX_PENDING: u64 = 1 << 20;

/// Setup repetitions; `setup_s` is their median.
const SETUPS: usize = 15;

/// Client connections to the service: one per compute worker, at most 2.
fn connections(ctx: &Ctx) -> usize {
    ctx.threads.clamp(1, 2)
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[(rng.next_u64() % items.len() as u64) as usize]
}

/// Picks `n` distinct items.
fn pick_distinct<T: Copy + PartialEq>(rng: &mut SplitMix64, items: &[T], n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let item = pick(rng, items);
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

/// A small sweep of `cells` cells (2–8) drawn from `rng`: a platform of
/// the kind × TDP pool (15 platforms, more than the service has workers, so
/// per-worker simulator caches both hit and miss), then 2 governors ×
/// `cells / 2` SPEC workloads or 1 governor × `cells` workloads.
pub fn small_recipe(rng: &mut SplitMix64, cells: usize) -> SweepRecipe {
    let tdp_w = pick(rng, &TDPS_W);
    let platform = match rng.next_u64() % 3 {
        0 => PlatformSpec::SkylakeM6y75 { tdp_w },
        1 => PlatformSpec::SkylakeDdr4 { tdp_w },
        _ => PlatformSpec::SkylakeThreePoint { tdp_w },
    };
    // The restricted MemScale/CoScale platform has no DDR4 variant.
    let pool: Vec<&str> = SMALL_GOVERNORS
        .into_iter()
        .filter(|g| {
            !matches!(platform, PlatformSpec::SkylakeDdr4 { .. })
                || !matches!(*g, "memscale" | "coscale")
        })
        .collect();
    let governor_count = if cells.is_multiple_of(2) && rng.next_u64().is_multiple_of(2) {
        2
    } else {
        1
    };
    let governors = pick_distinct(rng, &pool, governor_count);
    let workloads = cells / governor_count;
    let names: Vec<&str> = SPEC_CPU2006.iter().map(|d| d.name).collect();
    SweepRecipe::single(MatrixRecipe {
        platform,
        workloads: WorkloadsSpec::SpecNamed(
            pick_distinct(rng, &names, workloads)
                .into_iter()
                .map(str::to_string)
                .collect(),
        ),
        baseline: governors
            .contains(&"baseline")
            .then(|| "baseline".to_string()),
        governors: governors
            .into_iter()
            .map(|g| match g {
                "sysscale" => GovernorSpec::SysScaleDefault,
                name => GovernorSpec::Registry(name.to_string()),
            })
            .collect(),
        duration_secs: Some(SMALL_DURATION_S),
        pinned_fingerprint: None,
    })
}

/// The big tenant of `serve_mixed`: the SPEC suite × {baseline, sysscale}
/// at auto duration.
fn big_recipe(rng: &mut SplitMix64) -> SweepRecipe {
    let mut recipe = SweepRecipe::fig10(&[pick(rng, &TDPS_W)]);
    recipe.sharding = SweepSharding::ByPlatform;
    recipe
}

/// One open-loop request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// Due time from the phase start, nanoseconds.
    pub due_ns: u64,
    /// Index into the run's recipe pool.
    pub recipe: usize,
}

/// The run's small sweeps, drawn from the seed, with every size from 2 to
/// 8 cells equally often. Requests pick from this pool so references are
/// computed once per recipe; the service caches no results, so repeats
/// cannot make it faster.
pub fn recipe_pool(seed: u64) -> Vec<SweepRecipe> {
    let mut rng = SplitMix64::new(seed);
    (0..RECIPE_POOL)
        .map(|i| small_recipe(&mut rng, 2 + i % 7))
        .collect()
}

/// An open-loop schedule of `n` requests at `rate` per second: Poisson
/// arrivals conditioned on the `n`-th falling at `n / rate` seconds, so
/// the offered load is exact. Requests walk a seeded permutation of the
/// `pool` recipes, so every recipe recurs equally often. The same seed
/// gives the same arrivals and the same mix.
pub fn schedule(seed: u64, rate: f64, n: usize, pool: usize) -> Vec<Req> {
    let mut rng = SplitMix64::new(seed);
    let mut arrivals: Vec<f64> = Vec::with_capacity(n);
    let mut t = 0.0;
    for _ in 0..n {
        t += -(1.0 - rng.next_f64()).ln();
        arrivals.push(t);
    }
    let scale = n as f64 / rate / t.max(f64::MIN_POSITIVE);
    let mut order: Vec<usize> = (0..pool).collect();
    for i in (1..pool).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    arrivals
        .into_iter()
        .enumerate()
        .map(|(i, at)| Req {
            due_ns: (at * scale * 1e9) as u64,
            recipe: order[i % pool],
        })
        .collect()
}

/// The in-process reference of a recipe: per-cell record digests in flat
/// order, and the sweep's simulated slices.
#[derive(Debug, Clone, Default)]
pub struct Reference {
    pub digests: Vec<u64>,
    pub slices: u64,
}

/// Computes in-process fold references on one warm session pool.
#[derive(Default)]
pub struct References {
    pool: SessionPool,
}

impl References {
    /// The reference of `recipe`: the in-process fold at `threads`
    /// workers under the recipe's sharding, which served and dispatched
    /// record streams must equal byte for byte.
    pub fn get(&mut self, recipe: &SweepRecipe, threads: usize, clock: &Tracer) -> Arc<Reference> {
        let sets = recipe.build().expect("buildable recipe");
        let sweep = sweep_from_sets(&sets);
        let acc = sweep
            .run_parallel_fold_sharded(
                &mut self.pool,
                threads,
                recipe.sharding,
                &CellLog::new(clock, false, None),
            )
            .expect("reference fold");
        let rows = acc.sorted_rows();
        Arc::new(Reference {
            digests: rows.iter().map(|r| r.digest).collect(),
            slices: rows.iter().map(|r| r.slices).sum(),
        })
    }
}

/// What the client saw of one request.
#[derive(Debug, Clone, Default)]
pub struct ReqLog {
    pub sent_ns: u64,
    pub accepted_ns: u64,
    pub first_cell_ns: u64,
    pub done_ns: u64,
    pub cells_seen: usize,
    pub queued_us: u64,
    pub exec_us: u64,
    pub finished: bool,
    pub failed: bool,
}

/// A connection's receive side: folds server frames into request logs
/// and checks every served record against its reference as it arrives.
/// Submit ids are indices into `refs`.
pub struct Tracker {
    refs: Vec<Arc<Reference>>,
    pub logs: Vec<ReqLog>,
    mine: Vec<u64>,
    pub remaining: usize,
    pub frames_in: u64,
}

impl Tracker {
    #[must_use]
    pub fn new(refs: Vec<Arc<Reference>>, mine: Vec<u64>) -> Self {
        Self {
            logs: vec![ReqLog::default(); refs.len()],
            remaining: mine.len(),
            refs,
            mine,
            frames_in: 0,
        }
    }

    fn finish(&mut self, id: u64, failed: bool, now_ns: u64) {
        let log = &mut self.logs[id as usize];
        if !log.finished {
            log.finished = true;
            log.failed |= failed;
            log.done_ns = now_ns;
            self.remaining -= 1;
        }
    }

    /// Folds one server frame.
    ///
    /// # Errors
    ///
    /// An undecodable frame or an unknown submit id: the stream can no
    /// longer be attributed, and the caller fails what remains.
    pub fn on_frame(
        &mut self,
        frame_type: u8,
        payload: &[u8],
        now_ns: u64,
    ) -> Result<(), WireError> {
        self.frames_in += 1;
        let event = decode_event(frame_type, payload)?;
        let id = match &event {
            ServeEvent::Accepted { submit_id, .. }
            | ServeEvent::Progress { submit_id, .. }
            | ServeEvent::Cell { submit_id, .. }
            | ServeEvent::SweepDone { submit_id, .. }
            | ServeEvent::SweepError { submit_id, .. }
            | ServeEvent::Busy { submit_id, .. } => *submit_id,
        };
        if id as usize >= self.logs.len() {
            return Err(WireError::malformed(format!("unknown submit id {id}")));
        }
        let reference = Arc::clone(&self.refs[id as usize]);
        let log = &mut self.logs[id as usize];
        match event {
            ServeEvent::Accepted { .. } => log.accepted_ns = now_ns,
            ServeEvent::Progress { .. } => {}
            ServeEvent::Cell { flat, record, .. } => {
                if log.cells_seen == 0 {
                    log.first_cell_ns = now_ns;
                }
                let expected = reference.digests.get(log.cells_seen);
                if flat != log.cells_seen || expected != Some(&layers::digest(&record)) {
                    log.failed = true;
                }
                log.cells_seen += 1;
            }
            ServeEvent::SweepDone {
                cells,
                queued_micros,
                exec_micros,
                ..
            } => {
                log.queued_us = queued_micros;
                log.exec_us = exec_micros;
                let complete = log.cells_seen == reference.digests.len()
                    && cells as usize == reference.digests.len();
                self.finish(id, !complete, now_ns);
            }
            ServeEvent::SweepError { .. } | ServeEvent::Busy { .. } => {
                self.finish(id, true, now_ns);
            }
        }
        Ok(())
    }

    /// Fails every request of this connection that has not finished.
    pub fn abort(&mut self, now_ns: u64) {
        for id in self.mine.clone() {
            self.finish(id, true, now_ns);
        }
    }

    #[must_use]
    pub fn failed(&self) -> usize {
        self.mine
            .iter()
            .filter(|&&id| self.logs[id as usize].failed)
            .count()
    }
}

/// Reads frames until every request of the connection has finished.
fn receive(stream: &mut TcpStream, tracker: &mut Tracker, clock: &Tracer) {
    while tracker.remaining > 0 {
        let frame = read_frame(stream);
        let now = clock.now_ns();
        let ok = match frame {
            Ok(Some((frame_type, payload))) => tracker.on_frame(frame_type, &payload, now).is_ok(),
            Ok(None) | Err(_) => false,
        };
        if !ok {
            tracker.abort(now);
        }
    }
}

struct Conn {
    write: TcpStream,
    read: TcpStream,
}

/// One open-loop phase's results.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub logs: Vec<ReqLog>,
    /// Due times, nanoseconds on the clock.
    pub due_ns: Vec<u64>,
    pub lag_ms: Vec<f64>,
    pub frames_in: u64,
    pub failed: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl PhaseResult {
    /// Latency from due time to `SweepDone`, milliseconds, for requests
    /// that finished healthy.
    #[must_use]
    pub fn latencies_ms(&self) -> Samples {
        Samples::new(
            self.logs
                .iter()
                .zip(&self.due_ns)
                .filter(|(log, _)| !log.failed)
                .map(|(log, due)| log.done_ns.saturating_sub(*due) as f64 / 1e6)
                .collect(),
        )
    }
}

/// Sends `reqs` open-loop, alternating connections, and receives on one
/// thread per connection.
fn run_phase(
    conns: &mut [Conn],
    reqs: &[Req],
    recipes: &[SweepRecipe],
    refs: &[Arc<Reference>],
    clock: &Tracer,
) -> PhaseResult {
    let n = reqs.len();
    let mark = Mark::now();
    let start_ns = clock.now_ns() + 2_000_000; // let the receivers start
    let refs: Vec<Arc<Reference>> = reqs.iter().map(|r| Arc::clone(&refs[r.recipe])).collect();
    let mut sent = vec![0u64; n];
    let mut lag_ms = Vec::with_capacity(n);
    let count = conns.len();
    let (reads, mut writes): (Vec<&mut TcpStream>, Vec<&mut TcpStream>) = conns
        .iter_mut()
        .map(|c| (&mut c.read, &mut c.write))
        .unzip();
    let trackers = std::thread::scope(|scope| {
        let handles: Vec<_> = reads
            .into_iter()
            .enumerate()
            .map(|(c, read)| {
                let mine: Vec<u64> = (c..n).step_by(count).map(|i| i as u64).collect();
                let mut tracker = Tracker::new(refs.clone(), mine);
                scope.spawn(move || {
                    receive(read, &mut tracker, clock);
                    tracker
                })
            })
            .collect();
        for (i, req) in reqs.iter().enumerate() {
            let due = start_ns + req.due_ns;
            let now = clock.now_ns();
            if due > now {
                std::thread::sleep(Duration::from_nanos(due - now));
            }
            let payload = encode_submit(i as u64, 0, &recipes[req.recipe]);
            sent[i] = clock.now_ns();
            lag_ms.push(sent[i].saturating_sub(due) as f64 / 1e6);
            // A failed write surfaces as the request never finishing; the
            // receiver aborts the connection when the stream ends.
            let _ = write_frame(&mut *writes[i % count], FT_SUBMIT, &payload);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("receiver thread"))
            .collect::<Vec<Tracker>>()
    });
    let (wall_s, cpu_s) = mark.since();
    let mut result = PhaseResult {
        logs: vec![ReqLog::default(); n],
        due_ns: reqs.iter().map(|r| start_ns + r.due_ns).collect(),
        lag_ms,
        wall_s,
        cpu_s,
        ..PhaseResult::default()
    };
    for tracker in trackers {
        result.frames_in += tracker.frames_in;
        result.failed += tracker.failed();
        for &id in &tracker.mine {
            result.logs[id as usize] = tracker.logs[id as usize].clone();
        }
    }
    for (log, at) in result.logs.iter_mut().zip(&sent) {
        log.sent_ns = *at;
    }
    result
}

/// A running service with its client connections.
struct Served {
    service: SweepService,
    addr: String,
    conns: Vec<Conn>,
}

fn start_service(ctx: &Ctx) -> Served {
    let service = SweepService::start(&ServeOptions {
        workers: ctx.threads,
        max_pending: MAX_PENDING,
        ..ServeOptions::default()
    });
    let addr = service
        .listen_tcp("127.0.0.1:0")
        .expect("bind loopback")
        .to_string();
    let conns = (0..connections(ctx))
        .map(|_| {
            let stream = sysscale_dist::connect_with_backoff(&addr).expect("connect");
            stream.set_nodelay(true).expect("nodelay");
            Conn {
                read: stream.try_clone().expect("clone stream"),
                write: stream,
            }
        })
        .collect();
    Served {
        service,
        addr,
        conns,
    }
}

fn stop_service(mut served: Served) -> ServeStats {
    for conn in &mut served.conns {
        let _ = write_frame(&mut conn.write, FT_CLOSE, &[]);
        let _ = conn.write.shutdown(Shutdown::Write);
    }
    served.service.shutdown()
}

/// Total length of the union of `[start, end)` intervals, nanoseconds.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut covered_to) = (0, 0);
    for (start, end) in intervals {
        let start = start.max(covered_to);
        if end > start {
            total += end - start;
            covered_to = end;
        }
    }
    total
}

/// Seconds during which the service was executing at least one of the
/// phase's healthy requests: the union of their execution intervals, each
/// the `SweepDone` execution time ending where the frame arrived.
fn exec_busy_s(result: &PhaseResult) -> f64 {
    let intervals = result
        .logs
        .iter()
        .filter(|l| !l.failed)
        .map(|l| (l.done_ns.saturating_sub(l.exec_us * 1000), l.done_ns))
        .collect();
    union_ns(intervals) as f64 / 1e9
}

/// The big tenant: back-to-back big sweeps on a connection of its own
/// until `stop`; returns (submit→done seconds, failed count, cells, slices).
fn big_tenant(
    addr: &str,
    recipe: &SweepRecipe,
    reference: &Reference,
    stop: &AtomicBool,
) -> (Vec<f64>, u64, u64, u64) {
    let mut client = ServeClient::connect_tcp(addr).expect("connect big tenant");
    let (mut times, mut failed, mut cells, mut slices) = (Vec::new(), 0, 0, 0);
    while !stop.load(Ordering::SeqCst) {
        let start = Instant::now();
        let outcome = client.run_sweep(recipe, 0).expect("big sweep transport");
        times.push(start.elapsed().as_secs_f64());
        let ok = outcome.result().is_ok_and(|records| {
            records.len() == reference.digests.len()
                && records
                    .iter()
                    .enumerate()
                    .all(|(i, (flat, r))| *flat == i && layers::digest(r) == reference.digests[i])
        });
        failed += u64::from(!ok);
        cells += reference.digests.len() as u64;
        slices += reference.slices;
    }
    client.close();
    (times, failed, cells, slices)
}

pub fn run_open(ctx: &Ctx, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    run(ctx, seconds, tracer, false)
}

pub fn run_mixed(ctx: &Ctx, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    run(ctx, seconds, tracer, true)
}

#[allow(clippy::too_many_lines)]
fn run(ctx: &Ctx, seconds: f64, tracer: Option<&Arc<Tracer>>, mixed: bool) -> Outcome {
    let mut out = Outcome::default();
    let clock = Tracer::new(ctx.epoch);
    let root = tracer.map(|t| t.open("bench.run", None, 0));
    // Both workloads spend the whole run length at the fixed rate,
    // serve_mixed beside the big tenant.
    let fixed_requests = (FIXED_RATE_RPS * seconds).ceil() as usize;

    // Setup: the seeded schedule, the service, its listener and the client
    // connections. Earlier repetitions are torn down again.
    let mut setup_secs = Vec::new();
    let mut built = None;
    for rep in 0..SETUPS {
        let start = Instant::now();
        let pool = recipe_pool(ctx.seed);
        let reqs = schedule(ctx.seed, FIXED_RATE_RPS, fixed_requests, pool.len());
        let big = big_recipe(&mut SplitMix64::new(ctx.seed ^ 0xB16));
        let served = start_service(ctx);
        setup_secs.push(start.elapsed().as_secs_f64());
        if rep + 1 < SETUPS {
            let _ = stop_service(served);
        } else {
            built = Some((reqs, pool, big, served));
        }
    }
    let (reqs, recipes, big, mut served) = built.expect("at least one setup");

    let open = |name| tracer.map(|t| t.open(name, root, 0));
    let close = |span: Option<SpanId>| {
        if let (Some(t), Some(id)) = (tracer, span) {
            t.close(id);
        }
    };

    // References, outside every timed window.
    let span = open("scenario.reference");
    let mut refs = References::default();
    let pool_refs: Vec<Arc<Reference>> = recipes
        .iter()
        .map(|r| refs.get(r, ctx.threads, &clock))
        .collect();
    let big_ref = refs.get(&big, ctx.threads, &clock);
    close(span);

    // The fixed-rate phase (with the big tenant alongside when mixed).
    let fixed_span = open("client.fixed_phase");
    let stop = AtomicBool::new(false);
    let (fixed, big_run) = std::thread::scope(|scope| {
        let tenant = mixed.then(|| scope.spawn(|| big_tenant(&served.addr, &big, &big_ref, &stop)));
        let fixed = run_phase(&mut served.conns, &reqs, &recipes, &pool_refs, &clock);
        stop.store(true, Ordering::SeqCst);
        (fixed, tenant.map(|t| t.join().expect("big tenant")))
    });
    close(fixed_span);
    let peak_rss_mb = probe::peak_rss_mib();
    let stats = stop_service(served);

    // Results.
    let latencies = fixed.latencies_ms();
    let lag = Samples::new(fixed.lag_ms.clone());
    let small_cells: u64 = fixed
        .logs
        .iter()
        .zip(&reqs)
        .filter(|(l, _)| !l.failed)
        .map(|(_, r)| pool_refs[r.recipe].digests.len() as u64)
        .sum();
    let small_slices: u64 = fixed
        .logs
        .iter()
        .zip(&reqs)
        .filter(|(l, _)| !l.failed)
        .map(|(_, r)| pool_refs[r.recipe].slices)
        .sum();
    let (big_times, big_failed, big_cells, big_slices) = big_run.unwrap_or_default();
    out.attempted = (fixed.logs.len() + big_times.len()) as u64;
    out.failed = fixed.failed as u64 + big_failed;
    if lag.pct(0.99) > LAG_LIMIT_MS {
        out.invalid = Some(format!(
            "open-loop generator ran {:.2} ms late at p99 (limit {LAG_LIMIT_MS} ms)",
            lag.pct(0.99)
        ));
    }

    // The small sweeps' cells per wall second are the offered load, fixed
    // by the schedule, so throughput comes from time the service spent:
    // the big tenant's own sweep time when mixed, and otherwise the time
    // the service was executing small sweeps.
    let (done_cells, done_slices, busy_s) = if mixed {
        (big_cells, big_slices, big_times.iter().sum::<f64>())
    } else {
        (small_cells, small_slices, exec_busy_s(&fixed))
    };
    let busy_s = busy_s.max(1e-9);
    out.e2e("setup_s", median(&setup_secs));
    out.e2e("cells_per_s", done_cells as f64 / busy_s);
    out.e2e("slices_per_s", done_slices as f64 / busy_s);
    out.note("offered_cells_per_s", small_cells as f64 / fixed.wall_s);
    out.note("busy_s", busy_s);
    out.latency(&latencies, 1.0);
    out.e2e(
        "big_sweep_s",
        if mixed {
            median(&big_times)
        } else {
            // Open loop: the largest (6- to 8-cell) requests of the mix.
            let big_ms: Vec<f64> = fixed
                .logs
                .iter()
                .zip(&fixed.due_ns)
                .zip(&reqs)
                .filter(|((l, _), r)| !l.failed && pool_refs[r.recipe].digests.len() >= 6)
                .map(|((l, due), _)| l.done_ns.saturating_sub(*due) as f64 / 1e9)
                .collect();
            median(&big_ms)
        },
    );
    out.e2e("peak_rss_mb", peak_rss_mb);
    out.e2e(
        "cpu_ms_per_cell",
        fixed.cpu_s * 1e3 / (small_cells + big_cells).max(1) as f64,
    );
    let config = sysscale::SocConfig::skylake_default();
    let (predictor, _, _) = figures_predictor(&config, None, None);
    out.gaps(&config, &predictor, ctx.threads);
    out.note("fixed_rate_rps", FIXED_RATE_RPS);
    out.note("big_sweeps", big_times.len() as f64);
    out.note("gen_lag_p99_ms", lag.pct(0.99));
    out.note("gen_lag_samples", lag.len() as f64);

    out.layer("client.gen_lag_p99_ms", lag.pct(0.99));
    out.layer(
        "proc.cpu_util",
        fixed.cpu_s / (fixed.wall_s * ctx.threads as f64),
    );
    if let Some(tracer) = tracer {
        traced_layers(
            ctx, tracer, root, fixed_span, &mut out, &fixed, &recipes, &stats,
        );
    }
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn traced_layers(
    ctx: &Ctx,
    tracer: &Arc<Tracer>,
    root: Option<SpanId>,
    fixed_span: Option<SpanId>,
    out: &mut Outcome,
    fixed: &PhaseResult,
    recipes: &[SweepRecipe],
    stats: &ServeStats,
) {
    // Client-side request spans of the fixed phase, from the logs.
    for (id, (log, due)) in fixed.logs.iter().zip(&fixed.due_ns).enumerate() {
        let req = id as u64;
        let span = tracer.record("client.request", *due, log.done_ns, fixed_span, req);
        tracer.record("client.lag", *due, log.sent_ns, Some(span), req);
        tracer.record("serve.admit", log.sent_ns, log.accepted_ns, Some(span), req);
        if log.cells_seen > 0 {
            tracer.record(
                "serve.first_cell",
                log.accepted_ns,
                log.first_cell_ns,
                Some(span),
                req,
            );
        }
    }
    let admit_us: Vec<f64> = fixed
        .logs
        .iter()
        .map(|l| l.accepted_ns.saturating_sub(l.sent_ns) as f64 / 1e3)
        .collect();
    let first_cell_ms: Vec<f64> = fixed
        .logs
        .iter()
        .filter(|l| l.cells_seen > 0)
        .map(|l| l.first_cell_ns.saturating_sub(l.accepted_ns) as f64 / 1e6)
        .collect();
    out.layer("serve.admit_us", median(&admit_us));
    out.layer("serve.first_cell_ms", median(&first_cell_ms));
    let queued: Vec<f64> = fixed
        .logs
        .iter()
        .map(|l| l.queued_us as f64 / 1e3)
        .collect();
    let exec: Vec<f64> = fixed.logs.iter().map(|l| l.exec_us as f64 / 1e3).collect();
    out.layer("serve.queued_ms", median(&queued));
    out.layer("serve.exec_ms", median(&exec));
    out.layer("serve.max_queue_depth", stats.max_queue_depth as f64);
    out.layer("serve.busy_shed", stats.busy_shed as f64);
    out.layer("serve.frames_rejected", stats.frames_rejected as f64);
    out.layer("serve.cached_platforms", stats.pool_cached_platforms as f64);
    out.layer("client.frames_in", fixed.frames_in as f64);

    // Recipe, planning, scenario, soc and governor layers, timed on the
    // fixed phase's own recipes by calls the benchmark makes.
    let (mut build_ms, mut encode_us, mut decode_us, mut plan_ms) =
        (vec![], vec![], vec![], vec![]);
    let mut platforms = HashSet::new();
    let mut totals = LayerTotals::default();
    let mut pool = SessionPool::new();
    let mut sample = Vec::new();
    let mut records = Vec::new();
    for recipe in recipes {
        let start = Instant::now();
        let bytes = tracer.time("recipe.encode", root, 0, || recipe.encode());
        encode_us.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        let decoded = tracer.time("recipe.decode", root, 0, || SweepRecipe::decode(&bytes));
        decode_us.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(decoded.expect("own encoding decodes"));
        let start = Instant::now();
        let sets = tracer.time("recipe.build", root, 0, || {
            recipe.build().expect("buildable")
        });
        build_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let sweep = sweep_from_sets(&sets);
        let start = Instant::now();
        std::hint::black_box(tracer.time("scenario.plan", root, 0, || {
            (
                sweep.slot_indices(ctx.threads, recipe.sharding),
                sweep.cell_costs(),
            )
        }));
        plan_ms.push(start.elapsed().as_secs_f64() * 1e3);
        for set in &sets {
            platforms.extend(set.shard_keys());
            if sample.len() < 200 {
                sample.extend(set.scenarios().iter().take(2).cloned());
            }
        }
        let timed_sets: Vec<_> = sets
            .iter()
            .map(|s| layers::timed_set(s, tracer).expect("timed set"))
            .collect();
        let span = tracer.open("scenario.sweep", root, 0);
        let start = Instant::now();
        let acc = sweep_from_sets(&timed_sets)
            .run_parallel_fold_sharded(
                &mut pool,
                ctx.threads,
                recipe.sharding,
                &CellLog::new(tracer, true, Some(span)),
            )
            .expect("traced reference fold");
        totals.add(&acc, start.elapsed().as_nanos() as u64);
        tracer.close(span);
        if records.len() < 200 {
            records.extend(sysscale::CollectRuns::into_records(
                sweep
                    .run_parallel_fold_sharded(
                        &mut SessionPool::new(),
                        1,
                        SweepSharding::RoundRobin,
                        &sysscale::CollectRuns,
                    )
                    .expect("records"),
            ));
        }
    }
    out.layer("recipe.build_ms", median(&build_ms));
    out.layer("recipe.encode_us", median(&encode_us));
    out.layer("recipe.decode_us", median(&decode_us));
    out.layer("scenario.plan_ms", median(&plan_ms));
    out.cell_layers(&totals);
    out.layer(
        "scenario.sim_builds",
        stats.pool_cached_platforms as f64 / platforms.len().max(1) as f64,
    );
    out.layer(
        "scenario.setup_us",
        layers::setup_us(&sample).expect("setup sample").median(),
    );
    let (bytes, enc, dec, frame) = layers::codec_costs(&records);
    out.layer("codec.record_bytes", bytes);
    out.layer("codec.encode_us", enc);
    out.layer("codec.decode_us", dec);
    out.layer("wire.frame_us", frame);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale::RunRecord;
    use sysscale_dist::codec::put_record;
    use sysscale_dist::serve::{FT_ACCEPTED, FT_CELL, FT_SWEEP_DONE};
    use sysscale_dist::wire::Enc;

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_mix() {
        let (a_reqs, a_recipes) = (schedule(42, 200.0, 300, 64), recipe_pool(42));
        let (b_reqs, b_recipes) = (schedule(42, 200.0, 300, 64), recipe_pool(42));
        assert_eq!(a_reqs, b_reqs);
        assert_eq!(a_recipes, b_recipes);
        let (c_reqs, c_recipes) = (schedule(43, 200.0, 300, 64), recipe_pool(43));
        assert_ne!(a_reqs, c_reqs);
        assert_ne!(a_recipes, c_recipes);
        assert!(a_reqs.iter().all(|r| r.recipe < 64));
        // Arrivals ascend and the last falls at n / rate.
        assert!(a_reqs.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let last_s = a_reqs.last().unwrap().due_ns as f64 / 1e9;
        assert!((last_s - 300.0 / 200.0).abs() < 1e-6, "{last_s}");
        // Every size from 2 to 8 cells is equally common in the pool.
        let mut sizes = [0usize; 9];
        for recipe in &a_recipes {
            sizes[recipe.total_cells()] += 1;
        }
        assert_eq!(&sizes[2..], &[RECIPE_POOL / 7; 7]);
        // A schedule as long as the pool uses every recipe once.
        let mut seen: Vec<usize> = schedule(42, 200.0, 64, 64)
            .iter()
            .map(|r| r.recipe)
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn overlapping_execution_intervals_count_once() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(10, 20), (0, 5), (15, 30), (22, 25)]), 25);
        assert_eq!(union_ns(vec![(0, 10), (10, 20)]), 20);
        assert_eq!(union_ns(vec![(5, 5), (7, 3)]), 0);
    }

    fn payload(build: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut enc = Enc::new();
        build(&mut enc);
        enc.into_bytes()
    }

    fn tiny_record() -> RunRecord {
        let recipe = SweepRecipe::single(MatrixRecipe {
            platform: PlatformSpec::SkylakeDefault,
            workloads: WorkloadsSpec::SpecNamed(vec!["416.gamess".to_string()]),
            governors: vec![GovernorSpec::Registry("baseline".to_string())],
            baseline: None,
            duration_secs: Some(0.01),
            pinned_fingerprint: None,
        });
        let sets = recipe.build().unwrap();
        let acc = sweep_from_sets(&sets)
            .run_parallel_fold(&mut SessionPool::new(), 1, &sysscale::CollectRuns)
            .unwrap();
        sysscale::CollectRuns::into_records(acc).remove(0)
    }

    /// Feeds Accepted, one Cell (optionally with a byte flipped inside the
    /// record) and SweepDone, and returns the tracker's failed count.
    fn serve_one(flip: Option<usize>) -> usize {
        let record = tiny_record();
        let reference = Arc::new(Reference {
            digests: vec![layers::digest(&record)],
            slices: 0,
        });
        let mut tracker = Tracker::new(vec![reference], vec![0]);
        let accepted = payload(|e| {
            e.put_u64(0);
            e.put_u64(1);
            e.put_u64(1);
        });
        let mut cell = payload(|e| {
            e.put_u64(0);
            e.put_usize(0);
            put_record(e, &record);
        });
        if let Some(at) = flip {
            cell[at] ^= 0x10;
        }
        let done = payload(|e| {
            e.put_u64(0);
            e.put_u64(1);
            e.put_u64(5);
            e.put_u64(7);
        });
        for (frame_type, bytes) in [
            (FT_ACCEPTED, accepted),
            (FT_CELL, cell),
            (FT_SWEEP_DONE, done),
        ] {
            if tracker.remaining > 0 && tracker.on_frame(frame_type, &bytes, 1).is_err() {
                tracker.abort(1);
            }
        }
        assert_eq!(tracker.remaining, 0);
        tracker.failed()
    }

    #[test]
    fn a_healthy_served_record_passes() {
        assert_eq!(serve_one(None), 0);
    }

    #[test]
    fn a_flipped_byte_in_a_served_record_is_caught_and_counted() {
        let record_len = layers::encode_record(&tiny_record()).len();
        // Flip bytes across the record: in numeric fields the digest check
        // catches it, in structural ones the decoder does; both count.
        for at in [16 + 8, 16 + record_len / 2, 16 + record_len - 20] {
            assert_eq!(serve_one(Some(at)), 1, "flip at byte {at}");
        }
    }
}
