//! `dist_sweep`: a closed loop of [`run_distributed_fold`] over a
//! fig10-shaped recipe (the SPEC suite × {baseline, sysscale} × a seeded
//! TDP grid) at `nproc` worker processes over pipes.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use sysscale::{CollectRuns, ScenarioSource, SessionPool};
use sysscale_dist::{
    run_distributed_fold, sweep_from_sets, DistOptions, DistStats, GovernorSpec, MatrixRecipe,
    PlatformSpec, SweepRecipe, WorkloadsSpec,
};
use sysscale_types::rng::SplitMix64;

use crate::eval::figures_predictor;
use crate::layers::{self, CellLog, LayerTotals};
use crate::probe::{self, Mark};
use crate::serve::References;
use crate::stats::Samples;
use crate::trace::Tracer;
use crate::{median, Ctx, Outcome};

const TDPS_W: [f64; 6] = [3.5, 4.5, 6.0, 7.0, 9.0, 15.0];

/// TDP points per sweep.
const GRID: usize = 4;

/// Setup repetitions; `setup_s` is their median.
const SETUPS: usize = 9;

/// In-process folds of the same recipe timed for `dist.overhead_frac`.
const IN_PROCESS_REPEATS: usize = 3;

/// Fewest distributed sweeps a run makes, however short.
const MIN_SWEEPS: usize = 3;

/// The dist sweep's recipe: four TDP points drawn from the seed.
fn recipe(seed: u64) -> SweepRecipe {
    let mut rng = SplitMix64::new(seed);
    let mut tdps: Vec<f64> = Vec::new();
    while tdps.len() < GRID {
        let tdp = TDPS_W[(rng.next_u64() % TDPS_W.len() as u64) as usize];
        if !tdps.contains(&tdp) {
            tdps.push(tdp);
        }
    }
    SweepRecipe::fig10(&tdps)
}

/// A two-cell sweep whose distributed run spawns the workers once.
fn spawn_check_recipe() -> SweepRecipe {
    SweepRecipe::single(MatrixRecipe {
        platform: PlatformSpec::SkylakeDefault,
        workloads: WorkloadsSpec::SpecNamed(vec!["416.gamess".to_string()]),
        governors: vec![
            GovernorSpec::Registry("baseline".to_string()),
            GovernorSpec::SysScaleDefault,
        ],
        baseline: Some("baseline".to_string()),
        duration_secs: Some(0.01),
        pinned_fingerprint: None,
    })
}

fn worker_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable");
    exe.with_file_name(format!("perfbench-worker{}", std::env::consts::EXE_SUFFIX))
}

fn worker_peak_rss_mib(dir: &std::path::Path) -> f64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            std::fs::read_to_string(entry.path())
                .ok()?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .fold(0.0, f64::max)
        / 1024.0
}

#[allow(clippy::too_many_lines)]
pub fn run(ctx: &Ctx, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    let clock = Tracer::new(ctx.epoch);
    let root = tracer.map(|t| t.open("bench.run", None, 0));
    let rss_dir = ctx.out_dir.join(format!(
        "worker-rss-{}-{}",
        std::process::id(),
        u8::from(tracer.is_some())
    ));
    std::fs::create_dir_all(&rss_dir).expect("worker RSS directory");
    // Read by the worker processes this run spawns; nothing else in the
    // process reads the environment concurrently.
    std::env::set_var("PERFBENCH_WORKER_RSS_DIR", &rss_dir);
    let options = DistOptions {
        procs: Some(ctx.threads),
        worker_binary: Some(worker_binary()),
        fault_plan: Some(0),
        ..DistOptions::default()
    };

    // Setup: recipe build and its wire round trip, then one small
    // distributed sweep that spawns the worker processes.
    let mut setup_secs = Vec::new();
    let (mut build_ms, mut encode_us, mut decode_us) = (vec![], vec![], vec![]);
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let recipe = recipe(ctx.seed);
        let t = Instant::now();
        let bytes = recipe.encode();
        encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let decoded = SweepRecipe::decode(&bytes).expect("own encoding decodes");
        decode_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let sets = decoded.build().expect("buildable recipe");
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        run_distributed_fold(&spawn_check_recipe(), &options, &CollectRuns).expect("worker spawn");
        setup_secs.push(start.elapsed().as_secs_f64());
        built = Some((recipe, sets));
    }
    let (recipe, sets) = built.expect("at least one setup");
    let mut refs = References::default();
    let reference = refs.get(&recipe, ctx.threads, &clock);
    let total = reference.digests.len();

    // The measured window: distributed sweeps back to back.
    let mark = Mark::now();
    let (mut walls, mut first_ms, mut cell_ms) = (vec![], vec![], vec![]);
    let mut stats_sum = DistStats::default();
    let (mut sweeps, mut failed) = (0u64, 0u64);
    while sweeps < MIN_SWEEPS as u64 || mark.since().0 < seconds {
        let span = tracer.map(|t| t.open("dist.sweep", root, sweeps));
        let start_ns = clock.now_ns();
        let outcome = run_distributed_fold(&recipe, &options, &CellLog::new(&clock, false, None));
        let end_ns = clock.now_ns();
        if let (Some(t), Some(id)) = (tracer, span) {
            t.close(id);
        }
        sweeps += 1;
        walls.push((end_ns - start_ns) as f64 / 1e9);
        let Ok((acc, stats)) = outcome else {
            failed += 1;
            continue;
        };
        let rows = acc.sorted_rows();
        let ok = rows.len() == total
            && rows
                .iter()
                .zip(&reference.digests)
                .enumerate()
                .all(|(i, (row, want))| row.flat == i && row.digest == *want);
        failed += u64::from(!ok);
        let first = rows.iter().map(|r| r.at_ns).min().unwrap_or(end_ns);
        first_ms.push(first.saturating_sub(start_ns) as f64 / 1e6);
        if let (Some(t), Some(id)) = (tracer, span) {
            t.record("dist.first_result", start_ns, first, Some(id), sweeps - 1);
        }
        cell_ms.extend(
            rows.iter()
                .map(|r| r.at_ns.saturating_sub(start_ns) as f64 / 1e6),
        );
        stats_sum.leases += stats.leases;
        stats_sum.result_frames += stats.result_frames;
        stats_sum.heartbeats += stats.heartbeats;
        stats_sum.workers_spawned += stats.workers_spawned;
        stats_sum.reissued_leases += stats.reissued_leases;
        stats_sum.retries += stats.retries;
    }
    let (wall, cpu) = mark.since();
    out.attempted = sweeps;
    out.failed = failed;

    // Rates come from the median sweep, so a burst of interference from
    // other tenants of the host moves them less than a whole-window mean.
    let cells = (sweeps as usize * total) as f64;
    let sweep_s = median(&walls);
    out.e2e("setup_s", median(&setup_secs));
    out.e2e("cells_per_s", total as f64 / sweep_s);
    out.e2e("slices_per_s", reference.slices as f64 / sweep_s);
    out.latency(&Samples::new(cell_ms), 1.0);
    out.e2e("big_sweep_s", sweep_s);
    let worker_rss = worker_peak_rss_mib(&rss_dir);
    out.e2e(
        "peak_rss_mb",
        probe::peak_rss_mib() + worker_rss * ctx.threads as f64,
    );
    out.e2e("cpu_ms_per_cell", cpu * 1e3 / cells);
    let config = sysscale::SocConfig::skylake_default();
    let (predictor, _, _) = figures_predictor(&config, None, None);
    out.gaps(&config, &predictor, ctx.threads);
    out.note("sweeps", sweeps as f64);
    let sweep_walls = Samples::new(walls.clone());
    out.note("sweep_wall_p10_s", sweep_walls.pct(0.1));
    out.note("sweep_wall_p90_s", sweep_walls.pct(0.9));
    out.note("cells_per_sweep", total as f64);
    out.note("worker_peak_rss_mb", worker_rss);
    let _ = std::fs::remove_dir_all(&rss_dir);

    out.layer("proc.cpu_util", cpu / (wall * ctx.threads as f64));
    if let Some(tracer) = tracer {
        let per_sweep = |v: f64| v / sweeps as f64;
        out.layer("dist.leases", per_sweep(stats_sum.leases as f64));
        out.layer(
            "dist.result_frames",
            per_sweep(stats_sum.result_frames as f64),
        );
        out.layer("dist.heartbeats", per_sweep(stats_sum.heartbeats as f64));
        out.layer(
            "dist.workers_spawned",
            per_sweep(stats_sum.workers_spawned as f64),
        );
        out.layer("dist.reissued_leases", stats_sum.reissued_leases as f64);
        out.layer("dist.retries", stats_sum.retries as f64);
        out.layer("dist.first_result_ms", median(&first_ms));
        out.layer("recipe.build_ms", median(&build_ms));
        out.layer("recipe.encode_us", median(&encode_us));
        out.layer("recipe.decode_us", median(&decode_us));

        // The in-process fold of the same recipe at the same worker count.
        let sweep = sweep_from_sets(&sets);
        let in_process: Vec<f64> = (0..IN_PROCESS_REPEATS)
            .map(|_| {
                let start = Instant::now();
                let acc = sweep
                    .run_parallel_fold_sharded(
                        &mut SessionPool::new(),
                        ctx.threads,
                        recipe.sharding,
                        &CellLog::new(&clock, false, None),
                    )
                    .expect("in-process fold");
                std::hint::black_box(acc);
                start.elapsed().as_secs_f64()
            })
            .collect();
        let dist_wall = median(&walls);
        out.layer(
            "dist.overhead_frac",
            (dist_wall - median(&in_process)) / dist_wall,
        );

        let start = Instant::now();
        std::hint::black_box(tracer.time("scenario.plan", root, 0, || {
            (
                sweep.slot_indices(ctx.threads, recipe.sharding),
                sweep.cell_costs(),
            )
        }));
        out.layer("scenario.plan_ms", start.elapsed().as_secs_f64() * 1e3);

        // Scenario, soc and governor layers: a traced in-process fold.
        let timed_sets: Vec<_> = sets
            .iter()
            .map(|s| layers::timed_set(s, tracer).expect("timed set"))
            .collect();
        let mut pool = SessionPool::new();
        let span = tracer.open("scenario.sweep", root, 0);
        let start = Instant::now();
        let acc = sweep_from_sets(&timed_sets)
            .run_parallel_fold_sharded(
                &mut pool,
                ctx.threads,
                recipe.sharding,
                &CellLog::new(tracer, true, Some(span)),
            )
            .expect("traced fold");
        let mut totals = LayerTotals::default();
        totals.add(&acc, start.elapsed().as_nanos() as u64);
        tracer.close(span);
        out.cell_layers(&totals);
        let platforms: HashSet<u64> = sets.iter().flat_map(ScenarioSource::shard_keys).collect();
        out.layer(
            "scenario.sim_builds",
            pool.cached_platforms() as f64 / platforms.len().max(1) as f64,
        );
        let sample: Vec<_> = sets
            .iter()
            .flat_map(|s| s.scenarios().iter().step_by(5).cloned())
            .collect();
        out.layer(
            "scenario.setup_us",
            layers::setup_us(&sample).expect("setup sample").median(),
        );

        let records = CollectRuns::into_records(
            sweep
                .run_parallel_fold_sharded(
                    &mut SessionPool::new(),
                    ctx.threads,
                    recipe.sharding,
                    &CollectRuns,
                )
                .expect("records"),
        );
        let (bytes, enc, dec, frame) = layers::codec_costs(&records);
        out.layer("codec.record_bytes", bytes);
        out.layer("codec.encode_us", enc);
        out.layer("codec.decode_us", dec);
        out.layer("wire.frame_us", frame);
    }
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
    out
}
