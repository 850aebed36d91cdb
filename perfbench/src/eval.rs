//! `eval_sweep`: one in-process fold at `nproc` threads over the cells the
//! `figures` binary evaluates (Figs. 7/8/9 suites × the evaluation
//! governors, the Fig. 10 TDP points) plus a seeded synthetic population
//! over a TDP grid, sized to the run length. A closed loop with one caller.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use sysscale::experiments::evaluation::EVALUATION_GOVERNORS;
use sysscale::types::Power;
use sysscale::{
    calibrate, sysscale_factory, CalibrationConfig, DemandPredictor, GovernorRegistry, Scenario,
    ScenarioSet, ScenarioSource, SessionPool, SocConfig, SweepSharding,
};
use sysscale_dist::sweep_from_sets;
use sysscale_types::rng::SplitMix64;
use sysscale_workloads::{
    battery_life_suite, graphics_suite, spec_cpu2006_suite, GeneratorConfig, PopulationSource,
    WorkloadGenerator, WorkloadSource,
};

use crate::layers::{self, CellLog, LayerTotals};
use crate::probe::{self, Mark};
use crate::trace::{SpanId, Tracer};
use crate::{median, timed, Ctx, Outcome};

/// The Fig. 10 TDP points `figures fig10` evaluates.
const FIG10_TDPS_W: [f64; 4] = [3.5, 4.5, 7.0, 15.0];

/// The TDP grid the synthetic population runs on.
const POPULATION_TDPS_W: [f64; 5] = [3.5, 4.5, 6.0, 9.0, 15.0];

/// Population workloads per second of run length. Each yields
/// `POPULATION_TDPS_W.len() × 2` cells; the constant makes a fold last
/// about the run length on a 2-core x86-64 host.
const POPULATION_PER_SECOND: f64 = 820.0;

/// One population cell in this many is re-run sequentially as the output
/// check; every evaluation and Fig. 10 cell is.
const CHECK_STRIDE: usize = 8;

/// Setup repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// Sub-window over which `cells_per_s` and `slices_per_s` are counted;
/// the metrics are the median sub-window, so a burst of interference from
/// other tenants of the host moves them less than a whole-window mean.
const RATE_WINDOW_NS: u64 = 500_000_000;

/// Cells sampled for `scenario.setup_us`.
const SETUP_SAMPLE: usize = 200;

/// The predictor `figures` uses: calibrated on the seed-2020 population of
/// 120 synthetic workloads (Sec. 4.2), falling back to the default.
/// Returns it with the population and calibration times, milliseconds.
pub fn figures_predictor(
    config: &SocConfig,
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
) -> (DemandPredictor, f64, f64) {
    let (population, population_ms) = timed(tracer, "workloads.population", parent, || {
        WorkloadGenerator::with_seed(2020).population(120)
    });
    let (predictor, calibrate_ms) =
        timed(tracer, "calibration.calibrate", parent, || match calibrate(
            config,
            &population,
            &CalibrationConfig::default(),
        ) {
            Ok(outcome) => outcome.predictor(),
            Err(_) => DemandPredictor::skylake_default(),
        });
    (predictor, population_ms, calibrate_ms)
}

struct Setup {
    predictor: DemandPredictor,
    sets: Vec<ScenarioSet>,
    /// Cells before this flat index are evaluation and Fig. 10 cells.
    population_start: usize,
    population_ms: f64,
    calibrate_ms: f64,
}

fn setup(ctx: &Ctx, seconds: f64, tracer: Option<&Arc<Tracer>>, parent: Option<usize>) -> Setup {
    let config = SocConfig::skylake_default();
    let (predictor, cal_population_ms, calibrate_ms) =
        figures_predictor(&config, tracer.map(AsRef::as_ref), parent);

    let mut registry = GovernorRegistry::builtin();
    registry.register(sysscale_factory(predictor));
    if let Some(tracer) = tracer {
        registry = layers::timed_registry(&registry, tracer);
    }
    let mut sets = Vec::new();
    for suite in [spec_cpu2006_suite(), graphics_suite(), battery_life_suite()] {
        sets.push(
            ScenarioSet::matrix_with(&registry, &config, &suite, &EVALUATION_GOVERNORS)
                .expect("evaluation matrix")
                .with_baseline("baseline"),
        );
    }
    let spec = spec_cpu2006_suite();
    for tdp in FIG10_TDPS_W {
        let platform = SocConfig::skylake_m_6y75(Power::from_watts(tdp));
        sets.push(
            ScenarioSet::matrix_with(&registry, &platform, &spec, &["baseline", "sysscale"])
                .expect("fig10 matrix")
                .with_baseline("baseline"),
        );
    }
    let population_start = sets.iter().map(ScenarioSet::len).sum();

    let count = (POPULATION_PER_SECOND * seconds).ceil().max(1.0) as usize;
    let (population, population_ms) = timed(
        tracer.map(AsRef::as_ref),
        "workloads.population",
        parent,
        || {
            PopulationSource::new(
                GeneratorConfig {
                    seed: ctx.seed,
                    ..GeneratorConfig::default()
                },
                count,
            )
            .materialize()
        },
    );
    for tdp in POPULATION_TDPS_W {
        let platform = SocConfig::skylake_m_6y75(Power::from_watts(tdp));
        sets.push(
            ScenarioSet::matrix_with(&registry, &platform, &population, &["baseline", "sysscale"])
                .expect("population matrix")
                .with_baseline("baseline"),
        );
    }
    Setup {
        predictor,
        sets,
        population_start,
        population_ms: cal_population_ms + population_ms,
        calibrate_ms,
    }
}

fn scenario_at(sets: &[ScenarioSet], mut flat: usize) -> &Scenario {
    for set in sets {
        if flat < set.len() {
            return &set.scenarios()[flat];
        }
        flat -= set.len();
    }
    panic!("flat index past the sweep")
}

pub fn run(ctx: &Ctx, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    let mut out = Outcome::default();
    let root = tracer.map(|t| t.open("bench.run", None, 0));

    let mut setup_secs = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        built = Some(setup(ctx, seconds, tracer, root));
        setup_secs.push(start.elapsed().as_secs_f64());
    }
    let setup_done = built.expect("at least one setup");
    let sweep = sweep_from_sets(&setup_done.sets);
    let total = sweep.cells();

    // The measured window: one fold over every cell.
    let clock = Tracer::new(ctx.epoch);
    let fold_span = tracer.map(|t| t.open("scenario.sweep", root, 0));
    let consumer = CellLog::new(
        tracer.map_or(&clock, AsRef::as_ref),
        tracer.is_some(),
        fold_span,
    );
    let mut pool = SessionPool::new();
    let mark = Mark::now();
    let start_ns = clock.now_ns();
    let acc = sweep
        .run_parallel_fold_sharded(&mut pool, ctx.threads, SweepSharding::ByPlatform, &consumer)
        .expect("evaluation sweep");
    let (wall, cpu) = mark.since();
    if let (Some(t), Some(id)) = (tracer, fold_span) {
        t.close(id);
    }

    // Output check, outside the window: every cell folded once, and a
    // sequential re-run of the evaluation cells plus a seeded stride of
    // the population matches the parallel fold's records byte for byte.
    let rows = acc.sorted_rows();
    let complete = rows.len() == total && rows.iter().enumerate().all(|(i, r)| r.flat == i);
    let offset = (SplitMix64::new(ctx.seed).next_u64() % CHECK_STRIDE as u64) as usize;
    let sample: Vec<usize> = (0..total)
        .filter(|&f| {
            f < setup_done.population_start
                || (f - setup_done.population_start) % CHECK_STRIDE == offset
        })
        .collect();
    let reference = sweep
        .run_flat_indices(&mut SessionPool::new(), 1, &sample)
        .expect("sequential reference");
    let mismatched = if complete {
        reference
            .iter()
            .filter(|(flat, record)| rows[*flat].digest != layers::digest(record))
            .count()
    } else {
        total
    };
    out.attempted = total as u64;
    out.failed = mismatched as u64;
    out.note("checked_cells", sample.len() as f64);
    out.note("cells", total as f64);
    out.note(
        "population_cells",
        (total - setup_done.population_start) as f64,
    );

    let cells = rows.len() as f64;
    let cell_us = acc.cell_us();
    out.e2e("setup_s", median(&setup_secs));
    let (cells_per_s, slices_per_s) = acc
        .steady_rates(start_ns, RATE_WINDOW_NS)
        .unwrap_or((cells / wall, acc.slices() as f64 / wall));
    out.e2e("cells_per_s", cells_per_s);
    out.e2e("slices_per_s", slices_per_s);
    out.latency(&cell_us, 1e-3);
    out.e2e("big_sweep_s", wall);
    out.e2e("peak_rss_mb", probe::peak_rss_mib());
    out.e2e("cpu_ms_per_cell", cpu * 1e3 / cells);
    out.gaps(
        &SocConfig::skylake_default(),
        &setup_done.predictor,
        ctx.threads,
    );

    if let Some(tracer) = tracer {
        let mut totals = LayerTotals::default();
        totals.add(&acc, (wall * 1e9) as u64);
        out.cell_layers(&totals);
        out.layer("workloads.population_ms", setup_done.population_ms);
        out.layer("calibration.calibrate_ms", setup_done.calibrate_ms);

        let start = Instant::now();
        let plan = tracer.time("scenario.plan", root, 0, || {
            (
                sweep.slot_indices(ctx.threads, SweepSharding::ByPlatform),
                sweep.cell_costs(),
            )
        });
        out.layer("scenario.plan_ms", start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(plan);

        let platforms: HashSet<u64> = setup_done
            .sets
            .iter()
            .flat_map(ScenarioSource::shard_keys)
            .collect();
        out.layer(
            "scenario.sim_builds",
            pool.cached_platforms() as f64 / platforms.len() as f64,
        );

        // Per-cell setup on a seeded sample of the sweep's own cells.
        let mut rng = SplitMix64::new(ctx.seed ^ 0x5E7);
        let picks: Vec<Scenario> = (0..SETUP_SAMPLE)
            .map(|_| {
                scenario_at(&setup_done.sets, (rng.next_u64() % total as u64) as usize).clone()
            })
            .collect();
        let setup_us = layers::setup_us(&picks).expect("setup sample");
        out.layer("scenario.setup_us", setup_us.median());
    }
    out.layer("proc.cpu_util", cpu / (wall * ctx.threads as f64));
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
    out
}
