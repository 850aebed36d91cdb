//! Offline calibration of the demand predictor (Sec. 4.2).
//!
//! The calibration runs a representative workload population at the high and
//! low operating points, measures the actual performance degradation and the
//! counter values at the high point, and derives:
//!
//! * **thresholds** — for the runs whose degradation stays below the bound,
//!   the per-counter `µ + σ` rule of Sec. 4.2;
//! * **an impact model** — an ordinary-least-squares fit of degradation as a
//!   linear function of the four counters, used by the Fig. 6 study to
//!   predict the performance impact of the lower DRAM frequency.

use sysscale_soc::SocConfig;
use sysscale_types::{stats, CounterKind, CounterSet, SimResult, SimTime};
use sysscale_workloads::{Workload, WorkloadClass, WorkloadSource};

use crate::predictor::{DemandPredictor, ImpactModel, PredictorThresholds};
use crate::scenario::{
    platform_fingerprint, CellId, GovernorFactory, GovernorRegistry, GroupFold, RunRecord, RunSet,
    Scenario, ScenarioSource, SessionPool, SweepSet,
};
use std::sync::Arc;
use sysscale_soc::SimReport;
use sysscale_types::exec;

/// Configuration of a calibration pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationConfig {
    /// Performance-degradation bound (fraction) below which a run counts as
    /// "safe at the low operating point" (1 % in the paper).
    pub degradation_bound: f64,
    /// How long each workload is simulated per operating point.
    pub sim_duration: SimTime,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        Self {
            degradation_bound: 0.01,
            sim_duration: SimTime::from_millis(120.0),
        }
    }
}

/// One calibrated data point: a workload's counters at the high operating
/// point and its measured degradation at the low one.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationSample {
    /// Workload name.
    pub workload: String,
    /// Workload class (used to split the Fig. 6 panels).
    pub class: WorkloadClass,
    /// Per-sample (per-slice) average counter values at the high operating
    /// point.
    pub counters: CounterSet,
    /// Measured performance degradation when running at the low operating
    /// point (fraction; negative values are clamped to zero).
    pub actual_degradation: f64,
}

/// The outcome of a calibration pass.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationOutcome {
    /// Thresholds derived with the µ+σ rule.
    pub thresholds: PredictorThresholds,
    /// Linear impact model fitted over the full sample set.
    pub impact_model: ImpactModel,
    /// Every measured sample (inputs to the Fig. 6 analysis).
    pub samples: Vec<CalibrationSample>,
}

impl CalibrationOutcome {
    /// A predictor built from this calibration.
    #[must_use]
    pub fn predictor(&self) -> DemandPredictor {
        DemandPredictor::new(self.thresholds, self.impact_model)
    }
}

/// The single definition of the pair → sample reduction, shared by the
/// materialized ([`samples_from_runs`]) and fold-based
/// ([`measure_population_from`]) aggregation paths — which is what makes
/// their samples bit-identical.
fn sample_from_parts(
    name: &str,
    class: WorkloadClass,
    config: &SocConfig,
    cal: &CalibrationConfig,
    high: &SimReport,
    low: &SimReport,
) -> CalibrationSample {
    let high_perf = high.metrics.throughput();
    let degradation = if high_perf > 0.0 {
        (1.0 - low.metrics.throughput() / high_perf).max(0.0)
    } else {
        0.0
    };
    // Convert accumulated counters into per-slice averages.
    let slices = (cal.sim_duration.as_secs() / config.slice.as_secs())
        .round()
        .max(1.0);
    let mut averages = CounterSet::new();
    for (kind, total) in high.counters.iter() {
        averages.set(kind, total / slices);
    }
    CalibrationSample {
        workload: name.to_string(),
        class,
        counters: averages,
        actual_degradation: degradation,
    }
}

/// The high/low governor columns every calibration run pair uses.
const CALIBRATION_GOVERNORS: [&str; 2] = ["baseline", "md-dvfs"];

/// A [`ScenarioSource`] streaming the calibration measurement cells of a
/// workload population: for workload `i` of the population, cells `2i` and
/// `2i + 1` run it at the high (`baseline`) and low (`md-dvfs`) operating
/// points on `config`.
///
/// The population itself is a [`WorkloadSource`], so a generator-backed
/// population is produced on the fly per shard — each pool worker holds one
/// live workload while streaming, no matter how many cells the study has.
/// Built with [`calibration_source`]; consumed by [`measure_population_from`]
/// or pushed into a larger [`SweepSet`] (the Fig. 6 study batches nine of
/// these into one sweep).
pub struct CalibrationScenarioSource<'a> {
    config: &'a SocConfig,
    population: &'a dyn WorkloadSource,
    duration: SimTime,
    high: Arc<dyn GovernorFactory>,
    low: Arc<dyn GovernorFactory>,
}

impl std::fmt::Debug for CalibrationScenarioSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalibrationScenarioSource")
            .field("population", &self.population.len())
            .field("duration", &self.duration)
            .finish_non_exhaustive()
    }
}

impl ScenarioSource for CalibrationScenarioSource<'_> {
    fn len(&self) -> usize {
        2 * self.population.len()
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Scenario> + Send + '_> {
        let mut workloads = self.population.stream();
        let mut pending: Option<Scenario> = None;
        Box::new(std::iter::from_fn(move || {
            if let Some(low_cell) = pending.take() {
                return Some(low_cell);
            }
            // One shared workload handle per high/low pair; both cells are
            // adjacent in the stream, so only the low cell is ever buffered.
            let shared = Arc::new(workloads.next()?);
            let build = |factory: &Arc<dyn GovernorFactory>| {
                Scenario::builder(Arc::clone(&shared))
                    .config(self.config.clone())
                    .governor_factory(Arc::clone(factory))
                    .duration(self.duration)
                    .build()
                    .expect("validated by calibration_source")
            };
            pending = Some(build(&self.low));
            Some(build(&self.high))
        }))
    }

    fn shard_keys(&self) -> Vec<u64> {
        // Neither calibration governor restricts the platform, so every cell
        // shares `config` — one fingerprint, computed once (no streaming
        // pass over the population).
        vec![platform_fingerprint(self.config); ScenarioSource::len(self)]
    }
}

/// Builds the streaming calibration source for a population: the exact cell
/// sequence [`measure_population_from`] runs, as a [`ScenarioSource`].
///
/// # Errors
///
/// Returns [`sysscale_types::SimError::InvalidConfig`] if `config` is
/// invalid, and [`sysscale_types::SimError::EmptySimulation`] if the
/// configured duration is not positive — the checks that otherwise surface
/// per scenario surface once here, which is what makes the lazy iterator
/// infallible.
pub fn calibration_source<'a>(
    config: &'a SocConfig,
    population: &'a dyn WorkloadSource,
    cal: &CalibrationConfig,
) -> SimResult<CalibrationScenarioSource<'a>> {
    config.validate()?;
    if cal.sim_duration <= SimTime::ZERO {
        return Err(sysscale_types::SimError::EmptySimulation);
    }
    let registry = GovernorRegistry::builtin();
    Ok(CalibrationScenarioSource {
        config,
        population,
        duration: cal.sim_duration,
        high: registry.resolve(CALIBRATION_GOVERNORS[0])?,
        low: registry.resolve(CALIBRATION_GOVERNORS[1])?,
    })
}

/// Converts one member [`RunSet`] produced from a [`calibration_source`]
/// back into per-workload samples, re-streaming the population for the
/// workload metadata (name, class) so nothing was ever materialized.
///
/// # Panics
///
/// Panics if `runs` does not hold exactly the `2 × population` records of
/// the source (a contract violation, not a runtime condition).
#[must_use]
pub fn samples_from_runs(
    config: &SocConfig,
    population: &dyn WorkloadSource,
    cal: &CalibrationConfig,
    runs: &RunSet,
) -> Vec<CalibrationSample> {
    assert_eq!(
        runs.len(),
        2 * population.len(),
        "run set does not match the calibration population"
    );
    // Workload names may repeat in synthetic populations, so samples are
    // extracted positionally (records 2i / 2i+1), not by name.
    population
        .stream()
        .enumerate()
        .map(|(i, workload)| {
            let high = &runs.records()[2 * i].report;
            let low = &runs.records()[2 * i + 1].report;
            sample_from_parts(&workload.name, workload.class, config, cal, high, low)
        })
        .collect()
}

/// The fold-based pair → sample aggregation shared by
/// [`measure_population_from`] and the Fig. 6 study: one [`GroupFold`] over
/// the high/low pairs of one or more [`calibration_source`] members.
///
/// `configs` holds one platform configuration per member, `member_pairs`
/// the member's workload (pair) count, and `classes` one
/// [`WorkloadClass`] per pair, flat across members in member order. Each
/// pair reduces to its [`CalibrationSample`] the moment both halves have
/// run — via the same reduction as [`samples_from_runs`], so the assembled
/// samples are bit-identical to the materialized path — and the half
/// reports are dropped on the spot instead of living in a `RunSet` until
/// the whole sweep drains.
#[allow(clippy::type_complexity)] // opaque closure pair; cannot be aliased
pub(crate) fn sample_fold_consumer(
    configs: Vec<SocConfig>,
    cal: CalibrationConfig,
    member_pairs: Vec<usize>,
    classes: Vec<WorkloadClass>,
) -> GroupFold<
    impl Fn(CellId) -> (usize, usize) + Sync,
    impl Fn(usize, Vec<RunRecord>) -> CalibrationSample + Sync,
> {
    assert_eq!(configs.len(), member_pairs.len(), "one config per member");
    let offsets: Vec<usize> = member_pairs
        .iter()
        .scan(0usize, |acc, len| {
            let start = *acc;
            *acc += len;
            Some(start)
        })
        .collect();
    let total: usize = member_pairs.iter().sum();
    assert_eq!(classes.len(), total, "one class per pair");
    let map_offsets = offsets.clone();
    GroupFold::new(
        total,
        2,
        // Cells 2i / 2i + 1 of a member are workload i's high/low pair.
        move |cell: CellId| (map_offsets[cell.member] + cell.local / 2, cell.local % 2),
        move |group, records: Vec<RunRecord>| {
            let member = offsets.partition_point(|&start| start <= group) - 1;
            sample_from_parts(
                &records[0].workload,
                classes[group],
                &configs[member],
                &cal,
                &records[0].report,
                &records[1].report,
            )
        },
    )
}

/// Measures every workload of a population at both ends of the ladder as
/// one parallel batch on the caller's [`SessionPool`] and returns one
/// [`CalibrationSample`] per workload, in population order.
///
/// The population is any [`WorkloadSource`] — a slice, or a
/// generator-backed stream produced on the fly per shard, so a
/// million-cell synthetic population runs in O(workers) workload memory.
/// No `RunSet` is materialized either: the sweep folds each workload's
/// high/low pair into its [`CalibrationSample`] the moment both halves have
/// run ([`SweepSet::run_parallel_fold`]), so *result* memory is the sample
/// vector plus O(in-flight pairs) instead of `2 × population` full
/// records. The samples are bit-identical to the materialized reference —
/// [`calibration_source`] + [`SweepSet::run_parallel`] +
/// [`samples_from_runs`] — at any worker count (the fold differential test
/// pins this).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_population_from(
    pool: &mut SessionPool,
    config: &SocConfig,
    population: &dyn WorkloadSource,
    cal: &CalibrationConfig,
    threads: usize,
) -> SimResult<Vec<CalibrationSample>> {
    let source = calibration_source(config, population, cal)?;
    // One metadata pass over the population recipe (workloads are generated
    // and dropped one at a time): the per-pair classes the records alone
    // cannot supply.
    let classes: Vec<WorkloadClass> = population.stream().map(|w| w.class).collect();
    let consumer =
        sample_fold_consumer(vec![config.clone()], *cal, vec![population.len()], classes);
    let mut sweep = SweepSet::new();
    sweep.push_source(&source, None);
    let acc = sweep.run_parallel_fold(pool, threads, &consumer)?;
    Ok(consumer.into_outputs(acc))
}

/// Runs the full calibration over a workload population, sharding the
/// measurement runs across [`exec::default_threads`] workers.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn calibrate(
    config: &SocConfig,
    population: &[Workload],
    cal: &CalibrationConfig,
) -> SimResult<CalibrationOutcome> {
    let samples = measure_population_from(
        &mut SessionPool::new(),
        config,
        &population,
        cal,
        exec::default_threads(),
    )?;
    let thresholds = derive_thresholds(&samples, cal.degradation_bound, config);
    let impact_model = fit_impact_model(&samples);
    Ok(CalibrationOutcome {
        thresholds,
        impact_model,
        samples,
    })
}

/// Derives the µ+σ thresholds from the samples whose degradation stays below
/// the bound (Sec. 4.2). Falls back to the hand-tuned defaults for a counter
/// that never appears in the safe set.
#[must_use]
pub fn derive_thresholds(
    samples: &[CalibrationSample],
    bound: f64,
    config: &SocConfig,
) -> PredictorThresholds {
    let defaults = PredictorThresholds::skylake_default();
    let safe: Vec<&CalibrationSample> = samples
        .iter()
        .filter(|s| s.actual_degradation <= bound)
        .collect();
    if safe.is_empty() {
        return defaults;
    }
    let collect =
        |kind: CounterKind| -> Vec<f64> { safe.iter().map(|s| s.counters.value(kind)).collect() };
    let threshold = |kind: CounterKind, fallback: f64| -> f64 {
        let values = collect(kind);
        let t = stats::mu_plus_sigma_threshold(&values);
        if t > 0.0 {
            t
        } else {
            fallback
        }
    };
    // The static threshold stays a configuration constant: it is a property
    // of the platform's peripherals, not of the dynamic counters.
    let _ = config;
    PredictorThresholds {
        static_bw_fraction: defaults.static_bw_fraction,
        gfx_llc_misses: threshold(CounterKind::GfxLlcMisses, defaults.gfx_llc_misses),
        llc_occupancy: threshold(CounterKind::LlcOccupancyTracer, defaults.llc_occupancy),
        llc_stalls: threshold(CounterKind::LlcStalls, defaults.llc_stalls),
        io_rpq: threshold(CounterKind::IoRpq, defaults.io_rpq),
    }
}

/// Ordinary-least-squares fit of `degradation ~ intercept + counters` over
/// the sample set, solved with Gaussian elimination on the normal equations.
#[must_use]
pub fn fit_impact_model(samples: &[CalibrationSample]) -> ImpactModel {
    if samples.len() < 6 {
        return ImpactModel::default();
    }
    const FEATURES: usize = 5; // intercept + 4 counters
    let row = |s: &CalibrationSample| -> [f64; FEATURES] {
        [
            1.0,
            s.counters.value(CounterKind::GfxLlcMisses),
            s.counters.value(CounterKind::LlcOccupancyTracer),
            s.counters.value(CounterKind::LlcStalls),
            s.counters.value(CounterKind::IoRpq),
        ]
    };
    // Normal equations: (XᵀX) β = Xᵀy.
    let mut xtx = [[0.0f64; FEATURES]; FEATURES];
    let mut xty = [0.0f64; FEATURES];
    for s in samples {
        let x = row(s);
        for i in 0..FEATURES {
            for j in 0..FEATURES {
                xtx[i][j] += x[i] * x[j];
            }
            xty[i] += x[i] * s.actual_degradation;
        }
    }
    // Tikhonov damping keeps the system well conditioned when a counter is
    // (nearly) constant across the population.
    for (i, row) in xtx.iter_mut().enumerate() {
        row[i] += 1e-9 * (row[i].abs() + 1.0);
    }
    let Some(beta) = solve_linear_system(xtx, xty) else {
        return ImpactModel::default();
    };
    ImpactModel {
        intercept: beta[0],
        gfx_llc_misses: beta[1],
        llc_occupancy: beta[2],
        llc_stalls: beta[3],
        io_rpq: beta[4],
    }
}

/// Solves a small dense linear system with partial-pivot Gaussian
/// elimination. Returns `None` for a singular system.
fn solve_linear_system<const N: usize>(mut a: [[f64; N]; N], mut b: [f64; N]) -> Option<[f64; N]> {
    for col in 0..N {
        // Pivot.
        let pivot_row = (col..N).max_by(|&i, &j| {
            a[i][col]
                .abs()
                .partial_cmp(&a[j][col].abs())
                .expect("finite values")
        })?;
        if a[pivot_row][col].abs() < 1e-30 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        // Eliminate.
        let pivot = a[col];
        for r in (col + 1)..N {
            let factor = a[r][col] / pivot[col];
            for (entry, p) in a[r][col..].iter_mut().zip(&pivot[col..]) {
                *entry -= factor * p;
            }
            b[r] -= factor * b[col];
        }
    }
    // Back substitution.
    let mut x = [0.0f64; N];
    for col in (0..N).rev() {
        let mut sum = b[col];
        for c in (col + 1)..N {
            sum -= a[col][c] * x[c];
        }
        x[col] = sum / a[col][col];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale_workloads::{spec_workload, WorkloadGenerator};

    fn quick_cal() -> CalibrationConfig {
        CalibrationConfig {
            degradation_bound: 0.01,
            sim_duration: SimTime::from_millis(60.0),
        }
    }

    #[test]
    fn linear_solver_handles_known_system() {
        let a = [[2.0, 1.0], [1.0, 3.0]];
        let b = [5.0, 10.0];
        let x = solve_linear_system(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!(solve_linear_system([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0]).is_none());
    }

    #[test]
    fn measured_samples_separate_memory_bound_from_core_bound() {
        let config = SocConfig::skylake_default();
        let cal = quick_cal();
        let population = vec![
            spec_workload("lbm").unwrap(),
            spec_workload("gamess").unwrap(),
        ];
        let samples = measure_population_from(
            &mut SessionPool::new(),
            &config,
            &population,
            &cal,
            exec::default_threads(),
        )
        .unwrap();
        let (lbm, gamess) = (&samples[0], &samples[1]);
        assert!(
            lbm.actual_degradation > 0.05,
            "lbm {}",
            lbm.actual_degradation
        );
        assert!(
            gamess.actual_degradation < 0.01,
            "gamess {}",
            gamess.actual_degradation
        );
        assert!(
            lbm.counters.value(CounterKind::LlcStalls)
                > gamess.counters.value(CounterKind::LlcStalls)
        );
    }

    #[test]
    fn calibration_produces_discriminative_thresholds_and_model() {
        let config = SocConfig::skylake_default();
        let cal = quick_cal();
        let mut population = WorkloadGenerator::with_seed(11).population(24);
        population.push(spec_workload("lbm").unwrap());
        population.push(spec_workload("gamess").unwrap());
        let outcome = calibrate(&config, &population, &cal).unwrap();
        assert_eq!(outcome.samples.len(), population.len());
        // Thresholds are positive and finite.
        let t = outcome.thresholds;
        for v in [t.gfx_llc_misses, t.llc_occupancy, t.llc_stalls, t.io_rpq] {
            assert!(v.is_finite() && v > 0.0);
        }
        // The fitted impact model ranks a memory-bound sample above a
        // core-bound one.
        let lbm = outcome
            .samples
            .iter()
            .find(|s| s.workload == "470.lbm")
            .unwrap();
        let gamess = outcome
            .samples
            .iter()
            .find(|s| s.workload == "416.gamess")
            .unwrap();
        let model = outcome.impact_model;
        assert!(model.predict(&lbm.counters) > model.predict(&gamess.counters));
        // The derived predictor keeps lbm at the high point and lets gamess
        // drop.
        let predictor = outcome.predictor();
        let peak = sysscale_types::Bandwidth::from_gib_s(23.8);
        let static_demand = sysscale_types::Bandwidth::from_gib_s(4.3);
        assert!(
            predictor
                .predict(&lbm.counters, static_demand, peak)
                .needs_high_performance
        );
        assert!(
            !predictor
                .predict(&gamess.counters, static_demand, peak)
                .needs_high_performance
        );
    }

    #[test]
    fn thresholds_fall_back_to_defaults_without_safe_samples() {
        let config = SocConfig::skylake_default();
        let t = derive_thresholds(&[], 0.01, &config);
        assert_eq!(t, PredictorThresholds::skylake_default());
        assert_eq!(fit_impact_model(&[]), ImpactModel::default());
    }
}
