//! The main evaluation: Fig. 7 (SPEC CPU2006), Fig. 8 (3DMark), and Fig. 9
//! (battery-life workloads), comparing SysScale against the projected
//! MemScale-Redist and CoScale-Redist baselines.
//!
//! All three figures come from one call, [`evaluation_figures_fold_in`]:
//! the three suites' `workloads × {baseline, sysscale, memscale, coscale}`
//! matrices run as a single sharded sweep, and each workload's four runs
//! fold into its figure row as soon as the last one finishes.

use sysscale_compute::CpuModel;
use sysscale_soc::SocConfig;
use sysscale_types::{stats, Freq, SimResult, SimTime};
use sysscale_workloads::{battery_life_suite, graphics_suite, spec_cpu2006_suite, Workload};

use crate::baselines::project_redistributed_speedup;
use crate::predictor::DemandPredictor;
use crate::scenario::{
    sysscale_factory, CellId, GovernorRegistry, GroupFold, RunRecord, ScenarioSet, SessionPool,
    SweepSet,
};

/// Per-workload comparison row (Figs. 7 and 8).
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Workload name.
    pub workload: String,
    /// Projected MemScale-Redist improvement, percent.
    pub memscale_redist_pct: f64,
    /// Projected CoScale-Redist improvement, percent.
    pub coscale_redist_pct: f64,
    /// Measured SysScale improvement, percent.
    pub sysscale_pct: f64,
}

/// A full evaluation figure: per-workload rows plus suite averages.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupFigure {
    /// Per-workload rows.
    pub rows: Vec<SpeedupRow>,
    /// Average MemScale-Redist improvement, percent.
    pub memscale_avg_pct: f64,
    /// Average CoScale-Redist improvement, percent.
    pub coscale_avg_pct: f64,
    /// Average SysScale improvement, percent.
    pub sysscale_avg_pct: f64,
    /// Maximum SysScale improvement, percent.
    pub sysscale_max_pct: f64,
}

impl SpeedupFigure {
    fn from_rows(rows: Vec<SpeedupRow>) -> Self {
        let mem: Vec<f64> = rows.iter().map(|r| r.memscale_redist_pct).collect();
        let co: Vec<f64> = rows.iter().map(|r| r.coscale_redist_pct).collect();
        let sys: Vec<f64> = rows.iter().map(|r| r.sysscale_pct).collect();
        Self {
            memscale_avg_pct: stats::mean(&mem),
            coscale_avg_pct: stats::mean(&co),
            sysscale_avg_pct: stats::mean(&sys),
            sysscale_max_pct: sys.iter().copied().fold(0.0, f64::max),
            rows,
        }
    }
}

/// Measures the frequency scalability of a CPU workload (Sec. 6 footnote 8)
/// from its phase descriptors at typical loaded-memory conditions.
#[must_use]
pub fn cpu_scalability(config: &SocConfig, workload: &Workload) -> f64 {
    let cpu = CpuModel::new(config.cpu).expect("validated config");
    let total = workload.iteration_length().as_secs();
    if total == 0.0 {
        return 0.0;
    }
    workload
        .phases
        .iter()
        .map(|p| {
            cpu.frequency_scalability(&p.cpu, Freq::from_ghz(1.8), SimTime::from_nanos(75.0))
                * p.duration.as_secs()
        })
        .sum::<f64>()
        / total
}

/// The evaluation's governor columns: the measured baseline and SysScale
/// plus the restricted-platform MemScale/CoScale power savers whose
/// `-Redist` performance is projected afterwards.
pub const EVALUATION_GOVERNORS: [&str; 4] = ["baseline", "sysscale", "memscale", "coscale"];

/// The record-level speedup-row reduction — the single definition shared by
/// [`evaluation_figures_fold_in`] and the materialized reference its
/// differential test compares against, which is what keeps their rows
/// bit-identical.
fn speedup_row_from_records(
    config: &SocConfig,
    baseline: &RunRecord,
    sys: &RunRecord,
    mem: &RunRecord,
    co: &RunRecord,
    gfx_priority: bool,
    scalability: f64,
) -> SimResult<SpeedupRow> {
    // MemScale / CoScale ran power-save-only on the restricted platform;
    // project their -Redist performance from the measured savings (Sec. 6).
    let mem_proj = project_redistributed_speedup(
        config,
        &baseline.report,
        &mem.report,
        scalability,
        gfx_priority,
    )?;
    let co_proj = project_redistributed_speedup(
        config,
        &baseline.report,
        &co.report,
        scalability,
        gfx_priority,
    )?;
    Ok(SpeedupRow {
        workload: baseline.workload.clone(),
        memscale_redist_pct: mem_proj.projected_speedup_pct.max(0.0),
        coscale_redist_pct: co_proj.projected_speedup_pct.max(0.0),
        sysscale_pct: sys.report.speedup_pct_over(&baseline.report),
    })
}

/// Per-workload battery-life row (Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReductionRow {
    /// Scenario name.
    pub workload: String,
    /// MemScale-R average power reduction, percent.
    pub memscale_redist_pct: f64,
    /// CoScale-R average power reduction, percent.
    pub coscale_redist_pct: f64,
    /// Measured SysScale average power reduction, percent.
    pub sysscale_pct: f64,
    /// Baseline average power, watts (for context).
    pub baseline_power_w: f64,
}

/// Fig. 9 result: rows plus averages.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerReductionFigure {
    /// Per-scenario rows.
    pub rows: Vec<PowerReductionRow>,
    /// Average SysScale power reduction, percent.
    pub sysscale_avg_pct: f64,
    /// Maximum SysScale power reduction, percent.
    pub sysscale_max_pct: f64,
}

/// The record-level power-reduction-row reduction — like
/// [`speedup_row_from_records`], the single definition shared by the fold
/// and its materialized reference.
fn power_row_from_records(
    baseline: &RunRecord,
    sys: &RunRecord,
    mem: &RunRecord,
    co: &RunRecord,
) -> PowerReductionRow {
    PowerReductionRow {
        workload: baseline.workload.clone(),
        memscale_redist_pct: mem.report.power_reduction_pct_vs(&baseline.report).max(0.0),
        coscale_redist_pct: co.report.power_reduction_pct_vs(&baseline.report).max(0.0),
        sysscale_pct: sys.report.power_reduction_pct_vs(&baseline.report),
        baseline_power_w: baseline.report.average_power().as_watts(),
    }
}

fn fig9_figure_from_rows(rows: Vec<PowerReductionRow>) -> PowerReductionFigure {
    let sys: Vec<f64> = rows.iter().map(|r| r.sysscale_pct).collect();
    PowerReductionFigure {
        sysscale_avg_pct: stats::mean(&sys),
        sysscale_max_pct: sys.iter().copied().fold(0.0, f64::max),
        rows,
    }
}

/// A fold-reduced evaluation row: Figs. 7/8 rows are speedups, Fig. 9 rows
/// power reductions.
enum EvalRow {
    Speedup(SpeedupRow),
    Power(PowerReductionRow),
}

/// One `suite × EVALUATION_GOVERNORS` matrix per suite, with `predictor`
/// wired into the SysScale column and the baseline designated for relative
/// deltas.
fn evaluation_sets(
    config: &SocConfig,
    predictor: &DemandPredictor,
    suites: &[&[Workload]],
) -> SimResult<Vec<ScenarioSet>> {
    let mut registry = GovernorRegistry::builtin();
    registry.register(sysscale_factory(*predictor));
    suites
        .iter()
        .map(|suite| {
            Ok(
                ScenarioSet::matrix_with(&registry, config, suite, &EVALUATION_GOVERNORS)?
                    .with_baseline("baseline"),
            )
        })
        .collect()
}

/// Runs the whole main evaluation — Figs. 7, 8, and 9 — as **one** sharded
/// sweep on the caller's pool and worker count: the three suites' matrices
/// (SPEC CPU2006, 3DMark, battery life) flatten into a single cell list, so
/// no worker idles between figures and the two evaluation platforms are
/// each built once.
///
/// The sweep runs through the fold-based result pipeline
/// ([`SweepSet::run_parallel_fold`]): each workload's four governor runs
/// reduce to its figure row the moment the last one finishes, so no
/// `RunSet` is ever materialized. The figures are byte-identical at any
/// worker count, and to collecting every record first and reducing
/// afterwards (the differential test below pins both).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn evaluation_figures_fold_in(
    pool: &mut SessionPool,
    threads: usize,
    config: &SocConfig,
    predictor: &DemandPredictor,
) -> SimResult<(SpeedupFigure, SpeedupFigure, PowerReductionFigure)> {
    let spec = spec_cpu2006_suite();
    let gfx = graphics_suite();
    let battery = battery_life_suite();
    let sets = evaluation_sets(config, predictor, &[&spec, &gfx, &battery])?;
    let mut sweep = SweepSet::new();
    for set in &sets {
        sweep.push_set_ref(set);
    }

    // Group = flat workload index across the three suites; slot = governor
    // column in EVALUATION_GOVERNORS order (baseline, sysscale, memscale,
    // coscale). Member cell layout is governors outer, workloads inner.
    let widths = [spec.len(), gfx.len(), battery.len()];
    let offsets = [0, widths[0], widths[0] + widths[1]];
    let total: usize = widths.iter().sum();
    // Per-group row recipe: which figure the workload belongs to, and the
    // speedup rows' scalability input (a pure function of config and
    // workload).
    enum RowSpec {
        Speedup {
            gfx_priority: bool,
            scalability: f64,
        },
        Power,
    }
    let specs: Vec<RowSpec> = spec
        .iter()
        .map(|w| RowSpec::Speedup {
            gfx_priority: false,
            scalability: cpu_scalability(config, w),
        })
        .chain(gfx.iter().map(|_| RowSpec::Speedup {
            // Graphics FPS is assumed fully scalable with engine frequency
            // as long as bandwidth suffices (Sec. 7.2).
            gfx_priority: true,
            scalability: 1.0,
        }))
        .chain(battery.iter().map(|_| RowSpec::Power))
        .collect();
    let row_config = config.clone();
    let consumer = GroupFold::new(
        total,
        EVALUATION_GOVERNORS.len(),
        move |cell: CellId| {
            (
                offsets[cell.member] + cell.local % widths[cell.member],
                cell.local / widths[cell.member],
            )
        },
        move |group, records: Vec<RunRecord>| -> SimResult<EvalRow> {
            let (baseline, sys, mem, co) = (&records[0], &records[1], &records[2], &records[3]);
            match specs[group] {
                RowSpec::Speedup {
                    gfx_priority,
                    scalability,
                } => Ok(EvalRow::Speedup(speedup_row_from_records(
                    &row_config,
                    baseline,
                    sys,
                    mem,
                    co,
                    gfx_priority,
                    scalability,
                )?)),
                RowSpec::Power => Ok(EvalRow::Power(power_row_from_records(
                    baseline, sys, mem, co,
                ))),
            }
        },
    );

    let acc = sweep.run_parallel_fold(pool, threads, &consumer)?;
    let mut rows = consumer
        .into_outputs(acc)
        .into_iter()
        .collect::<SimResult<Vec<EvalRow>>>()?
        .into_iter();
    let take_speedups = |rows: &mut dyn Iterator<Item = EvalRow>, n: usize| -> Vec<SpeedupRow> {
        rows.take(n)
            .map(|row| match row {
                EvalRow::Speedup(row) => row,
                EvalRow::Power(_) => unreachable!("speedup group produced a power row"),
            })
            .collect()
    };
    let fig7 = SpeedupFigure::from_rows(take_speedups(&mut rows, widths[0]));
    let fig8 = SpeedupFigure::from_rows(take_speedups(&mut rows, widths[1]));
    let fig9 = fig9_figure_from_rows(
        rows.map(|row| match row {
            EvalRow::Power(row) => row,
            EvalRow::Speedup(_) => unreachable!("power group produced a speedup row"),
        })
        .collect(),
    );
    Ok((fig7, fig8, fig9))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale_types::exec;
    use sysscale_workloads::spec_workload;

    use crate::scenario::RunSet;

    fn row_from_runs(
        config: &SocConfig,
        runs: &RunSet,
        workload: &Workload,
        gfx_priority: bool,
        scalability: f64,
    ) -> SimResult<SpeedupRow> {
        let name = workload.name.as_str();
        speedup_row_from_records(
            config,
            runs.require(name, "baseline")?,
            runs.require(name, "sysscale")?,
            runs.require(name, "memscale")?,
            runs.require(name, "coscale")?,
            gfx_priority,
            scalability,
        )
    }

    fn fig7_from_runs(
        config: &SocConfig,
        runs: &RunSet,
        suite: &[Workload],
    ) -> SimResult<SpeedupFigure> {
        let rows = suite
            .iter()
            .map(|w| {
                let scalability = cpu_scalability(config, w);
                row_from_runs(config, runs, w, false, scalability)
            })
            .collect::<SimResult<Vec<_>>>()?;
        Ok(SpeedupFigure::from_rows(rows))
    }

    fn fig8_from_runs(
        config: &SocConfig,
        runs: &RunSet,
        suite: &[Workload],
    ) -> SimResult<SpeedupFigure> {
        let rows = suite
            .iter()
            .map(|w| row_from_runs(config, runs, w, true, 1.0))
            .collect::<SimResult<Vec<_>>>()?;
        Ok(SpeedupFigure::from_rows(rows))
    }

    fn fig9_from_runs(runs: &RunSet, suite: &[Workload]) -> SimResult<PowerReductionFigure> {
        let rows = suite
            .iter()
            .map(|w| {
                let name = w.name.as_str();
                Ok(power_row_from_records(
                    runs.require(name, "baseline")?,
                    runs.require(name, "sysscale")?,
                    runs.require(name, "memscale")?,
                    runs.require(name, "coscale")?,
                ))
            })
            .collect::<SimResult<Vec<_>>>()?;
        Ok(fig9_figure_from_rows(rows))
    }

    /// The materialized reference of [`evaluation_figures_fold_in`]: the
    /// same three-suite sweep, collected into one `RunSet` per suite and
    /// reduced per suite afterwards.
    fn materialized_figures(
        pool: &mut SessionPool,
        threads: usize,
        config: &SocConfig,
        predictor: &DemandPredictor,
    ) -> SimResult<(SpeedupFigure, SpeedupFigure, PowerReductionFigure)> {
        let spec = spec_cpu2006_suite();
        let gfx = graphics_suite();
        let battery = battery_life_suite();
        let sets = evaluation_sets(config, predictor, &[&spec, &gfx, &battery])?;
        let mut sweep = SweepSet::new();
        for set in &sets {
            sweep.push_set_ref(set);
        }
        let runs = sweep.run_parallel(pool, threads)?;
        Ok((
            fig7_from_runs(config, &runs[0], &spec)?,
            fig8_from_runs(config, &runs[1], &gfx)?,
            fig9_from_runs(&runs[2], &battery)?,
        ))
    }

    /// Figs. 7/8/9 on the default platform and predictor, computed once
    /// for every test that reads them.
    fn default_figures() -> &'static (SpeedupFigure, SpeedupFigure, PowerReductionFigure) {
        static FIGURES: std::sync::OnceLock<(SpeedupFigure, SpeedupFigure, PowerReductionFigure)> =
            std::sync::OnceLock::new();
        FIGURES.get_or_init(|| {
            evaluation_figures_fold_in(
                &mut SessionPool::new(),
                exec::default_threads(),
                &SocConfig::skylake_default(),
                &DemandPredictor::skylake_default(),
            )
            .unwrap()
        })
    }

    fn spec_row(name: &str) -> &'static SpeedupRow {
        let workload = spec_workload(name).unwrap().name;
        default_figures()
            .0
            .rows
            .iter()
            .find(|row| row.workload == workload)
            .unwrap()
    }

    #[test]
    fn scalability_separates_compute_bound_from_memory_bound() {
        let config = SocConfig::skylake_default();
        let gamess = cpu_scalability(&config, &spec_workload("gamess").unwrap());
        let lbm = cpu_scalability(&config, &spec_workload("lbm").unwrap());
        assert!(gamess > 0.85, "gamess {gamess}");
        assert!(lbm < 0.6, "lbm {lbm}");
    }

    #[test]
    fn single_workload_evaluation_orders_the_techniques() {
        // The headline ordering of Fig. 7: SysScale > CoScale-R and
        // MemScale-R for a frequency-scalable workload.
        let row = spec_row("gamess");
        assert!(row.sysscale_pct > 3.0, "{row:?}");
        assert!(row.sysscale_pct > row.memscale_redist_pct, "{row:?}");
        assert!(row.sysscale_pct > row.coscale_redist_pct * 0.9, "{row:?}");
        assert!(row.memscale_redist_pct >= 0.0);
    }

    #[test]
    fn memory_bound_workload_sees_little_gain_but_no_large_loss() {
        let row = spec_row("bwaves");
        assert!(row.sysscale_pct > -2.0, "{row:?}");
        assert!(row.sysscale_pct < 6.0, "{row:?}");
    }

    #[test]
    fn battery_life_row_shape() {
        let fig = &default_figures().2;
        assert_eq!(fig.rows.len(), 4);
        for row in &fig.rows {
            assert!(row.sysscale_pct > 1.0, "{row:?}");
            assert!(
                row.sysscale_pct > row.memscale_redist_pct,
                "SysScale should save more than MemScale-R: {row:?}"
            );
            assert!(row.baseline_power_w < 3.0);
        }
        assert!(fig.sysscale_avg_pct > 2.0);
        assert!(fig.sysscale_max_pct >= fig.sysscale_avg_pct);
    }

    #[test]
    fn fold_evaluation_figures_are_bit_identical_to_the_materialized_figures() {
        let config = SocConfig::skylake_default();
        let predictor = DemandPredictor::skylake_default();
        let reference = materialized_figures(
            &mut SessionPool::new(),
            exec::default_threads(),
            &config,
            &predictor,
        )
        .unwrap();

        for threads in [1, 8] {
            let folded =
                evaluation_figures_fold_in(&mut SessionPool::new(), threads, &config, &predictor)
                    .unwrap();
            assert_eq!(
                folded, reference,
                "evaluation fold figures diverged at {threads} workers"
            );
        }
    }
}
