//! Sensitivity studies and ablations: Fig. 10 (TDP), the Sec. 7.4 DRAM
//! frequency/type sensitivity, the Sec. 5 overhead accounting, and the
//! design-choice ablations.
//!
//! The multi-configuration studies (Fig. 10, DRAM sensitivity) are
//! [`SweepSet`]s: every configuration point's matrix is flattened into one
//! cell list and submitted to the pool as a single sharded batch, with cells
//! hash-sharded by platform fingerprint so each platform's simulator is
//! built once for the whole sweep. The tests keep the old
//! one-matrix-per-point path as the reference the sweeps are compared
//! against. The ablations express each design variant as a
//! platform-restricting [`FnGovernorFactory`], so that study is a single
//! `workloads × variants` batch already.

use std::sync::Arc;

use sysscale_dram::{DramKind, MrcSram};
use sysscale_soc::SocConfig;
use sysscale_types::{
    exec, stats::Summary, Power, SimError, SimResult, SimTime, TransitionLatency,
};
use sysscale_workloads::{battery_life_suite, spec_cpu2006_suite, spec_workload, Workload};

use crate::governor::SysScaleGovernor;
use crate::predictor::DemandPredictor;
use crate::scenario::{
    sysscale_factory, CellId, FnGovernorFactory, GovernorFactory, GovernorRegistry, GroupFold,
    RunCell, RunRecord, RunSet, Scenario, ScenarioSet, SessionPool, SimSession, SweepSet,
};

/// One TDP point of Fig. 10.
#[derive(Debug, Clone, PartialEq)]
pub struct TdpPoint {
    /// Package TDP, watts.
    pub tdp_w: f64,
    /// Distribution of per-workload SysScale speedups (violin data), percent.
    pub speedups_pct: Vec<f64>,
    /// Summary statistics of the distribution.
    pub summary: Summary,
}

/// The `suite × {baseline, sysscale}` matrix for one configuration point,
/// with `predictor` wired into the sysscale column — the building block of
/// both sensitivity sweeps.
fn baseline_vs_sysscale_matrix(
    config: &SocConfig,
    predictor: &DemandPredictor,
    workloads: &[Workload],
) -> SimResult<ScenarioSet> {
    let mut registry = GovernorRegistry::builtin();
    registry.register(sysscale_factory(*predictor));
    Ok(
        ScenarioSet::matrix_with(&registry, config, workloads, &["baseline", "sysscale"])?
            .with_baseline("baseline"),
    )
}

/// Reads the per-workload sysscale metric column off one configuration
/// point's [`RunSet`].
fn sysscale_cells(
    runs: &RunSet,
    workloads: &[Workload],
    metric: impl Fn(&RunCell) -> f64,
) -> SimResult<Vec<f64>> {
    workloads
        .iter()
        .map(|w| {
            runs.cell(&w.name, "sysscale")
                .map(|c| metric(&c))
                .ok_or_else(|| SimError::invalid_config(format!("({}, sysscale) missing", w.name)))
        })
        .collect()
}

/// Fig. 10: SysScale benefit versus TDP on the SPEC-like suite, on the
/// caller's pool and worker count.
///
/// The whole `TDPs × suite × {baseline, sysscale}` sweep is flattened into a
/// single platform-sharded batch, so each TDP point's simulator is built
/// once and no worker idles at point boundaries. Instead of materializing
/// one [`RunSet`] per TDP point, a [`GroupFold`] consumer reduces every
/// workload's `(baseline, sysscale)` pair to its speedup the moment both
/// runs finish, and the TDP points are assembled from the per-workload
/// speedups alone. Result memory is the speedup vector — `TDPs × suite`
/// f64s — plus O(in-flight pairs), never the sweep's full record matrix.
///
/// Byte-identical at any `threads`, and to running one matrix per TDP point
/// (the differential test below pins both): each speedup is computed by the
/// same [`sysscale_soc::SimReport::speedup_pct_over`] call on the same
/// report pair, and [`Summary::of`] sees the speedups in the same workload
/// order.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig10_fold_in(
    pool: &mut SessionPool,
    threads: usize,
    predictor: &DemandPredictor,
    tdps_w: &[f64],
) -> SimResult<Vec<TdpPoint>> {
    let suite = spec_cpu2006_suite();
    let width = suite.len();
    let mut sweep = SweepSet::new();
    for &tdp in tdps_w {
        let config = SocConfig::skylake_m_6y75(Power::from_watts(tdp));
        sweep.push_set(baseline_vs_sysscale_matrix(&config, predictor, &suite)?);
    }
    // Member cell layout (governors outer, workloads inner): local j is the
    // baseline run of workload j, local width + j its sysscale run.
    let consumer = GroupFold::new(
        tdps_w.len() * width,
        2,
        move |cell: CellId| (cell.member * width + cell.local % width, cell.local / width),
        |_, records: Vec<RunRecord>| records[1].report.speedup_pct_over(&records[0].report),
    );
    let acc = sweep.run_parallel_fold(pool, threads, &consumer)?;
    let mut speedups = consumer.into_outputs(acc).into_iter();
    Ok(tdps_w
        .iter()
        .map(|&tdp| {
            let point: Vec<f64> = speedups.by_ref().take(width).collect();
            TdpPoint {
                tdp_w: tdp,
                summary: Summary::of(&point),
                speedups_pct: point,
            }
        })
        .collect())
}

/// Result of the Sec. 7.4 DRAM sensitivity study.
#[derive(Debug, Clone, PartialEq)]
pub struct DramSensitivity {
    /// Average SysScale power reduction on battery-life workloads with
    /// LPDDR3 scaled 1.6 → 1.066 GHz, percent.
    pub lpddr3_avg_power_reduction_pct: f64,
    /// Same for DDR4 scaled 1.87 → 1.33 GHz, percent.
    pub ddr4_avg_power_reduction_pct: f64,
    /// Relative shortfall of DDR4 versus LPDDR3 savings, percent
    /// (the paper reports ≈7 %).
    pub ddr4_shortfall_pct: f64,
    /// Average SPEC speedup with the two-point ladder (1.6/1.066), percent.
    pub two_point_avg_speedup_pct: f64,
    /// Average SPEC speedup with the three-point ladder adding 0.8 GHz,
    /// percent (the paper finds the extra point is not worthwhile).
    pub three_point_avg_speedup_pct: f64,
}

/// The four `(configuration, suite)` measurement legs of the DRAM study, in
/// the order the sweep flattens them: LPDDR3 battery, DDR4 battery,
/// two-point SPEC, three-point SPEC.
fn dram_sensitivity_legs() -> Vec<(SocConfig, Vec<Workload>)> {
    let tdp = Power::from_watts(4.5);
    vec![
        (SocConfig::skylake_m_6y75(tdp), battery_life_suite()),
        (SocConfig::skylake_ddr4(tdp), battery_life_suite()),
        (SocConfig::skylake_m_6y75(tdp), spec_cpu2006_suite()),
        (SocConfig::skylake_three_point(tdp), spec_cpu2006_suite()),
    ]
}

fn dram_sensitivity_from_legs(leg_runs: &[RunSet]) -> SimResult<DramSensitivity> {
    let legs = dram_sensitivity_legs();
    let leg_mean = |idx: usize, metric: fn(&RunCell) -> f64| -> SimResult<f64> {
        let values = sysscale_cells(&leg_runs[idx], &legs[idx].1, metric)?;
        Ok(sysscale_types::stats::mean(&values))
    };
    let lpddr3 = leg_mean(0, |c| c.power_reduction_pct)?;
    let ddr4 = leg_mean(1, |c| c.power_reduction_pct)?;
    let two_point = leg_mean(2, |c| c.speedup_pct)?;
    let three_point = leg_mean(3, |c| c.speedup_pct)?;
    Ok(DramSensitivity {
        lpddr3_avg_power_reduction_pct: lpddr3,
        ddr4_avg_power_reduction_pct: ddr4,
        ddr4_shortfall_pct: if lpddr3 > 0.0 {
            (1.0 - ddr4 / lpddr3) * 100.0
        } else {
            0.0
        },
        two_point_avg_speedup_pct: two_point,
        three_point_avg_speedup_pct: three_point,
    })
}

/// The Sec. 7.4 DRAM type / operating-point-count sensitivity study, on
/// the caller's pool and worker count: the four measurement legs (two DRAM
/// types × battery suite, two ladder shapes × SPEC suite) flatten into one
/// platform-sharded batch. Byte-identical at any `threads`, and to running
/// one matrix per leg (the differential test below pins both).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn dram_sensitivity_in(
    pool: &mut SessionPool,
    threads: usize,
    predictor: &DemandPredictor,
) -> SimResult<DramSensitivity> {
    let legs = dram_sensitivity_legs();
    let mut sweep = SweepSet::new();
    for (config, suite) in &legs {
        sweep.push_set(baseline_vs_sysscale_matrix(config, predictor, suite)?);
    }
    let leg_runs = sweep.run_parallel(pool, threads)?;
    dram_sensitivity_from_legs(&leg_runs)
}

/// The Sec. 5 implementation-overhead accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Overheads {
    /// Worst-case transition stall, microseconds (budget: <10 µs).
    pub transition_stall_us: f64,
    /// MRC SRAM footprint, bytes (budget: ≈512 B).
    pub mrc_sram_bytes: usize,
    /// Additional PMU firmware size estimate, bytes (budget: ≈600 B).
    pub firmware_bytes: usize,
    /// Number of new performance counters required.
    pub new_counters: usize,
}

/// Computes the implementation overheads from the models.
#[must_use]
pub fn overheads() -> Overheads {
    let latency = TransitionLatency::skylake_default();
    // Firmware estimate: the decision algorithm (5 compares + table walk) and
    // the flow sequencing, expressed as RISC instruction slots of 4 bytes.
    let firmware_instruction_estimate = 150;
    Overheads {
        transition_stall_us: latency.total().as_micros(),
        mrc_sram_bytes: MrcSram::train_all(DramKind::Lpddr3).size_bytes(),
        firmware_bytes: firmware_instruction_estimate * 4,
        new_counters: sysscale_types::CounterKind::PREDICTOR_SET.len(),
    }
}

/// One row of the ablation study.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Name of the configuration.
    pub name: String,
    /// Average SPEC-subset speedup over the baseline, percent.
    pub avg_speedup_pct: f64,
    /// Average power reduction on the video-playback scenario, percent.
    pub video_playback_power_reduction_pct: f64,
}

/// The design variants of the ablation study, each expressed as a governor
/// factory whose platform restriction applies the variant's configuration.
fn ablation_variants(
    base: &SocConfig,
    predictor: &DemandPredictor,
) -> Vec<Arc<dyn GovernorFactory>> {
    let variant = |name: &str, config: SocConfig, redistribute: bool| {
        let predictor = *predictor;
        Arc::new(
            FnGovernorFactory::new(name, move || {
                let g = SysScaleGovernor::new(predictor);
                Box::new(if redistribute {
                    g
                } else {
                    g.without_redistribution()
                })
            })
            .with_platform(move |_| config.clone()),
        ) as Arc<dyn GovernorFactory>
    };
    vec![
        variant("sysscale", base.clone(), true),
        variant(
            "no-mrc-reload",
            SocConfig {
                reload_mrc_on_transition: false,
                ..base.clone()
            },
            true,
        ),
        variant("no-redistribution", base.clone(), false),
        variant(
            "interval-10ms",
            SocConfig {
                evaluation_interval: SimTime::from_millis(10.0),
                ..base.clone()
            },
            true,
        ),
        variant(
            "interval-100ms",
            SocConfig {
                evaluation_interval: SimTime::from_millis(100.0),
                ..base.clone()
            },
            true,
        ),
        variant(
            "slow-transition-100us",
            SocConfig {
                transition_latency: TransitionLatency {
                    voltage_ramp: SimTime::from_micros(20.0),
                    interconnect_drain: SimTime::from_micros(10.0),
                    self_refresh_exit: SimTime::from_micros(50.0),
                    mrc_load: SimTime::from_micros(10.0),
                    firmware: SimTime::from_micros(10.0),
                },
                ..base.clone()
            },
            true,
        ),
    ]
}

/// The ablation study over the design choices of Secs. 4–5:
/// MRC reload on/off, redistribution on/off, evaluation-interval length, and
/// pessimistic transition cost. One scenario matrix:
/// `(SPEC subset + video playback) × (baseline + variants)`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn ablations(predictor: &DemandPredictor) -> SimResult<Vec<AblationRow>> {
    let base = SocConfig::skylake_default();
    let spec_subset: Vec<Workload> = ["gamess", "namd", "perlbench", "astar", "lbm", "milc"]
        .iter()
        .map(|n| spec_workload(n).expect("subset exists"))
        .collect();
    let video = sysscale_workloads::battery_workload("video-playback").expect("exists");

    let mut registry = GovernorRegistry::builtin();
    let variants = ablation_variants(&base, predictor);
    for v in &variants {
        registry.register(Arc::clone(v));
    }
    let mut workloads = spec_subset.clone();
    workloads.push(video.clone());
    let mut columns: Vec<String> = vec!["baseline".into()];
    columns.extend(variants.iter().map(|v| v.name().to_string()));
    let column_refs: Vec<&str> = columns.iter().map(String::as_str).collect();

    let runs = ScenarioSet::matrix_with(&registry, &base, &workloads, &column_refs)?
        .with_baseline("baseline")
        .run_parallel(&mut SessionPool::new(), exec::default_threads())?;

    variants
        .iter()
        .map(|v| {
            let speedups = spec_subset
                .iter()
                .map(|w| runs.require_cell(&w.name, v.name()).map(|c| c.speedup_pct))
                .collect::<SimResult<Vec<f64>>>()?;
            let video_cell = runs.require_cell(&video.name, v.name())?;
            Ok(AblationRow {
                name: v.name().to_string(),
                avg_speedup_pct: sysscale_types::stats::mean(&speedups),
                video_playback_power_reduction_pct: video_cell.power_reduction_pct,
            })
        })
        .collect()
}

/// Measures the worst-case transition stall on the real flow (used by the
/// overhead bench).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measured_transition_stall(config: &SocConfig) -> SimResult<SimTime> {
    let scenario = Scenario::builder(spec_workload("astar").expect("exists"))
        .config(config.clone())
        .governor("sysscale")
        .build()?;
    let record = SimSession::new().run(&scenario)?;
    Ok(record.report.transitions.max_stall)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worker counts every differential below is pinned at.
    const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    fn baseline_vs_sysscale(
        pool: &mut SessionPool,
        threads: usize,
        config: &SocConfig,
        predictor: &DemandPredictor,
        workloads: &[Workload],
    ) -> SimResult<RunSet> {
        baseline_vs_sysscale_matrix(config, predictor, workloads)?.run_parallel(pool, threads)
    }

    /// The pre-sweep Fig. 10 path — one matrix per TDP point, submitted to
    /// the pool point by point — kept as the reference [`fig10_fold_in`] is
    /// compared against.
    fn fig10_per_point_in(
        pool: &mut SessionPool,
        threads: usize,
        predictor: &DemandPredictor,
        tdps_w: &[f64],
    ) -> SimResult<Vec<TdpPoint>> {
        let suite = spec_cpu2006_suite();
        tdps_w
            .iter()
            .map(|&tdp| {
                let config = SocConfig::skylake_m_6y75(Power::from_watts(tdp));
                let runs = baseline_vs_sysscale(pool, threads, &config, predictor, &suite)?;
                let speedups = sysscale_cells(&runs, &suite, |c| c.speedup_pct)?;
                Ok(TdpPoint {
                    tdp_w: tdp,
                    summary: Summary::of(&speedups),
                    speedups_pct: speedups,
                })
            })
            .collect()
    }

    /// The pre-sweep DRAM-sensitivity path — one matrix per leg — kept as
    /// the reference [`dram_sensitivity_in`] is compared against.
    fn dram_sensitivity_per_point_in(
        pool: &mut SessionPool,
        threads: usize,
        predictor: &DemandPredictor,
    ) -> SimResult<DramSensitivity> {
        let leg_runs = dram_sensitivity_legs()
            .iter()
            .map(|(config, suite)| baseline_vs_sysscale(pool, threads, config, predictor, suite))
            .collect::<SimResult<Vec<_>>>()?;
        dram_sensitivity_from_legs(&leg_runs)
    }

    #[test]
    fn fig10_fold_is_byte_identical_to_the_per_point_path() {
        let predictor = DemandPredictor::skylake_default();
        let tdps = [3.5, 15.0];

        // Reference: the old path, sequentially (1 worker is the sequential
        // path by construction).
        let reference = fig10_per_point_in(&mut SessionPool::new(), 1, &predictor, &tdps).unwrap();
        assert_eq!(reference.len(), tdps.len());

        for threads in THREAD_COUNTS {
            let folded =
                fig10_fold_in(&mut SessionPool::new(), threads, &predictor, &tdps).unwrap();
            assert_eq!(
                folded, reference,
                "fig10 fold diverged from per-point at {threads} workers"
            );
            // Byte-identical includes the Debug rendering (downstream snapshots).
            assert_eq!(format!("{folded:?}"), format!("{reference:?}"));

            let per_point =
                fig10_per_point_in(&mut SessionPool::new(), threads, &predictor, &tdps).unwrap();
            assert_eq!(
                per_point, reference,
                "fig10 per-point path not thread-invariant at {threads} workers"
            );
        }
    }

    #[test]
    fn dram_sensitivity_sweep_is_byte_identical_to_the_per_point_path() {
        let predictor = DemandPredictor::skylake_default();
        let reference =
            dram_sensitivity_per_point_in(&mut SessionPool::new(), 1, &predictor).unwrap();

        for threads in THREAD_COUNTS {
            let sweep = dram_sensitivity_in(&mut SessionPool::new(), threads, &predictor).unwrap();
            assert_eq!(
                sweep, reference,
                "dram_sensitivity sweep diverged at {threads} workers"
            );
            assert_eq!(format!("{sweep:?}"), format!("{reference:?}"));
        }

        // The study's headline properties survive the executor change.
        assert!(reference.lpddr3_avg_power_reduction_pct > 0.0);
        assert!(reference.ddr4_shortfall_pct > 0.0);
    }

    #[test]
    fn overheads_match_the_paper_budgets() {
        let o = overheads();
        assert!(o.transition_stall_us < 10.0);
        assert!(o.mrc_sram_bytes <= 512);
        assert!(o.firmware_bytes <= 1024);
        assert_eq!(o.new_counters, 4);
    }

    #[test]
    fn fig10_gains_shrink_as_tdp_grows() {
        let predictor = DemandPredictor::skylake_default();
        let points = fig10_fold_in(
            &mut SessionPool::new(),
            exec::default_threads(),
            &predictor,
            &[3.5, 15.0],
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        let constrained = &points[0];
        let ample = &points[1];
        assert!(
            constrained.summary.mean > ample.summary.mean,
            "3.5W mean {} vs 15W mean {}",
            constrained.summary.mean,
            ample.summary.mean
        );
        assert!(constrained.summary.max > constrained.summary.mean);
        assert!(constrained.speedups_pct.len() >= 25);
    }

    #[test]
    fn measured_transition_stall_is_within_budget() {
        let stall = measured_transition_stall(&SocConfig::skylake_default()).unwrap();
        assert!(stall.as_micros() < 10.0);
    }
}
