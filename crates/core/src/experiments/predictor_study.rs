//! The predictor-accuracy study of Fig. 6.
//!
//! The paper evaluates its demand predictor on >1600 workloads across three
//! DRAM-frequency pairs and three workload classes (single-threaded CPU,
//! multi-threaded CPU, graphics), reporting the correlation between the
//! actual and predicted performance impact, the prediction accuracy, and the
//! absence of false positives (a false positive would let the SoC drop to the
//! low point and hurt performance beyond the bound).
//!
//! Substitution note: the proprietary suites are
//! replaced by the synthetic population generator, and the third frequency
//! pair uses DDR4 2.13→1.33 GHz (the nearest supported bins) instead of the
//! paper's 2.13→1.06 GHz.

use sysscale_soc::SocConfig;
use sysscale_types::{stats, Freq, OperatingPointTable, SimResult, UncoreOperatingPoint};
use sysscale_workloads::{ClassBucketSource, GeneratorConfig, WorkloadClass, WorkloadSource};

use crate::calibration::{
    calibration_source, fit_impact_model, sample_fold_consumer, CalibrationConfig,
    CalibrationSample,
};
use crate::scenario::{SessionPool, SweepSet};

/// One panel of Fig. 6: a (frequency pair, workload class) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorPanel {
    /// Workload class of the panel's population.
    pub class: WorkloadClass,
    /// High DRAM frequency of the pair, GHz.
    pub high_ghz: f64,
    /// Low DRAM frequency of the pair, GHz.
    pub low_ghz: f64,
    /// Number of evaluated (test-set) workloads.
    pub workloads: usize,
    /// Pearson correlation between actual and predicted performance impact.
    pub correlation: f64,
    /// Fraction of workloads whose low-point/high-point decision was correct,
    /// percent.
    pub accuracy_pct: f64,
    /// Fraction of workloads predicted safe whose actual degradation exceeded
    /// the bound, percent (the paper reports zero).
    pub false_positive_pct: f64,
    /// Mean actual degradation across the panel, percent.
    pub mean_actual_degradation_pct: f64,
}

/// Configuration of the Fig. 6 study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictorStudyConfig {
    /// Workloads generated *per panel* (9 panels; the paper's total is
    /// >1600, i.e. ~180 per panel).
    pub workloads_per_panel: usize,
    /// RNG seed.
    pub seed: u64,
    /// Degradation bound used for the accuracy/false-positive accounting.
    pub degradation_bound: f64,
    /// Conservative margin added to the predicted impact before declaring a
    /// workload safe (this is what eliminates false positives).
    pub safety_margin: f64,
    /// Per-run simulated duration.
    pub calibration: CalibrationConfig,
}

impl Default for PredictorStudyConfig {
    fn default() -> Self {
        Self {
            workloads_per_panel: 60,
            seed: 0xF166,
            degradation_bound: 0.02,
            safety_margin: 0.01,
            calibration: CalibrationConfig::default(),
        }
    }
}

/// The three DRAM frequency pairs of the study, as platform configurations.
#[must_use]
pub fn frequency_pair_configs(base: &SocConfig) -> Vec<(f64, f64, SocConfig)> {
    // Pair 1: LPDDR3 1.6 -> 0.8 GHz.
    let pair1 = base.clone().with_uncore_ladder(
        OperatingPointTable::new(vec![
            UncoreOperatingPoint::new(Freq::from_ghz(0.8), Freq::from_ghz(0.3), 0.80, 0.82),
            UncoreOperatingPoint::new(Freq::from_ghz(1.6), Freq::from_ghz(0.8), 1.0, 1.0),
        ])
        .expect("static ladder"),
    );
    // Pair 2: LPDDR3 1.6 -> 1.066 GHz (the shipped configuration).
    let pair2 = base.clone();
    // Pair 3: DDR4 2.13 -> 1.33 GHz.
    let pair3 = SocConfig::skylake_ddr4(base.tdp).with_uncore_ladder(
        OperatingPointTable::new(vec![
            UncoreOperatingPoint::new(Freq::from_ghz(1.3333), Freq::from_ghz(0.4), 0.82, 0.87),
            UncoreOperatingPoint::new(Freq::from_ghz(2.1333), Freq::from_ghz(0.8), 1.0, 1.0),
        ])
        .expect("static ladder"),
    );
    vec![
        (1.6, 0.8, pair1),
        (1.6, 1.0666, pair2),
        (2.1333, 1.3333, pair3),
    ]
}

/// The three class buckets of the study, in panel order.
const PANEL_CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::CpuSingleThread,
    WorkloadClass::CpuMultiThread,
    WorkloadClass::Graphics,
];

/// The streaming population recipe of one panel: the class's bucket of the
/// frequency pair's `(seed, quota)` population, generated on the fly (see
/// [`ClassBucketSource`]). One generator seed per pair, so every pair sees
/// the same population.
fn panel_population(
    study: &PredictorStudyConfig,
    pair_idx: usize,
    class: WorkloadClass,
) -> ClassBucketSource {
    ClassBucketSource::new(
        GeneratorConfig {
            seed: study.seed + pair_idx as u64,
            ..GeneratorConfig::default()
        },
        study.workloads_per_panel,
        class,
    )
}

fn panel_from_samples(
    class: WorkloadClass,
    high_ghz: f64,
    low_ghz: f64,
    samples: &[CalibrationSample],
    config: &PredictorStudyConfig,
) -> PredictorPanel {
    // Train/test split: even indices train the impact model, odd indices are
    // evaluated — the paper's offline-training/online-use separation.
    let train: Vec<CalibrationSample> = samples.iter().step_by(2).cloned().collect();
    let test: Vec<&CalibrationSample> = samples.iter().skip(1).step_by(2).collect();
    let model = fit_impact_model(&train);

    let actual: Vec<f64> = test.iter().map(|s| s.actual_degradation).collect();
    let predicted: Vec<f64> = test.iter().map(|s| model.predict(&s.counters)).collect();
    let correlation = stats::pearson_correlation(&actual, &predicted);

    let bound = config.degradation_bound;
    let mut correct = 0usize;
    let mut false_positives = 0usize;
    for (a, p) in actual.iter().zip(predicted.iter()) {
        let predicted_safe = p + config.safety_margin <= bound;
        let actually_safe = *a <= bound;
        if predicted_safe == actually_safe {
            correct += 1;
        }
        if predicted_safe && !actually_safe {
            false_positives += 1;
        }
    }
    let n = test.len().max(1) as f64;
    PredictorPanel {
        class,
        high_ghz,
        low_ghz,
        workloads: test.len(),
        correlation,
        accuracy_pct: correct as f64 / n * 100.0,
        false_positive_pct: false_positives as f64 / n * 100.0,
        mean_actual_degradation_pct: stats::mean(&actual) * 100.0,
    }
}

/// The nine panel shapes of the study — `(pair index, class)` in member
/// order — together with their streaming populations and platform
/// configurations, shared by the fold-based and materialized paths.
struct StudyLayout {
    pairs: Vec<(f64, f64, SocConfig)>,
    shapes: Vec<(usize, WorkloadClass)>,
    populations: Vec<ClassBucketSource>,
}

fn study_layout(base: &SocConfig, study: &PredictorStudyConfig) -> StudyLayout {
    let pairs = frequency_pair_configs(base);
    // Panel shapes in sweep-member order: (pair, class) nested like the
    // original per-panel loop.
    let shapes: Vec<(usize, WorkloadClass)> = (0..pairs.len())
        .flat_map(|pair_idx| PANEL_CLASSES.iter().map(move |&class| (pair_idx, class)))
        .collect();
    let populations: Vec<ClassBucketSource> = shapes
        .iter()
        .map(|&(pair_idx, class)| panel_population(study, pair_idx, class))
        .collect();
    StudyLayout {
        pairs,
        shapes,
        populations,
    }
}

/// Runs the full Fig. 6 study — 3 frequency pairs × 3 workload classes —
/// on the caller's pool and worker count.
///
/// All nine panels — `3 frequency pairs × 3 workload classes`, each a
/// `2 × population` measurement — flatten into **one** [`SweepSet`] batch:
/// cells are hash-sharded by platform fingerprint (each pair's
/// configuration lands on one worker for the whole study), and every
/// panel's synthetic population streams from a [`ClassBucketSource`] recipe
/// per shard instead of being materialized up front, so the study's
/// workload memory is O(workers) no matter how large
/// [`PredictorStudyConfig::workloads_per_panel`] grows.
///
/// The panels aggregate through a fold consumer
/// ([`SweepSet::run_parallel_fold`]): each workload's high/low pair reduces
/// to its calibration sample as soon as both halves have run, so *result*
/// memory never holds the study's `18 × population` records either. The
/// panels are bit-identical at any worker count, and to collecting every
/// member's records first (the differential test below pins both).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig6_in(
    pool: &mut SessionPool,
    threads: usize,
    base: &SocConfig,
    study: &PredictorStudyConfig,
) -> SimResult<Vec<PredictorPanel>> {
    let layout = study_layout(base, study);
    let sources = layout
        .shapes
        .iter()
        .zip(&layout.populations)
        .map(|(&(pair_idx, _), population)| {
            calibration_source(&layout.pairs[pair_idx].2, population, &study.calibration)
        })
        .collect::<SimResult<Vec<_>>>()?;

    // Every pair of a panel reduces to one sample; the consumer spans all
    // nine members with per-member platform configurations and classes.
    let member_pairs: Vec<usize> = layout.populations.iter().map(WorkloadSource::len).collect();
    let configs: Vec<SocConfig> = layout
        .shapes
        .iter()
        .map(|&(pair_idx, _)| layout.pairs[pair_idx].2.clone())
        .collect();
    let classes: Vec<WorkloadClass> = layout
        .shapes
        .iter()
        .zip(&member_pairs)
        .flat_map(|(&(_, class), &pairs)| std::iter::repeat(class).take(pairs))
        .collect();
    let consumer = sample_fold_consumer(configs, study.calibration, member_pairs.clone(), classes);

    let mut sweep = SweepSet::new();
    for source in &sources {
        sweep.push_source(source, None);
    }
    let acc = sweep.run_parallel_fold(pool, threads, &consumer)?;
    let mut samples = consumer.into_outputs(acc).into_iter();

    Ok(layout
        .shapes
        .iter()
        .zip(&member_pairs)
        .map(|(&(pair_idx, class), &pairs)| {
            let member_samples: Vec<CalibrationSample> = samples.by_ref().take(pairs).collect();
            let (high, low, _) = &layout.pairs[pair_idx];
            panel_from_samples(class, *high, *low, &member_samples, study)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale_types::{exec, SimTime};

    use crate::calibration::samples_from_runs;

    /// The worker counts the differential below is pinned at.
    const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    /// The materialized reference path of the Fig. 6 study — collect every
    /// member's [`crate::RunSet`], then convert to samples via
    /// [`samples_from_runs`] — kept as the reference [`fig6_in`] is
    /// compared against.
    fn fig6_collected_in(
        pool: &mut SessionPool,
        threads: usize,
        base: &SocConfig,
        study: &PredictorStudyConfig,
    ) -> SimResult<Vec<PredictorPanel>> {
        let layout = study_layout(base, study);
        let sources = layout
            .shapes
            .iter()
            .zip(&layout.populations)
            .map(|(&(pair_idx, _), population)| {
                calibration_source(&layout.pairs[pair_idx].2, population, &study.calibration)
            })
            .collect::<SimResult<Vec<_>>>()?;

        let mut sweep = SweepSet::new();
        for source in &sources {
            sweep.push_source(source, None);
        }
        let member_runs = sweep.run_parallel(pool, threads)?;

        Ok(layout
            .shapes
            .iter()
            .zip(&layout.populations)
            .zip(&member_runs)
            .map(|((&(pair_idx, class), population), runs)| {
                let (high, low, config) = &layout.pairs[pair_idx];
                let samples = samples_from_runs(config, population, &study.calibration, runs);
                panel_from_samples(class, *high, *low, &samples, study)
            })
            .collect())
    }

    #[test]
    fn frequency_pairs_match_the_supported_bins() {
        let pairs = frequency_pair_configs(&SocConfig::skylake_default());
        assert_eq!(pairs.len(), 3);
        for (high, low, config) in &pairs {
            assert!(high > low);
            assert!(config.validate().is_ok());
        }
    }

    #[test]
    fn small_fig6_study_produces_nine_panels_with_usable_predictions() {
        let study = PredictorStudyConfig {
            workloads_per_panel: 16,
            calibration: CalibrationConfig {
                degradation_bound: 0.02,
                sim_duration: SimTime::from_millis(40.0),
            },
            ..PredictorStudyConfig::default()
        };
        let panels = fig6_in(
            &mut SessionPool::new(),
            exec::default_threads(),
            &SocConfig::skylake_default(),
            &study,
        )
        .unwrap();
        assert_eq!(panels.len(), 9);
        for p in &panels {
            assert!(p.workloads >= 6);
            // With tiny test populations the statistics are noisy; the full
            // study (figures binary / bench) uses the paper-scale population.
            assert!(p.accuracy_pct >= 40.0, "{p:?}");
            assert!((-1.0..=1.0).contains(&p.correlation));
        }
        // The larger frequency drop degrades performance more on average.
        let big_drop: f64 = panels
            .iter()
            .filter(|p| (p.low_ghz - 0.8).abs() < 1e-6)
            .map(|p| p.mean_actual_degradation_pct)
            .sum();
        let small_drop: f64 = panels
            .iter()
            .filter(|p| (p.low_ghz - 1.0666).abs() < 1e-6)
            .map(|p| p.mean_actual_degradation_pct)
            .sum();
        assert!(
            big_drop > small_drop - 0.5,
            "big {big_drop} small {small_drop}"
        );
    }

    #[test]
    fn fold_fig6_panels_are_bit_identical_to_the_collected_reference() {
        let study = PredictorStudyConfig {
            workloads_per_panel: 8,
            calibration: CalibrationConfig {
                degradation_bound: 0.02,
                sim_duration: SimTime::from_millis(30.0),
            },
            ..PredictorStudyConfig::default()
        };
        let base = SocConfig::skylake_default();
        let reference = fig6_collected_in(&mut SessionPool::new(), 1, &base, &study).unwrap();
        assert_eq!(reference.len(), 9);

        for threads in THREAD_COUNTS {
            let folded = fig6_in(&mut SessionPool::new(), threads, &base, &study).unwrap();
            assert_eq!(
                folded, reference,
                "fig6 fold panels diverged at {threads} workers"
            );
            assert_eq!(format!("{folded:?}"), format!("{reference:?}"));
        }
    }
}
