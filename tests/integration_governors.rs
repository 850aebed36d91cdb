//! Integration tests of the governors: SysScale versus the baselines on the
//! full simulator, driven through the Scenario/SimSession API.

use sysscale::{
    calibrate, measure_population_from, CalibrationConfig, ScenarioSet, SessionPool, SimSession,
    SocConfig,
};
use sysscale_types::{exec, SimTime};
use sysscale_workloads::{
    battery_workload, graphics_workload, spec_cpu2006_suite, spec_workload, Workload,
    WorkloadGenerator,
};

fn matrix(config: &SocConfig, workloads: &[Workload], governors: &[&str]) -> sysscale::RunSet {
    ScenarioSet::matrix(config, workloads, governors)
        .unwrap()
        .with_baseline("baseline")
        .run(&mut SimSession::new())
        .unwrap()
}

#[test]
fn sysscale_speeds_up_compute_bound_and_spares_memory_bound_workloads() {
    let config = SocConfig::skylake_default();
    let names = ["gamess", "namd", "povray", "lbm", "bwaves", "milc"];
    let workloads: Vec<Workload> = names.iter().map(|n| spec_workload(n).unwrap()).collect();
    let runs = matrix(&config, &workloads, &["baseline", "sysscale"]);
    let mut speedups = Vec::new();
    for w in &workloads {
        let record = runs.get(&w.name, "sysscale").unwrap();
        assert_eq!(
            record.report.qos_violations, 0,
            "{} had QoS violations",
            w.name
        );
        let cell = runs.cell(&w.name, "sysscale").unwrap();
        assert!(
            cell.speedup_pct > -3.0,
            "{} regressed by {}%",
            w.name,
            cell.speedup_pct
        );
        speedups.push(cell.speedup_pct);
    }
    let compute_bound_avg = (speedups[0] + speedups[1] + speedups[2]) / 3.0;
    let memory_bound_avg = (speedups[3] + speedups[4] + speedups[5]) / 3.0;
    assert!(
        compute_bound_avg > 4.0,
        "compute-bound average speedup {compute_bound_avg}%"
    );
    assert!(
        compute_bound_avg > memory_bound_avg + 2.0,
        "compute {compute_bound_avg}% vs memory {memory_bound_avg}%"
    );
}

#[test]
fn sysscale_reduces_battery_life_power_without_missing_frames() {
    let config = SocConfig::skylake_default();
    let workloads: Vec<Workload> = ["video-playback", "web-browsing"]
        .iter()
        .map(|n| battery_workload(n).unwrap())
        .collect();
    let runs = matrix(&config, &workloads, &["baseline", "sysscale"]);
    for w in &workloads {
        let cell = runs.cell(&w.name, "sysscale").unwrap();
        assert!(
            cell.power_reduction_pct > 2.0,
            "{}: {}%",
            w.name,
            cell.power_reduction_pct
        );
        let report = &runs.get(&w.name, "sysscale").unwrap().report;
        assert_eq!(report.qos_violations, 0);
        let target = w.phases[0].gfx.target_fps.unwrap();
        assert!(
            report.average_fps >= target * 0.9,
            "{}: {} fps",
            w.name,
            report.average_fps
        );
    }
}

#[test]
fn sysscale_boosts_graphics_frame_rate() {
    let config = SocConfig::skylake_default();
    let w = graphics_workload("3DMark06").unwrap();
    let runs = matrix(&config, std::slice::from_ref(&w), &["baseline", "sysscale"]);
    let baseline = &runs.baseline_for(&w.name).unwrap().report;
    let sys = &runs.get(&w.name, "sysscale").unwrap().report;
    assert!(sys.average_gfx_freq_ghz >= baseline.average_gfx_freq_ghz);
    assert!(runs.cell(&w.name, "sysscale").unwrap().speedup_pct > 1.0);
}

#[test]
fn calibrated_predictor_has_no_false_positives_on_the_spec_suite() {
    // Calibrate on a synthetic population, then check the paper's headline
    // property (Sec. 4.2): the predictor never sends a workload to the low
    // point when that would cost more than the bound.
    let config = SocConfig::skylake_default();
    let cal_cfg = CalibrationConfig {
        degradation_bound: 0.02,
        sim_duration: SimTime::from_millis(60.0),
    };
    let population = WorkloadGenerator::with_seed(99).population(30);
    let outcome = calibrate(&config, &population, &cal_cfg).unwrap();
    let predictor = outcome.predictor();
    let peak = sysscale_types::Bandwidth::from_bytes_per_sec(
        config
            .dram()
            .peak_bandwidth(config.uncore_ladder().highest().dram_freq)
            .as_bytes_per_sec(),
    );

    let suite = spec_cpu2006_suite();
    let samples = measure_population_from(
        &mut SessionPool::new(),
        &config,
        &suite,
        &cal_cfg,
        exec::default_threads(),
    )
    .unwrap();
    let mut false_positives = 0;
    let mut checked = 0;
    for (w, sample) in suite.iter().zip(&samples) {
        let prediction = predictor.predict(&sample.counters, w.peripherals.static_demand(), peak);
        checked += 1;
        if !prediction.needs_high_performance && sample.actual_degradation > 0.05 {
            false_positives += 1;
        }
    }
    assert!(checked > 20);
    assert_eq!(
        false_positives, 0,
        "{false_positives}/{checked} severe false positives"
    );
}
