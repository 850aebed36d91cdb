//! Motivation experiments: Table 1, Fig. 2(a–c), Fig. 3(a–b), and Fig. 4.

use std::sync::{Arc, Mutex};

use sysscale_compute::{CpuModel, GfxModel};
use sysscale_iodev::{DisplayController, DisplayPanel, IspEngine, IspMode, Resolution};
use sysscale_soc::{FnTraceSink, SocConfig};
use sysscale_types::{exec, Freq, SimError, SimResult, SimTime};
use sysscale_workloads::{graphics_workload, spec_workload, stream_peak_bandwidth, Workload};

use crate::scenario::{Scenario, ScenarioSet, SessionPool};

/// One row of Table 1: a component and its setting in the two experimental
/// setups.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Component name.
    pub component: String,
    /// Setting in the baseline setup.
    pub baseline: String,
    /// Setting in the MD-DVFS setup.
    pub md_dvfs: String,
}

/// Regenerates Table 1 from the configured operating-point ladder.
#[must_use]
pub fn table1(config: &SocConfig) -> Vec<Table1Row> {
    let high = config.uncore_ladder().highest();
    let low = config.uncore_ladder().lowest();
    vec![
        Table1Row {
            component: "DRAM frequency".into(),
            baseline: format!("{:.2}GHz", high.dram_freq.as_ghz()),
            md_dvfs: format!("{:.2}GHz", low.dram_freq.as_ghz()),
        },
        Table1Row {
            component: "IO Interconnect".into(),
            baseline: format!("{:.1}GHz", high.io_interconnect_freq.as_ghz()),
            md_dvfs: format!("{:.1}GHz", low.io_interconnect_freq.as_ghz()),
        },
        Table1Row {
            component: "Shared Voltage".into(),
            baseline: "V_SA".into(),
            md_dvfs: format!("{:.2}*V_SA", low.vsa_scale),
        },
        Table1Row {
            component: "DDRIO Digital".into(),
            baseline: "V_IO".into(),
            md_dvfs: format!("{:.2}*V_IO", low.vio_scale),
        },
        Table1Row {
            component: "2 Cores (4 threads)".into(),
            baseline: "1.2GHz".into(),
            md_dvfs: "1.2GHz".into(),
        },
    ]
}

/// Fig. 2(a): impact of the static MD-DVFS setup on one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2aRow {
    /// Benchmark name.
    pub workload: String,
    /// Average-power reduction of MD-DVFS vs the baseline, percent.
    pub power_reduction_pct: f64,
    /// Energy reduction, percent.
    pub energy_reduction_pct: f64,
    /// Performance change (negative = degradation), percent.
    pub perf_change_pct: f64,
    /// EDP improvement, percent.
    pub edp_improvement_pct: f64,
    /// Performance change when the saved budget is redistributed to the
    /// cores (the "MD-DVFS at 1.3 GHz" bar), percent.
    pub perf_change_with_redistribution_pct: f64,
}

/// Runs the Fig. 2(a) experiment for the three motivation benchmarks: one
/// `workloads x {baseline, md-dvfs, md-dvfs-redist}` scenario matrix.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig2a(config: &SocConfig) -> SimResult<Vec<Fig2aRow>> {
    let workloads: Vec<Workload> = ["perlbench", "cactusADM", "lbm"]
        .iter()
        .map(|name| spec_workload(name).expect("motivation benchmarks exist"))
        .collect();
    let runs = ScenarioSet::matrix(
        config,
        &workloads,
        &["baseline", "md-dvfs", "md-dvfs-redist"],
    )?
    .with_baseline("baseline")
    .run_parallel(&mut SessionPool::new(), exec::default_threads())?;
    workloads
        .iter()
        .map(|w| {
            let cell = |gov: &str| {
                runs.cell(&w.name, gov)
                    .ok_or_else(|| SimError::invalid_config(format!("({}, {gov}) missing", w.name)))
            };
            let scaled = cell("md-dvfs")?;
            let boosted = cell("md-dvfs-redist")?;
            Ok(Fig2aRow {
                workload: w.name.clone(),
                power_reduction_pct: scaled.power_reduction_pct,
                energy_reduction_pct: scaled.energy_reduction_pct,
                perf_change_pct: scaled.speedup_pct,
                edp_improvement_pct: scaled.edp_improvement_pct,
                perf_change_with_redistribution_pct: boosted.speedup_pct,
            })
        })
        .collect()
}

/// Fig. 2(b): bottleneck breakdown of one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2bRow {
    /// Benchmark name.
    pub workload: String,
    /// Fraction of performance bound by main-memory latency.
    pub latency_bound: f64,
    /// Fraction bound by main-memory bandwidth.
    pub bandwidth_bound: f64,
    /// Fraction bound by non-memory events.
    pub non_memory: f64,
}

/// Runs the Fig. 2(b) bottleneck analysis.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig2b(config: &SocConfig) -> SimResult<Vec<Fig2bRow>> {
    let cpu = CpuModel::new(config.cpu)?;
    ["perlbench", "cactusADM", "lbm"]
        .iter()
        .map(|name| {
            let workload = spec_workload(name).expect("motivation benchmarks exist");
            // Weight each phase's stall decomposition by its duration.
            let total = workload.iteration_length().as_secs();
            let mut latency = 0.0;
            let mut bandwidth = 0.0;
            for phase in &workload.phases {
                let r = cpu.evaluate(
                    &phase.cpu,
                    Freq::from_ghz(1.2),
                    SimTime::from_nanos(70.0),
                    1.0,
                );
                let weight = phase.duration.as_secs() / total;
                // A high blocking fraction means the exposed stalls are
                // latency-bound; the remainder of the memory time is
                // bandwidth/occupancy-bound.
                latency += r.memory_stall_fraction * phase.cpu.blocking_fraction * weight;
                bandwidth += r.memory_stall_fraction * (1.0 - phase.cpu.blocking_fraction) * weight;
            }
            Ok(Fig2bRow {
                workload: workload.name.clone(),
                latency_bound: latency,
                bandwidth_bound: bandwidth,
                non_memory: (1.0 - latency - bandwidth).max(0.0),
            })
        })
        .collect()
}

/// Fig. 2(c) / Fig. 3(a): a memory-bandwidth-demand-over-time series.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthTrace {
    /// Workload name.
    pub workload: String,
    /// `(time in seconds, demanded bandwidth in GiB/s)` samples.
    pub samples: Vec<(f64, f64)>,
    /// Average demand over the run, GiB/s.
    pub average_gib_s: f64,
    /// Peak demand over the run, GiB/s.
    pub peak_gib_s: f64,
}

/// Reservoir capacity of the streaming bandwidth-trace reducer: large
/// enough that every motivation-figure trace (a few seconds of 1 ms slices)
/// is captured exactly, while any longer run's trace memory stays
/// O(capacity).
pub const TRACE_RESERVOIR_CAPACITY: usize = 16_384;

/// Streaming reducer over a bandwidth-demand trace: exact running
/// average/peak over **every** slice, plus a fixed-capacity reservoir of
/// `(time, demand)` samples.
///
/// The reservoir decimates deterministically: it keeps slices whose index is
/// a multiple of the current stride, and when it fills it drops every other
/// kept sample and doubles the stride. Runs no longer than the capacity are
/// therefore reproduced exactly (stride 1), and longer runs keep a uniformly
/// spaced downsample of at least `capacity / 2` points — with peak trace
/// memory O(capacity) regardless of run length, which is what lets Fig. 3(a)
/// stream its samples instead of buffering whole traces on every worker.
#[derive(Debug, Clone)]
pub struct BandwidthReducer {
    capacity: usize,
    stride: u64,
    seen: u64,
    sum: f64,
    peak: f64,
    samples: Vec<(f64, f64)>,
}

impl BandwidthReducer {
    /// An empty reducer holding at most `capacity` reservoir samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        Self {
            capacity,
            stride: 1,
            seen: 0,
            sum: 0.0,
            peak: 0.0,
            samples: Vec::new(),
        }
    }

    /// Consumes one slice sample.
    pub fn record(&mut self, at_secs: f64, demand_gib_s: f64) {
        self.sum += demand_gib_s;
        self.peak = self.peak.max(demand_gib_s);
        if self.seen % self.stride == 0 {
            if self.samples.len() == self.capacity {
                // Compact: keep every other sample (original indices that
                // are multiples of the doubled stride) and re-test this one.
                let mut keep = 0usize;
                self.samples.retain(|_| {
                    let kept = keep % 2 == 0;
                    keep += 1;
                    kept
                });
                self.stride *= 2;
            }
            if self.seen % self.stride == 0 {
                self.samples.push((at_secs, demand_gib_s));
            }
        }
        self.seen += 1;
    }

    /// Number of slices consumed so far.
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Number of reservoir samples currently held (≤ capacity).
    #[must_use]
    pub fn reservoir_len(&self) -> usize {
        self.samples.len()
    }

    /// Exact average demand over every consumed slice, GiB/s.
    #[must_use]
    pub fn average_gib_s(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.sum / self.seen as f64
        }
    }

    /// Exact peak demand over every consumed slice, GiB/s.
    #[must_use]
    pub fn peak_gib_s(&self) -> f64 {
        self.peak
    }

    /// Finishes the reduction into a figure series.
    #[must_use]
    pub fn into_trace(self, workload: impl Into<String>) -> BandwidthTrace {
        BandwidthTrace {
            workload: workload.into(),
            average_gib_s: self.average_gib_s(),
            peak_gib_s: self.peak_gib_s(),
            samples: self.samples,
        }
    }
}

/// Runs each workload once (one parallel batch), streaming every slice
/// through a per-run [`BandwidthReducer`] behind an [`FnTraceSink`] — no
/// full trace is ever buffered; each worker holds O(reservoir) trace memory.
fn bandwidth_traces(
    config: &SocConfig,
    workloads: Vec<Workload>,
) -> SimResult<Vec<BandwidthTrace>> {
    let reducers: Vec<Arc<Mutex<BandwidthReducer>>> = workloads
        .iter()
        .map(|_| Arc::new(Mutex::new(BandwidthReducer::new(TRACE_RESERVOIR_CAPACITY))))
        .collect();
    let mut set = ScenarioSet::new();
    for (workload, reducer) in workloads.into_iter().zip(&reducers) {
        let reducer = Arc::clone(reducer);
        set.push(
            Scenario::builder(workload)
                .config(config.clone())
                .stream_trace(move || {
                    let reducer = Arc::clone(&reducer);
                    Box::new(FnTraceSink::new(move |slice| {
                        reducer
                            .lock()
                            .expect("reducer mutex poisoned")
                            .record(slice.at.as_secs(), slice.demanded_gib_s);
                    }))
                })
                .build()?,
        );
    }
    let runs = set.run_parallel(&mut SessionPool::new(), exec::default_threads())?;
    // The scenarios' sink factories hold the last Arc clones; dropping the
    // set makes each reducer uniquely owned again.
    drop(set);
    Ok(runs
        .records()
        .iter()
        .zip(reducers)
        .map(|(record, reducer)| {
            let reducer = Arc::into_inner(reducer)
                .expect("all sinks dropped after the batch")
                .into_inner()
                .expect("reducer mutex poisoned");
            reducer.into_trace(record.workload.clone())
        })
        .collect())
}

/// Runs the Fig. 2(c) experiment (bandwidth demand of the three motivation
/// benchmarks).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig2c(config: &SocConfig) -> SimResult<Vec<BandwidthTrace>> {
    let workloads = ["perlbench", "cactusADM", "lbm"]
        .iter()
        .map(|name| spec_workload(name).expect("exists"))
        .collect();
    bandwidth_traces(config, workloads)
}

/// Runs the Fig. 3(a) experiment (demand over time for three SPEC benchmarks
/// and a 3DMark scene).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig3a(config: &SocConfig) -> SimResult<Vec<BandwidthTrace>> {
    let workloads = vec![
        spec_workload("perlbench").expect("exists"),
        spec_workload("lbm").expect("exists"),
        spec_workload("astar").expect("exists"),
        graphics_workload("3DMark06").expect("exists"),
    ];
    bandwidth_traces(config, workloads)
}

/// Fig. 3(b): static bandwidth demand of one IO/graphics configuration, as a
/// fraction of the dual-channel LPDDR3-1600 peak.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3bRow {
    /// Configuration name.
    pub configuration: String,
    /// Demand in GiB/s.
    pub demand_gib_s: f64,
    /// Demand as a fraction of the 25.6 GB/s peak.
    pub fraction_of_peak: f64,
}

/// Regenerates Fig. 3(b) from the IO-device models.
#[must_use]
pub fn fig3b() -> Vec<Fig3bRow> {
    const PEAK: f64 = 25.6e9;
    let mut rows = Vec::new();
    let display_configs: [(&str, Vec<Resolution>); 4] = [
        ("display: 1x HD", vec![Resolution::FullHd]),
        (
            "display: 2x HD",
            vec![Resolution::FullHd, Resolution::FullHd],
        ),
        (
            "display: 3x HD",
            vec![Resolution::FullHd, Resolution::FullHd, Resolution::FullHd],
        ),
        ("display: 1x 4K", vec![Resolution::Uhd4k]),
    ];
    for (name, panels) in display_configs {
        let mut d = DisplayController::default();
        for r in panels {
            d.attach(DisplayPanel::at_60hz(r))
                .expect("within panel limit");
        }
        let bw = d.bandwidth_demand().as_bytes_per_sec();
        rows.push(Fig3bRow {
            configuration: name.to_string(),
            demand_gib_s: bw / (1u64 << 30) as f64,
            fraction_of_peak: bw / PEAK,
        });
    }
    for (name, mode) in [
        ("isp: 1080p30", IspMode::Capture1080p30),
        ("isp: 4K30", IspMode::Capture4k30),
    ] {
        let mut isp = IspEngine::default();
        isp.set_mode(mode);
        let bw = isp.bandwidth_demand().as_bytes_per_sec();
        rows.push(Fig3bRow {
            configuration: name.to_string(),
            demand_gib_s: bw / (1u64 << 30) as f64,
            fraction_of_peak: bw / PEAK,
        });
    }
    let gfx = GfxModel::new();
    for name in ["3DMark06", "3DMark11", "3DMarkVantage"] {
        let w = graphics_workload(name).expect("exists");
        let bw = gfx
            .desired_bandwidth(&w.phases[0].gfx, Freq::from_mhz(800.0))
            .as_bytes_per_sec();
        rows.push(Fig3bRow {
            configuration: format!("gfx: {name}"),
            demand_gib_s: bw / (1u64 << 30) as f64,
            fraction_of_peak: bw / PEAK,
        });
    }
    rows
}

/// Fig. 4: impact of unoptimized MRC values on the peak-bandwidth
/// microbenchmark at the low operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Result {
    /// Average-power increase of the unoptimized configuration, percent.
    pub power_increase_pct: f64,
    /// Performance degradation of the unoptimized configuration, percent.
    pub perf_degradation_pct: f64,
    /// Memory-domain power increase (isolating the memory subsystem), percent.
    pub memory_power_increase_pct: f64,
}

/// Runs the Fig. 4 experiment.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn fig4(config: &SocConfig) -> SimResult<Fig4Result> {
    let stream = stream_peak_bandwidth();
    // Unoptimized variant: same transition without the MRC reload step.
    let mut naive_config = config.clone();
    naive_config.reload_mrc_on_transition = false;

    let mut set = ScenarioSet::new();
    // Optimized: the SysScale flow reloads MRC values on the transition to
    // the low point.
    set.push(
        Scenario::builder(stream.clone())
            .config(config.clone())
            .governor("md-dvfs")
            .build()?,
    );
    set.push(
        Scenario::builder(stream)
            .config(naive_config)
            .governor("md-dvfs")
            .build()?,
    );
    let runs = set.run_parallel(&mut SessionPool::new(), exec::default_threads())?;
    let optimized = runs.records()[0].report.clone();
    let unoptimized = runs.records()[1].report.clone();

    let power_increase =
        (unoptimized.average_power().as_watts() / optimized.average_power().as_watts() - 1.0)
            * 100.0;
    let mem_increase = (unoptimized
        .average_domain_power(sysscale_types::Domain::Memory)
        .as_watts()
        / optimized
            .average_domain_power(sysscale_types::Domain::Memory)
            .as_watts()
        - 1.0)
        * 100.0;
    let perf_degradation = -unoptimized.speedup_pct_over(&optimized);
    Ok(Fig4Result {
        power_increase_pct: power_increase,
        perf_degradation_pct: perf_degradation,
        memory_power_increase_pct: mem_increase,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_reflects_the_ladder() {
        let rows = table1(&SocConfig::skylake_default());
        assert_eq!(rows.len(), 5);
        assert!(rows[0].baseline.contains("1.60GHz"));
        assert!(rows[0].md_dvfs.contains("1.07GHz"));
        assert!(rows[2].md_dvfs.contains("0.80"));
    }

    #[test]
    fn fig2a_shape_power_drops_membound_perf_drops_redistribution_helps_perlbench() {
        let rows = fig2a(&SocConfig::skylake_default()).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.power_reduction_pct > 3.0, "{}: {row:?}", row.workload);
        }
        let perl = &rows[0];
        let lbm = &rows[2];
        // lbm loses significant performance under static MD-DVFS; perlbench
        // barely does and gains with redistribution (Fig. 2a).
        assert!(lbm.perf_change_pct < -5.0);
        assert!(perl.perf_change_pct > -3.0);
        assert!(perl.perf_change_with_redistribution_pct > 2.0);
        assert!(perl.energy_reduction_pct > lbm.energy_reduction_pct);
    }

    #[test]
    fn fig2b_identifies_cactusadm_as_latency_bound_and_lbm_as_bandwidth_bound() {
        let rows = fig2b(&SocConfig::skylake_default()).unwrap();
        let cactus = rows.iter().find(|r| r.workload.contains("cactus")).unwrap();
        let lbm = rows.iter().find(|r| r.workload.contains("lbm")).unwrap();
        let perl = rows.iter().find(|r| r.workload.contains("perl")).unwrap();
        assert!(cactus.latency_bound > cactus.bandwidth_bound);
        assert!(lbm.bandwidth_bound > lbm.latency_bound);
        assert!(perl.non_memory > 0.7);
        for r in &rows {
            let total = r.latency_bound + r.bandwidth_bound + r.non_memory;
            assert!((total - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn fig3b_display_rows_match_paper_fractions() {
        let rows = fig3b();
        let hd = rows
            .iter()
            .find(|r| r.configuration == "display: 1x HD")
            .unwrap();
        let three_hd = rows
            .iter()
            .find(|r| r.configuration == "display: 3x HD")
            .unwrap();
        let uhd = rows
            .iter()
            .find(|r| r.configuration == "display: 1x 4K")
            .unwrap();
        assert!((0.12..=0.22).contains(&hd.fraction_of_peak));
        assert!((0.6..=0.8).contains(&uhd.fraction_of_peak));
        assert!((three_hd.fraction_of_peak / hd.fraction_of_peak - 3.0).abs() < 1e-9);
        assert!(rows.iter().any(|r| r.configuration.starts_with("isp")));
        assert!(rows.iter().any(|r| r.configuration.starts_with("gfx")));
    }

    #[test]
    fn reducer_reproduces_short_traces_exactly() {
        let mut reducer = BandwidthReducer::new(64);
        let samples: Vec<(f64, f64)> = (0..50)
            .map(|i| (i as f64 * 1e-3, (i % 7) as f64 + 0.25))
            .collect();
        for (t, b) in &samples {
            reducer.record(*t, *b);
        }
        assert_eq!(reducer.seen(), 50);
        assert_eq!(reducer.reservoir_len(), 50);
        let expected_avg = samples.iter().map(|(_, b)| b).sum::<f64>() / 50.0;
        assert_eq!(reducer.average_gib_s(), expected_avg);
        assert_eq!(reducer.peak_gib_s(), 6.25);
        let trace = reducer.into_trace("t");
        assert_eq!(trace.samples, samples);
    }

    #[test]
    fn reducer_memory_is_bounded_while_stats_stay_exact() {
        // 1M slices through a 256-slot reservoir: the running stats must be
        // exact, the reservoir bounded and uniformly strided.
        let capacity = 256;
        let mut reducer = BandwidthReducer::new(capacity);
        let n: u64 = 1_000_000;
        let mut sum = 0.0;
        for i in 0..n {
            let b = ((i * 37) % 1000) as f64 / 100.0;
            sum += b;
            reducer.record(i as f64 * 1e-3, b);
        }
        assert_eq!(reducer.seen(), n);
        assert!(reducer.reservoir_len() <= capacity, "O(capacity) memory");
        assert!(
            reducer.reservoir_len() > capacity / 2,
            "decimation keeps at least half the reservoir"
        );
        assert_eq!(reducer.average_gib_s(), sum / n as f64);
        assert_eq!(reducer.peak_gib_s(), 9.99);
        // Kept samples are uniformly strided: timestamps step by a constant
        // power-of-two multiple of the slice length.
        let trace = reducer.into_trace("long");
        let stride = trace.samples[1].0 - trace.samples[0].0;
        for pair in trace.samples.windows(2) {
            assert!((pair[1].0 - pair[0].0 - stride).abs() < 1e-9);
        }
        assert_eq!(trace.samples[0].0, 0.0, "stride-anchored at slice 0");
    }

    #[test]
    fn fig2c_streams_and_keeps_the_papers_demand_ordering() {
        // Shape + paper property; the byte-level streamed-vs-collected diff
        // lives in the integration harness (tests/integration_sweeps.rs).
        let config = SocConfig::skylake_default();
        let rows = fig2c(&config).unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(!row.samples.is_empty());
            assert!(row.samples.len() <= TRACE_RESERVOIR_CAPACITY);
            // Tolerance: on a constant-demand trace, summation rounding can
            // put the average an ulp above the peak.
            assert!(row.peak_gib_s >= row.average_gib_s - 1e-9);
        }
        let lbm = rows.iter().find(|r| r.workload.contains("lbm")).unwrap();
        let perl = rows.iter().find(|r| r.workload.contains("perl")).unwrap();
        assert!(
            lbm.average_gib_s > perl.average_gib_s,
            "{lbm:?} vs {perl:?}"
        );
        assert!(lbm.peak_gib_s > perl.peak_gib_s);
    }

    #[test]
    fn fig4_unoptimized_mrc_costs_power_and_performance() {
        let result = fig4(&SocConfig::skylake_default()).unwrap();
        assert!(
            result.perf_degradation_pct > 3.0,
            "perf degradation {result:?}"
        );
        assert!(
            result.memory_power_increase_pct > 8.0,
            "memory power increase {result:?}"
        );
        assert!(result.power_increase_pct > 0.0);
    }
}
