//! # sysscale
//!
//! A full reproduction of **SysScale** (Haj-Yahya et al., ISCA 2020):
//! multi-domain dynamic voltage and frequency scaling for energy-efficient
//! mobile processors, built on top of a Rust mobile-SoC simulator.
//!
//! The crate provides:
//!
//! * the [`predictor`] module — SysScale's static + dynamic demand predictor
//!   (Sec. 4.2) and the five-condition decision rule (Sec. 4.3);
//! * the [`calibration`] module — the offline µ+σ threshold calibration and
//!   the linear performance-impact model used by the Fig. 6 study;
//! * the [`governor`] module — the [`SysScaleGovernor`] plus MemScale- and
//!   CoScale-style baseline governors, all pluggable into the
//!   [`sysscale_soc::SocSimulator`];
//! * the [`baselines`] module — restricted platform configurations for the
//!   baselines and the Sec. 6 `-Redist` projection;
//! * the [`scenario`] module — the unified run API: a builder-based
//!   [`Scenario`], the [`SimSession`] executor, the [`SessionPool`]-backed
//!   deterministic parallel batch runner ([`ScenarioSet::run_parallel`]),
//!   the [`ScenarioSet`] matrix producing a [`RunSet`] keyed by
//!   `(workload, governor)`, and the fold-based streaming result pipeline
//!   ([`RunConsumer`], [`SweepSet::run_parallel_fold`]) that aggregates
//!   arbitrarily large sweeps in O(workers) result memory;
//! * the [`experiments`] module — one function per table/figure of the
//!   paper's evaluation, implemented on top of the scenario API.
//!
//! ## Quickstart
//!
//! Describe runs as [`Scenario`] values and execute them through a
//! [`SimSession`]; batches go through [`ScenarioSet`]:
//!
//! ```
//! use sysscale::{Scenario, ScenarioSet, SessionPool, SimSession};
//! use sysscale_soc::SocConfig;
//! use sysscale_types::SimTime;
//! use sysscale_workloads::spec_workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One run: the builder fills in platform (Skylake M-6Y75) and duration.
//! let mut pool = SessionPool::new();
//! let one = Scenario::builder(spec_workload("gamess").expect("in the suite"))
//!     .governor("sysscale")
//!     .duration(SimTime::from_millis(300.0))
//!     .build()?;
//! let record = pool.session().run(&one)?;
//! assert!(record.report.average_power().as_watts() < 4.6);
//!
//! // A batch: workloads x governors, with baseline-relative deltas,
//! // executed across the deterministic worker pool. The result is
//! // bit-identical at any worker count (2 here; pass
//! // `sysscale_types::exec::default_threads()` to use every core).
//! let suite = vec![
//!     spec_workload("gamess").unwrap(),
//!     spec_workload("lbm").unwrap(),
//! ];
//! let runs = ScenarioSet::matrix(
//!     &SocConfig::skylake_default(),
//!     &suite,
//!     &["baseline", "sysscale"],
//! )?
//! .with_baseline("baseline")
//! .run_parallel(&mut pool, 2)?;
//!
//! // A compute-bound workload gains performance from the redistributed budget.
//! assert!(runs.cell("416.gamess", "sysscale").unwrap().speedup_pct > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod calibration;
pub mod experiments;
pub mod governor;
pub mod predictor;
pub mod scenario;

pub use baselines::{
    coscale_config, memory_only_ladder, memscale_config, project_redistributed_speedup,
    RedistProjection,
};
pub use calibration::{
    calibrate, calibration_source, derive_thresholds, fit_impact_model, measure_population_from,
    samples_from_runs, CalibrationConfig, CalibrationOutcome, CalibrationSample,
    CalibrationScenarioSource,
};
pub use governor::{CoScaleGovernor, MemScaleGovernor, SysScaleGovernor};
pub use predictor::{
    DemandCondition, DemandPredictor, ImpactModel, Prediction, PredictorThresholds,
    TriggeredConditions,
};
pub use scenario::{
    auto_duration, platform_fingerprint, scenario_cost, sysscale_factory, CellError, CellId,
    CollectRuns, FnGovernorFactory, GovernorFactory, GovernorRegistry, GroupAcc, GroupFold,
    ProgressTap, RunCell, RunConsumer, RunRecord, RunSet, Scenario, ScenarioBuilder, ScenarioSet,
    ScenarioSource, SessionPool, SimSession, SweepSet, SweepSharding, TraceSinkFactory,
};

// Re-export the simulator entry points so downstream users can depend on the
// `sysscale` crate alone.
pub use sysscale_soc::{
    ChannelTraceSink, FixedGovernor, FnTraceSink, Governor, PlatformArtifacts, SimReport,
    SliceLoopStats, SocConfig, SocSimulator, TraceSink, VecTraceSink,
};
pub use sysscale_types as types;
pub use sysscale_workloads as workloads;
