//! The unified simulation entry point: scenarios, sessions, and batch runs.
//!
//! SysScale's evaluation is a matrix of {platform configuration × workload ×
//! governor × duration} runs. This module turns that matrix into first-class
//! values:
//!
//! * [`Scenario`] — one run, assembled with a builder: platform config,
//!   workload, a *named* governor, duration, and trace options;
//! * [`GovernorFactory`] / [`GovernorRegistry`] — governors as named,
//!   buildable-per-run values (instead of `&mut` trait objects threaded by
//!   hand), including the platform restrictions the paper applies to the
//!   MemScale/CoScale baselines;
//! * [`SimSession`] — a reusable executor that caches one [`SocSimulator`]
//!   per distinct platform configuration and guarantees fresh per-run state;
//! * [`SessionPool`] — a pool of sessions, one per worker, reused across
//!   matrices by the parallel runner;
//! * [`ScenarioSet`] — a batch of scenarios (typically a workload × governor
//!   matrix) executed through one call, sequentially
//!   ([`ScenarioSet::run`]) or across a deterministic worker pool
//!   ([`ScenarioSet::run_parallel`]);
//! * [`ScenarioSource`] — a lazy, replayable scenario stream, so
//!   generator-backed populations are produced per shard instead of
//!   materialized up front;
//! * [`SweepSet`] — a whole sweep (many batches across configuration
//!   points) flattened into one cell list and submitted to the pool as a
//!   single sharded batch, hash-sharded by platform fingerprint so each
//!   platform's simulator is built once for the whole sweep;
//! * [`RunConsumer`] / [`GroupFold`] — streaming result aggregation: a
//!   consumer folds each finished cell into a per-slot accumulator
//!   ([`SweepSet::run_parallel_fold`]), merged deterministically in slot
//!   order, so arbitrarily large sweeps aggregate on the fly in O(workers)
//!   result memory instead of materializing one record per cell;
//! * [`RunSet`] / [`RunCell`] — the structured result, keyed by
//!   `(workload, governor)`, with speedup/power/energy deltas computed
//!   against a designated baseline governor. Collecting a `RunSet` is just
//!   the trivial consumer ([`CollectRuns`]); the materializing APIs are
//!   thin wrappers over the fold core.
//!
//! ## Determinism
//!
//! [`ScenarioSet::run_parallel`] shards cells across workers statically
//! (round-robin, no work stealing; see [`sysscale_types::exec`]) and merges
//! the records back in scenario order, and every run executes on a freshly
//! reset simulator with a freshly built governor. The resulting [`RunSet`]
//! is therefore bit-identical to the sequential path at *any* worker count.
//!
//! ## Example
//!
//! ```
//! use sysscale::{Scenario, ScenarioSet, SimSession};
//! use sysscale_soc::SocConfig;
//! use sysscale_workloads::spec_workload;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let workloads = vec![
//!     spec_workload("gamess").unwrap(),
//!     spec_workload("lbm").unwrap(),
//! ];
//! let runs = ScenarioSet::matrix(
//!     &SocConfig::skylake_default(),
//!     &workloads,
//!     &["baseline", "sysscale"],
//! )?
//! .with_baseline("baseline")
//! .run(&mut SimSession::new())?;
//!
//! let cell = runs.cell("416.gamess", "sysscale").unwrap();
//! assert!(cell.speedup_pct > 0.0);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::sync::Arc;

use sysscale_soc::{
    FixedGovernor, Governor, SimReport, SliceTrace, SocConfig, SocSimulator, TraceSink,
};
use sysscale_types::{exec, fnv1a64, SimError, SimResult, SimTime};
use sysscale_workloads::{PhaseSchedule, Workload};

use crate::baselines::memscale_config;
use crate::governor::{CoScaleGovernor, MemScaleGovernor, SysScaleGovernor};
use crate::predictor::DemandPredictor;

/// Default minimum simulated duration when a scenario does not pin one.
pub const DEFAULT_MIN_RUN: SimTime = SimTime::from_secs(0.3);

/// The simulated duration used for `workload` when no explicit duration is
/// requested: at least one full phase iteration, and no shorter than
/// [`DEFAULT_MIN_RUN`].
#[must_use]
pub fn auto_duration(workload: &Workload) -> SimTime {
    workload.iteration_length().max(DEFAULT_MIN_RUN)
}

// ---------------------------------------------------------------------------
// Governor factories
// ---------------------------------------------------------------------------

/// A named, buildable-per-run power-management policy.
///
/// A factory produces a *fresh* governor for every run, so scenario batches
/// never share mutable governor state, and it can restrict the platform the
/// governor runs on (the paper's MemScale/CoScale baselines cannot scale the
/// shared `V_SA`/`V_IO` rails or reload MRC values — Sec. 8).
pub trait GovernorFactory: fmt::Debug + Send + Sync {
    /// Stable name used to key runs and look the factory up in a registry.
    fn name(&self) -> &str;

    /// Builds a fresh governor instance for one run.
    fn build(&self) -> Box<dyn Governor>;

    /// The platform configuration this policy runs on, derived from the
    /// experiment's base configuration. Defaults to the unrestricted base.
    fn platform(&self, base: &SocConfig) -> SocConfig {
        base.clone()
    }
}

type BuildFn = Arc<dyn Fn() -> Box<dyn Governor> + Send + Sync>;
type PlatformFn = Arc<dyn Fn(&SocConfig) -> SocConfig + Send + Sync>;

/// A [`GovernorFactory`] assembled from closures. The building block for both
/// the built-in registry entries and ad-hoc user-defined governors.
#[derive(Clone)]
pub struct FnGovernorFactory {
    name: String,
    build: BuildFn,
    platform: Option<PlatformFn>,
}

impl FnGovernorFactory {
    /// Creates a factory with the given name and builder.
    pub fn new(
        name: impl Into<String>,
        build: impl Fn() -> Box<dyn Governor> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            build: Arc::new(build),
            platform: None,
        }
    }

    /// Adds a platform restriction applied to the base configuration before
    /// every run of this governor.
    #[must_use]
    pub fn with_platform(
        mut self,
        platform: impl Fn(&SocConfig) -> SocConfig + Send + Sync + 'static,
    ) -> Self {
        self.platform = Some(Arc::new(platform));
        self
    }
}

impl fmt::Debug for FnGovernorFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnGovernorFactory")
            .field("name", &self.name)
            .field("restricted_platform", &self.platform.is_some())
            .finish()
    }
}

impl GovernorFactory for FnGovernorFactory {
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self) -> Box<dyn Governor> {
        (self.build)()
    }

    fn platform(&self, base: &SocConfig) -> SocConfig {
        match &self.platform {
            Some(p) => p(base),
            None => base.clone(),
        }
    }
}

/// A factory for the SysScale governor with a specific calibrated predictor.
#[must_use]
pub fn sysscale_factory(predictor: DemandPredictor) -> Arc<dyn GovernorFactory> {
    Arc::new(FnGovernorFactory::new("sysscale", move || {
        Box::new(SysScaleGovernor::new(predictor))
    }))
}

/// Registry of named governor factories.
///
/// [`GovernorRegistry::builtin`] knows every policy of the paper's
/// evaluation; custom factories can be added (or built-ins replaced) with
/// [`GovernorRegistry::register`].
#[derive(Debug, Clone)]
pub struct GovernorRegistry {
    entries: Vec<Arc<dyn GovernorFactory>>,
}

impl GovernorRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
        }
    }

    /// The registry of built-in policies:
    ///
    /// | Name | Policy | Platform |
    /// |---|---|---|
    /// | `baseline` | uncore pinned at the highest operating point | full |
    /// | `md-dvfs` | uncore pinned at the lowest point (Table 1) | full |
    /// | `md-dvfs-redist` | `md-dvfs` plus budget redistribution | full |
    /// | `sysscale` | the Sec. 4 SysScale governor | full |
    /// | `sysscale-no-redist` | SysScale without redistribution | full |
    /// | `memscale` | MemScale-like memory-only DVFS | restricted |
    /// | `coscale` | CoScale-like coordinated CPU+memory DVFS | restricted |
    ///
    /// "Restricted" platforms keep the `V_SA`/`V_IO` rails and the IO
    /// interconnect at nominal and skip the MRC reload
    /// ([`crate::baselines::memscale_config`]).
    #[must_use]
    pub fn builtin() -> Self {
        let mut r = Self::new();
        r.register(Arc::new(FnGovernorFactory::new("baseline", || {
            Box::new(FixedGovernor::baseline())
        })));
        r.register(Arc::new(FnGovernorFactory::new("md-dvfs", || {
            Box::new(FixedGovernor::md_dvfs(false))
        })));
        r.register(Arc::new(FnGovernorFactory::new("md-dvfs-redist", || {
            Box::new(FixedGovernor::md_dvfs(true))
        })));
        r.register(Arc::new(FnGovernorFactory::new("sysscale", || {
            Box::new(SysScaleGovernor::with_default_thresholds())
        })));
        r.register(Arc::new(FnGovernorFactory::new(
            "sysscale-no-redist",
            || Box::new(SysScaleGovernor::with_default_thresholds().without_redistribution()),
        )));
        r.register(Arc::new(
            FnGovernorFactory::new("memscale", || Box::new(MemScaleGovernor::new()))
                .with_platform(memscale_config),
        ));
        r.register(Arc::new(
            FnGovernorFactory::new("coscale", || Box::new(CoScaleGovernor::new()))
                .with_platform(memscale_config),
        ));
        r
    }

    /// Registers a factory, replacing any existing entry with the same name.
    pub fn register(&mut self, factory: Arc<dyn GovernorFactory>) {
        self.entries.retain(|e| e.name() != factory.name());
        self.entries.push(factory);
    }

    /// Looks a factory up by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<dyn GovernorFactory>> {
        self.entries.iter().find(|e| e.name() == name).cloned()
    }

    /// Looks a factory up by name, producing a descriptive error when the
    /// name is unknown.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown governor name.
    pub fn resolve(&self, name: &str) -> SimResult<Arc<dyn GovernorFactory>> {
        self.get(name).ok_or_else(|| {
            SimError::invalid_config(format!(
                "unknown governor '{name}' (available: {})",
                self.names().join(", ")
            ))
        })
    }

    /// The registered names, sorted lexicographically.
    ///
    /// The ordering is part of the API: error messages (e.g. from
    /// [`GovernorRegistry::resolve`]) embed this list, and a stable order
    /// keeps them reproducible regardless of the sequence in which factories
    /// were registered.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.iter().map(|e| e.name().to_string()).collect();
        names.sort_unstable();
        names
    }
}

impl Default for GovernorRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

// ---------------------------------------------------------------------------
// Scenario
// ---------------------------------------------------------------------------

/// Builds one fresh [`TraceSink`] per traced run.
///
/// Scenarios are cloned onto worker threads, so a streaming scenario carries
/// a *factory* rather than a sink instance: every run gets its own sink (for
/// a channel-backed sink, typically a clone of one shared bounded sender).
pub type TraceSinkFactory = Arc<dyn Fn() -> Box<dyn TraceSink> + Send + Sync>;

/// How a scenario handles its per-slice trace.
#[derive(Clone, Default)]
enum TraceSpec {
    /// No trace is produced.
    #[default]
    Off,
    /// Every slice is buffered and returned in [`RunRecord::trace`].
    Collect,
    /// Every slice is streamed into a sink built by the factory;
    /// [`RunRecord::trace`] stays `None` and memory stays flat.
    Stream(TraceSinkFactory),
}

impl fmt::Debug for TraceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSpec::Off => f.write_str("Off"),
            TraceSpec::Collect => f.write_str("Collect"),
            TraceSpec::Stream(_) => f.write_str("Stream(..)"),
        }
    }
}

/// One fully-specified simulation run.
///
/// Built with [`Scenario::builder`]; executed by [`SimSession::run`] or as
/// part of a [`ScenarioSet`].
///
/// Scenarios are cheap to clone and to share across worker threads: the
/// workload lives behind an [`Arc`], the governor is a shared factory, and
/// the platform configuration shares its large tables through
/// [`sysscale_soc::PlatformArtifacts`].
#[derive(Debug, Clone)]
pub struct Scenario {
    config: SocConfig,
    workload: Arc<Workload>,
    governor: Arc<dyn GovernorFactory>,
    duration: Option<SimTime>,
    trace: TraceSpec,
}

impl Scenario {
    /// Starts building a scenario for the given workload (by value or as a
    /// pre-shared [`Arc`]). The platform defaults to
    /// [`SocConfig::skylake_default`], the governor to `baseline`, and the
    /// duration to [`auto_duration`].
    #[must_use]
    pub fn builder(workload: impl Into<Arc<Workload>>) -> ScenarioBuilder {
        ScenarioBuilder {
            config: SocConfig::skylake_default(),
            workload: workload.into(),
            governor: None,
            duration: None,
            trace: TraceSpec::Off,
        }
    }

    /// The base platform configuration (before any governor restriction).
    #[must_use]
    pub fn config(&self) -> &SocConfig {
        &self.config
    }

    /// The workload this scenario runs.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The governor factory this scenario runs under.
    #[must_use]
    pub fn governor(&self) -> &Arc<dyn GovernorFactory> {
        &self.governor
    }

    /// Whether a per-slice trace is collected into [`RunRecord::trace`].
    /// `false` for streaming scenarios — their slices go to the sink, not
    /// into the record.
    #[must_use]
    pub fn traced(&self) -> bool {
        matches!(self.trace, TraceSpec::Collect)
    }

    /// Whether this scenario streams its trace through a [`TraceSinkFactory`].
    #[must_use]
    pub fn streams_trace(&self) -> bool {
        matches!(self.trace, TraceSpec::Stream(_))
    }

    /// The simulated duration of this scenario (explicit, or derived from
    /// the workload's phase iteration).
    #[must_use]
    pub fn duration(&self) -> SimTime {
        self.duration
            .unwrap_or_else(|| auto_duration(&self.workload))
    }

    /// The platform configuration the run actually uses: the base
    /// configuration with the governor's restriction applied.
    #[must_use]
    pub fn effective_config(&self) -> SocConfig {
        self.governor.platform(&self.config)
    }
}

/// Builder for [`Scenario`].
#[derive(Debug)]
pub struct ScenarioBuilder {
    config: SocConfig,
    workload: Arc<Workload>,
    // None = the default `baseline` governor, resolved lazily in build() so
    // the common governor_factory() path never constructs a registry.
    governor: Option<SimResult<Arc<dyn GovernorFactory>>>,
    duration: Option<SimTime>,
    trace: TraceSpec,
}

impl ScenarioBuilder {
    /// Sets the base platform configuration.
    #[must_use]
    pub fn config(mut self, config: SocConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the governor by name from the built-in registry
    /// ([`GovernorRegistry::builtin`]). An unknown name surfaces as an error
    /// from [`ScenarioBuilder::build`].
    #[must_use]
    pub fn governor(mut self, name: &str) -> Self {
        self.governor = Some(GovernorRegistry::builtin().resolve(name));
        self
    }

    /// Uses a custom governor factory (e.g. [`sysscale_factory`] with a
    /// calibrated predictor, or any [`FnGovernorFactory`]).
    #[must_use]
    pub fn governor_factory(mut self, factory: Arc<dyn GovernorFactory>) -> Self {
        self.governor = Some(Ok(factory));
        self
    }

    /// Pins the simulated duration (defaults to [`auto_duration`]).
    #[must_use]
    pub fn duration(mut self, duration: SimTime) -> Self {
        self.duration = Some(duration);
        self
    }

    /// Enables per-slice trace collection for this run: every slice is
    /// buffered and returned in [`RunRecord::trace`]. For long runs prefer
    /// [`ScenarioBuilder::stream_trace`], which holds memory flat.
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = if trace {
            TraceSpec::Collect
        } else {
            TraceSpec::Off
        };
        self
    }

    /// Streams the per-slice trace through a sink built by `factory` at the
    /// start of each run, instead of buffering it. [`RunRecord::trace`]
    /// stays `None`; the run's trace memory is bounded by the sink (e.g. a
    /// [`sysscale_soc::ChannelTraceSink`] with a small capacity), no matter
    /// how long the run is or how many workers execute traced scenarios
    /// concurrently.
    #[must_use]
    pub fn stream_trace(
        mut self,
        factory: impl Fn() -> Box<dyn TraceSink> + Send + Sync + 'static,
    ) -> Self {
        self.trace = TraceSpec::Stream(Arc::new(factory));
        self
    }

    /// Finishes the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if the governor name did not
    /// resolve or the configuration is inconsistent, and
    /// [`SimError::EmptySimulation`] if an explicit duration is not
    /// positive.
    pub fn build(self) -> SimResult<Scenario> {
        let governor = match self.governor {
            Some(resolved) => resolved?,
            None => GovernorRegistry::builtin().resolve("baseline")?,
        };
        governor.platform(&self.config).validate()?;
        if let Some(d) = self.duration {
            if d <= SimTime::ZERO {
                return Err(SimError::EmptySimulation);
            }
        }
        Ok(Scenario {
            config: self.config,
            workload: self.workload,
            governor,
            duration: self.duration,
            trace: self.trace,
        })
    }
}

// ---------------------------------------------------------------------------
// SimSession
// ---------------------------------------------------------------------------

/// The result of executing one [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Workload name (the row key).
    pub workload: String,
    /// Governor factory name (the column key).
    pub governor: String,
    /// The full simulation report.
    pub report: SimReport,
    /// The per-slice trace, when the scenario requested one.
    pub trace: Option<Vec<SliceTrace>>,
}

/// A reusable scenario executor.
///
/// The session owns one [`SocSimulator`] per distinct platform configuration
/// it has seen and reuses it across runs; the simulator itself guarantees
/// fresh per-run state (see [`SocSimulator::reset`]), so repeated executions
/// of the same scenario are deterministic.
#[derive(Debug, Default)]
pub struct SimSession {
    simulators: Vec<(SocConfig, SocSimulator)>,
}

impl SimSession {
    /// Creates an empty session.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct platform configurations this session has built
    /// simulators for.
    #[must_use]
    pub fn cached_platforms(&self) -> usize {
        self.simulators.len()
    }

    fn simulator_for(&mut self, config: &SocConfig) -> SimResult<&mut SocSimulator> {
        if let Some(idx) = self.simulators.iter().position(|(c, _)| c == config) {
            return Ok(&mut self.simulators[idx].1);
        }
        let sim = SocSimulator::new(config.clone())?;
        self.simulators.push((config.clone(), sim));
        Ok(&mut self.simulators.last_mut().expect("just pushed").1)
    }

    /// Executes one scenario.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run(&mut self, scenario: &Scenario) -> SimResult<RunRecord> {
        let config = scenario.effective_config();
        let mut governor = scenario.governor.build();
        let (report, trace) = match &scenario.trace {
            TraceSpec::Off | TraceSpec::Collect => self.run_with(
                &config,
                &scenario.workload,
                governor.as_mut(),
                scenario.duration(),
                scenario.traced(),
            )?,
            TraceSpec::Stream(factory) => {
                let mut sink = factory();
                let report = self.run_streaming(
                    &config,
                    &scenario.workload,
                    governor.as_mut(),
                    scenario.duration(),
                    sink.as_mut(),
                )?;
                (report, None)
            }
        };
        Ok(RunRecord {
            workload: scenario.workload.name.clone(),
            governor: scenario.governor.name().to_string(),
            report,
            trace,
        })
    }

    /// Low-level escape hatch: runs a workload under an existing governor
    /// instance on the session's cached simulator for `config`.
    ///
    /// Prefer [`SimSession::run`] with a [`Scenario`]; this exists for code
    /// that needs to thread a stateful governor through consecutive runs.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_with(
        &mut self,
        config: &SocConfig,
        workload: &Workload,
        governor: &mut dyn Governor,
        duration: SimTime,
        trace: bool,
    ) -> SimResult<(SimReport, Option<Vec<SliceTrace>>)> {
        let sim = self.simulator_for(config)?;
        if trace {
            let (report, slices) = sim.run_with_trace(workload, governor, duration)?;
            Ok((report, Some(slices)))
        } else {
            let report = sim.run(workload, governor, duration)?;
            Ok((report, None))
        }
    }

    /// Low-level streaming variant of [`SimSession::run_with`]: the
    /// per-slice trace goes straight into `sink` and is never buffered.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_streaming(
        &mut self,
        config: &SocConfig,
        workload: &Workload,
        governor: &mut dyn Governor,
        duration: SimTime,
        sink: &mut dyn TraceSink,
    ) -> SimResult<SimReport> {
        let sim = self.simulator_for(config)?;
        sim.run_streaming(workload, governor, duration, sink)
    }
}

// ---------------------------------------------------------------------------
// SessionPool
// ---------------------------------------------------------------------------

/// A pool of [`SimSession`]s, one per worker of the parallel scenario
/// runner.
///
/// The pool grows on demand to the requested worker count and keeps its
/// sessions — and therefore their cached per-platform simulators — alive
/// across matrices, so a sweep that executes many [`ScenarioSet`]s on the
/// same platforms pays the simulator construction cost once per
/// `(worker, platform)` instead of once per matrix.
#[derive(Debug, Default)]
pub struct SessionPool {
    sessions: Vec<SimSession>,
}

impl SessionPool {
    /// Creates an empty pool; sessions are created lazily as workers are
    /// requested.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of worker sessions currently held.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.sessions.len()
    }

    /// Total number of cached `(worker, platform)` simulators across the
    /// pool.
    #[must_use]
    pub fn cached_platforms(&self) -> usize {
        self.sessions.iter().map(SimSession::cached_platforms).sum()
    }

    /// The first worker's session, for interleaving single
    /// [`SimSession::run`]s with pooled batches without a second cache.
    pub fn session(&mut self) -> &mut SimSession {
        &mut self.worker_sessions(1)[0]
    }

    /// Grows the pool to at least `n` sessions and returns the first `n`,
    /// one mutable slot per worker. This is the pool-keying surface a
    /// long-running executor uses to give each of its physical workers a
    /// stable session: because a [`SimSession`] caches simulators by full
    /// platform-configuration equality, submissions that pin the same
    /// platform fingerprint hit the same warm simulator on whichever
    /// worker slot runs their cells — across submissions, not just within
    /// one — while the pool stays bounded by the worker count.
    pub fn worker_sessions(&mut self, n: usize) -> &mut [SimSession] {
        let n = n.max(1);
        while self.sessions.len() < n {
            self.sessions.push(SimSession::new());
        }
        &mut self.sessions[..n]
    }
}

// ---------------------------------------------------------------------------
// ScenarioSet
// ---------------------------------------------------------------------------

/// A batch of scenarios executed through one call, typically a full
/// workload × governor matrix.
#[derive(Debug, Clone, Default)]
pub struct ScenarioSet {
    scenarios: Vec<Scenario>,
    baseline: Option<String>,
}

impl ScenarioSet {
    /// An empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the full `workloads × governors` matrix on one base platform,
    /// resolving governor names against the built-in registry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown governor name.
    pub fn matrix(
        config: &SocConfig,
        workloads: &[Workload],
        governors: &[&str],
    ) -> SimResult<Self> {
        Self::matrix_with(&GovernorRegistry::builtin(), config, workloads, governors)
    }

    /// Like [`ScenarioSet::matrix`], but resolves governor names against a
    /// caller-provided registry (e.g. one carrying a calibrated SysScale
    /// predictor).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] for an unknown governor name.
    pub fn matrix_with(
        registry: &GovernorRegistry,
        config: &SocConfig,
        workloads: &[Workload],
        governors: &[&str],
    ) -> SimResult<Self> {
        let mut set = Self::new();
        // One shared workload handle per row: every governor column's
        // scenario points at the same `Arc<Workload>`.
        let shared: Vec<Arc<Workload>> = workloads.iter().cloned().map(Arc::new).collect();
        for name in governors {
            let factory = registry.resolve(name)?;
            for workload in &shared {
                set.push(
                    Scenario::builder(Arc::clone(workload))
                        .config(config.clone())
                        .governor_factory(Arc::clone(&factory))
                        .build()?,
                );
            }
        }
        Ok(set)
    }

    /// Adds one scenario to the set.
    pub fn push(&mut self, scenario: Scenario) {
        self.scenarios.push(scenario);
    }

    /// Designates the governor whose runs serve as the per-workload baseline
    /// for the [`RunSet`]'s relative deltas.
    #[must_use]
    pub fn with_baseline(mut self, governor: &str) -> Self {
        self.baseline = Some(governor.to_string());
        self
    }

    /// The designated baseline governor, if any (see
    /// [`ScenarioSet::with_baseline`]).
    #[must_use]
    pub fn baseline(&self) -> Option<&str> {
        self.baseline.as_deref()
    }

    /// The scenarios in the set.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// Number of scenarios in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Executes every scenario in the set on `session` and collects the
    /// structured result.
    ///
    /// This is the sequential path; it is exactly
    /// [`ScenarioSet::run_parallel`] with one worker (modulo which session
    /// caches the simulators).
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error.
    pub fn run(&self, session: &mut SimSession) -> SimResult<RunSet> {
        let records = self
            .scenarios
            .iter()
            .map(|s| session.run(s))
            .collect::<SimResult<Vec<_>>>()?;
        Ok(RunSet {
            records,
            baseline: self.baseline.clone(),
        })
    }

    /// Executes the set across up to `threads` pool workers and collects the
    /// structured result.
    ///
    /// Scenario `i` runs on worker `i % threads` (static round-robin — no
    /// work stealing), each worker executes its shard in index order on its
    /// own [`SimSession`], and the records are merged back in scenario
    /// order. Because every run starts from a freshly reset simulator with a
    /// freshly built governor, the returned [`RunSet`] is **bit-identical**
    /// to [`ScenarioSet::run`] at any `threads` value; see the module-level
    /// determinism notes.
    ///
    /// `threads` is clamped to `[1, len()]`; pass
    /// [`sysscale_types::exec::default_threads`] to honour the
    /// `SYSSCALE_THREADS` environment variable and the detected core count.
    /// With one effective worker the batch runs inline on the calling
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in scenario order (the same
    /// error the sequential path would report, though later scenarios may
    /// already have executed on other workers).
    pub fn run_parallel(&self, pool: &mut SessionPool, threads: usize) -> SimResult<RunSet> {
        let mut sweep = SweepSet::new();
        sweep.push_set_ref(self);
        Ok(sweep
            .run_parallel_sharded(pool, threads, SweepSharding::RoundRobin)?
            .pop()
            .expect("single-member sweep"))
    }

    /// Executes the set across up to `threads` pool workers, folding every
    /// finished run into `consumer` instead of materializing a [`RunSet`] —
    /// the batch spelling of [`SweepSet::run_parallel_fold`] for a single
    /// matrix, with the same static round-robin shard as
    /// [`ScenarioSet::run_parallel`]. Result memory is O(workers)
    /// accumulators no matter how many scenarios the set holds.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in scenario order.
    pub fn run_parallel_fold<Q: RunConsumer>(
        &self,
        pool: &mut SessionPool,
        threads: usize,
        consumer: &Q,
    ) -> SimResult<Q::Acc> {
        let mut sweep = SweepSet::new();
        sweep.push_set_ref(self);
        sweep.run_parallel_fold_sharded(pool, threads, SweepSharding::RoundRobin, consumer)
    }
}

// ---------------------------------------------------------------------------
// ScenarioSource / SweepSet
// ---------------------------------------------------------------------------

/// Fingerprint of a platform configuration, used as the shard key of keyed
/// sweep execution: scenarios whose effective configurations are equal
/// always produce equal fingerprints, so [`SweepSharding::ByPlatform`] lands
/// them on the same pool worker and that worker's cached simulator is reused
/// across every cell of the sweep that shares the platform.
///
/// The fingerprint is FNV-1a over the configuration's `Debug` rendering —
/// deterministic across runs and toolchains. It only steers *scheduling*:
/// a collision (or a `Debug` rendering that under-reports a difference)
/// merely places two platforms on one worker, never changes results,
/// because the per-worker [`SimSession`] still keys its simulator cache on
/// full configuration equality.
#[must_use]
pub fn platform_fingerprint(config: &SocConfig) -> u64 {
    fnv1a64(format!("{config:?}").as_bytes())
}

/// Estimated execution cost of one scenario, used to size the leases the
/// sweep service and the distributed dispatcher cut each worker slot into
/// (see [`exec::cost_quantile_chunks`]).
///
/// The estimate is [`PhaseSchedule::estimated_cost`] over the scenario's
/// effective duration — derived purely from the workload's resolved phase
/// structure, never from timing, so it is deterministic across runs,
/// processes, and machines. Like the platform fingerprint it only steers
/// *scheduling*: a poor estimate merely unbalances worker wall-clock, never
/// changes results.
#[must_use]
pub fn scenario_cost(scenario: &Scenario) -> u64 {
    PhaseSchedule::compile(scenario.workload()).estimated_cost(scenario.duration())
}

/// A lazily-produced, replayable stream of scenarios with a known length.
///
/// Where a [`ScenarioSet`] materializes its cells, a source is a *recipe*:
/// every [`ScenarioSource::stream`] call starts a fresh pass yielding the
/// identical sequence, so each worker of a [`SweepSet`] batch pulls its own
/// iterator and generates only the cells it is assigned — a million-cell
/// synthetic population (e.g. a
/// [`sysscale_workloads::WorkloadSource`]-backed calibration stream) runs in
/// O(workers) workload memory instead of materializing up front.
pub trait ScenarioSource: Sync {
    /// Number of scenarios the stream yields.
    fn len(&self) -> usize;

    /// `true` when the stream yields nothing.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A fresh iterator over the full stream, starting at scenario 0.
    /// Repeated calls must yield bit-identical scenario sequences.
    ///
    /// Named `stream` (not `scenarios`) so the trait never collides with
    /// inherent accessors like [`ScenarioSet::scenarios`].
    fn stream(&self) -> Box<dyn Iterator<Item = Scenario> + Send + '_>;

    /// One shard key per scenario (see [`platform_fingerprint`]); cells
    /// sharing a key are executed by the same pool worker under
    /// [`SweepSharding::ByPlatform`]. The default derives the keys from one
    /// streaming pass; sources whose cells all share a platform should
    /// override it to skip that pass.
    fn shard_keys(&self) -> Vec<u64> {
        self.stream()
            .map(|s| platform_fingerprint(&s.effective_config()))
            .collect()
    }

    /// One estimated execution cost per scenario (see [`scenario_cost`]);
    /// lease planners cut worker slots at cost quantiles of these weights
    /// instead of cell counts. The default derives the costs from one
    /// streaming pass; sources that know their cells' costs up front (or
    /// share workloads across many cells) should override it.
    fn cell_costs(&self) -> Vec<u64> {
        self.stream().map(|s| scenario_cost(&s)).collect()
    }
}

impl ScenarioSource for ScenarioSet {
    fn len(&self) -> usize {
        self.scenarios.len()
    }

    fn stream(&self) -> Box<dyn Iterator<Item = Scenario> + Send + '_> {
        Box::new(self.scenarios.iter().cloned())
    }

    fn shard_keys(&self) -> Vec<u64> {
        // A matrix typically spans a handful of distinct platforms across
        // many cells; fingerprint each distinct configuration once instead
        // of rendering it per cell.
        let mut seen: Vec<(SocConfig, u64)> = Vec::new();
        self.scenarios
            .iter()
            .map(|scenario| {
                let config = scenario.effective_config();
                match seen.iter().find(|(c, _)| *c == config) {
                    Some((_, key)) => *key,
                    None => {
                        let key = platform_fingerprint(&config);
                        seen.push((config, key));
                        key
                    }
                }
            })
            .collect()
    }

    fn cell_costs(&self) -> Vec<u64> {
        // A matrix shares each workload across its governor column; compile
        // the phase schedule once per shared workload instance (the `Arc`
        // makes sharing observable) instead of once per cell. Distinct
        // durations over one workload still cost separate estimates.
        let mut seen: Vec<(*const Workload, SimTime, u64)> = Vec::new();
        self.scenarios
            .iter()
            .map(|scenario| {
                let workload: *const Workload = scenario.workload();
                let duration = scenario.duration();
                match seen
                    .iter()
                    .find(|(w, d, _)| *w == workload && *d == duration)
                {
                    Some((_, _, cost)) => *cost,
                    None => {
                        let cost = scenario_cost(scenario);
                        seen.push((workload, duration, cost));
                        cost
                    }
                }
            })
            .collect()
    }
}

/// How a [`SweepSet`]'s flattened cells are assigned to pool workers.
///
/// Both strategies produce byte-identical [`RunSet`]s (every run executes on
/// a freshly reset simulator with a freshly built governor); they differ
/// only in simulator-cache locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepSharding {
    /// Flat cell `i` runs on worker `i % threads` — maximally even load,
    /// but a platform used by many members is rebuilt on every worker.
    RoundRobin,
    /// Cells are grouped by [`platform_fingerprint`] of their effective
    /// configuration and the groups are spread over the workers by dense
    /// rank of the fingerprint value (see [`exec::Shard::ByKey`] — the
    /// worker that owns a platform is a pure function of the sweep's
    /// fingerprint set and the worker count, never of member insertion
    /// order): with at least as many platforms as workers, each platform's
    /// simulator is built by exactly one worker for the whole sweep; with
    /// fewer platforms than workers, the workers are partitioned among the
    /// platforms (every worker stays busy, and each platform still touches
    /// the fewest workers possible). The default.
    ByPlatform,
}

enum MemberSource<'a> {
    Set(ScenarioSet),
    SetRef(&'a ScenarioSet),
    Source(&'a dyn ScenarioSource),
}

impl MemberSource<'_> {
    fn as_source(&self) -> &dyn ScenarioSource {
        match self {
            MemberSource::Set(set) => set,
            MemberSource::SetRef(set) => *set,
            MemberSource::Source(source) => *source,
        }
    }
}

impl fmt::Debug for MemberSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberSource::Set(set) => f.debug_tuple("Set").field(&set.len()).finish(),
            MemberSource::SetRef(set) => f.debug_tuple("SetRef").field(&set.len()).finish(),
            MemberSource::Source(source) => f.debug_tuple("Source").field(&source.len()).finish(),
        }
    }
}

/// One forward pass over a lazy member's stream: a
/// [`SweepSet::fold_flat_slice`] call visits its cells in ascending flat
/// order, so the cursor only ever advances and at most one generated
/// scenario per call is live at a time.
struct MemberCursor<'s> {
    iter: Box<dyn Iterator<Item = Scenario> + Send + 's>,
    next: usize,
}

/// The execution context of one [`SweepSet::fold_flat_slice`] call: a
/// session plus one lazy cursor slot per member (materialized members are
/// indexed directly — no clones, no cursor). `'p` borrows the session from
/// the pool; `'s` borrows the member streams from the sweep.
struct SweepWorker<'p, 's> {
    session: &'p mut SimSession,
    cursors: Vec<Option<MemberCursor<'s>>>,
}

/// An error produced by one specific sweep cell: the failing flat index
/// alongside the simulator error. [`SweepSet::run_flat_indices`] reports
/// errors in this form so callers that execute disjoint index subsets (e.g.
/// the distributed dispatcher's leases) can still order failures in flat
/// cell order across subsets.
#[derive(Debug)]
pub struct CellError {
    /// Flat index of the failing cell.
    pub flat: usize,
    /// The simulator error the cell produced.
    pub error: SimError,
}

/// A whole sweep — several scenario batches (one per configuration point of
/// a study such as Fig. 10's TDP sweep) — flattened into **one** cell list
/// and submitted to the [`SessionPool`] as a single sharded batch.
///
/// Compared to running one [`ScenarioSet::run_parallel`] per configuration
/// point, a sweep keeps every worker busy across point boundaries (no
/// per-matrix barrier) and, under the default
/// [`SweepSharding::ByPlatform`], builds each distinct platform's simulator
/// on the fewest workers possible (exactly one when platforms ≥ workers)
/// instead of once per `(worker, platform)`.
///
/// Members are either materialized [`ScenarioSet`]s ([`SweepSet::push_set`])
/// or lazy [`ScenarioSource`]s ([`SweepSet::push_source`]); the result is
/// one [`RunSet`] per member, in member order, each **byte-identical** to
/// running that member alone through the sequential path at any thread
/// count.
#[derive(Debug, Default)]
pub struct SweepSet<'a> {
    members: Vec<(MemberSource<'a>, Option<String>)>,
}

impl<'a> SweepSet<'a> {
    /// An empty sweep.
    #[must_use]
    pub fn new() -> Self {
        Self {
            members: Vec::new(),
        }
    }

    /// Adds a materialized scenario batch as the next member; its designated
    /// baseline (see [`ScenarioSet::with_baseline`]) carries over to the
    /// member's [`RunSet`].
    pub fn push_set(&mut self, set: ScenarioSet) -> &mut Self {
        let baseline = set.baseline.clone();
        self.members.push((MemberSource::Set(set), baseline));
        self
    }

    /// Like [`SweepSet::push_set`], but borrowing the batch instead of
    /// taking it — cells are indexed in place, no scenarios are cloned.
    pub fn push_set_ref(&mut self, set: &'a ScenarioSet) -> &mut Self {
        let baseline = set.baseline.clone();
        self.members.push((MemberSource::SetRef(set), baseline));
        self
    }

    /// Adds a lazy scenario stream as the next member, with an optional
    /// baseline governor for the member's [`RunSet`] deltas.
    pub fn push_source(
        &mut self,
        source: &'a dyn ScenarioSource,
        baseline: Option<&str>,
    ) -> &mut Self {
        self.members.push((
            MemberSource::Source(source),
            baseline.map(ToString::to_string),
        ));
        self
    }

    /// Number of member batches.
    #[must_use]
    pub fn members(&self) -> usize {
        self.members.len()
    }

    /// Total number of cells across all members.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.members.iter().map(|(m, _)| m.as_source().len()).sum()
    }

    /// Estimated execution cost of every cell, in flat order (see
    /// [`scenario_cost`] and [`ScenarioSource::cell_costs`]): the weight
    /// vector the sweep service and the distributed dispatcher size leases
    /// with.
    #[must_use]
    pub fn cell_costs(&self) -> Vec<u64> {
        self.members
            .iter()
            .flat_map(|(m, _)| m.as_source().cell_costs())
            .collect()
    }

    /// Executes the whole sweep as one batch across up to `threads` pool
    /// workers with the default [`SweepSharding::ByPlatform`] strategy, and
    /// returns one [`RunSet`] per member, in member order.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in flat cell order.
    pub fn run_parallel(&self, pool: &mut SessionPool, threads: usize) -> SimResult<Vec<RunSet>> {
        self.run_parallel_sharded(pool, threads, SweepSharding::ByPlatform)
    }

    /// Like [`SweepSet::run_parallel`], but with an explicit sharding
    /// strategy. Useful to measure what platform-keyed sharding buys: both
    /// strategies return byte-identical `RunSet`s, but
    /// [`SweepSharding::RoundRobin`] rebuilds shared platforms on every
    /// worker.
    ///
    /// This is the trivial-consumer spelling of the fold core: every record
    /// is collected via [`CollectRuns`] and regrouped into one [`RunSet`]
    /// per member. Sweeps whose result is an aggregate should use
    /// [`SweepSet::run_parallel_fold`] instead and never materialize the
    /// records.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in flat cell order.
    pub fn run_parallel_sharded(
        &self,
        pool: &mut SessionPool,
        threads: usize,
        sharding: SweepSharding,
    ) -> SimResult<Vec<RunSet>> {
        let lens: Vec<usize> = self
            .members
            .iter()
            .map(|(m, _)| m.as_source().len())
            .collect();
        let collected = self.run_parallel_fold_sharded(pool, threads, sharding, &CollectRuns)?;
        let mut records = CollectRuns::into_records(collected).into_iter();
        Ok(self
            .members
            .iter()
            .zip(&lens)
            .map(|((_, baseline), &len)| RunSet {
                records: records.by_ref().take(len).collect(),
                baseline: baseline.clone(),
            })
            .collect())
    }

    /// Executes the whole sweep as one batch across up to `threads` pool
    /// workers, folding every finished cell into `consumer` instead of
    /// materializing records — the default [`SweepSharding::ByPlatform`]
    /// strategy. See [`RunConsumer`] for the aggregation contract and
    /// [`SweepSet::run_parallel_fold_sharded`] for an explicit strategy.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in flat cell order.
    pub fn run_parallel_fold<Q: RunConsumer>(
        &self,
        pool: &mut SessionPool,
        threads: usize,
        consumer: &Q,
    ) -> SimResult<Q::Acc> {
        self.run_parallel_fold_sharded(pool, threads, SweepSharding::ByPlatform, consumer)
    }

    /// The fold core every sweep execution runs through: the sweep is
    /// partitioned into [`SweepSet::slot_indices`], each slot's list is
    /// folded — in ascending flat order, each cell executed on a freshly
    /// reset simulator with a freshly built governor — into its own
    /// `consumer` accumulator on its own pool session, and the per-slot
    /// accumulators are merged deterministically in slot order. Result
    /// memory is O(workers) accumulators plus the index plan; no
    /// [`RunRecord`] outlives its [`RunConsumer::fold`] call unless the
    /// consumer keeps it.
    ///
    /// # Errors
    ///
    /// Propagates the first simulator error in flat cell order (the same
    /// error the sequential path would report, though later cells may
    /// already have executed — and been folded — on other workers).
    pub fn run_parallel_fold_sharded<Q: RunConsumer>(
        &self,
        pool: &mut SessionPool,
        threads: usize,
        sharding: SweepSharding,
        consumer: &Q,
    ) -> SimResult<Q::Acc> {
        let lists = self.slot_indices(threads, sharding);
        self.fold_lists(pool, &lists, consumer)
            .map_err(|cell| cell.error)
    }

    /// Executes an explicit subset of the sweep's flat cells — `flats`, in
    /// strictly ascending order — and returns the `(flat, record)` pairs
    /// sorted by flat index. Cells are spread over up to `threads` pool
    /// workers (static round-robin over the subset positions, so each
    /// worker still visits its cells in ascending flat order and lazy
    /// member streams stay single forward passes).
    ///
    /// This is the worker half of the distributed executor: a lease names a
    /// flat-index subset, the worker runs exactly those cells, and —
    /// because every cell executes on a freshly reset simulator with a
    /// freshly built governor — each returned record is **bit-identical**
    /// to the record the full in-process batch produces for that flat
    /// index, no matter how the sweep is partitioned into subsets.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell in flat order as a [`CellError`]
    /// (later cells of the subset may already have executed).
    ///
    /// # Panics
    ///
    /// Panics if `flats` is not strictly ascending or indexes past the
    /// sweep's cell count.
    pub fn run_flat_indices(
        &self,
        pool: &mut SessionPool,
        threads: usize,
        flats: &[usize],
    ) -> Result<Vec<(usize, RunRecord)>, CellError> {
        assert!(
            flats.windows(2).all(|w| w[0] < w[1]),
            "flat indices must be strictly ascending"
        );
        let workers = exec::effective_workers(threads, flats.len());
        let lists: Vec<Vec<usize>> = (0..workers)
            .map(|w| flats.iter().skip(w).step_by(workers).copied().collect())
            .collect();
        self.fold_lists(pool, &lists, &CollectRuns)
            .map(CollectRuns::into_flat_records)
    }

    /// Folds each ascending flat-index list into its own `consumer`
    /// accumulator through [`SweepSet::fold_flat_slice`] — one scoped
    /// thread and pool session per list, inline when there is only one —
    /// and merges the list accumulators in list order. A list stops at its
    /// first failing cell; the smallest failing flat across all lists is
    /// the first error in flat order, which is what the sequential path
    /// reports.
    fn fold_lists<Q: RunConsumer>(
        &self,
        pool: &mut SessionPool,
        lists: &[Vec<usize>],
        consumer: &Q,
    ) -> Result<Q::Acc, CellError> {
        let fold = |session: &mut SimSession, list: &[usize]| {
            let mut acc = consumer.accumulator();
            let error = self
                .fold_flat_slice(session, list, consumer, &mut acc)
                .err();
            (acc, error)
        };
        let sessions = pool.worker_sessions(lists.len());
        let folded: Vec<(Q::Acc, Option<CellError>)> = if lists.len() == 1 {
            vec![fold(&mut sessions[0], &lists[0])]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = sessions
                    .iter_mut()
                    .zip(lists)
                    .map(|(session, list)| scope.spawn(move || fold(session, list)))
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("sweep worker panicked"))
                    .collect()
            })
        };
        let mut folded = folded.into_iter();
        let (mut merged, mut first_error) = folded.next().expect("at least one list");
        for (acc, error) in folded {
            consumer.merge(&mut merged, acc);
            first_error = match (first_error, error) {
                (Some(a), Some(b)) => Some(if b.flat < a.flat { b } else { a }),
                (a, b) => a.or(b),
            };
        }
        match first_error {
            Some(error) => Err(error),
            None => Ok(merged),
        }
    }

    /// The per-worker flat-index lists the parallel fold partitions this
    /// sweep into, for `threads` requested workers under `sharding` (the
    /// worker count clamped by [`exec::effective_workers`]). Element `w` is
    /// the ascending cell list slot `w` of
    /// [`SweepSet::run_parallel_fold_sharded`] folds.
    ///
    /// This is the plan every executor runs: a scheduler that folds each
    /// slot's list in order through [`SweepSet::fold_flat_slice`] — whole,
    /// or cut into leases with one accumulator each — and merges the
    /// accumulators in plan order reproduces the in-process fold byte for
    /// byte.
    #[must_use]
    pub fn slot_indices(&self, threads: usize, sharding: SweepSharding) -> Vec<Vec<usize>> {
        let total = self.cells();
        let workers = exec::effective_workers(threads, total);
        if total == 0 {
            return vec![Vec::new(); workers];
        }
        match sharding {
            SweepSharding::RoundRobin => exec::Shard::RoundRobin.worker_lists(total, workers),
            SweepSharding::ByPlatform => {
                let keys: Vec<u64> = self
                    .members
                    .iter()
                    .flat_map(|(m, _)| m.as_source().shard_keys())
                    .collect();
                exec::Shard::ByKey(&keys).worker_lists(total, workers)
            }
        }
    }

    /// Executes an ascending slice of flat cells on **one** session,
    /// folding each finished record into the caller's accumulator. This is
    /// the one execution step of every executor: the in-process fold, the
    /// sweep service and the distributed workers all run cells through it
    /// (see [`SweepSet::slot_indices`] for the plan). Because every cell
    /// runs on a freshly reset simulator with a freshly built governor,
    /// the result depends only on which cells are folded into which
    /// accumulator, never on the session or the thread.
    ///
    /// # Errors
    ///
    /// Returns the first failing cell (in slice order, which is flat
    /// order) as a [`CellError`]; cells before it have already been
    /// folded, cells after it have not run.
    ///
    /// # Panics
    ///
    /// Panics if `flats` is not strictly ascending or indexes past the
    /// sweep's cell count.
    pub fn fold_flat_slice<Q: RunConsumer + ?Sized>(
        &self,
        session: &mut SimSession,
        flats: &[usize],
        consumer: &Q,
        acc: &mut Q::Acc,
    ) -> Result<(), CellError> {
        let (offsets, total) = self.member_offsets();
        assert!(
            flats.windows(2).all(|w| w[0] < w[1]),
            "flat indices must be strictly ascending"
        );
        if let Some(&last) = flats.last() {
            assert!(last < total, "flat index {last} out of range ({total})");
        }
        let mut ctx = SweepWorker {
            session,
            cursors: self.members.iter().map(|_| None).collect(),
        };
        for &flat in flats {
            let (cell, result) = self.run_cell(&mut ctx, &offsets, flat);
            match result {
                Ok(record) => consumer.fold(acc, cell, record),
                Err(error) => return Err(CellError { flat, error }),
            }
        }
        Ok(())
    }

    /// Member start offsets (by flat index) and the total cell count.
    fn member_offsets(&self) -> (Vec<usize>, usize) {
        let mut offsets = Vec::with_capacity(self.members.len());
        let mut total = 0usize;
        for (member, _) in &self.members {
            offsets.push(total);
            total += member.as_source().len();
        }
        (offsets, total)
    }

    /// Executes one flat cell on a worker context: resolves the owning
    /// member, produces the scenario (indexing materialized members in
    /// place, advancing the worker's forward-pass cursor for lazy members)
    /// and runs it on the worker's session.
    fn run_cell<'s>(
        &'s self,
        ctx: &mut SweepWorker<'_, 's>,
        offsets: &[usize],
        flat: usize,
    ) -> (CellId, SimResult<RunRecord>) {
        let member = offsets.partition_point(|&start| start <= flat) - 1;
        let local = flat - offsets[member];
        let result = match &self.members[member].0 {
            MemberSource::Set(set) => ctx.session.run(&set.scenarios()[local]),
            MemberSource::SetRef(set) => ctx.session.run(&set.scenarios()[local]),
            MemberSource::Source(source) => {
                let cursor = ctx.cursors[member].get_or_insert_with(|| MemberCursor {
                    iter: source.stream(),
                    next: 0,
                });
                debug_assert!(cursor.next <= local, "cursor moved backwards");
                // Generate-and-drop the cells assigned to other workers.
                while cursor.next < local {
                    cursor.iter.next();
                    cursor.next += 1;
                }
                let scenario = cursor
                    .iter
                    .next()
                    .unwrap_or_else(|| panic!("scenario source shorter than its len() at {local}"));
                cursor.next += 1;
                ctx.session.run(&scenario)
            }
        };
        (
            CellId {
                member,
                local,
                flat,
            },
            result,
        )
    }
}

// ---------------------------------------------------------------------------
// RunConsumer / GroupFold
// ---------------------------------------------------------------------------

/// Identifies one cell of a sweep while it is being folded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId {
    /// Index of the member batch the cell belongs to.
    pub member: usize,
    /// Cell index within the member.
    pub local: usize,
    /// Flat index across the whole sweep (`member` offsets + `local`).
    pub flat: usize,
}

/// Streaming aggregation of sweep results: a consumer folds each finished
/// cell's [`RunRecord`] into one accumulator per slot of the plan
/// ([`SweepSet::slot_indices`]) — or per lease, when an executor cuts the
/// slots into leases — and the accumulators are merged deterministically
/// in plan order ([`SweepSet::run_parallel_fold`]).
///
/// ## Contract
///
/// * **fold** is called exactly once per cell, with each accumulator
///   receiving its cells in ascending flat order. The record is passed by
///   value — a consumer that drops it (after extracting its aggregate) is
///   what makes sweep result memory O(workers).
/// * **merge** combines two accumulators. For the final accumulator to be
///   bit-identical at every worker count and under every
///   [`SweepSharding`], the fold/merge pair must be insensitive to how the
///   cell stream is partitioned into slots and leases: either each
///   accumulator entry is owned by a fixed cell subset (per-cell or
///   per-group slots, as [`GroupFold`] provides), or the folded operation
///   is associative *and* commutative in exact arithmetic. Plain floating-point accumulation is
///   neither — fold per-cell values into slots and reduce them in a fixed
///   order instead.
/// * **accumulator** builds one fresh (empty) accumulator per slot or
///   lease; merging an untouched accumulator must be a no-op.
/// * **partial sweeps**: an executor running in explicit partial-result
///   mode (the distributed executor's quarantine path) simply never calls
///   `fold` for a quarantined cell — the "exactly once per cell" guarantee
///   becomes "at most once, exactly once for every non-quarantined cell",
///   the ascending-order and merge contracts are unchanged, and the
///   skipped cells are reported out of band. Consumers that require a
///   value for every slot (e.g. fixed-size group reductions) should not be
///   used with partial sweeps unless they tolerate unfilled slots.
pub trait RunConsumer: Sync {
    /// The per-slot (or per-lease) accumulator type.
    type Acc: Send;

    /// One fresh, empty accumulator.
    fn accumulator(&self) -> Self::Acc;

    /// Folds one finished cell into the accumulator.
    fn fold(&self, acc: &mut Self::Acc, cell: CellId, record: RunRecord);

    /// Merges a later accumulator (in plan order) into an earlier one.
    fn merge(&self, into: &mut Self::Acc, from: Self::Acc);
}

/// The trivial consumer: collects every record, tagged with its flat index.
/// [`SweepSet::run_parallel_sharded`] (and therefore every materializing
/// API) is this consumer plus a regroup into member [`RunSet`]s — which is
/// exactly why those paths hold O(cells) result memory and fold-based
/// aggregation does not.
#[derive(Debug, Clone, Copy, Default)]
pub struct CollectRuns;

impl CollectRuns {
    /// Restores a collected accumulator to flat cell order.
    #[must_use]
    pub fn into_records(mut acc: Vec<(usize, RunRecord)>) -> Vec<RunRecord> {
        acc.sort_unstable_by_key(|(flat, _)| *flat);
        acc.into_iter().map(|(_, record)| record).collect()
    }

    /// Restores a collected accumulator to flat cell order, keeping each
    /// record's flat index — the partial-sweep spelling, where absent
    /// (quarantined) cells leave gaps the caller regroups around.
    #[must_use]
    pub fn into_flat_records(mut acc: Vec<(usize, RunRecord)>) -> Vec<(usize, RunRecord)> {
        acc.sort_unstable_by_key(|(flat, _)| *flat);
        acc
    }
}

impl RunConsumer for CollectRuns {
    type Acc = Vec<(usize, RunRecord)>;

    fn accumulator(&self) -> Self::Acc {
        Vec::new()
    }

    fn fold(&self, acc: &mut Self::Acc, cell: CellId, record: RunRecord) {
        acc.push((cell.flat, record));
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        into.extend(from);
    }
}

/// A [`RunConsumer`] that reduces fixed-size cell groups into one output
/// each, as early as possible: `map` assigns every cell a `(group, slot)`
/// position, and the moment a group's last record arrives — on whichever
/// worker holds its other records after a merge — `reduce` turns the
/// group's records (in slot order) into one output value and the records
/// are dropped.
///
/// This is the workhorse consumer of the fold-based experiment paths: a
/// calibration pair (2 slots) reduces to one [`crate::CalibrationSample`],
/// an evaluation workload's governor column (4 slots) to one figure row.
/// Because every output is a pure function of its own group's records, the
/// assembled output vector (see [`GroupFold::into_outputs`]) is
/// bit-identical at every worker count — the merge just moves records and
/// outputs around, it never re-associates arithmetic.
///
/// Memory: completed outputs (the result itself, O(groups)) plus records
/// of groups split across in-flight workers. Under sharding strategies
/// that keep a group's cells on one worker the pending window stays small;
/// in the worst case (every group spread over all workers) it degrades
/// toward the materializing path — but never beyond it.
pub struct GroupFold<M, R> {
    groups: usize,
    slots: usize,
    map: M,
    reduce: R,
}

/// Accumulator of a [`GroupFold`]: completed `(group, output)` pairs plus
/// the records of groups still missing slots.
pub struct GroupAcc<T> {
    done: Vec<(usize, T)>,
    pending: std::collections::BTreeMap<usize, Vec<Option<RunRecord>>>,
}

impl<T> fmt::Debug for GroupAcc<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupAcc")
            .field("done", &self.done.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl<M, R, T> GroupFold<M, R>
where
    M: Fn(CellId) -> (usize, usize) + Sync,
    R: Fn(usize, Vec<RunRecord>) -> T + Sync,
    T: Send,
{
    /// A consumer over `groups` groups of `slots` cells each. `map` must
    /// place every cell of the sweep into a distinct `(group, slot)` with
    /// `group < groups` and `slot < slots`; `reduce` receives a completed
    /// group's records in slot order.
    pub fn new(groups: usize, slots: usize, map: M, reduce: R) -> Self {
        assert!(slots > 0, "groups need at least one slot");
        Self {
            groups,
            slots,
            map,
            reduce,
        }
    }

    /// Completes a group whose last slot just filled.
    fn complete(&self, done: &mut Vec<(usize, T)>, group: usize, records: Vec<Option<RunRecord>>) {
        let records: Vec<RunRecord> = records
            .into_iter()
            .map(|r| r.expect("complete group"))
            .collect();
        done.push((group, (self.reduce)(group, records)));
    }

    /// Places one record into a group's slot, reducing the group if that
    /// filled it.
    fn place(&self, acc: &mut GroupAcc<T>, group: usize, slot: usize, record: RunRecord) {
        assert!(
            group < self.groups && slot < self.slots,
            "cell mapped outside the {}x{} group space: ({group}, {slot})",
            self.groups,
            self.slots
        );
        let records = acc
            .pending
            .entry(group)
            .or_insert_with(|| (0..self.slots).map(|_| None).collect());
        assert!(
            records[slot].is_none(),
            "slot ({group}, {slot}) filled twice"
        );
        records[slot] = Some(record);
        if records.iter().all(Option::is_some) {
            let records = acc.pending.remove(&group).expect("just inserted");
            self.complete(&mut acc.done, group, records);
        }
    }

    /// Dissolves a final accumulator into the per-group outputs, in group
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any group is incomplete or missing — a contract violation
    /// of the `map` closure (the sweep's cells did not tile the group
    /// space), not a runtime condition.
    #[must_use]
    pub fn into_outputs(&self, mut acc: GroupAcc<T>) -> Vec<T> {
        assert!(
            acc.pending.is_empty(),
            "{} groups never completed",
            acc.pending.len()
        );
        assert_eq!(acc.done.len(), self.groups, "group space not tiled");
        acc.done.sort_unstable_by_key(|(group, _)| *group);
        acc.done.into_iter().map(|(_, output)| output).collect()
    }
}

impl<M, R, T> RunConsumer for GroupFold<M, R>
where
    M: Fn(CellId) -> (usize, usize) + Sync,
    R: Fn(usize, Vec<RunRecord>) -> T + Sync,
    T: Send,
{
    type Acc = GroupAcc<T>;

    fn accumulator(&self) -> Self::Acc {
        GroupAcc {
            done: Vec::new(),
            pending: std::collections::BTreeMap::new(),
        }
    }

    fn fold(&self, acc: &mut Self::Acc, cell: CellId, record: RunRecord) {
        let (group, slot) = (self.map)(cell);
        self.place(acc, group, slot, record);
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        into.done.extend(from.done);
        for (group, records) in from.pending {
            match into.pending.entry(group) {
                std::collections::btree_map::Entry::Vacant(entry) => {
                    entry.insert(records);
                }
                std::collections::btree_map::Entry::Occupied(mut entry) => {
                    for (slot, record) in records.into_iter().enumerate() {
                        if let Some(record) = record {
                            assert!(
                                entry.get()[slot].is_none(),
                                "slot ({group}, {slot}) filled twice across workers"
                            );
                            entry.get_mut()[slot] = Some(record);
                        }
                    }
                    if entry.get().iter().all(Option::is_some) {
                        let records = entry.remove();
                        self.complete(&mut into.done, group, records);
                    }
                }
            }
        }
    }
}

impl<M, R> fmt::Debug for GroupFold<M, R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupFold")
            .field("groups", &self.groups)
            .field("slots", &self.slots)
            .finish_non_exhaustive()
    }
}

/// A [`RunConsumer`] decorator that publishes **monotone progress
/// snapshots** while an inner consumer aggregates, without touching the
/// final accumulator: `fold`/`merge`/`accumulator` delegate verbatim to the
/// inner consumer (so the merged result is bit-identical to running the
/// inner consumer alone), and on the side a shared counter tracks how many
/// cells have folded across *all* workers. Every `every` cells — and always
/// on the final cell — `publish` is called with `(done, total)`.
///
/// This is what gives a long-running sweep a live readout (the sweep
/// service's `Progress` frames) for free: the snapshot channel is pure
/// observability layered on the same [`RunConsumer`] contract the
/// deterministic aggregation rides on.
///
/// ## Snapshot semantics
///
/// * the counter is exact: each fold increments it once, so published
///   `done` values are drawn from the true completion count in `1..=total`;
/// * successive *values* are strictly increasing, but the `publish` calls
///   themselves may race across worker threads — two workers can invoke
///   `publish` out of value order. A consumer that needs monotone
///   *delivery* (not just monotone values) serializes in `publish`: check
///   the value against the last delivered one under the same lock used to
///   deliver (see the sweep service's progress gate);
/// * `publish` runs on worker threads inside the fold hot path — keep it
///   cheap and never block on the sweep's own completion.
pub struct ProgressTap<'a, Q, P> {
    inner: &'a Q,
    every: u64,
    total: u64,
    done: std::sync::atomic::AtomicU64,
    publish: P,
}

impl<'a, Q, P> ProgressTap<'a, Q, P>
where
    Q: RunConsumer,
    P: Fn(u64, u64) + Sync,
{
    /// Decorates `inner`, publishing every `every` folded cells of `total`
    /// (and always on the last). `every == 0` publishes only the final
    /// snapshot.
    pub fn new(inner: &'a Q, every: u64, total: u64, publish: P) -> Self {
        Self {
            inner,
            every,
            total,
            done: std::sync::atomic::AtomicU64::new(0),
            publish,
        }
    }
}

impl<Q, P> RunConsumer for ProgressTap<'_, Q, P>
where
    Q: RunConsumer,
    P: Fn(u64, u64) + Sync,
{
    type Acc = Q::Acc;

    fn accumulator(&self) -> Self::Acc {
        self.inner.accumulator()
    }

    fn fold(&self, acc: &mut Self::Acc, cell: CellId, record: RunRecord) {
        self.inner.fold(acc, cell, record);
        let done = self.done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        if done == self.total || (self.every > 0 && done % self.every == 0) {
            (self.publish)(done, self.total);
        }
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        self.inner.merge(into, from);
    }
}

impl<Q, P> fmt::Debug for ProgressTap<'_, Q, P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressTap")
            .field("every", &self.every)
            .field("total", &self.total)
            .field(
                "done",
                &self.done.load(std::sync::atomic::Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// RunSet
// ---------------------------------------------------------------------------

/// One `(workload, governor)` cell of a [`RunSet`], with deltas relative to
/// the designated baseline run of the same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCell {
    /// Workload name.
    pub workload: String,
    /// Governor name.
    pub governor: String,
    /// Throughput improvement over the baseline, percent.
    pub speedup_pct: f64,
    /// Average-power reduction versus the baseline, percent.
    pub power_reduction_pct: f64,
    /// Energy reduction versus the baseline, percent.
    pub energy_reduction_pct: f64,
    /// Energy-delay-product improvement versus the baseline, percent.
    pub edp_improvement_pct: f64,
    /// Average power of this run, watts.
    pub average_power_w: f64,
    /// Average power of the baseline run, watts.
    pub baseline_power_w: f64,
}

/// The structured result of a [`ScenarioSet`] execution, keyed by
/// `(workload, governor)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSet {
    records: Vec<RunRecord>,
    baseline: Option<String>,
}

impl RunSet {
    /// Assembles a run set from records already in execution (scenario)
    /// order, with an optional designated baseline governor.
    ///
    /// This is the reconstruction hook for results that crossed a process
    /// boundary: a set rebuilt from another set's `records()` and
    /// `baseline_governor()` is `PartialEq`-identical to the original. The
    /// caller owns the ordering contract — records must be in the same
    /// scenario order the executing batch used.
    #[must_use]
    pub fn from_records(records: Vec<RunRecord>, baseline: Option<String>) -> Self {
        Self { records, baseline }
    }

    /// Every run in execution order.
    #[must_use]
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Number of runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set holds no runs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The designated baseline governor, if any.
    #[must_use]
    pub fn baseline_governor(&self) -> Option<&str> {
        self.baseline.as_deref()
    }

    /// The distinct workload names, in first-seen order.
    #[must_use]
    pub fn workloads(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.records {
            if !seen.contains(&r.workload.as_str()) {
                seen.push(r.workload.as_str());
            }
        }
        seen
    }

    /// The distinct governor names, in first-seen order.
    #[must_use]
    pub fn governors(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for r in &self.records {
            if !seen.contains(&r.governor.as_str()) {
                seen.push(r.governor.as_str());
            }
        }
        seen
    }

    /// Looks one run up by its `(workload, governor)` key.
    #[must_use]
    pub fn get(&self, workload: &str, governor: &str) -> Option<&RunRecord> {
        self.records
            .iter()
            .find(|r| r.workload == workload && r.governor == governor)
    }

    /// Like [`RunSet::get`], but a missing cell is an error instead of
    /// `None` — for callers that know the matrix shape.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the missing key.
    pub fn require(&self, workload: &str, governor: &str) -> SimResult<&RunRecord> {
        self.get(workload, governor).ok_or_else(|| {
            SimError::invalid_config(format!(
                "run ({workload}, {governor}) missing from the matrix"
            ))
        })
    }

    /// Like [`RunSet::cell`], but a missing run or baseline is an error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the missing key.
    pub fn require_cell(&self, workload: &str, governor: &str) -> SimResult<RunCell> {
        self.cell(workload, governor).ok_or_else(|| {
            SimError::invalid_config(format!(
                "cell ({workload}, {governor}) or its baseline missing from the matrix"
            ))
        })
    }

    /// The baseline run for `workload`.
    #[must_use]
    pub fn baseline_for(&self, workload: &str) -> Option<&RunRecord> {
        self.get(workload, self.baseline.as_deref()?)
    }

    /// The baseline-relative deltas of one `(workload, governor)` cell.
    /// `None` when either the run or the workload's baseline run is missing.
    #[must_use]
    pub fn cell(&self, workload: &str, governor: &str) -> Option<RunCell> {
        let run = self.get(workload, governor)?;
        let baseline = self.baseline_for(workload)?;
        Some(RunCell {
            workload: run.workload.clone(),
            governor: run.governor.clone(),
            speedup_pct: run.report.speedup_pct_over(&baseline.report),
            power_reduction_pct: run.report.power_reduction_pct_vs(&baseline.report),
            energy_reduction_pct: run
                .report
                .metrics
                .energy_reduction_pct_vs(&baseline.report.metrics),
            edp_improvement_pct: run.report.edp_improvement_pct_vs(&baseline.report),
            average_power_w: run.report.average_power().as_watts(),
            baseline_power_w: baseline.report.average_power().as_watts(),
        })
    }

    /// All non-baseline cells, in record order.
    #[must_use]
    pub fn cells(&self) -> Vec<RunCell> {
        self.records
            .iter()
            .filter(|r| Some(r.governor.as_str()) != self.baseline.as_deref())
            .filter_map(|r| self.cell(&r.workload, &r.governor))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale_workloads::spec_workload;

    #[test]
    fn builtin_registry_knows_the_papers_policies() {
        let registry = GovernorRegistry::builtin();
        for name in [
            "baseline",
            "md-dvfs",
            "md-dvfs-redist",
            "sysscale",
            "sysscale-no-redist",
            "memscale",
            "coscale",
        ] {
            let factory = registry.resolve(name).unwrap();
            assert_eq!(factory.name(), name);
            let _ = factory.build();
        }
        assert!(registry.resolve("does-not-exist").is_err());
        let err = registry.resolve("nope").unwrap_err().to_string();
        assert!(err.contains("sysscale"), "error lists names: {err}");
    }

    #[test]
    fn restricted_governors_run_on_the_memscale_platform() {
        let registry = GovernorRegistry::builtin();
        let base = SocConfig::skylake_default();
        for name in ["memscale", "coscale"] {
            let cfg = registry.resolve(name).unwrap().platform(&base);
            assert!(!cfg.reload_mrc_on_transition, "{name}");
            assert_eq!(cfg.uncore_ladder().lowest().vsa_scale, 1.0, "{name}");
        }
        // Unrestricted policies keep the full platform.
        let full = registry.resolve("sysscale").unwrap().platform(&base);
        assert_eq!(full, base);
    }

    #[test]
    fn registry_register_replaces_by_name() {
        let mut registry = GovernorRegistry::builtin();
        let before = registry.names().len();
        registry.register(sysscale_factory(DemandPredictor::skylake_default()));
        assert_eq!(registry.names().len(), before);
    }

    #[test]
    fn scenario_builder_defaults_and_overrides() {
        let w = spec_workload("gamess").unwrap();
        let s = Scenario::builder(w.clone()).build().unwrap();
        assert_eq!(s.governor().name(), "baseline");
        assert_eq!(s.duration(), auto_duration(&w));
        assert!(!s.traced());

        let s2 = Scenario::builder(w.clone())
            .governor("sysscale")
            .duration(SimTime::from_millis(50.0))
            .trace(true)
            .build()
            .unwrap();
        assert_eq!(s2.governor().name(), "sysscale");
        assert!((s2.duration().as_millis() - 50.0).abs() < 1e-9);
        assert!(s2.traced());

        assert!(Scenario::builder(w.clone())
            .governor("bogus")
            .build()
            .is_err());
        assert!(Scenario::builder(w)
            .duration(SimTime::ZERO)
            .build()
            .is_err());
    }

    #[test]
    fn session_reuses_simulators_per_platform() {
        let w = spec_workload("hmmer").unwrap();
        let mut session = SimSession::new();
        let duration = SimTime::from_millis(60.0);
        for gov in ["baseline", "sysscale"] {
            let s = Scenario::builder(w.clone())
                .governor(gov)
                .duration(duration)
                .build()
                .unwrap();
            session.run(&s).unwrap();
        }
        // baseline + sysscale share the full platform -> one simulator.
        assert_eq!(session.cached_platforms(), 1);
        let restricted = Scenario::builder(w)
            .governor("memscale")
            .duration(duration)
            .build()
            .unwrap();
        session.run(&restricted).unwrap();
        assert_eq!(session.cached_platforms(), 2);
    }

    #[test]
    fn traced_scenario_returns_slices() {
        let w = spec_workload("astar").unwrap();
        let s = Scenario::builder(w)
            .duration(SimTime::from_millis(80.0))
            .trace(true)
            .build()
            .unwrap();
        let record = SimSession::new().run(&s).unwrap();
        let trace = record.trace.expect("trace requested");
        assert_eq!(trace.len(), 80);
        let untraced = Scenario::builder(spec_workload("astar").unwrap())
            .duration(SimTime::from_millis(10.0))
            .build()
            .unwrap();
        assert!(SimSession::new().run(&untraced).unwrap().trace.is_none());
    }

    #[test]
    fn streaming_scenario_feeds_the_sink_and_keeps_the_record_lean() {
        use sysscale_soc::ChannelTraceSink;

        let w = spec_workload("astar").unwrap();
        // Capacity far below the slice count: completing the run proves the
        // executor streams instead of buffering.
        let (sender, receiver) = std::sync::mpsc::sync_channel(8);
        let scenario = Scenario::builder(w)
            .duration(SimTime::from_millis(400.0))
            .stream_trace(move || Box::new(ChannelTraceSink::from_sender(sender.clone())))
            .build()
            .unwrap();
        assert!(scenario.streams_trace());
        assert!(!scenario.traced());

        let consumer = std::thread::spawn(move || receiver.iter().count());
        let record = SimSession::new().run(&scenario).unwrap();
        // The scenario (and its factory, holding the last sender clone) must
        // be dropped for the consumer's iterator to terminate.
        drop(scenario);
        assert!(record.trace.is_none(), "streamed slices are not buffered");
        assert_eq!(consumer.join().unwrap(), 400);
    }

    #[test]
    fn parallel_streaming_matrix_shares_one_bounded_channel() {
        use sysscale_soc::ChannelTraceSink;

        // Four traced runs across two workers feed a single bounded channel;
        // the reports must stay bit-identical to the untraced runs and the
        // consumer must see every slice from every run.
        let workloads = vec![
            spec_workload("gamess").unwrap(),
            spec_workload("lbm").unwrap(),
        ];
        let duration = SimTime::from_millis(90.0);
        let untraced: Vec<Scenario> = workloads
            .iter()
            .map(|w| {
                Scenario::builder(w.clone())
                    .duration(duration)
                    .build()
                    .unwrap()
            })
            .collect();
        let (sender, receiver) = std::sync::mpsc::sync_channel(4);
        let mut set = ScenarioSet::new();
        for w in &workloads {
            let sender = sender.clone();
            set.push(
                Scenario::builder(w.clone())
                    .duration(duration)
                    .stream_trace(move || Box::new(ChannelTraceSink::from_sender(sender.clone())))
                    .build()
                    .unwrap(),
            );
        }
        drop(sender);
        let consumer = std::thread::spawn(move || receiver.iter().count());

        let mut pool = SessionPool::new();
        let runs = set.run_parallel(&mut pool, 2).unwrap();
        drop(set);
        assert_eq!(consumer.join().unwrap(), 2 * 90);

        let mut plain = SimSession::new();
        for (i, s) in untraced.iter().enumerate() {
            let expected = plain.run(s).unwrap();
            assert_eq!(expected.report, runs.records()[i].report);
            assert!(runs.records()[i].trace.is_none());
        }
    }

    #[test]
    fn platform_fingerprints_follow_configuration_equality() {
        let a = SocConfig::skylake_default();
        let b = SocConfig::skylake_default();
        assert_eq!(platform_fingerprint(&a), platform_fingerprint(&b));
        let restricted = memscale_config(&a);
        assert_ne!(platform_fingerprint(&a), platform_fingerprint(&restricted));
        let other_tdp = SocConfig::skylake_m_6y75(sysscale_types::Power::from_watts(9.0));
        assert_ne!(platform_fingerprint(&a), platform_fingerprint(&other_tdp));
    }

    #[test]
    fn scenario_set_is_a_replayable_source() {
        let workloads = vec![
            spec_workload("gamess").unwrap(),
            spec_workload("lbm").unwrap(),
        ];
        let set = ScenarioSet::matrix(
            &SocConfig::skylake_default(),
            &workloads,
            &["baseline", "memscale"],
        )
        .unwrap();
        assert_eq!(ScenarioSource::len(&set), 4);
        let first: Vec<String> = set.stream().map(|s| s.workload().name.clone()).collect();
        let second: Vec<String> = set.stream().map(|s| s.workload().name.clone()).collect();
        assert_eq!(first, second);
        // Shard keys distinguish the full platform from the restricted one.
        let keys = set.shard_keys();
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[0], keys[1], "baseline cells share the full platform");
        assert_eq!(keys[2], keys[3], "memscale cells share the restricted one");
        assert_ne!(keys[0], keys[2]);
    }

    #[test]
    fn sweep_matches_per_member_execution_under_both_shardings() {
        let workloads = vec![
            spec_workload("gamess").unwrap(),
            spec_workload("lbm").unwrap(),
        ];
        let config_a = SocConfig::skylake_default();
        let config_b = SocConfig::skylake_m_6y75(sysscale_types::Power::from_watts(9.0));
        let make = |config: &SocConfig| {
            ScenarioSet::matrix(config, &workloads, &["baseline", "md-dvfs"])
                .unwrap()
                .with_baseline("baseline")
        };

        // Reference: one matrix at a time, sequentially.
        let expected: Vec<RunSet> = [&config_a, &config_b]
            .iter()
            .map(|c| make(c).run(&mut SimSession::new()).unwrap())
            .collect();

        let mut sweep = SweepSet::new();
        sweep.push_set(make(&config_a)).push_set(make(&config_b));
        assert_eq!(sweep.members(), 2);
        assert_eq!(sweep.cells(), 8);
        for threads in [1, 2, 8] {
            for sharding in [SweepSharding::ByPlatform, SweepSharding::RoundRobin] {
                let got = sweep
                    .run_parallel_sharded(&mut SessionPool::new(), threads, sharding)
                    .unwrap();
                assert_eq!(got, expected, "threads={threads} sharding={sharding:?}");
            }
        }
    }

    /// Two baseline/md-dvfs matrices over gamess and lbm on two distinct
    /// platforms: eight cells, two shard keys.
    fn two_platform_sweep() -> SweepSet<'static> {
        let workloads = vec![
            spec_workload("gamess").unwrap(),
            spec_workload("lbm").unwrap(),
        ];
        let mut sweep = SweepSet::new();
        for config in [
            SocConfig::skylake_default(),
            SocConfig::skylake_m_6y75(sysscale_types::Power::from_watts(9.0)),
        ] {
            sweep.push_set(
                ScenarioSet::matrix(&config, &workloads, &["baseline", "md-dvfs"]).unwrap(),
            );
        }
        sweep
    }

    #[test]
    fn slot_indices_with_fold_flat_slice_match_the_one_shot_fold() {
        // The sweep service's execution: every slot chopped into
        // cost-quantile leases, each lease folded into its own accumulator
        // through fold_flat_slice in any order, and the accumulators merged
        // in plan order. It must reproduce run_parallel_fold_sharded byte
        // for byte.
        let sweep = two_platform_sweep();
        let costs = sweep.cell_costs();

        for sharding in [SweepSharding::ByPlatform, SweepSharding::RoundRobin] {
            for threads in [1, 2, 3] {
                let expected = sweep
                    .run_parallel_fold_sharded(
                        &mut SessionPool::new(),
                        threads,
                        sharding,
                        &CollectRuns,
                    )
                    .unwrap();

                // Plan order: slot by slot, lease by lease.
                let leases: Vec<Vec<usize>> = sweep
                    .slot_indices(threads, sharding)
                    .iter()
                    .flat_map(|list| exec::cost_quantile_chunks(list, |flat| costs[flat], 3))
                    .collect();
                // Run the leases last to first on one session, then merge
                // their accumulators in plan order.
                let mut pool = SessionPool::new();
                let mut accs: Vec<Vec<(usize, RunRecord)>> = leases
                    .iter()
                    .rev()
                    .map(|lease| {
                        let mut acc = CollectRuns.accumulator();
                        sweep
                            .fold_flat_slice(pool.session(), lease, &CollectRuns, &mut acc)
                            .unwrap();
                        acc
                    })
                    .collect();
                accs.reverse();
                let mut accs = accs.into_iter();
                let mut got = accs.next().unwrap();
                for acc in accs {
                    CollectRuns.merge(&mut got, acc);
                }
                assert_eq!(got, expected, "threads={threads} sharding={sharding:?}");
            }
        }
    }

    /// Records the order cells reach the accumulators: fold appends the
    /// flat index, merge concatenates.
    struct VisitOrder;

    impl RunConsumer for VisitOrder {
        type Acc = Vec<usize>;

        fn accumulator(&self) -> Vec<usize> {
            Vec::new()
        }

        fn fold(&self, acc: &mut Vec<usize>, cell: CellId, _: RunRecord) {
            acc.push(cell.flat);
        }

        fn merge(&self, into: &mut Vec<usize>, from: Vec<usize>) {
            into.extend(from);
        }
    }

    #[test]
    fn fold_visits_each_slot_in_ascending_order_and_merges_in_slot_order() {
        // The merged visit order is the plan itself: every slot's list in
        // ascending flat order, slots concatenated in slot order — at one
        // worker (the inline path) and across scoped threads.
        let sweep = two_platform_sweep();
        for sharding in [SweepSharding::ByPlatform, SweepSharding::RoundRobin] {
            for threads in [1, 2, 3] {
                let plan = sweep.slot_indices(threads, sharding);
                assert!(plan.iter().all(|list| list.windows(2).all(|w| w[0] < w[1])));
                let visited = sweep
                    .run_parallel_fold_sharded(
                        &mut SessionPool::new(),
                        threads,
                        sharding,
                        &VisitOrder,
                    )
                    .unwrap();
                assert_eq!(
                    visited,
                    plan.concat(),
                    "threads={threads} sharding={sharding:?}"
                );
            }
        }
    }

    #[test]
    fn run_flat_indices_returns_the_subset_of_the_full_sweep() {
        let sweep = two_platform_sweep();
        let full = CollectRuns::into_flat_records(
            sweep
                .run_parallel_fold(&mut SessionPool::new(), 2, &CollectRuns)
                .unwrap(),
        );
        let subset = [0usize, 2, 3, 5, 7];
        let expected: Vec<(usize, RunRecord)> = full
            .into_iter()
            .filter(|(flat, _)| subset.contains(flat))
            .collect();
        for threads in [1, 2, 3, 8] {
            let got = sweep
                .run_flat_indices(&mut SessionPool::new(), threads, &subset)
                .unwrap();
            assert_eq!(got, expected, "threads={threads}");
        }
        let none = sweep
            .run_flat_indices(&mut SessionPool::new(), 4, &[])
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn platform_sharding_builds_each_platform_once() {
        // Two members on two distinct platforms, flattened contiguously:
        // round-robin spreads both platforms across both workers (4 cached
        // simulators), platform sharding builds each platform on exactly one
        // worker (2 cached).
        let workloads = vec![
            spec_workload("gamess").unwrap(),
            spec_workload("lbm").unwrap(),
            spec_workload("astar").unwrap(),
        ];
        let config_a = SocConfig::skylake_default();
        let config_b = SocConfig::skylake_m_6y75(sysscale_types::Power::from_watts(9.0));
        let mut sweep = SweepSet::new();
        for config in [&config_a, &config_b] {
            sweep.push_set(ScenarioSet::matrix(config, &workloads, &["baseline"]).unwrap());
        }

        let mut round_robin_pool = SessionPool::new();
        let rr = sweep
            .run_parallel_sharded(&mut round_robin_pool, 2, SweepSharding::RoundRobin)
            .unwrap();
        let mut keyed_pool = SessionPool::new();
        let keyed = sweep.run_parallel(&mut keyed_pool, 2).unwrap();
        assert_eq!(rr, keyed);
        assert_eq!(round_robin_pool.cached_platforms(), 4);
        assert_eq!(keyed_pool.cached_platforms(), 2);
    }

    #[test]
    fn source_backed_sweep_members_stream_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // A source that counts how many scenarios were generated in total:
        // each worker replays the stream, so the count is bounded by
        // workers x len, and results still match the materialized member.
        #[derive(Debug)]
        struct CountingSource {
            set: ScenarioSet,
            generated: AtomicUsize,
        }
        impl ScenarioSource for CountingSource {
            fn len(&self) -> usize {
                ScenarioSource::len(&self.set)
            }
            fn stream(&self) -> Box<dyn Iterator<Item = Scenario> + Send + '_> {
                Box::new(self.set.stream().inspect(|_| {
                    self.generated.fetch_add(1, Ordering::Relaxed);
                }))
            }
        }

        let workloads = vec![
            spec_workload("gamess").unwrap(),
            spec_workload("lbm").unwrap(),
        ];
        let set = ScenarioSet::matrix(
            &SocConfig::skylake_default(),
            &workloads,
            &["baseline", "md-dvfs"],
        )
        .unwrap();
        let expected = set
            .clone()
            .with_baseline("baseline")
            .run(&mut SimSession::new())
            .unwrap();

        let source = CountingSource {
            set,
            generated: AtomicUsize::new(0),
        };
        let mut sweep = SweepSet::new();
        sweep.push_source(&source, Some("baseline"));
        let got = sweep.run_parallel(&mut SessionPool::new(), 2).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], expected);
        // shard_keys() pass + at most one full replay per participating
        // worker.
        let generated = source.generated.load(Ordering::Relaxed);
        assert!(generated <= 3 * 4, "{generated} scenarios generated");
    }

    #[test]
    fn matrix_runs_every_cell_and_computes_baseline_deltas() {
        let workloads = vec![
            spec_workload("gamess").unwrap(),
            spec_workload("lbm").unwrap(),
        ];
        let config = SocConfig::skylake_default();
        let set = ScenarioSet::matrix(&config, &workloads, &["baseline", "md-dvfs"])
            .unwrap()
            .with_baseline("baseline");
        assert_eq!(set.len(), 4);
        let mut session = SimSession::new();
        let runs = set.run(&mut session).unwrap();
        assert_eq!(runs.len(), 4);
        assert_eq!(runs.workloads().len(), 2);
        assert_eq!(runs.governors(), vec!["baseline", "md-dvfs"]);
        // Baseline cell of itself: zero speedup by construction.
        let self_cell = runs.cell("470.lbm", "baseline").unwrap();
        assert!(self_cell.speedup_pct.abs() < 1e-9);
        // md-dvfs hurts the memory-bound workload and saves power.
        let lbm = runs.cell("470.lbm", "md-dvfs").unwrap();
        assert!(lbm.speedup_pct < -5.0, "{lbm:?}");
        assert!(lbm.power_reduction_pct > 3.0, "{lbm:?}");
        // cells() excludes the baseline column.
        assert_eq!(runs.cells().len(), 2);
    }

    /// A small 4-cell batch with short scenarios, for the progress-tap
    /// tests.
    fn tiny_progress_set() -> ScenarioSet {
        let workloads = [
            spec_workload("gamess").unwrap(),
            spec_workload("lbm").unwrap(),
        ];
        let registry = GovernorRegistry::builtin();
        let mut set = ScenarioSet::new();
        for governor in ["baseline", "md-dvfs"] {
            for w in &workloads {
                set.push(
                    Scenario::builder(w.clone())
                        .governor_factory(registry.resolve(governor).unwrap())
                        .duration(SimTime::from_millis(60.0))
                        .build()
                        .unwrap(),
                );
            }
        }
        set
    }

    #[test]
    fn progress_tap_preserves_the_inner_accumulator_and_counts_every_cell() {
        use std::sync::Mutex;

        let set = tiny_progress_set();
        let mut sweep = SweepSet::new();
        sweep.push_set_ref(&set);
        let total = sweep.cells() as u64;
        let mut pool = SessionPool::new();
        let plain =
            CollectRuns::into_records(sweep.run_parallel_fold(&mut pool, 3, &CollectRuns).unwrap());

        for threads in [1usize, 2, 4] {
            let published: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
            let tap = ProgressTap::new(&CollectRuns, 1, total, |done, of| {
                published.lock().unwrap().push((done, of));
            });
            let tapped = sweep.run_parallel_fold(&mut pool, threads, &tap).unwrap();
            // Observability only: the tapped accumulator is bit-identical
            // to the undecorated consumer's.
            assert_eq!(CollectRuns::into_records(tapped), plain);

            let mut snaps = published.into_inner().unwrap();
            snaps.sort_unstable();
            let expected: Vec<(u64, u64)> = (1..=total).map(|done| (done, total)).collect();
            assert_eq!(
                snaps, expected,
                "every=1 publishes each completion exactly once ({threads} threads)"
            );
        }
    }

    #[test]
    fn progress_tap_every_zero_publishes_only_the_final_snapshot() {
        use std::sync::Mutex;

        let set = tiny_progress_set();
        let mut sweep = SweepSet::new();
        sweep.push_set_ref(&set);
        let total = sweep.cells() as u64;
        let published: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        let tap = ProgressTap::new(&CollectRuns, 0, total, |done, of| {
            published.lock().unwrap().push((done, of));
        });
        let _ = sweep
            .run_parallel_fold(&mut SessionPool::new(), 2, &tap)
            .unwrap();
        assert_eq!(published.into_inner().unwrap(), vec![(total, total)]);
    }

    #[test]
    fn progress_tap_cadence_hits_multiples_and_the_final_cell() {
        use std::sync::Mutex;

        let set = tiny_progress_set();
        let mut sweep = SweepSet::new();
        sweep.push_set_ref(&set);
        let total = sweep.cells() as u64;
        assert_eq!(total, 4);
        let published: Mutex<Vec<(u64, u64)>> = Mutex::new(Vec::new());
        let tap = ProgressTap::new(&CollectRuns, 3, total, |done, of| {
            published.lock().unwrap().push((done, of));
        });
        let _ = sweep
            .run_parallel_fold(&mut SessionPool::new(), 1, &tap)
            .unwrap();
        let mut snaps = published.into_inner().unwrap();
        snaps.sort_unstable();
        // Multiples of 3 within 1..=4, plus the final cell.
        assert_eq!(snaps, vec![(3, total), (4, total)]);
    }
}
