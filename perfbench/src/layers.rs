//! Wrappers the benchmark puts around the repository's extension points to
//! time the layers beneath them without changing their results: a
//! [`RunConsumer`] that logs every folded cell, and a [`GovernorFactory`]
//! whose governors count and time their decisions. Both delegate every
//! result-bearing call, so records stay byte-identical (the output check
//! would catch it if they did not).

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use sysscale::{
    CellId, Governor, GovernorFactory, GovernorRegistry, RunConsumer, RunRecord, Scenario,
    ScenarioSet, SimSession, SocConfig, SocSimulator,
};
use sysscale_dist::codec::put_record;
use sysscale_dist::net::fnv1a64;
use sysscale_dist::wire::Enc;
use sysscale_soc::{GovernorDecision, GovernorInput};
use sysscale_types::{SimResult, SimTime};

use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};

/// A record's wire encoding ([`put_record`]), the byte form every output
/// check compares.
#[must_use]
pub fn encode_record(record: &RunRecord) -> Vec<u8> {
    let mut enc = Enc::new();
    put_record(&mut enc, record);
    enc.into_bytes()
}

/// FNV-1a digest of a record's wire encoding.
#[must_use]
pub fn digest(record: &RunRecord) -> u64 {
    fnv1a64(&encode_record(record))
}

// ---------------------------------------------------------------------------
// Governor wrapper
// ---------------------------------------------------------------------------

/// What the governor wrapper saw during the cell the current thread is
/// running: handed from [`SimSession::run`]'s governor build and drop to the
/// consumer's `fold`, which runs right after on the same worker thread.
#[derive(Debug, Clone, Copy, Default)]
struct CellMarks {
    build_start_ns: u64,
    build_end_ns: u64,
    decide_ns: u64,
    decisions: u64,
}

thread_local! {
    static MARKS: Cell<CellMarks> = const { Cell::new(CellMarks {
        build_start_ns: 0,
        build_end_ns: 0,
        decide_ns: 0,
        decisions: 0,
    }) };
}

/// Delegates to a governor factory and times every build.
#[derive(Debug)]
pub struct TimedFactory {
    inner: Arc<dyn GovernorFactory>,
    tracer: Arc<Tracer>,
}

impl TimedFactory {
    #[must_use]
    pub fn wrap(inner: Arc<dyn GovernorFactory>, tracer: &Arc<Tracer>) -> Arc<dyn GovernorFactory> {
        Arc::new(Self {
            inner,
            tracer: Arc::clone(tracer),
        })
    }
}

impl GovernorFactory for TimedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self) -> Box<dyn Governor> {
        let build_start_ns = self.tracer.now_ns();
        let inner = self.inner.build();
        MARKS.with(|m| {
            m.set(CellMarks {
                build_start_ns,
                build_end_ns: self.tracer.now_ns(),
                decide_ns: 0,
                decisions: 0,
            });
        });
        Box::new(TimedGovernor {
            inner,
            decide_ns: 0,
            decisions: 0,
        })
    }

    fn platform(&self, base: &SocConfig) -> SocConfig {
        self.inner.platform(base)
    }
}

/// Delegates to a governor, counting and timing its decisions; the totals
/// reach the thread's [`CellMarks`] when the run drops the governor.
#[derive(Debug)]
struct TimedGovernor {
    inner: Box<dyn Governor>,
    decide_ns: u64,
    decisions: u64,
}

impl Governor for TimedGovernor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, input: &GovernorInput<'_>) -> GovernorDecision {
        let start = Instant::now();
        let decision = self.inner.decide(input);
        self.decide_ns += start.elapsed().as_nanos() as u64;
        self.decisions += 1;
        decision
    }
}

impl Drop for TimedGovernor {
    fn drop(&mut self) {
        let (decide_ns, decisions) = (self.decide_ns, self.decisions);
        MARKS.with(|m| {
            let mut marks = m.get();
            marks.decide_ns += decide_ns;
            marks.decisions += decisions;
            m.set(marks);
        });
    }
}

/// `registry` with every entry wrapped in a [`TimedFactory`].
#[must_use]
pub fn timed_registry(registry: &GovernorRegistry, tracer: &Arc<Tracer>) -> GovernorRegistry {
    let mut timed = GovernorRegistry::new();
    for name in registry.names() {
        let factory = registry.get(&name).expect("listed name resolves");
        timed.register(TimedFactory::wrap(factory, tracer));
    }
    timed
}

/// Rebuilds `set` with every governor factory wrapped; the scenarios are
/// otherwise equal (same platform, workload and duration), so their records
/// are too.
///
/// # Errors
///
/// Propagates scenario build errors.
pub fn timed_set(set: &ScenarioSet, tracer: &Arc<Tracer>) -> SimResult<ScenarioSet> {
    let mut out = ScenarioSet::new();
    for scenario in set.scenarios() {
        out.push(
            Scenario::builder(scenario.workload().clone())
                .config(scenario.config().clone())
                .governor_factory(TimedFactory::wrap(Arc::clone(scenario.governor()), tracer))
                .duration(scenario.duration())
                .build()?,
        );
    }
    Ok(match set.baseline() {
        Some(governor) => out.with_baseline(governor),
        None => out,
    })
}

// ---------------------------------------------------------------------------
// Cell-logging consumer
// ---------------------------------------------------------------------------

/// One folded cell.
#[derive(Debug, Clone, Copy)]
pub struct CellRow {
    pub flat: usize,
    pub digest: u64,
    pub slices: u64,
    pub fixed_point_iters: u64,
    pub transitions: u64,
    /// Host time since the worker's previous fold (or its start): the
    /// cell's whole life on the worker, setup and fold included.
    pub span_ns: u64,
    /// When the fold happened, nanoseconds since the consumer's epoch.
    pub at_ns: u64,
}

/// Per-worker accumulator; after the merge it holds every worker's rows
/// and one busy total per worker.
#[derive(Debug, Default)]
pub struct CellAcc {
    pub rows: Vec<CellRow>,
    pub worker_busy_ns: Vec<u64>,
    /// When each worker folded its last cell.
    pub worker_last_ns: Vec<u64>,
    pub fold_ns: u64,
    pub merge_ns: u64,
    pub soc_ns: u64,
    pub decide_ns: u64,
    pub decisions: u64,
    pub build_ns: u64,
    pub builds: u64,
    last_ns: u64,
}

/// Logs every cell (digest, loop statistics, timing) instead of keeping
/// records, so a sweep of any size holds a few words per cell. With a
/// tracer it also records the cell's spans: `scenario.cell`, with children
/// `governor.build`, `soc.run` (build end to fold start: the simulator
/// lookup and the slice loop) and `scenario.fold`; the run's governor
/// decisions are one aggregate `governor.decide` child of `soc.run`.
#[derive(Debug)]
pub struct CellLog<'a> {
    clock: &'a Tracer,
    traced: bool,
    parent: Option<SpanId>,
}

impl<'a> CellLog<'a> {
    /// `clock` times every cell; it records spans only when `traced`.
    #[must_use]
    pub fn new(clock: &'a Tracer, traced: bool, parent: Option<SpanId>) -> Self {
        Self {
            clock,
            traced,
            parent,
        }
    }
}

impl RunConsumer for CellLog<'_> {
    type Acc = CellAcc;

    fn accumulator(&self) -> CellAcc {
        CellAcc {
            worker_busy_ns: vec![0],
            worker_last_ns: vec![0],
            last_ns: self.clock.now_ns(),
            ..CellAcc::default()
        }
    }

    fn fold(&self, acc: &mut CellAcc, cell: CellId, record: RunRecord) {
        let fold_start = self.clock.now_ns();
        let row_digest = digest(&record);
        let report = &record.report;
        let end = self.clock.now_ns();
        let span_ns = end - acc.last_ns;
        acc.rows.push(CellRow {
            flat: cell.flat,
            digest: row_digest,
            slices: report.loop_stats.slices,
            fixed_point_iters: report.loop_stats.fixed_point_iters,
            transitions: report.transitions.count,
            span_ns,
            at_ns: end,
        });
        acc.worker_busy_ns[0] += span_ns;
        acc.worker_last_ns[0] = end;
        acc.fold_ns += end - fold_start;
        if self.traced {
            let marks = MARKS.with(Cell::take);
            acc.soc_ns += fold_start.saturating_sub(marks.build_end_ns);
            acc.decide_ns += marks.decide_ns;
            acc.decisions += marks.decisions;
            acc.build_ns += marks.build_end_ns.saturating_sub(marks.build_start_ns);
            acc.builds += 1;
            let req = cell.flat as u64;
            let id = self
                .clock
                .record("scenario.cell", acc.last_ns, end, self.parent, req);
            self.clock.record(
                "governor.build",
                marks.build_start_ns,
                marks.build_end_ns,
                Some(id),
                req,
            );
            let soc = self
                .clock
                .record("soc.run", marks.build_end_ns, fold_start, Some(id), req);
            self.clock.record(
                "governor.decide",
                marks.build_end_ns,
                marks.build_end_ns + marks.decide_ns,
                Some(soc),
                req,
            );
            self.clock
                .record("scenario.fold", fold_start, end, Some(id), req);
        }
        acc.last_ns = end;
    }

    fn merge(&self, into: &mut CellAcc, from: CellAcc) {
        let start = self.clock.now_ns();
        into.rows.extend(from.rows);
        into.worker_busy_ns.extend(from.worker_busy_ns);
        into.worker_last_ns.extend(from.worker_last_ns);
        into.fold_ns += from.fold_ns;
        into.soc_ns += from.soc_ns;
        into.decide_ns += from.decide_ns;
        into.decisions += from.decisions;
        into.build_ns += from.build_ns;
        into.builds += from.builds;
        into.merge_ns += from.merge_ns;
        let end = self.clock.now_ns();
        into.merge_ns += end - start;
        if self.traced {
            self.clock
                .record("scenario.merge", start, end, self.parent, 0);
        }
    }
}

impl CellAcc {
    /// Rows in flat order.
    #[must_use]
    pub fn sorted_rows(&self) -> Vec<CellRow> {
        let mut rows = self.rows.clone();
        rows.sort_unstable_by_key(|r| r.flat);
        rows
    }

    #[must_use]
    pub fn slices(&self) -> u64 {
        self.rows.iter().map(|r| r.slices).sum()
    }

    /// Median cells and slices completed per second over `bucket_ns`
    /// sub-windows of the fold, from `start_ns` until the first worker ran
    /// out of cells (the tail, where fewer workers remain, is left out).
    /// `None` with fewer than three whole sub-windows.
    #[must_use]
    pub fn steady_rates(&self, start_ns: u64, bucket_ns: u64) -> Option<(f64, f64)> {
        let end_ns = self.worker_last_ns.iter().copied().min()?;
        let buckets = (end_ns.saturating_sub(start_ns) / bucket_ns) as usize;
        if buckets < 3 {
            return None;
        }
        let (mut cells, mut slices) = (vec![0.0; buckets], vec![0.0; buckets]);
        for row in &self.rows {
            let Some(offset) = row.at_ns.checked_sub(start_ns) else {
                continue;
            };
            if let Some(b) = usize::try_from(offset / bucket_ns)
                .ok()
                .filter(|&b| b < buckets)
            {
                cells[b] += 1.0;
                slices[b] += row.slices as f64;
            }
        }
        let per_sec = 1e9 / bucket_ns as f64;
        Some((
            Samples::new(cells).median() * per_sec,
            Samples::new(slices).median() * per_sec,
        ))
    }

    /// Per-cell host time, microseconds.
    #[must_use]
    pub fn cell_us(&self) -> Samples {
        Samples::new(self.rows.iter().map(|r| r.span_ns as f64 / 1e3).collect())
    }
}

/// Layer totals gathered from a traced fold, summed over folds.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    pub cells: u64,
    pub slices: u64,
    pub fixed_point_iters: u64,
    pub transitions: u64,
    pub soc_ns: u64,
    pub decide_ns: u64,
    pub decisions: u64,
    pub build_ns: u64,
    pub builds: u64,
    pub fold_ns: u64,
    pub merge_ns: u64,
    pub merges: u64,
    pub cell_us: Vec<f64>,
    /// Per fold: each worker's busy time and the fold's wall time.
    pub busy: Vec<(Vec<u64>, u64)>,
}

impl LayerTotals {
    pub fn add(&mut self, acc: &CellAcc, wall_ns: u64) {
        self.cells += acc.rows.len() as u64;
        for row in &acc.rows {
            self.slices += row.slices;
            self.fixed_point_iters += row.fixed_point_iters;
            self.transitions += row.transitions;
            self.cell_us.push(row.span_ns as f64 / 1e3);
        }
        self.soc_ns += acc.soc_ns;
        self.decide_ns += acc.decide_ns;
        self.decisions += acc.decisions;
        self.build_ns += acc.build_ns;
        self.builds += acc.builds;
        self.fold_ns += acc.fold_ns;
        self.merge_ns += acc.merge_ns;
        self.merges += acc.worker_busy_ns.len().saturating_sub(1) as u64;
        self.busy.push((acc.worker_busy_ns.clone(), wall_ns));
    }

    /// Mean worker busy share of the fold wall, and the busiest worker's
    /// busy time over the mean, both weighted by fold wall time.
    #[must_use]
    pub fn busy_and_imbalance(&self) -> (f64, f64) {
        let (mut busy, mut imbalance, mut weight) = (0.0, 0.0, 0.0);
        for (workers, wall) in &self.busy {
            let mean = workers.iter().sum::<u64>() as f64 / workers.len().max(1) as f64;
            let max = workers.iter().copied().max().unwrap_or(0) as f64;
            if *wall == 0 || mean == 0.0 {
                continue;
            }
            let w = *wall as f64;
            // Weighting the busy share `mean / w` by `w` leaves `mean`.
            busy += mean;
            imbalance += max / mean * w;
            weight += w;
        }
        if weight == 0.0 {
            (0.0, 0.0)
        } else {
            (busy / weight, imbalance / weight)
        }
    }
}

// ---------------------------------------------------------------------------
// Per-cell setup
// ---------------------------------------------------------------------------

/// Per-cell setup cost, microseconds per sampled cell: [`SimSession::run`]
/// minus [`SocSimulator::run`] on the same cell, both on a warm simulator
/// for the cell's platform and with a freshly built governor. The
/// difference is what the scenario layer adds around the kernel: the
/// effective-configuration clone, the simulator lookup, the governor build
/// and the record assembly. None of that depends on the run's length, so
/// each cell runs for [`SETUP_PROBE_MS`] only, and each side keeps the best
/// of [`SETUP_REPEATS`] runs, which keeps host noise on the kernel's time
/// out of the difference.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn setup_us(scenarios: &[Scenario]) -> SimResult<Samples> {
    let mut session = SimSession::new();
    let mut simulators: Vec<(SocConfig, SocSimulator)> = Vec::new();
    let mut out = Vec::with_capacity(scenarios.len());
    for sampled in scenarios {
        let scenario = Scenario::builder(sampled.workload().clone())
            .config(sampled.config().clone())
            .governor_factory(Arc::clone(sampled.governor()))
            .duration(SimTime::from_millis(SETUP_PROBE_MS))
            .build()?;
        let config = scenario.effective_config();
        if !simulators.iter().any(|(c, _)| *c == config) {
            simulators.push((config.clone(), SocSimulator::new(config.clone())?));
            session.run(&scenario)?; // warm the session's simulator too
        }
        let sim = &mut simulators
            .iter_mut()
            .find(|(c, _)| *c == config)
            .expect("just inserted")
            .1;
        let (mut session_ns, mut kernel_ns) = (u128::MAX, u128::MAX);
        for _ in 0..SETUP_REPEATS {
            let start = Instant::now();
            std::hint::black_box(session.run(&scenario)?);
            session_ns = session_ns.min(start.elapsed().as_nanos());
            let mut governor = scenario.governor().build();
            let start = Instant::now();
            std::hint::black_box(sim.run(
                scenario.workload(),
                governor.as_mut(),
                scenario.duration(),
            )?);
            kernel_ns = kernel_ns.min(start.elapsed().as_nanos());
        }
        out.push((session_ns as f64 - kernel_ns as f64) / 1e3);
    }
    Ok(Samples::new(out))
}

/// Simulated length of each `setup_us` probe run, milliseconds.
const SETUP_PROBE_MS: f64 = 5.0;

/// Runs per side of each `setup_us` probe.
const SETUP_REPEATS: usize = 5;

// ---------------------------------------------------------------------------
// Codec and framing
// ---------------------------------------------------------------------------

/// Mean `(record bytes, encode µs, decode µs, frame write + read µs)` over
/// `records`, each encoded with [`put_record`], decoded with
/// `get_record`, and framed to and from memory with CRC.
#[must_use]
pub fn codec_costs(records: &[RunRecord]) -> (f64, f64, f64, f64) {
    use sysscale_dist::codec::get_record;
    use sysscale_dist::wire::{read_frame, write_frame, Dec};
    if records.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let (mut bytes, mut enc_ns, mut dec_ns, mut frame_ns) = (0usize, 0u128, 0u128, 0u128);
    for record in records {
        let start = Instant::now();
        let encoded = encode_record(record);
        enc_ns += start.elapsed().as_nanos();
        bytes += encoded.len();
        let start = Instant::now();
        let decoded = get_record(&mut Dec::new(&encoded)).expect("own encoding decodes");
        dec_ns += start.elapsed().as_nanos();
        std::hint::black_box(decoded);
        let start = Instant::now();
        let mut buf = Vec::with_capacity(encoded.len() + 16);
        write_frame(&mut buf, 0x72, &encoded).expect("write to memory");
        let frame = read_frame(&mut buf.as_slice()).expect("read from memory");
        frame_ns += start.elapsed().as_nanos();
        std::hint::black_box(frame);
    }
    let n = records.len() as f64;
    (
        bytes as f64 / n,
        enc_ns as f64 / n / 1e3,
        dec_ns as f64 / n / 1e3,
        frame_ns as f64 / n / 1e3,
    )
}
