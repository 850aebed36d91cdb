//! The dispatcher half of the distributed executor.
//!
//! The dispatcher owns the sweep: it plans **leases** (ascending,
//! cost-sized flat-index chunks of one virtual worker slot's shard — the
//! same [`sysscale::SweepSet::slot_indices`] +
//! [`exec::cost_quantile_chunks`] plan the sweep service uses), spawns one
//! worker OS process per slot, streams each worker its leases, and folds
//! the `Result` frames coming back into per-lease consumer accumulators.
//! Because every lease is replayed through the same [`RunConsumer`] fold
//! the in-process executor uses — cells in ascending flat order within a
//! lease, leases merged in plan order within a slot, slots merged in slot
//! order — the merged accumulator is **bit-identical** to
//! [`sysscale::SweepSet::run_parallel_fold_sharded`] with the same
//! sharding, at any process count.
//!
//! Leases are *replayable*: a lease is only retired when its `LeaseDone`
//! frame arrives with every cell accounted for. If a worker dies mid-lease
//! (crash, OOM-kill, `kill -9`), the dispatcher discards the partial
//! accumulators of that worker's unfinished leases, respawns the slot, and
//! re-issues exactly those leases — re-executing at most the cells the dead
//! worker had claimed, never corrupting cells other slots own.
//!
//! On top of the lease protocol sit three fault-tolerance layers:
//!
//! * **checkpoint/resume** ([`DistOptions::journal`]): completed leases are
//!   journaled ([`crate::journal::SweepJournal`]) as they retire, so a
//!   killed dispatcher restarted with the same recipe and plan replays
//!   only the unfinished leases — and merges byte-identically to an
//!   uninterrupted run;
//! * **poisoned-cell quarantine** ([`run_distributed_partial`]): a cell
//!   that fails (or kills its worker [`MAX_LEASE_EXECUTIONS`] times, after
//!   which its lease is bisected down to the single offending flat) is
//!   recorded in a [`FailedCells`] manifest and the sweep *completes*
//!   around it in explicit partial-result mode;
//! * **wire hardening**: frames carry CRCs ([`crate::wire`]), duplicated
//!   `Result`/`LeaseDone` frames are absorbed idempotently (counted in
//!   [`DistStats::frames_rejected`]), and a deterministic fault injector
//!   ([`crate::fault::FaultPlan`]) proves every corruption mode ends in a
//!   clean rejection+replay, never silent corruption.

use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sysscale::types::exec;
use sysscale::{CellId, CollectRuns, RunConsumer, RunSet, ScenarioSet};
use sysscale_types::{SimError, SimResult};

use crate::fault::{FaultPlan, FaultReader};
use crate::journal::{JournalHeader, SweepJournal};
use crate::net::CountRetries;
use crate::proto::{LeaseIndices, Message};
use crate::recipe::{sweep_from_sets, SweepRecipe};
use crate::wire::WireError;

/// Environment variable naming the worker binary, overriding the default
/// next-to-the-current-executable discovery.
pub const WORKER_ENV: &str = "SYSSCALE_DIST_WORKER";

/// Times a single lease may execute before the dispatcher gives up on it
/// (first execution + re-issues after worker deaths). A death is charged to
/// the lease the worker was executing — the slot's first unfinished lease
/// in plan order — not to queued leases that never started. In quarantine
/// mode "giving up" means bisecting a multi-cell lease (or quarantining a
/// single-cell one) instead of failing the run.
pub const MAX_LEASE_EXECUTIONS: usize = 3;

/// Leases each slot's shard is cut into. More leases bound re-execution
/// after a death more tightly but cost more protocol round-trips.
const LEASES_PER_SLOT: usize = 4;

/// Deliberate worker sacrifice for fault-tolerance tests: the given slot's
/// *first* process kills itself (SIGKILL, no cleanup) — or, with `hang`,
/// sleeps forever with the stream open — right after streaming
/// `after_results` result frames. The fault travels in that process's `Job`
/// frame; respawns of the slot run clean.
#[derive(Debug, Clone, Copy)]
pub struct WorkerFault {
    /// The victim slot.
    pub slot: usize,
    /// Result frames to stream before dying (or hanging).
    pub after_results: u64,
    /// `false`: SIGKILL (the reader sees EOF and the death path fires on
    /// its own). `true`: hang with the stream open — only the heartbeat
    /// watchdog ([`DistOptions::heartbeat_timeout`]) can recover.
    pub hang: bool,
}

/// Deterministic always-failing-cell injection for the quarantine tests:
/// the given flat index fails (or crashes its worker) in **every** process
/// that executes it, respawns included — a cell that is broken for cause,
/// not by chance. Every spawn's `Job` frame carries it.
#[derive(Debug, Clone, Copy)]
pub struct PoisonFault {
    /// The flat index of the poisoned cell.
    pub flat: usize,
    /// `false`: the cell fails with a structured error (clean shape).
    /// `true`: the cell SIGKILLs its worker (the shape only bisection can
    /// isolate).
    pub crash: bool,
}

/// Tuning knobs for [`run_distributed`] / [`run_distributed_fold`].
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Worker process count; `None` resolves via
    /// [`exec::resolve_parallelism`] (`SYSSCALE_PROCS`, then detected
    /// cores). Each worker folds its leases on one thread: processes
    /// replace threads rather than multiplying them.
    pub procs: Option<usize>,
    /// Cells a worker executes between heartbeats (default 8).
    pub batch_cells: usize,
    /// Explicit worker binary path (default: [`WORKER_ENV`], then
    /// `sysscale-dist-worker` next to the current executable).
    pub worker_binary: Option<PathBuf>,
    /// Total respawn budget across the whole run (default 8); exceeded
    /// deaths fail the sweep.
    pub max_respawns: usize,
    /// Heartbeat watchdog timeout: a slot with outstanding leases that
    /// streams no frame for this long is declared hung, killed, and its
    /// leases re-issued through the same generation-tagged death path a
    /// crashed worker takes. `None` (default) disables the watchdog.
    pub heartbeat_timeout: Option<Duration>,
    /// Test-only deliberate worker sacrifice.
    pub fault: Option<WorkerFault>,
    /// Checkpoint journal path: when set, completed leases are journaled
    /// there and a compatible existing journal is resumed (see
    /// [`crate::journal`]). Deleted automatically when the sweep succeeds.
    pub journal: Option<PathBuf>,
    /// Deterministic wire-fault plan seed ([`FaultPlan::new`]); `None` and
    /// `Some(0)` both mean no injection.
    pub fault_plan: Option<u64>,
    /// Test hook: abort the run (workers killed, journal left behind)
    /// after this many leases have retired — a deterministic stand-in for
    /// killing the dispatcher mid-run in resume tests.
    pub halt_after_leases: Option<usize>,
    /// Test hook: a deterministically failing cell (see [`PoisonFault`]).
    pub poison: Option<PoisonFault>,
}

impl Default for DistOptions {
    fn default() -> Self {
        Self {
            procs: None,
            batch_cells: 8,
            worker_binary: None,
            max_respawns: 8,
            heartbeat_timeout: None,
            fault: None,
            journal: None,
            fault_plan: None,
            halt_after_leases: None,
            poison: None,
        }
    }
}

/// What a distributed run did, beyond its results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistStats {
    /// Virtual worker slots (the resolved process count, capped by cells).
    pub slots: usize,
    /// Worker processes actually spawned (slots + respawns).
    pub workers_spawned: usize,
    /// Leases planned.
    pub leases: usize,
    /// Leases re-issued after a worker death.
    pub reissued_leases: usize,
    /// Cells whose partial results were discarded and re-executed because
    /// their worker died mid-lease.
    pub reexecuted_cells: usize,
    /// Result frames received (including discarded partials).
    pub result_frames: u64,
    /// Heartbeat frames received.
    pub heartbeats: u64,
    /// Hung-but-alive workers the heartbeat watchdog killed.
    pub watchdog_kills: usize,
    /// Cells quarantined into the [`FailedCells`] manifest (always 0
    /// outside quarantine mode — non-quarantine runs fail instead).
    pub quarantined_cells: usize,
    /// Leases restored from a checkpoint journal instead of executed.
    pub journal_resumes: usize,
    /// Frames dropped as duplicates or stale (dedup absorption; protocol
    /// *violations* still fail the run).
    pub frames_rejected: u64,
    /// Transient I/O errors (`Interrupted`, `WouldBlock`) the worker pipes
    /// returned during the run and the wire layer retried, counted by one
    /// counter per run around both ends of every worker's pipes — so
    /// concurrent dispatches in one process never attribute each other's
    /// retries.
    pub retries: u64,
}

/// One quarantined cell: identity, the structured error it failed with,
/// and how many executions its lease burned before isolation.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedCell {
    /// The cell (member/local/flat), as [`RunConsumer::fold`] would see it.
    pub cell: CellId,
    /// The structured failure — either the worker-reported [`SimError`] or
    /// a synthesized one for cells that killed their workers outright.
    pub error: SimError,
    /// Lease executions burned when the cell was quarantined.
    pub executions: usize,
}

/// The quarantine manifest of a partial-result run: every poisoned cell,
/// ascending by flat index. Empty for a fully-clean sweep.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailedCells {
    cells: Vec<FailedCell>,
}

impl FailedCells {
    /// Records a quarantined cell, keeping the manifest ascending by flat
    /// index and idempotent (a replayed quarantine updates in place).
    fn insert(&mut self, cell: CellId, error: SimError, executions: usize) {
        match self.cells.binary_search_by_key(&cell.flat, |c| c.cell.flat) {
            Ok(i) => {
                self.cells[i] = FailedCell {
                    cell,
                    error,
                    executions,
                };
            }
            Err(i) => self.cells.insert(
                i,
                FailedCell {
                    cell,
                    error,
                    executions,
                },
            ),
        }
    }

    /// The quarantined cells, ascending by flat index.
    #[must_use]
    pub fn cells(&self) -> &[FailedCell] {
        &self.cells
    }

    /// Number of quarantined cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the sweep completed with no quarantined cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether the given flat index is quarantined.
    #[must_use]
    pub fn contains_flat(&self, flat: usize) -> bool {
        self.cells
            .binary_search_by_key(&flat, |c| c.cell.flat)
            .is_ok()
    }

    /// Drops quarantine entries for the given (ascending) flats: aborting a
    /// lease voids the execution that produced them, and a retried cell
    /// that now succeeds must not stay in the manifest.
    fn remove_flats(&mut self, flats: &[usize]) {
        self.cells
            .retain(|c| flats.binary_search(&c.cell.flat).is_err());
    }
}

/// One planned lease and its in-flight fold state.
struct LeaseState<A> {
    slot: usize,
    flats: Vec<usize>,
    acc: A,
    received: usize,
    /// Cells of this lease quarantined via `WorkerError` (quarantine mode
    /// only); `received + failed` is the lease's stream progress.
    failed: usize,
    executions: usize,
    done: bool,
}

impl<A> LeaseState<A> {
    /// Stream progress: results folded plus failures recorded.
    fn progress(&self) -> usize {
        self.received + self.failed
    }
}

/// A live worker process bound to one slot.
struct WorkerSlot {
    child: Child,
    tx: CountRetries<ChildStdin>,
    generation: u64,
    alive: bool,
}

/// What a reader thread reports back to the dispatcher loop.
enum Event {
    Frame {
        slot: usize,
        generation: u64,
        message: Message,
    },
    Closed {
        slot: usize,
        generation: u64,
        error: Option<String>,
    },
}

fn dist_error(context: impl std::fmt::Display) -> SimError {
    SimError::invalid_config(format!("distributed executor: {context}"))
}

/// Resolves the worker binary: explicit option, then [`WORKER_ENV`], then
/// `sysscale-dist-worker` in the current executable's directory (popping a
/// trailing `deps/` so cargo test binaries find the sibling bin target).
fn worker_binary(options: &DistOptions) -> PathBuf {
    if let Some(path) = &options.worker_binary {
        return path.clone();
    }
    if let Ok(path) = std::env::var(WORKER_ENV) {
        if !path.trim().is_empty() {
            return PathBuf::from(path);
        }
    }
    let mut dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    if dir.file_name().is_some_and(|name| name == "deps") {
        dir.pop();
    }
    let candidate = dir.join("sysscale-dist-worker");
    if candidate.exists() {
        candidate
    } else {
        PathBuf::from("sysscale-dist-worker")
    }
}

/// Spawns one worker process for `slot` on its stdin/stdout pipes, starts
/// its reader thread, and sends it the opening `job` frame.
fn spawn_worker(
    binary: &Path,
    slot: usize,
    generation: u64,
    job: &Message,
    fault_plan: Option<FaultPlan>,
    events: &Sender<Event>,
    retries: &Arc<AtomicU64>,
) -> SimResult<WorkerSlot> {
    let mut child = Command::new(binary)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| dist_error(format!("spawning {}: {e}", binary.display())))?;
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    // The fault injector sits between the pipe and the frame parser,
    // sabotaging this connection's byte stream if the plan says so (only
    // ever on generation 0 — respawn streams run clean).
    let read_half: Box<dyn Read + Send> =
        match fault_plan.and_then(|plan| plan.connection_fault(slot, generation)) {
            Some(wire_fault) => Box::new(FaultReader::new(stdout, wire_fault)),
            None => Box::new(stdout),
        };
    // Both ends count this run's transient I/O errors into the run's own
    // counter, whichever thread reads or writes them.
    let read_half = CountRetries::new(read_half, Arc::clone(retries));
    let mut tx = CountRetries::new(stdin, Arc::clone(retries));
    let events = events.clone();
    std::thread::spawn(move || read_loop(read_half, slot, generation, &events));
    // A send failure here means the worker already died; the reader's
    // Closed event drives the respawn, so don't fail the run for it.
    let _ = job.write_to(&mut tx);
    Ok(WorkerSlot {
        child,
        tx,
        generation,
        alive: true,
    })
}

fn read_loop(read_half: impl Read, slot: usize, generation: u64, events: &Sender<Event>) {
    let mut rx = BufReader::new(read_half);
    loop {
        match Message::read_from(&mut rx) {
            Ok(Some(message)) => {
                if events
                    .send(Event::Frame {
                        slot,
                        generation,
                        message,
                    })
                    .is_err()
                {
                    return; // dispatcher gone
                }
            }
            Ok(None) => {
                let _ = events.send(Event::Closed {
                    slot,
                    generation,
                    error: None,
                });
                return;
            }
            Err(error) => {
                let _ = events.send(Event::Closed {
                    slot,
                    generation,
                    error: Some(error.to_string()),
                });
                return;
            }
        }
    }
}

fn kill_all(workers: &mut [Option<WorkerSlot>]) {
    for worker in workers.iter_mut().flatten() {
        let _ = worker.child.kill();
        let _ = worker.child.wait();
        worker.alive = false;
    }
}

/// Sends a lease to a worker; send failures are left to the reader's
/// `Closed` event (the worker is already dead or dying).
fn send_lease(worker: &mut WorkerSlot, lease_id: usize, flats: &[usize]) {
    let _ = Message::Lease {
        lease_id: lease_id as u64,
        indices: LeaseIndices::from_flats(flats),
    }
    .write_to(&mut worker.tx);
}

/// Executes `recipe` across worker processes and returns one [`RunSet`] per
/// recipe member (byte-identical to
/// [`sysscale::SweepSet::run_parallel`] on the rebuilt sets), plus run
/// statistics.
///
/// # Errors
///
/// Fails on unbuildable recipes, spawn/transport failures, exhausted
/// respawn budgets, or a failing cell (reported by the worker that ran it).
pub fn run_distributed(
    recipe: &SweepRecipe,
    options: &DistOptions,
) -> SimResult<(Vec<RunSet>, DistStats)> {
    let sets = recipe.build()?;
    let (collected, failed, stats) = dispatch(recipe, &sets, options, &CollectRuns, false)?;
    debug_assert!(failed.is_empty(), "non-quarantine runs fail, not degrade");
    let mut records = CollectRuns::into_records(collected).into_iter();
    let run_sets = sets
        .iter()
        .map(|set| {
            let len = set.scenarios().len();
            RunSet::from_records(
                records.by_ref().take(len).collect(),
                set.baseline().map(str::to_string),
            )
        })
        .collect();
    Ok((run_sets, stats))
}

/// Like [`run_distributed`], but folding every cell into `consumer` —
/// the distributed twin of [`sysscale::SweepSet::run_parallel_fold_sharded`]
/// with the recipe's sharding strategy.
///
/// # Errors
///
/// See [`run_distributed`].
pub fn run_distributed_fold<Q: RunConsumer>(
    recipe: &SweepRecipe,
    options: &DistOptions,
    consumer: &Q,
) -> SimResult<(Q::Acc, DistStats)> {
    let sets = recipe.build()?;
    let (acc, failed, stats) = dispatch(recipe, &sets, options, consumer, false)?;
    debug_assert!(failed.is_empty(), "non-quarantine runs fail, not degrade");
    Ok((acc, stats))
}

/// [`run_distributed`] in **explicit partial-result mode**: instead of
/// failing on the first poisoned cell, the sweep completes around it. A
/// cell that fails cleanly is quarantined immediately; a cell that *kills*
/// its worker [`MAX_LEASE_EXECUTIONS`] times is isolated by bisecting its
/// lease down to the single offending flat index, then quarantined. The
/// returned [`FailedCells`] manifest lists every quarantined cell (id,
/// structured [`SimError`], execution count); every *other* cell's record
/// is byte-identical to a clean run's, and its member `RunSet` simply
/// omits the quarantined rows.
///
/// # Errors
///
/// Still fails on unbuildable recipes, spawn/transport failures, protocol
/// violations, and exhausted respawn budgets — quarantine absorbs cell
/// failures, not infrastructure failures.
pub fn run_distributed_partial(
    recipe: &SweepRecipe,
    options: &DistOptions,
) -> SimResult<(Vec<RunSet>, FailedCells, DistStats)> {
    let sets = recipe.build()?;
    let (collected, failed, stats) = dispatch(recipe, &sets, options, &CollectRuns, true)?;
    // Regroup the surviving records by member; quarantined flats are
    // simply absent, so members are cut by flat-index ranges rather than
    // by scenario counts.
    let mut offsets = Vec::with_capacity(sets.len());
    let mut total = 0usize;
    for set in &sets {
        offsets.push(total);
        total += set.scenarios().len();
    }
    let mut records = CollectRuns::into_flat_records(collected)
        .into_iter()
        .peekable();
    let run_sets = sets
        .iter()
        .enumerate()
        .map(|(member, set)| {
            let end = offsets[member] + set.scenarios().len();
            let mut member_records = Vec::new();
            while records.peek().is_some_and(|(flat, _)| *flat < end) {
                member_records.push(records.next().expect("peeked").1);
            }
            RunSet::from_records(member_records, set.baseline().map(str::to_string))
        })
        .collect();
    Ok((run_sets, failed, stats))
}

/// Converts a journal I/O failure into the executor's error type.
fn journal_error(error: WireError) -> SimError {
    dist_error(format!("checkpoint journal: {error}"))
}

/// The dispatcher event loop over pre-built sets. With `quarantine` set the
/// sweep runs in explicit partial-result mode (see
/// [`run_distributed_partial`]); otherwise the returned [`FailedCells`] is
/// always empty and the first cell failure fails the run.
fn dispatch<Q: RunConsumer>(
    recipe: &SweepRecipe,
    sets: &[ScenarioSet],
    options: &DistOptions,
    consumer: &Q,
    quarantine: bool,
) -> SimResult<(Q::Acc, FailedCells, DistStats)> {
    let lens: Vec<usize> = sets.iter().map(|set| set.scenarios().len()).collect();
    let mut offsets = Vec::with_capacity(lens.len());
    let mut total = 0usize;
    for &len in &lens {
        offsets.push(total);
        total += len;
    }

    let mut stats = DistStats::default();
    if total == 0 {
        return Ok((consumer.accumulator(), FailedCells::default(), stats));
    }
    let fault_plan = options.fault_plan.and_then(FaultPlan::new);
    // Per-run retry accounting: every worker transport of this dispatch
    // counts into this one counter.
    let retries = Arc::new(AtomicU64::new(0));

    // The same cell→worker partition the in-process fold core computes
    // (one slot per process, clamped to the cell count), each slot's list
    // cut into cost-quantile leases so one expensive cell doesn't fill a
    // lease with cheap followers.
    let procs = exec::resolve_parallelism(options.procs, exec::PROCS_ENV);
    let sweep = sweep_from_sets(sets);
    let costs = sweep.cell_costs();
    let slot_lists = sweep.slot_indices(procs, recipe.sharding);
    let slots = slot_lists.len();
    stats.slots = slots;
    let mut leases: Vec<LeaseState<Q::Acc>> = Vec::new();
    let mut slot_leases: Vec<Vec<usize>> = vec![Vec::new(); slots];
    for (slot, list) in slot_lists.iter().enumerate() {
        for flats in exec::cost_quantile_chunks(list, |flat| costs[flat], LEASES_PER_SLOT) {
            slot_leases[slot].push(leases.len());
            leases.push(LeaseState {
                slot,
                flats,
                acc: consumer.accumulator(),
                received: 0,
                failed: 0,
                executions: 1,
                done: false,
            });
        }
    }
    stats.leases = leases.len();
    let mut remaining = leases.len();

    let cell_id = |flat: usize| {
        let member = offsets.partition_point(|&start| start <= flat) - 1;
        CellId {
            member,
            local: flat - offsets[member],
            flat,
        }
    };

    // Adopt a checkpoint journal: leases a prior (killed) dispatcher proved
    // complete are restored from disk instead of re-executed. A restored
    // lease must tile its planned flats exactly — results in fold order
    // interleaved with quarantine entries — or it is ignored and re-runs.
    let mut manifest = FailedCells::default();
    let mut journal: Option<SweepJournal> = None;
    if let Some(path) = &options.journal {
        let header = JournalHeader {
            recipe_fingerprint: recipe.fingerprint64(),
            slots: slots as u64,
            leases: leases.len() as u64,
            cells: total as u64,
        };
        let (opened, replay) = SweepJournal::open(path, &header).map_err(journal_error)?;
        for replayed in replay.map(|r| r.leases).unwrap_or_default() {
            let Some(lease) = leases.get_mut(replayed.lease_id as usize) else {
                continue; // a bisection child of the prior run; re-discovered live
            };
            if lease.done || (!quarantine && !replayed.quarantined.is_empty()) {
                continue;
            }
            let mut results = replayed.results.iter().map(|(flat, _)| *flat).peekable();
            let mut failed = replayed.quarantined.iter().map(|q| q.flat).peekable();
            let tiles = lease.flats.iter().all(|&flat| {
                if results.peek() == Some(&(flat as u64)) {
                    results.next();
                    true
                } else if failed.peek() == Some(&(flat as u64)) {
                    failed.next();
                    true
                } else {
                    false
                }
            }) && results.peek().is_none()
                && failed.peek().is_none();
            if !tiles {
                continue;
            }
            lease.received = replayed.results.len();
            lease.failed = replayed.quarantined.len();
            for (flat, record) in replayed.results {
                consumer.fold(&mut lease.acc, cell_id(flat as usize), record);
            }
            for q in replayed.quarantined {
                manifest.insert(cell_id(q.flat as usize), q.error, q.executions as usize);
            }
            lease.done = true;
            remaining -= 1;
            stats.journal_resumes += 1;
        }
        journal = Some(opened);
    }

    let binary = worker_binary(options);
    let recipe_bytes = recipe.encode();
    // Each spawn's whole configuration. Only the victim slot's first
    // process gets the die/hang fault; poison models a cell that is broken
    // for cause, so it rides on every spawn, respawns included.
    let job = |fault: Option<WorkerFault>| Message::Job {
        batch_cells: options.batch_cells.max(1) as u32,
        quarantine,
        fault_after: fault.map(|fault| fault.after_results),
        fault_hangs: fault.is_some_and(|fault| fault.hang),
        poison_flat: options.poison.map(|poison| poison.flat as u64),
        poison_crash: options.poison.is_some_and(|poison| poison.crash),
        recipe: recipe_bytes.clone(),
    };
    let (events_tx, events_rx) = channel();

    let mut workers: Vec<Option<WorkerSlot>> = Vec::with_capacity(slots);
    let mut respawns_left = options.max_respawns;
    for (slot, lease_ids) in slot_leases.iter().enumerate() {
        // A resumed run only spawns slots with unfinished leases.
        let pending: Vec<usize> = lease_ids
            .iter()
            .copied()
            .filter(|&id| !leases[id].done)
            .collect();
        if pending.is_empty() {
            workers.push(None);
            continue;
        }
        let fault = options.fault.filter(|fault| fault.slot == slot);
        let worker = spawn_worker(
            &binary,
            slot,
            0,
            &job(fault),
            fault_plan,
            &events_tx,
            &retries,
        );
        let mut worker = match worker {
            Ok(worker) => worker,
            Err(error) => {
                kill_all(&mut workers);
                return Err(error);
            }
        };
        stats.workers_spawned += 1;
        for &lease_id in &pending {
            send_lease(&mut worker, lease_id, &leases[lease_id].flats);
        }
        workers.push(Some(worker));
    }

    // Heartbeat watchdog state: when enabled, every live slot's last frame
    // time; a slot with outstanding leases that stays silent past the
    // timeout is killed, which closes its stream and drives the ordinary
    // generation-tagged death path below — re-issue, respawn, replay.
    let mut last_seen: Vec<Instant> = vec![Instant::now(); slots];

    let mut failure: Option<SimError> = None;
    let mut leases_retired = 0usize;
    while remaining > 0 && failure.is_none() {
        let event = match options.heartbeat_timeout {
            None => match events_rx.recv() {
                Ok(event) => Some(event),
                Err(_) => {
                    failure = Some(dist_error("event channel closed unexpectedly"));
                    break;
                }
            },
            Some(timeout) => {
                // Poll at a fraction of the timeout so a hang is noticed at
                // most ~1.25 timeouts after the last frame.
                let poll = (timeout / 4).max(Duration::from_millis(10));
                match events_rx.recv_timeout(poll) {
                    Ok(event) => Some(event),
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => None,
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                        failure = Some(dist_error("event channel closed unexpectedly"));
                        break;
                    }
                }
            }
        };
        if let Some(timeout) = options.heartbeat_timeout {
            for slot in 0..slots {
                let hung = workers[slot].as_ref().is_some_and(|w| w.alive)
                    && slot_leases[slot].iter().any(|&id| !leases[id].done)
                    && last_seen[slot].elapsed() > timeout;
                if hung {
                    // Kill the hung process; its reader thread then reports
                    // `Closed` for this generation and the death path
                    // re-issues the slot's unfinished leases. Clearing
                    // `alive` keeps the watchdog from re-killing the slot
                    // while that event is in flight.
                    stats.watchdog_kills += 1;
                    let worker = workers[slot].as_mut().expect("checked above");
                    let _ = worker.child.kill();
                    worker.alive = false;
                }
            }
        }
        let Some(event) = event else { continue };
        match event {
            Event::Frame {
                slot,
                generation,
                message,
            } => {
                let current = workers[slot].as_ref().map(|w| w.generation);
                if current != Some(generation) {
                    stats.frames_rejected += 1;
                    continue; // stale frame from a replaced worker
                }
                last_seen[slot] = Instant::now();
                match message {
                    Message::Result {
                        lease_id,
                        flat,
                        record,
                    } => {
                        stats.result_frames += 1;
                        let Some(lease) = leases.get_mut(lease_id as usize) else {
                            failure = Some(dist_error(format!("unknown lease {lease_id}")));
                            break;
                        };
                        if lease.done {
                            stats.frames_rejected += 1;
                            continue; // late duplicate of a retired lease
                        }
                        if lease.slot != slot {
                            failure = Some(dist_error(format!(
                                "slot {slot} sent cell {flat} for foreign lease {lease_id}"
                            )));
                            break;
                        }
                        let progress = lease.progress();
                        if lease.flats[..progress]
                            .binary_search(&(flat as usize))
                            .is_ok()
                        {
                            // A duplicated `Result` frame (e.g. injected by
                            // the fault plan): the record is already folded,
                            // absorb the copy idempotently.
                            stats.frames_rejected += 1;
                            continue;
                        }
                        if lease.flats.get(progress).copied() != Some(flat as usize) {
                            failure = Some(dist_error(format!(
                                "slot {slot} sent cell {flat} out of order for lease {lease_id}"
                            )));
                            break;
                        }
                        if let Some(journal) = journal.as_mut() {
                            if let Err(error) = journal.record_result(lease_id, flat, &record) {
                                failure = Some(journal_error(error));
                                break;
                            }
                        }
                        consumer.fold(&mut lease.acc, cell_id(flat as usize), *record);
                        lease.received += 1;
                    }
                    Message::LeaseDone { lease_id, cells } => {
                        let Some(lease) = leases.get_mut(lease_id as usize) else {
                            failure = Some(dist_error(format!("unknown lease {lease_id}")));
                            break;
                        };
                        if lease.done {
                            stats.frames_rejected += 1;
                            continue; // duplicated retirement, absorb
                        }
                        if lease.slot != slot
                            || cells as usize != lease.flats.len()
                            || lease.progress() != lease.flats.len()
                        {
                            failure = Some(dist_error(format!(
                                "slot {slot} completed lease {lease_id} with {} of {} cells",
                                lease.progress(),
                                lease.flats.len()
                            )));
                            break;
                        }
                        if let Some(journal) = journal.as_mut() {
                            if let Err(error) = journal.record_done(lease_id, lease.received as u64)
                            {
                                failure = Some(journal_error(error));
                                break;
                            }
                        }
                        lease.done = true;
                        remaining -= 1;
                        leases_retired += 1;
                        if options
                            .halt_after_leases
                            .is_some_and(|n| leases_retired >= n)
                            && remaining > 0
                        {
                            // Deterministic stand-in for a dispatcher kill:
                            // fail here, journal flushed and left behind.
                            failure = Some(dist_error(format!(
                                "halted after {leases_retired} lease(s) (test hook)"
                            )));
                            break;
                        }
                    }
                    Message::Heartbeat { .. } => stats.heartbeats += 1,
                    Message::WorkerError {
                        lease_id,
                        flat,
                        error,
                    } => {
                        if !quarantine {
                            // The structured error round-trips the wire
                            // intact, so callers see the exact SimError the
                            // in-process executor would have returned.
                            failure = Some(error);
                            break;
                        }
                        // Partial-result mode: one cell failed cleanly; the
                        // worker keeps streaming, we quarantine and go on.
                        let Some(lease) = leases.get_mut(lease_id as usize) else {
                            failure = Some(dist_error(format!("unknown lease {lease_id}")));
                            break;
                        };
                        if lease.done {
                            stats.frames_rejected += 1;
                            continue;
                        }
                        let progress = lease.progress();
                        if lease.slot != slot
                            || lease.flats.get(progress).copied() != Some(flat as usize)
                        {
                            failure = Some(dist_error(format!(
                                "slot {slot} reported cell {flat} failed out of order for \
                                 lease {lease_id}"
                            )));
                            break;
                        }
                        if let Some(journal) = journal.as_mut() {
                            if let Err(journal_failure) = journal.record_quarantine(
                                lease_id,
                                flat,
                                lease.executions as u64,
                                &error,
                            ) {
                                failure = Some(journal_error(journal_failure));
                                break;
                            }
                        }
                        manifest.insert(cell_id(flat as usize), error, lease.executions);
                        lease.failed += 1;
                    }
                    other => {
                        failure = Some(dist_error(format!(
                            "unexpected frame from slot {slot}: {other:?}"
                        )));
                        break;
                    }
                }
            }
            Event::Closed {
                slot,
                generation,
                error,
            } => {
                let Some(worker) = workers[slot].as_mut() else {
                    continue;
                };
                if worker.generation != generation {
                    continue; // the replaced worker's reader winding down
                }
                let _ = worker.child.kill();
                let _ = worker.child.wait();
                worker.alive = false;

                let incomplete: Vec<usize> = slot_leases[slot]
                    .iter()
                    .copied()
                    .filter(|&id| !leases[id].done)
                    .collect();
                if incomplete.is_empty() {
                    // Finished every lease and hung up early — benign.
                    continue;
                }
                if respawns_left == 0 {
                    failure = Some(dist_error(format!(
                        "slot {slot} died with {} lease(s) outstanding ({}) and no respawn \
                         budget left",
                        incomplete.len(),
                        error.unwrap_or_else(|| "stream closed".to_string()),
                    )));
                    break;
                }
                // A worker executes its leases strictly in plan order, so
                // the death happened *in* the slot's first unfinished lease
                // — later leases never started and re-issue without being
                // charged an execution (else a poisoned lease at the head
                // of the queue would exhaust its innocent neighbours'
                // budgets without them ever running).
                let active = incomplete[0];
                for &lease_id in &incomplete {
                    let lease = &mut leases[lease_id];
                    if lease_id != active || lease.executions < MAX_LEASE_EXECUTIONS {
                        // Plain re-issue: discard partials, replay whole.
                        stats.reissued_leases += 1;
                        stats.reexecuted_cells += lease.received;
                        if let Some(journal) = journal.as_mut() {
                            if let Err(journal_failure) = journal.record_abort(lease_id as u64) {
                                failure = Some(journal_error(journal_failure));
                                break;
                            }
                        }
                        manifest.remove_flats(&lease.flats);
                        lease.acc = consumer.accumulator();
                        lease.received = 0;
                        lease.failed = 0;
                        if lease_id == active {
                            lease.executions += 1;
                        }
                        continue;
                    }
                    // The active lease's execution budget is exhausted:
                    // some cell in it kills every worker that touches it.
                    if !quarantine {
                        failure = Some(dist_error(format!(
                            "lease {lease_id} failed {} times; giving up",
                            lease.executions
                        )));
                        break;
                    }
                    if let Some(journal) = journal.as_mut() {
                        if let Err(journal_failure) = journal.record_abort(lease_id as u64) {
                            failure = Some(journal_error(journal_failure));
                            break;
                        }
                    }
                    manifest.remove_flats(&lease.flats);
                    if lease.flats.len() > 1 {
                        // Bisect: we cannot see *which* cell is the killer,
                        // so split the lease and let the halves isolate it.
                        // The parent retires in place and two child leases
                        // take its position in the slot's plan order, so
                        // the deterministic merge is unchanged.
                        stats.reexecuted_cells += lease.received;
                        let mid = lease.flats.len() / 2;
                        let right = lease.flats.split_off(mid);
                        let left = std::mem::take(&mut lease.flats);
                        lease.acc = consumer.accumulator();
                        lease.received = 0;
                        lease.failed = 0;
                        lease.done = true;
                        let left_id = leases.len();
                        for flats in [left, right] {
                            leases.push(LeaseState {
                                slot,
                                flats,
                                acc: consumer.accumulator(),
                                received: 0,
                                failed: 0,
                                executions: 1,
                                done: false,
                            });
                        }
                        let pos = slot_leases[slot]
                            .iter()
                            .position(|&id| id == lease_id)
                            .expect("bisected lease is in its slot's plan");
                        slot_leases[slot].splice(pos..=pos, [left_id, left_id + 1]);
                        stats.leases += 2;
                        remaining += 1; // parent retired, two children opened
                    } else {
                        // Isolated to a single flat: quarantine the cell
                        // with a synthesized error (the worker never got to
                        // report one — it was killed) and retire the lease.
                        let flat = lease.flats[0];
                        let executions = lease.executions;
                        let cell_error = SimError::invalid_config(format!(
                            "poisoned cell {flat}: killed its worker in {executions} \
                             consecutive executions; quarantined"
                        ));
                        if let Some(journal) = journal.as_mut() {
                            let journaled = journal
                                .record_quarantine(
                                    lease_id as u64,
                                    flat as u64,
                                    executions as u64,
                                    &cell_error,
                                )
                                .and_then(|()| journal.record_done(lease_id as u64, 0));
                            if let Err(journal_failure) = journaled {
                                failure = Some(journal_error(journal_failure));
                                break;
                            }
                        }
                        manifest.insert(cell_id(flat), cell_error, executions);
                        lease.acc = consumer.accumulator();
                        lease.received = 0;
                        lease.failed = 0;
                        lease.done = true;
                        remaining -= 1;
                    }
                }
                if failure.is_some() {
                    break;
                }
                let pending: Vec<usize> = slot_leases[slot]
                    .iter()
                    .copied()
                    .filter(|&id| !leases[id].done)
                    .collect();
                if pending.is_empty() {
                    // Every outstanding lease quarantined away — nothing
                    // left for this slot, no respawn needed.
                    continue;
                }
                respawns_left -= 1;
                // Respawn the slot — never re-arming the wire/worker fault,
                // so a sacrificed worker's replacement runs clean. Poison
                // directives still apply (the cell is broken for cause).
                match spawn_worker(
                    &binary,
                    slot,
                    generation + 1,
                    &job(None),
                    fault_plan,
                    &events_tx,
                    &retries,
                ) {
                    Ok(mut replacement) => {
                        stats.workers_spawned += 1;
                        for &lease_id in &pending {
                            send_lease(&mut replacement, lease_id, &leases[lease_id].flats);
                        }
                        workers[slot] = Some(replacement);
                        last_seen[slot] = Instant::now();
                    }
                    Err(spawn_error) => {
                        failure = Some(spawn_error);
                        break;
                    }
                }
            }
        }
    }

    if let Some(error) = failure {
        kill_all(&mut workers);
        // The journal survives a failed run — that is the whole point:
        // flush what we know so a restart resumes from it.
        if let Some(journal) = journal.as_mut() {
            let _ = journal.flush();
        }
        return Err(error);
    }

    // Orderly shutdown: every lease is done, tell workers to exit and reap.
    for worker in workers.iter_mut().flatten() {
        if worker.alive {
            let _ = Message::Shutdown.write_to(&mut worker.tx);
        }
    }
    for worker in workers.iter_mut().flatten() {
        if worker.alive {
            let _ = worker.child.wait();
            worker.alive = false;
        }
    }

    // The sweep succeeded: a finished journal must never replay into a
    // later run, so delete it (best effort — the results stand regardless).
    if let Some(journal) = journal.take() {
        let _ = journal.finish();
    }
    stats.quarantined_cells = manifest.len();
    stats.retries = retries.load(Ordering::Relaxed);

    // The deterministic merge: leases in plan order within a slot, slots in
    // slot order — the exact partition the in-process fold core merges by.
    // Bisected parents were spliced out of the plan, so children merge at
    // the parent's position and the order matches an unfaulted run.
    let mut merged = consumer.accumulator();
    for lease_ids in &slot_leases {
        for &lease_id in lease_ids {
            let acc = std::mem::replace(&mut leases[lease_id].acc, consumer.accumulator());
            consumer.merge(&mut merged, acc);
        }
    }
    Ok((merged, manifest, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_binary_resolution_prefers_explicit_option() {
        let options = DistOptions {
            worker_binary: Some(PathBuf::from("/tmp/custom-worker")),
            ..DistOptions::default()
        };
        assert_eq!(worker_binary(&options), PathBuf::from("/tmp/custom-worker"));
    }
}
