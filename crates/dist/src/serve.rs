//! The sweep engine as a long-running service.
//!
//! [`SweepService`] is a server loop that accepts many concurrent sweep
//! submissions over the crate's framed wire protocol — in-memory duplex
//! pipes ([`mod@crate::duplex`]) for tests, TCP for real use — and executes
//! them against **one shared warm [`SessionPool`]** through the same
//! [`RunConsumer`] fold core every other execution path uses. The
//! determinism contract carries over unchanged: the record stream a client
//! gets back for a submission is **byte-identical** to an in-process
//! [`SweepSet::run_parallel_fold`] of the same recipe, for every
//! interleaving of concurrent submissions.
//!
//! ## Topology
//!
//! ```text
//!  client A ──Submit──▶ reader thread A ──┐               ┌─ worker 1 ─┐
//!  client B ──Submit──▶ reader thread B ──┼─▶ scheduler ──┼─ worker 2 ─┼─▶ frames
//!  client C ──Submit──▶ reader thread C ──┘  (leases)     └─ worker N ─┘
//! ```
//!
//! Each connection gets a reader thread that decodes [`FT_SUBMIT`] frames,
//! acknowledges them immediately (an `Accepted` frame carrying the queue
//! depth at admission — or a `Busy` frame when `max_pending` submissions
//! are already in flight), builds the recipe, and hands the sweep to the
//! **shared cost-aware scheduler**. The scheduler plans every submission
//! exactly like the in-process fold would: the per-worker cell lists come
//! from [`SweepSet::slot_indices`] (the same sharding strategy, the same
//! worker clamp), each slot's list is cut into cost-prefix-quantile leases
//! ([`exec::cost_quantile_chunks`] — the same sizing the distributed
//! dispatcher uses), and one pool of worker threads executes leases from
//! **all** active submissions, interleaved.
//!
//! The interleave policy is cost-fair: a free worker always serves the
//! active submission with the least cost served so far (ties broken by
//! admission order), so a small sweep rides along inside a big sweep's
//! pool instead of queueing behind it — small-sweep latency under mixed
//! load drops by the big sweep's residual runtime. Determinism survives
//! the interleaving because a submission's slot accumulators live in an
//! [`IncrementalFold`]: a worker checks a slot out at a lease boundary,
//! folds the lease's cells in ascending flat order on a freshly reset
//! simulator per cell, and restores the accumulator; the merge at the end
//! is in slot order, so the result is byte-identical to
//! [`SweepSet::run_parallel_fold`] of the same recipe at the configured
//! worker count, regardless of what else is in flight.
//!
//! Queueing delay and execution time are measured per request into
//! [`RequestSample`]s, which [`StressMetrics::from_samples`] reduces to
//! the llamaburn-style load summary (requests/sec, p50/p95/p99/p999
//! latency, error rate) that [`ServeStats::metrics`] reports.
//!
//! ## Progress snapshots
//!
//! A submission may ask for progress every N cells: the scheduler wraps the
//! collecting consumer in a [`ProgressTap`], whose publish callback is
//! gated by a per-submission monotone counter — `Progress` frames carry
//! strictly increasing `done` counts in order on the wire, even though the
//! underlying fold workers race. The tap is observability only: the final
//! accumulator is bit-identical to the undecorated consumer's.
//!
//! [`SweepSet::run_parallel_fold`]: sysscale::SweepSet::run_parallel_fold
//! [`SweepSet::slot_indices`]: sysscale::SweepSet::slot_indices

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sysscale::types::exec::{self, IncrementalFold};
use sysscale::{
    CellError, CollectRuns, ProgressTap, RunConsumer, RunRecord, ScenarioSet, SessionPool,
    SimSession,
};
use sysscale_types::SimError;

use crate::codec::{get_record, get_sim_error, put_record, put_sim_error};
use crate::duplex::duplex;
use crate::recipe::{sweep_from_sets, SweepRecipe};
use crate::wire::{read_frame, write_frame, Dec, Enc, WireError};

/// Client→server: a sweep submission (`magic`, `version`, `submit_id`,
/// `progress_every`, encoded [`SweepRecipe`]).
pub const FT_SUBMIT: u8 = 0x60;
/// Client→server: orderly hangup; the reader thread exits.
pub const FT_CLOSE: u8 = 0x61;
/// Server→client: submission admitted (`submit_id`, `total_cells`,
/// `queue_depth` at admission).
pub const FT_ACCEPTED: u8 = 0x70;
/// Server→client: progress snapshot (`submit_id`, `done`, `total`).
pub const FT_PROGRESS: u8 = 0x71;
/// Server→client: one result record (`submit_id`, `flat`, record).
pub const FT_CELL: u8 = 0x72;
/// Server→client: submission finished (`submit_id`, `cells`,
/// `queued_micros`, `exec_micros`).
pub const FT_SWEEP_DONE: u8 = 0x73;
/// Server→client: submission failed (`submit_id`, [`SimError`]).
pub const FT_SWEEP_ERROR: u8 = 0x74;
/// Server→client: submission shed at admission — the pending-submission
/// bound was hit (`submit_id`, `queue_depth`, `max_pending`). Retryable:
/// nothing about the submission was executed or retained.
pub const FT_BUSY: u8 = 0x75;

/// Submit-frame magic ("SVSW" little-endian), catching a client that
/// frames correctly but speaks a different protocol.
const SERVE_MAGIC: u32 = 0x5753_5653;

/// Submission payload layout version.
const SERVE_VERSION: u16 = 1;

/// Target cells per scheduler lease: each slot's cell list is cut into
/// `ceil(len / LEASE_CELLS)` cost-quantile chunks. Smaller leases
/// interleave submissions at a finer grain (lower small-sweep latency) at
/// slightly more scheduling overhead.
const LEASE_CELLS: usize = 4;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Fold workers per sweep (the `threads` argument of
    /// [`SweepSet::run_parallel_fold_sharded`](sysscale::SweepSet)), and
    /// the worker-thread count of the shared pool. The byte-identity
    /// contract holds at every value.
    pub workers: usize,
    /// Admission bound: submissions admitted (pending or executing) at
    /// any instant. A submission arriving past the bound is shed with a
    /// [`FT_BUSY`] frame instead of growing server memory without bound
    /// under a client storm.
    pub max_pending: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            max_pending: 256,
        }
    }
}

/// One request's measured life cycle, recorded by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSample {
    /// Cells the submission's sweep ran.
    pub cells: u64,
    /// Queue depth at admission (this submission included).
    pub queue_depth: u64,
    /// Microseconds between admission and execution start.
    pub queued_micros: u64,
    /// Microseconds executing the sweep and streaming its results.
    pub exec_micros: u64,
    /// Microseconds between admission and completion frame.
    pub total_micros: u64,
    /// Whether the submission completed (vs. a `SweepError`).
    pub ok: bool,
}

/// Shared mutable server state: counters the reader threads bump and the
/// samples the executor appends.
#[derive(Debug, Default)]
struct ServeShared {
    submissions: AtomicU64,
    errors: AtomicU64,
    frames_rejected: AtomicU64,
    busy_shed: AtomicU64,
    /// Submissions admitted and not yet completed (pending **or**
    /// executing) — incremented at admission, decremented when the
    /// completion frame goes out, so the depth a new admission samples
    /// reflects actual contention, not executor pickup timing.
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    samples: Mutex<Vec<RequestSample>>,
}

impl ServeShared {
    fn push_sample(&self, sample: RequestSample) {
        self.samples.lock().expect("samples poisoned").push(sample);
    }
}

/// The server half of one client connection: a writer every server thread
/// shares. A [`Mutex`] serializes frames — `Accepted` acks from the reader
/// thread interleave with result frames from the executor on the same
/// stream, and a frame must never be torn.
struct ClientPort {
    writer: Mutex<Box<dyn Write + Send>>,
}

impl ClientPort {
    fn send(&self, frame_type: u8, payload: &[u8]) -> Result<(), WireError> {
        let mut writer = self.writer.lock().expect("client writer poisoned");
        write_frame(&mut *writer, frame_type, payload)
    }
}

impl std::fmt::Debug for ClientPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientPort").finish_non_exhaustive()
    }
}

/// A running sweep service. Create with [`SweepService::start`], attach
/// clients with [`SweepService::connect`] (in-memory) /
/// [`SweepService::listen_tcp`] (sockets), and finish with
/// [`SweepService::shutdown`] to collect [`ServeStats`].
pub struct SweepService {
    shared: Arc<ServeShared>,
    scheduler: Arc<Scheduler>,
    executor: Option<std::thread::JoinHandle<(usize, usize)>>,
    readers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    acceptors: Mutex<Vec<std::thread::JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
    started: Instant,
    max_pending: u64,
}

impl std::fmt::Debug for SweepService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepService")
            .field("max_pending", &self.max_pending)
            .finish_non_exhaustive()
    }
}

impl SweepService {
    /// Starts the shared worker pool (owning the warm [`SessionPool`])
    /// under a supervisor thread and returns the service handle.
    #[must_use]
    pub fn start(options: &ServeOptions) -> Self {
        let shared = Arc::new(ServeShared::default());
        let workers = options.workers.max(1);
        let scheduler = Arc::new(Scheduler::new(workers));
        let executor_scheduler = Arc::clone(&scheduler);
        let executor_shared = Arc::clone(&shared);
        let executor = std::thread::spawn(move || {
            shared_executor(&executor_scheduler, workers, &executor_shared)
        });
        Self {
            shared,
            scheduler,
            executor: Some(executor),
            readers: Mutex::new(Vec::new()),
            acceptors: Mutex::new(Vec::new()),
            stop: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            max_pending: options.max_pending.max(1),
        }
    }

    /// Attaches one client connection: spawns a reader thread decoding
    /// submissions from `reader` and shares `writer` between that thread
    /// (acks) and the executor (results).
    pub fn attach(&self, reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) {
        let port = Arc::new(ClientPort {
            writer: Mutex::new(writer),
        });
        let shared = Arc::clone(&self.shared);
        let scheduler = Arc::clone(&self.scheduler);
        let max_pending = self.max_pending;
        let handle = std::thread::spawn(move || {
            client_loop(reader, &port, &scheduler, &shared, max_pending);
        });
        self.readers.lock().expect("readers poisoned").push(handle);
    }

    /// Connects an in-memory client over a [`crate::duplex::duplex`] pair —
    /// the test transport.
    #[must_use]
    pub fn connect(&self) -> ServeClient {
        let (client_end, server_end) = duplex();
        let (server_reader, server_writer) = server_end.split();
        self.attach(Box::new(server_reader), Box::new(server_writer));
        let (client_reader, client_writer) = client_end.split();
        ServeClient::new(Box::new(client_reader), Box::new(client_writer))
    }

    /// Binds a TCP listener on `addr` (e.g. `"127.0.0.1:0"`) and spawns an
    /// accept thread attaching every connection until shutdown. Returns the
    /// bound address — with port 0, the one the OS picked.
    ///
    /// # Errors
    ///
    /// Propagates bind/configuration failures.
    pub fn listen_tcp(&self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::clone(&self.stop);
        let shared = Arc::clone(&self.shared);
        let max_pending = self.max_pending;
        let scheduler = Arc::clone(&self.scheduler);
        let readers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let acceptor_readers = Arc::clone(&readers);
        let handle = std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let write_half = match stream.try_clone() {
                            Ok(clone) => clone,
                            Err(_) => continue,
                        };
                        let port = Arc::new(ClientPort {
                            writer: Mutex::new(Box::new(write_half) as Box<dyn Write + Send>),
                        });
                        let shared = Arc::clone(&shared);
                        let scheduler = Arc::clone(&scheduler);
                        let reader = std::thread::spawn(move || {
                            client_loop(Box::new(stream), &port, &scheduler, &shared, max_pending);
                        });
                        acceptor_readers
                            .lock()
                            .expect("tcp readers poisoned")
                            .push(reader);
                    }
                    Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
            // Orderly drain: connected clients finish their streams.
            for reader in acceptor_readers
                .lock()
                .expect("tcp readers poisoned")
                .drain(..)
            {
                let _ = reader.join();
            }
        });
        self.acceptors
            .lock()
            .expect("acceptors poisoned")
            .push(handle);
        Ok(local)
    }

    /// Stops accepting, waits for attached clients to hang up, drains the
    /// queue, and returns the measured [`ServeStats`].
    ///
    /// Orderly-shutdown contract: clients must close (drop their write
    /// half or send [`FT_CLOSE`]) for their reader threads — and therefore
    /// this call — to finish.
    #[must_use]
    pub fn shutdown(mut self) -> ServeStats {
        self.stop.store(true, Ordering::SeqCst);
        for acceptor in self.acceptors.lock().expect("acceptors poisoned").drain(..) {
            let _ = acceptor.join();
        }
        for reader in self.readers.lock().expect("readers poisoned").drain(..) {
            let _ = reader.join();
        }
        // Every reader has exited, so no further admissions: flagging the
        // scheduler lets the pool drain the in-flight work and return.
        self.scheduler.request_stop();
        let (pool_workers, pool_cached_platforms) = self
            .executor
            .take()
            .expect("executor joined twice")
            .join()
            .expect("executor panicked");
        let shared = &self.shared;
        ServeStats {
            submissions: shared.submissions.load(Ordering::SeqCst),
            errors: shared.errors.load(Ordering::SeqCst),
            frames_rejected: shared.frames_rejected.load(Ordering::SeqCst),
            busy_shed: shared.busy_shed.load(Ordering::SeqCst),
            max_queue_depth: shared.max_queue_depth.load(Ordering::SeqCst),
            wall_micros: micros_since(self.started),
            samples: shared.samples.lock().expect("samples poisoned").clone(),
            pool_workers,
            pool_cached_platforms,
        }
    }
}

/// Saturating microseconds since `instant`.
fn micros_since(instant: Instant) -> u64 {
    u64::try_from(instant.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// One connection's reader loop: decode frames, admit submissions, exit on
/// hangup. Framing errors (a CRC mismatch, a torn frame) drop the
/// connection — the stream position is unrecoverable — and count toward
/// [`ServeStats::frames_rejected`]; an unknown-but-well-framed frame type
/// is counted and skipped.
fn client_loop(
    mut reader: Box<dyn Read + Send>,
    port: &Arc<ClientPort>,
    scheduler: &Scheduler,
    shared: &Arc<ServeShared>,
    max_pending: u64,
) {
    loop {
        match read_frame(&mut reader) {
            Ok(None) => break,
            Ok(Some((FT_SUBMIT, payload))) => {
                if !admit_submission(&payload, port, scheduler, shared, max_pending) {
                    break;
                }
            }
            Ok(Some((FT_CLOSE, _))) => break,
            Ok(Some((_, _))) => {
                shared.frames_rejected.fetch_add(1, Ordering::SeqCst);
            }
            Err(WireError::Malformed(_)) => {
                shared.frames_rejected.fetch_add(1, Ordering::SeqCst);
                break;
            }
            Err(WireError::Io(_)) => break,
        }
    }
}

/// Decodes and admits one submission payload. Returns `false` when the
/// connection should drop (an undecodable header).
fn admit_submission(
    payload: &[u8],
    port: &Arc<ClientPort>,
    scheduler: &Scheduler,
    shared: &Arc<ServeShared>,
    max_pending: u64,
) -> bool {
    let mut dec = Dec::new(payload);
    let header = (|| -> Result<(u64, u64, Vec<u8>), WireError> {
        let magic = dec.u32()?;
        if magic != SERVE_MAGIC {
            return Err(WireError::malformed(format!(
                "bad submit magic {magic:#010x}"
            )));
        }
        let version = dec.u16()?;
        if version != SERVE_VERSION {
            return Err(WireError::malformed(format!(
                "submit version {version} (this build speaks {SERVE_VERSION})"
            )));
        }
        let submit_id = dec.u64()?;
        let progress_every = dec.u64()?;
        let recipe_bytes = dec.bytes()?.to_vec();
        dec.finish()?;
        Ok((submit_id, progress_every, recipe_bytes))
    })();
    let (submit_id, progress_every, recipe_bytes) = match header {
        Ok(parts) => parts,
        Err(_) => {
            // Can't even name the submission: count and drop the client.
            shared.frames_rejected.fetch_add(1, Ordering::SeqCst);
            return false;
        }
    };
    // An undecodable recipe still names an addressable submission: it is
    // admitted like any other and fails in `Scheduler::admit`, with a
    // SweepError and a request sample, instead of killing the connection.
    let recipe = SweepRecipe::decode(&recipe_bytes).map_err(|error| SimError::InvalidConfig {
        reason: format!("undecodable sweep recipe: {error}"),
    });
    // Race-free admission bound: reserve a depth slot first, roll back if
    // it overflows the bound. Shed submissions execute nothing and retain
    // nothing — the client retries.
    let depth = shared.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
    if depth > max_pending {
        shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
        shared.busy_shed.fetch_add(1, Ordering::SeqCst);
        let _ = port.send(FT_BUSY, &encode_busy(submit_id, depth, max_pending));
        return true;
    }
    shared.max_queue_depth.fetch_max(depth, Ordering::SeqCst);
    shared.submissions.fetch_add(1, Ordering::SeqCst);
    let total_cells = recipe.as_ref().map_or(0, SweepRecipe::total_cells) as u64;
    let _ = port.send(FT_ACCEPTED, &encode_accepted(submit_id, total_cells, depth));
    scheduler.admit(
        Arc::clone(port),
        submit_id,
        recipe,
        progress_every,
        depth,
        Instant::now(),
        shared,
    );
    true
}

// ---------------------------------------------------------------------------
// Shared cost-aware scheduler
// ---------------------------------------------------------------------------

/// The accumulator type every served sweep folds into.
type CollectAcc = <CollectRuns as RunConsumer>::Acc;

/// The (type-erased) per-submission consumer: a [`ProgressTap`] over
/// [`CollectRuns`] whose publish closure owns the monotone progress gate
/// and the client port.
type SweepConsumer = Arc<dyn RunConsumer<Acc = CollectAcc> + Send + Sync>;

/// One contiguous-by-slot-order unit of work: an ascending flat-index run
/// plus its summed cell cost (the scheduler's fairness weight).
struct Lease {
    flats: Vec<usize>,
    cost: u128,
}

/// One slot (= one in-process fold worker) of an active submission: its
/// remaining leases in ascending order, whether a worker currently holds
/// its accumulator, and the slot's first error if it hit one.
struct SlotQueue {
    leases: VecDeque<Lease>,
    busy: bool,
    error: Option<(usize, SimError)>,
}

/// A submission being executed by the shared pool. The `fold` holds one
/// accumulator per slot — workers check accumulators out at lease
/// boundaries and restore them, and the slot-order merge at completion
/// reproduces the in-process fold's merge exactly.
struct ActiveSweep {
    seq: u64,
    submit_id: u64,
    port: Arc<ClientPort>,
    sets: Arc<Vec<ScenarioSet>>,
    consumer: SweepConsumer,
    fold: IncrementalFold<CollectAcc>,
    slots: Vec<SlotQueue>,
    /// Total cell cost of leases handed to workers so far — the fairness
    /// currency: a free worker serves the active submission with the
    /// least cost served.
    served_cost: u128,
    queued_micros: Option<u64>,
    queue_depth: u64,
    total_cells: u64,
    accepted: Instant,
}

/// What a worker carries out of the scheduler lock to execute one lease.
struct WorkItem {
    seq: u64,
    sets: Arc<Vec<ScenarioSet>>,
    consumer: SweepConsumer,
    slot: usize,
    flats: Vec<usize>,
    acc: CollectAcc,
}

struct SchedState {
    active: Vec<ActiveSweep>,
    stop: bool,
}

/// The shared cost-aware scheduler: reader threads [`Scheduler::admit`]
/// planned submissions, pool workers pull leases with
/// [`Scheduler::next_lease`] and return accumulators with
/// [`Scheduler::complete_lease`]. All policy lives here; all simulation
/// happens outside the lock.
struct Scheduler {
    state: Mutex<SchedState>,
    cvar: Condvar,
    /// Worker-thread count — also the `threads` argument of the slot
    /// plan, so the partition matches the in-process fold's.
    workers: usize,
    next_seq: AtomicU64,
}

impl Scheduler {
    fn new(workers: usize) -> Self {
        Self {
            state: Mutex::new(SchedState {
                active: Vec::new(),
                stop: false,
            }),
            cvar: Condvar::new(),
            workers,
            next_seq: AtomicU64::new(0),
        }
    }

    /// Builds and plans one admitted submission, then publishes it to the
    /// worker pool. Runs on the reader thread, so recipe builds for
    /// concurrent clients overlap with execution. Degenerate submissions
    /// (undecodable or unbuildable recipe, zero cells) complete right here.
    #[allow(clippy::too_many_arguments)]
    fn admit(
        &self,
        port: Arc<ClientPort>,
        submit_id: u64,
        recipe: Result<SweepRecipe, SimError>,
        progress_every: u64,
        queue_depth: u64,
        accepted: Instant,
        shared: &ServeShared,
    ) {
        // Runs before the terminal frame is sent, so a client that
        // retries on seeing it can never bounce off its own completed
        // submission still holding a depth slot.
        let finish_now = |ok: bool, cells: u64| {
            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            let total_micros = micros_since(accepted);
            shared.push_sample(RequestSample {
                cells,
                queue_depth,
                queued_micros: 0,
                exec_micros: total_micros,
                total_micros,
                ok,
            });
        };
        let cells = recipe.as_ref().map_or(0, SweepRecipe::total_cells) as u64;
        let (sets, sharding) =
            match recipe.and_then(|recipe| Ok((recipe.build()?, recipe.sharding))) {
                Ok(built) => built,
                Err(error) => {
                    shared.errors.fetch_add(1, Ordering::SeqCst);
                    finish_now(false, cells);
                    let _ = port.send(FT_SWEEP_ERROR, &encode_sweep_error(submit_id, &error));
                    return;
                }
            };
        let sets = Arc::new(sets);
        let sweep = sweep_from_sets(&sets);
        let total = sweep.cells();
        if total == 0 {
            finish_now(true, 0);
            let _ = port.send(FT_SWEEP_DONE, &encode_sweep_done(submit_id, 0, 0, 0));
            return;
        }

        // The same partition the in-process fold at `workers` threads
        // computes, each slot cut into cost-quantile leases.
        let costs = sweep.cell_costs();
        let slots: Vec<SlotQueue> = sweep
            .slot_indices(self.workers, sharding)
            .into_iter()
            .map(|list| {
                let leases = if list.is_empty() {
                    VecDeque::new()
                } else {
                    let chunks = list.len().div_ceil(LEASE_CELLS);
                    exec::cost_quantile_chunks(&list, |flat| costs[flat], chunks)
                        .into_iter()
                        .map(|flats| {
                            let cost = flats.iter().map(|&f| u128::from(costs[f].max(1))).sum();
                            Lease { flats, cost }
                        })
                        .collect()
                };
                SlotQueue {
                    leases,
                    busy: false,
                    error: None,
                }
            })
            .collect();

        // &'static inner consumer so the tap (and the type-erased Arc)
        // can outlive this stack frame; the gate keeps delivered progress
        // values strictly increasing across racing workers.
        static COLLECT: CollectRuns = CollectRuns;
        let gate = Mutex::new(0u64);
        let progress_port = Arc::clone(&port);
        let tap = ProgressTap::new(&COLLECT, progress_every, total as u64, move |done, of| {
            let mut last = gate.lock().expect("progress gate poisoned");
            if done > *last {
                *last = done;
                let _ = progress_port.send(FT_PROGRESS, &encode_progress(submit_id, done, of));
            }
        });
        let consumer: SweepConsumer = Arc::new(tap);
        let fold = IncrementalFold::new(slots.len(), || consumer.accumulator());
        let entry = ActiveSweep {
            seq: self.next_seq.fetch_add(1, Ordering::SeqCst),
            submit_id,
            port,
            sets,
            consumer,
            fold,
            slots,
            served_cost: 0,
            queued_micros: None,
            queue_depth,
            total_cells: total as u64,
            accepted,
        };
        self.state
            .lock()
            .expect("scheduler poisoned")
            .active
            .push(entry);
        self.cvar.notify_all();
    }

    /// Blocks until a lease is runnable (returning the checked-out work)
    /// or the service is stopping with nothing left (returning `None`,
    /// the worker's exit signal).
    fn next_lease(&self) -> Option<WorkItem> {
        let mut state = self.state.lock().expect("scheduler poisoned");
        loop {
            if let Some(item) = Self::try_pick(&mut state) {
                return Some(item);
            }
            if state.stop && state.active.is_empty() {
                return None;
            }
            state = self.cvar.wait(state).expect("scheduler poisoned");
        }
    }

    /// The interleave policy: serve the runnable submission with the
    /// least cost served so far (ties to the earliest admitted), taking
    /// its first free slot's next lease. Cost-fair sharing means a small
    /// sweep overtakes a big one's backlog — the big sweep's own leases
    /// keep flowing on the remaining workers.
    fn try_pick(state: &mut SchedState) -> Option<WorkItem> {
        let runnable = |entry: &ActiveSweep| {
            entry
                .slots
                .iter()
                .any(|slot| !slot.busy && !slot.leases.is_empty())
        };
        let index = state
            .active
            .iter()
            .enumerate()
            .filter(|(_, entry)| runnable(entry))
            .min_by_key(|(_, entry)| (entry.served_cost, entry.seq))
            .map(|(index, _)| index)?;
        let entry = &mut state.active[index];
        let slot = entry
            .slots
            .iter()
            .position(|slot| !slot.busy && !slot.leases.is_empty())
            .expect("runnable submission lost its lease");
        let lease = entry.slots[slot]
            .leases
            .pop_front()
            .expect("lease vanished");
        entry.slots[slot].busy = true;
        entry.served_cost += lease.cost;
        if entry.queued_micros.is_none() {
            entry.queued_micros = Some(micros_since(entry.accepted));
        }
        let acc = entry.fold.checkout(slot, lease.flats[0]);
        Some(WorkItem {
            seq: entry.seq,
            sets: Arc::clone(&entry.sets),
            consumer: Arc::clone(&entry.consumer),
            slot,
            flats: lease.flats,
            acc,
        })
    }

    /// Returns a lease's accumulator. A lease error poisons its slot the
    /// way the in-process fold does: the slot's remaining leases are
    /// dropped (its worker would skip them), other slots run to
    /// completion, and the earliest flat-index error wins at finalize.
    /// When this lease was the submission's last, the finished
    /// [`ActiveSweep`] is handed back for finalizing outside the lock.
    fn complete_lease(
        &self,
        seq: u64,
        slot: usize,
        flats: &[usize],
        acc: CollectAcc,
        error: Option<CellError>,
    ) -> Option<ActiveSweep> {
        let mut state = self.state.lock().expect("scheduler poisoned");
        let index = state
            .active
            .iter()
            .position(|entry| entry.seq == seq)
            .expect("completed lease for unknown submission");
        let entry = &mut state.active[index];
        let next = flats.last().copied().unwrap_or(0) + 1;
        entry.fold.restore(slot, acc, next);
        entry.slots[slot].busy = false;
        if let Some(cell_error) = error {
            entry.slots[slot].error = Some((cell_error.flat, cell_error.error));
            entry.slots[slot].leases.clear();
        }
        let done = entry
            .slots
            .iter()
            .all(|slot| !slot.busy && slot.leases.is_empty());
        let finished = done.then(|| state.active.remove(index));
        drop(state);
        // Wake waiters either way: the freed slot may make this
        // submission runnable again, and a removal may complete a drain.
        self.cvar.notify_all();
        finished
    }

    /// Flags shutdown: workers exit once every active submission drains.
    fn request_stop(&self) {
        self.state.lock().expect("scheduler poisoned").stop = true;
        self.cvar.notify_all();
    }
}

/// The shared-pool supervisor: owns the warm [`SessionPool`], runs one
/// worker loop per pool session until the scheduler drains, and reports
/// the pool's final `(workers, cached_platforms)` for shutdown's
/// boundedness assertions. Sessions cache simulators by platform-config
/// equality, so submissions pinning the same platform share warm
/// simulators across submissions — per-submission pools would rebuild
/// them every time.
fn shared_executor(
    scheduler: &Arc<Scheduler>,
    workers: usize,
    shared: &Arc<ServeShared>,
) -> (usize, usize) {
    let mut pool = SessionPool::new();
    std::thread::scope(|scope| {
        for session in pool.worker_sessions(workers) {
            scope.spawn(|| worker_loop(scheduler, session, shared));
        }
    });
    (pool.workers(), pool.cached_platforms())
}

/// One pool worker: pull a lease, fold its cells on this session, return
/// the accumulator; finalize the submission when its last lease lands.
fn worker_loop(scheduler: &Scheduler, session: &mut SimSession, shared: &ServeShared) {
    while let Some(work) = scheduler.next_lease() {
        // Rebuilding the borrow-only SweepSet per lease is a few pointer
        // pushes; the scenario data lives in the shared Arc.
        let sweep = sweep_from_sets(&work.sets);
        let mut acc = work.acc;
        let error = sweep
            .fold_flat_slice(session, &work.flats, work.consumer.as_ref(), &mut acc)
            .err();
        if let Some(entry) = scheduler.complete_lease(work.seq, work.slot, &work.flats, acc, error)
        {
            finalize_submission(entry, shared);
        }
    }
}

/// Streams a finished submission's result frames and records its sample —
/// outside the scheduler lock, so a slow client never stalls the pool.
fn finalize_submission(entry: ActiveSweep, shared: &ServeShared) {
    let ActiveSweep {
        submit_id,
        port,
        consumer,
        fold,
        slots,
        queued_micros,
        queue_depth,
        total_cells,
        accepted,
        ..
    } = entry;
    let queued_micros = queued_micros.unwrap_or(0);
    let error = slots
        .into_iter()
        .filter_map(|slot| slot.error)
        .min_by_key(|(flat, _)| *flat);
    let ok = error.is_none();
    // All leases have retired: release the depth slot *before* the
    // terminal frame goes out, so a client that retries on seeing
    // `SweepDone` can never bounce off its own completed submission.
    shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
    match error {
        None => {
            let acc = fold.finish(|into, from| consumer.merge(into, from));
            let records = CollectRuns::into_flat_records(acc);
            let cells = records.len() as u64;
            for (flat, record) in &records {
                let _ = port.send(FT_CELL, &encode_cell(submit_id, *flat, record));
            }
            let exec_micros = micros_since(accepted).saturating_sub(queued_micros);
            let _ = port.send(
                FT_SWEEP_DONE,
                &encode_sweep_done(submit_id, cells, queued_micros, exec_micros),
            );
        }
        Some((_, error)) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            let _ = port.send(FT_SWEEP_ERROR, &encode_sweep_error(submit_id, &error));
        }
    }
    let total_micros = micros_since(accepted);
    shared.push_sample(RequestSample {
        cells: total_cells,
        queue_depth,
        queued_micros,
        exec_micros: total_micros.saturating_sub(queued_micros),
        total_micros,
        ok,
    });
}

// ---------------------------------------------------------------------------
// Frame payload codecs
// ---------------------------------------------------------------------------

/// Encodes a [`FT_SUBMIT`] payload.
#[must_use]
pub fn encode_submit(submit_id: u64, progress_every: u64, recipe: &SweepRecipe) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u32(SERVE_MAGIC);
    enc.put_u16(SERVE_VERSION);
    enc.put_u64(submit_id);
    enc.put_u64(progress_every);
    enc.put_bytes(&recipe.encode());
    enc.into_bytes()
}

fn encode_accepted(submit_id: u64, total_cells: u64, queue_depth: u64) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(submit_id);
    enc.put_u64(total_cells);
    enc.put_u64(queue_depth);
    enc.into_bytes()
}

fn encode_progress(submit_id: u64, done: u64, total: u64) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(submit_id);
    enc.put_u64(done);
    enc.put_u64(total);
    enc.into_bytes()
}

fn encode_cell(submit_id: u64, flat: usize, record: &RunRecord) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(submit_id);
    enc.put_usize(flat);
    put_record(&mut enc, record);
    enc.into_bytes()
}

fn encode_sweep_done(submit_id: u64, cells: u64, queued_micros: u64, exec_micros: u64) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(submit_id);
    enc.put_u64(cells);
    enc.put_u64(queued_micros);
    enc.put_u64(exec_micros);
    enc.into_bytes()
}

fn encode_sweep_error(submit_id: u64, error: &SimError) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(submit_id);
    put_sim_error(&mut enc, error);
    enc.into_bytes()
}

fn encode_busy(submit_id: u64, queue_depth: u64, max_pending: u64) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.put_u64(submit_id);
    enc.put_u64(queue_depth);
    enc.put_u64(max_pending);
    enc.into_bytes()
}

/// One server→client frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// Submission admitted.
    Accepted {
        /// Client-chosen submission id.
        submit_id: u64,
        /// Cells the sweep will run.
        total_cells: u64,
        /// Executor queue depth at admission (this submission included).
        queue_depth: u64,
    },
    /// Progress snapshot; `done` is strictly increasing per submission.
    Progress {
        /// Client-chosen submission id.
        submit_id: u64,
        /// Cells folded so far.
        done: u64,
        /// Total cells in the sweep.
        total: u64,
    },
    /// One result record, streamed in ascending flat-cell order.
    Cell {
        /// Client-chosen submission id.
        submit_id: u64,
        /// Flat cell index within the sweep.
        flat: usize,
        /// The cell's run record, bit-identical to in-process execution.
        record: Box<RunRecord>,
    },
    /// Submission completed.
    SweepDone {
        /// Client-chosen submission id.
        submit_id: u64,
        /// Records streamed.
        cells: u64,
        /// Microseconds queued before execution.
        queued_micros: u64,
        /// Microseconds executing.
        exec_micros: u64,
    },
    /// Submission failed.
    SweepError {
        /// Client-chosen submission id.
        submit_id: u64,
        /// The failure, round-tripped through the wire codec.
        error: SimError,
    },
    /// Submission shed at admission: the service is at its
    /// pending-submission bound. Nothing was executed — retry later.
    Busy {
        /// Client-chosen submission id.
        submit_id: u64,
        /// Pending depth the submission would have pushed the service to.
        queue_depth: u64,
        /// The configured bound it exceeded.
        max_pending: u64,
    },
}

/// Decodes one server→client frame.
///
/// # Errors
///
/// [`WireError::Malformed`] on an unknown frame type or a payload that does
/// not parse as that type's layout.
pub fn decode_event(frame_type: u8, payload: &[u8]) -> Result<ServeEvent, WireError> {
    let mut dec = Dec::new(payload);
    let event = match frame_type {
        FT_ACCEPTED => ServeEvent::Accepted {
            submit_id: dec.u64()?,
            total_cells: dec.u64()?,
            queue_depth: dec.u64()?,
        },
        FT_PROGRESS => ServeEvent::Progress {
            submit_id: dec.u64()?,
            done: dec.u64()?,
            total: dec.u64()?,
        },
        FT_CELL => ServeEvent::Cell {
            submit_id: dec.u64()?,
            flat: dec.usize()?,
            record: Box::new(get_record(&mut dec)?),
        },
        FT_SWEEP_DONE => ServeEvent::SweepDone {
            submit_id: dec.u64()?,
            cells: dec.u64()?,
            queued_micros: dec.u64()?,
            exec_micros: dec.u64()?,
        },
        FT_SWEEP_ERROR => ServeEvent::SweepError {
            submit_id: dec.u64()?,
            error: get_sim_error(&mut dec)?,
        },
        FT_BUSY => ServeEvent::Busy {
            submit_id: dec.u64()?,
            queue_depth: dec.u64()?,
            max_pending: dec.u64()?,
        },
        other => return Err(WireError::malformed(format!("server frame type {other}"))),
    };
    dec.finish()?;
    Ok(event)
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A shed submission's details, from the server's [`FT_BUSY`] frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyShed {
    /// Pending depth the submission would have pushed the service to.
    pub queue_depth: u64,
    /// The configured [`ServeOptions::max_pending`] bound it exceeded.
    pub max_pending: u64,
}

/// Why a submission produced no records: shed at admission (retryable —
/// the server executed nothing) or failed mid-sweep (not retryable — the
/// recipe itself produces this error).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Shed at admission by the pending-submission bound.
    Busy(BusyShed),
    /// The sweep failed (undecodable/unbuildable recipe, simulator error).
    Sweep(SimError),
}

impl ServeError {
    /// Whether resubmitting the identical recipe can succeed: true for
    /// [`ServeError::Busy`] (load-dependent), false for
    /// [`ServeError::Sweep`] (deterministic).
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, ServeError::Busy(_))
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Busy(busy) => write!(
                f,
                "service busy: {} pending submissions at the max_pending={} bound (retryable)",
                busy.queue_depth, busy.max_pending
            ),
            ServeError::Sweep(error) => write!(f, "sweep failed: {error}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything a client saw for one finished submission.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// `(flat, record)` pairs in arrival order — ascending flat order on
    /// the healthy path, byte-identical to
    /// [`CollectRuns::into_flat_records`] of an in-process fold.
    pub records: Vec<(usize, RunRecord)>,
    /// `(done, total)` progress snapshots in arrival order.
    pub progress: Vec<(u64, u64)>,
    /// Queue depth reported by the `Accepted` frame.
    pub queue_depth: u64,
    /// Total cells reported by the `Accepted` frame.
    pub total_cells: u64,
    /// Microseconds queued, from `SweepDone`.
    pub queued_micros: u64,
    /// Microseconds executing, from `SweepDone`.
    pub exec_micros: u64,
    /// The failure, if the submission ended in `SweepError`.
    pub error: Option<SimError>,
    /// Set when the submission was shed at admission (a `Busy` frame).
    pub busy: Option<BusyShed>,
    /// Whether `SweepDone`/`SweepError`/`Busy` arrived.
    pub finished: bool,
}

impl SweepOutcome {
    /// The outcome as a typed result: the records on success, a
    /// [`ServeError`] (with [`ServeError::is_retryable`]) otherwise.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] when the submission was shed at admission,
    /// [`ServeError::Sweep`] when it failed mid-sweep.
    pub fn result(&self) -> Result<&[(usize, RunRecord)], ServeError> {
        if let Some(busy) = self.busy {
            return Err(ServeError::Busy(busy));
        }
        if let Some(error) = &self.error {
            return Err(ServeError::Sweep(error.clone()));
        }
        Ok(&self.records)
    }
}

/// A client connection to a [`SweepService`]: submit recipes, read events.
pub struct ServeClient {
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    next_submit_id: u64,
}

impl std::fmt::Debug for ServeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeClient")
            .field("next_submit_id", &self.next_submit_id)
            .finish_non_exhaustive()
    }
}

impl ServeClient {
    /// A client over arbitrary stream halves (an in-memory duplex end, a
    /// socket pair, …).
    #[must_use]
    pub fn new(reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> Self {
        Self {
            reader,
            writer,
            next_submit_id: 1,
        }
    }

    /// Dials a TCP service (with the crate's bounded connect backoff).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Self> {
        let stream = crate::net::connect_with_backoff(addr)?;
        let write_half = stream.try_clone()?;
        Ok(Self::new(Box::new(stream), Box::new(write_half)))
    }

    /// Submits a sweep, returning the submission id to match events
    /// against. `progress_every` ≥ 1 requests a progress snapshot every
    /// that many cells (plus a final one); 0 requests only the final one.
    ///
    /// # Errors
    ///
    /// Propagates transport failures.
    pub fn submit(&mut self, recipe: &SweepRecipe, progress_every: u64) -> Result<u64, WireError> {
        let submit_id = self.next_submit_id;
        self.next_submit_id += 1;
        write_frame(
            &mut self.writer,
            FT_SUBMIT,
            &encode_submit(submit_id, progress_every, recipe),
        )?;
        Ok(submit_id)
    }

    /// Reads the next server event; `None` on a clean server hangup.
    ///
    /// # Errors
    ///
    /// Propagates transport failures and malformed frames.
    pub fn recv(&mut self) -> Result<Option<ServeEvent>, WireError> {
        match read_frame(&mut self.reader)? {
            None => Ok(None),
            Some((frame_type, payload)) => decode_event(frame_type, &payload).map(Some),
        }
    }

    /// Reads events until every submission in `ids` has finished, folding
    /// frames into per-submission [`SweepOutcome`]s. Events for ids not in
    /// the set are folded too (and returned), so interleaved clients can
    /// collect everything in one call.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; errors if the server hangs up before
    /// every requested id finishes.
    pub fn collect(&mut self, ids: &[u64]) -> Result<BTreeMap<u64, SweepOutcome>, WireError> {
        let mut outcomes: BTreeMap<u64, SweepOutcome> = BTreeMap::new();
        let finished = |outcomes: &BTreeMap<u64, SweepOutcome>| {
            ids.iter()
                .all(|id| outcomes.get(id).is_some_and(|o| o.finished))
        };
        while !finished(&outcomes) {
            let event = self.recv()?.ok_or_else(|| {
                WireError::malformed("server hung up before every submission finished")
            })?;
            match event {
                ServeEvent::Accepted {
                    submit_id,
                    total_cells,
                    queue_depth,
                } => {
                    let o = outcomes.entry(submit_id).or_default();
                    o.total_cells = total_cells;
                    o.queue_depth = queue_depth;
                }
                ServeEvent::Progress {
                    submit_id,
                    done,
                    total,
                    ..
                } => outcomes
                    .entry(submit_id)
                    .or_default()
                    .progress
                    .push((done, total)),
                ServeEvent::Cell {
                    submit_id,
                    flat,
                    record,
                } => outcomes
                    .entry(submit_id)
                    .or_default()
                    .records
                    .push((flat, *record)),
                ServeEvent::SweepDone {
                    submit_id,
                    queued_micros,
                    exec_micros,
                    ..
                } => {
                    let o = outcomes.entry(submit_id).or_default();
                    o.queued_micros = queued_micros;
                    o.exec_micros = exec_micros;
                    o.finished = true;
                }
                ServeEvent::SweepError { submit_id, error } => {
                    let o = outcomes.entry(submit_id).or_default();
                    o.error = Some(error);
                    o.finished = true;
                }
                ServeEvent::Busy {
                    submit_id,
                    queue_depth,
                    max_pending,
                } => {
                    let o = outcomes.entry(submit_id).or_default();
                    o.busy = Some(BusyShed {
                        queue_depth,
                        max_pending,
                    });
                    o.finished = true;
                }
            }
        }
        Ok(outcomes)
    }

    /// Submits one sweep and blocks until it finishes.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; a sweep-level failure arrives as
    /// [`SweepOutcome::error`], not an `Err`.
    pub fn run_sweep(
        &mut self,
        recipe: &SweepRecipe,
        progress_every: u64,
    ) -> Result<SweepOutcome, WireError> {
        let id = self.submit(recipe, progress_every)?;
        let mut outcomes = self.collect(&[id])?;
        Ok(outcomes.remove(&id).unwrap_or_default())
    }

    /// Sends an orderly close. Dropping the client without calling this is
    /// equivalent (the reader thread sees EOF).
    pub fn close(mut self) {
        let _ = write_frame(&mut self.writer, FT_CLOSE, &[]);
    }
}

// ---------------------------------------------------------------------------
// Load metrics
// ---------------------------------------------------------------------------

/// Everything the service measured over its lifetime, returned by
/// [`SweepService::shutdown`].
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Submissions admitted (including undecodable-recipe rejections).
    pub submissions: u64,
    /// Submissions that ended in `SweepError`.
    pub errors: u64,
    /// Frames dropped for framing/protocol reasons (CRC mismatch, unknown
    /// type, bad submit header). Zero on the healthy path.
    pub frames_rejected: u64,
    /// Submissions shed at admission by the [`ServeOptions::max_pending`]
    /// bound (these do not count as `submissions` or `errors`). Zero on a
    /// healthy run.
    pub busy_shed: u64,
    /// Deepest pending-submission depth observed at any admission.
    pub max_queue_depth: u64,
    /// Service lifetime, start to shutdown.
    pub wall_micros: u64,
    /// Per-request life cycles, in completion order.
    pub samples: Vec<RequestSample>,
    /// Pool worker sessions at shutdown — bounded by the configured
    /// worker count, never per-request.
    pub pool_workers: usize,
    /// Cached `(worker, platform)` simulators at shutdown.
    pub pool_cached_platforms: usize,
}

impl ServeStats {
    /// Reduces the samples to a [`StressMetrics`] summary.
    #[must_use]
    pub fn metrics(&self) -> StressMetrics {
        StressMetrics::from_samples(&self.samples, self.wall_micros)
    }
}

/// The llamaburn-style load summary: throughput, latency percentiles,
/// error rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StressMetrics {
    /// Requests measured.
    pub requests: u64,
    /// Requests that failed.
    pub errors: u64,
    /// Completed requests per second of service wall time.
    pub requests_per_sec: f64,
    /// Cells folded per second of service wall time.
    pub cells_per_sec: f64,
    /// Median request latency (admission→completion), milliseconds.
    pub p50_latency_ms: f64,
    /// 95th-percentile request latency, milliseconds.
    pub p95_latency_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub p99_latency_ms: f64,
    /// 99.9th-percentile request latency, milliseconds.
    pub p999_latency_ms: f64,
    /// Fraction of requests admitted while at least one other submission
    /// was already pending or executing (0..=1) — contention sampled **at
    /// admission**, so an idle service between bursts reads 0 even when
    /// pickup bookkeeping lags.
    pub queue_share: f64,
    /// `errors / requests` (0 when no requests).
    pub error_rate: f64,
}

impl StressMetrics {
    /// Reduces request samples over a `wall_micros` observation window.
    /// Percentiles are nearest-rank over total latency, so
    /// p50 ≤ p95 ≤ p99 ≤ p999 by construction.
    #[must_use]
    pub fn from_samples(samples: &[RequestSample], wall_micros: u64) -> Self {
        let requests = samples.len() as u64;
        let errors = samples.iter().filter(|s| !s.ok).count() as u64;
        let wall_secs = (wall_micros.max(1) as f64) / 1e6;
        let cells: u64 = samples.iter().map(|s| s.cells).sum();
        let mut latencies: Vec<u64> = samples.iter().map(|s| s.total_micros).collect();
        latencies.sort_unstable();
        let percentile = |q: f64| -> f64 {
            if latencies.is_empty() {
                return 0.0;
            }
            let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
            latencies[rank - 1] as f64 / 1e3
        };
        let contended = samples.iter().filter(|s| s.queue_depth > 1).count() as u64;
        Self {
            requests,
            errors,
            requests_per_sec: requests as f64 / wall_secs,
            cells_per_sec: cells as f64 / wall_secs,
            p50_latency_ms: percentile(0.50),
            p95_latency_ms: percentile(0.95),
            p99_latency_ms: percentile(0.99),
            p999_latency_ms: percentile(0.999),
            queue_share: if requests == 0 {
                0.0
            } else {
                contended as f64 / requests as f64
            },
            error_rate: if requests == 0 {
                0.0
            } else {
                errors as f64 / requests as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(total_micros: u64, ok: bool) -> RequestSample {
        RequestSample {
            cells: 4,
            queue_depth: 1,
            queued_micros: total_micros / 4,
            exec_micros: total_micros - total_micros / 4,
            total_micros,
            ok,
        }
    }

    #[test]
    fn stress_metrics_percentiles_are_monotone_and_rates_positive() {
        let samples: Vec<RequestSample> = (1..=100).map(|i| sample(i * 1000, true)).collect();
        let metrics = StressMetrics::from_samples(&samples, 2_000_000);
        assert_eq!(metrics.requests, 100);
        assert_eq!(metrics.errors, 0);
        assert!((metrics.requests_per_sec - 50.0).abs() < 1e-9);
        assert!(metrics.cells_per_sec > 0.0);
        // Nearest-rank over 1..=100 ms: exact percentile values.
        assert!((metrics.p50_latency_ms - 50.0).abs() < 1e-9);
        assert!((metrics.p95_latency_ms - 95.0).abs() < 1e-9);
        assert!((metrics.p99_latency_ms - 99.0).abs() < 1e-9);
        assert!((metrics.p999_latency_ms - 100.0).abs() < 1e-9);
        assert!(metrics.p50_latency_ms <= metrics.p95_latency_ms);
        assert!(metrics.p95_latency_ms <= metrics.p99_latency_ms);
        assert!(metrics.p99_latency_ms <= metrics.p999_latency_ms);
        assert_eq!(metrics.error_rate, 0.0);
    }

    #[test]
    fn stress_metrics_empty_samples_are_all_zeros() {
        let metrics = StressMetrics::from_samples(&[], 1_000_000);
        assert_eq!(metrics.requests, 0);
        assert_eq!(metrics.p999_latency_ms, 0.0);
        assert_eq!(metrics.error_rate, 0.0);
    }

    #[test]
    fn queue_share_reflects_admission_contention_not_pickup_wait() {
        // Regression: every sample waited in the queue (queued_micros > 0)
        // but was admitted to an otherwise idle service (depth 1) — the
        // old pickup-time accounting called this 0.77 contention; admission
        // depth calls it what it is: zero.
        let idle: Vec<RequestSample> = (0..9).map(|_| sample(8000, true)).collect();
        assert!(idle.iter().all(|s| s.queued_micros > 0));
        let metrics = StressMetrics::from_samples(&idle, 1_000_000);
        assert_eq!(metrics.queue_share, 0.0);

        // A third of the admissions saw another submission in flight.
        let mut mixed = idle;
        for s in mixed.iter_mut().take(3) {
            s.queue_depth = 2;
        }
        let metrics = StressMetrics::from_samples(&mixed, 1_000_000);
        assert!((metrics.queue_share - 3.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn submit_payload_round_trips_through_the_admission_decoder() {
        let recipe = SweepRecipe::fig10(&[4.5]);
        let payload = encode_submit(7, 16, &recipe);
        let mut dec = Dec::new(&payload);
        assert_eq!(dec.u32().unwrap(), SERVE_MAGIC);
        assert_eq!(dec.u16().unwrap(), SERVE_VERSION);
        assert_eq!(dec.u64().unwrap(), 7);
        assert_eq!(dec.u64().unwrap(), 16);
        let decoded = SweepRecipe::decode(dec.bytes().unwrap()).unwrap();
        assert_eq!(decoded.members.len(), recipe.members.len());
        dec.finish().unwrap();
    }

    #[test]
    fn server_event_payloads_round_trip() {
        let accepted = decode_event(FT_ACCEPTED, &encode_accepted(3, 24, 2)).unwrap();
        assert_eq!(
            accepted,
            ServeEvent::Accepted {
                submit_id: 3,
                total_cells: 24,
                queue_depth: 2
            }
        );
        let progress = decode_event(FT_PROGRESS, &encode_progress(3, 8, 24)).unwrap();
        assert_eq!(
            progress,
            ServeEvent::Progress {
                submit_id: 3,
                done: 8,
                total: 24
            }
        );
        let done = decode_event(FT_SWEEP_DONE, &encode_sweep_done(3, 24, 10, 90)).unwrap();
        assert_eq!(
            done,
            ServeEvent::SweepDone {
                submit_id: 3,
                cells: 24,
                queued_micros: 10,
                exec_micros: 90
            }
        );
        let error = SimError::InvalidConfig {
            reason: "nope".to_string(),
        };
        let decoded = decode_event(FT_SWEEP_ERROR, &encode_sweep_error(3, &error)).unwrap();
        assert_eq!(
            decoded,
            ServeEvent::SweepError {
                submit_id: 3,
                error
            }
        );
        assert!(decode_event(0x55, &[]).is_err(), "unknown frame type");
        let busy = decode_event(FT_BUSY, &encode_busy(9, 5, 4)).unwrap();
        assert_eq!(
            busy,
            ServeEvent::Busy {
                submit_id: 9,
                queue_depth: 5,
                max_pending: 4
            }
        );
    }

    #[test]
    fn busy_outcomes_surface_as_typed_retryable_errors() {
        let outcome = SweepOutcome {
            busy: Some(BusyShed {
                queue_depth: 5,
                max_pending: 4,
            }),
            finished: true,
            ..SweepOutcome::default()
        };
        let error = outcome.result().unwrap_err();
        assert!(error.is_retryable());
        assert!(matches!(error, ServeError::Busy(b) if b.max_pending == 4));

        let failed = SweepOutcome {
            error: Some(SimError::InvalidConfig {
                reason: "nope".to_string(),
            }),
            finished: true,
            ..SweepOutcome::default()
        };
        assert!(!failed.result().unwrap_err().is_retryable());

        let healthy = SweepOutcome::default();
        assert!(healthy.result().is_ok());
    }
}
