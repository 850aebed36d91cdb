//! Multi-process distributed sweep executor.
//!
//! Scales SysScale sweeps past one OS process while keeping the repo's
//! core determinism contract: [`run_distributed`] at **any** process count
//! is bit-identical to the in-process
//! [`sysscale::SweepSet::run_parallel_fold`] on the same sweep — including
//! when a worker process is killed mid-run and its leases are replayed.
//!
//! The subsystem has four layers, bottom up:
//!
//! - [`wire`]: hand-rolled length-prefixed binary framing and scalar
//!   codecs (`f64`s travel as bit patterns — the offline container has no
//!   serde, and bit-exactness is a feature, not a workaround).
//! - [`codec`]: [`sysscale::RunRecord`] ↔ bytes, `PartialEq`-identical
//!   across the boundary.
//! - [`recipe`]: *replayable sweep recipes* — a [`recipe::SweepRecipe`]
//!   names platforms, workloads (including seeded generator populations),
//!   and governors instead of carrying built objects, so a few hundred
//!   bytes regenerate byte-identical scenarios in every worker process.
//!   Platform fingerprints are pinned at encode time to catch
//!   dispatcher/worker binary drift.
//! - [`proto`] / [`dispatcher`] / [`worker`]: the lease protocol. The
//!   dispatcher cuts each virtual worker slot's shard (the same
//!   [`sysscale::SweepSet::slot_indices`] partition the in-process fold
//!   core and the sweep service use) into ascending cost-sized **leases**
//!   ([`sysscale::types::exec::cost_quantile_chunks`]), streams them to
//!   one worker process per slot over its stdin/stdout pipes (the opening
//!   `Job` frame is the worker's whole configuration), folds the
//!   streamed-back results per lease, and merges lease accumulators in plan
//!   order — the exact
//!   partition the in-process merge uses. A lease only retires on its
//!   `LeaseDone` frame; when a worker dies mid-lease the partial
//!   accumulators are discarded and exactly the unfinished leases are
//!   re-issued to a fresh process on the same slot.
//!
//! On top of the lease protocol sit three robustness layers (all of them
//! deterministic, all serde-free):
//!
//! - [`journal`]: a checkpoint journal of completed leases
//!   ([`DistOptions::journal`]) — a killed dispatcher restarted with the
//!   same recipe replays finished leases from disk and re-executes only the
//!   remainder, byte-identical to an uninterrupted run.
//! - **quarantine** ([`run_distributed_partial`]): explicit partial-result
//!   mode, where a poisoned cell (clean failure, or a cell that kills its
//!   worker [`dispatcher::MAX_LEASE_EXECUTIONS`] times and is isolated by
//!   lease bisection) lands in a [`FailedCells`] manifest and the sweep
//!   completes around it.
//! - [`fault`]: a seeded wire-fault injector
//!   ([`DistOptions::fault_plan`]) that corrupts, truncates, duplicates, or
//!   delays chosen frames so CI can prove every corruption mode ends in a
//!   clean CRC rejection + replay or idempotent absorption — never a hang,
//!   panic, or silently wrong result. [`net`] adds per-run transient-I/O
//!   retry counting under it all, and the bounded deterministic connect
//!   backoff the sweep service's TCP clients dial with.
//!
//! ```no_run
//! use sysscale_dist::{run_distributed, DistOptions, SweepRecipe};
//!
//! let recipe = SweepRecipe::fig10(&[3.5, 4.5, 6.0]);
//! let (run_sets, stats) = run_distributed(&recipe, &DistOptions::default())?;
//! assert_eq!(run_sets.len(), recipe.members.len());
//! assert_eq!(stats.reissued_leases, 0);
//! # Ok::<(), sysscale::types::SimError>(())
//! ```

pub mod codec;
pub mod dispatcher;
pub mod fault;
pub mod journal;
pub mod net;
pub mod proto;
pub mod recipe;
pub mod serve;
pub mod wire;
pub mod worker;

pub use dispatcher::{
    run_distributed, run_distributed_fold, run_distributed_partial, DistOptions, DistStats,
    FailedCell, FailedCells, PoisonFault, WorkerFault, MAX_LEASE_EXECUTIONS, WORKER_ENV,
};
pub use fault::{FaultKind, FaultPlan, FaultReader, WireFault};
pub use journal::{JournalHeader, JournalReplay, ReplayedLease, ReplayedQuarantine, SweepJournal};
pub use net::connect_with_backoff;
pub use proto::{LeaseIndices, Message};
pub use recipe::{
    sweep_from_sets, GovernorSpec, MatrixRecipe, PlatformSpec, SweepRecipe, WorkloadsSpec,
};
pub use serve::{
    BusyShed, ServeClient, ServeError, ServeEvent, ServeOptions, ServeStats, SweepOutcome,
    SweepService,
};
pub use wire::{Dec, Enc, WireError};
pub use worker::worker_main;
