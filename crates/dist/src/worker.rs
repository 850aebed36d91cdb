//! The worker half of the distributed executor.
//!
//! A worker process speaks the [`crate::proto`] protocol on its
//! stdin/stdout pipes: it receives one `Job` frame carrying the encoded
//! sweep recipe and its whole configuration (heartbeat batch size,
//! quarantine mode, and any injected test fault), rebuilds the sweep
//! locally, then executes each granted `Lease` against a warm
//! [`SessionPool`] — streaming every finished cell back as a `Result` frame
//! in ascending flat order, a `Heartbeat` after each sub-batch, and a
//! `LeaseDone` once the lease is exhausted. `Shutdown` (or clean EOF) ends
//! the session. The worker reads no environment variable.

use std::io::{BufReader, BufWriter, Read, Write};

use sysscale::{RunRecord, SessionPool};

use crate::proto::{LeaseIndices, Message};
use crate::recipe::{sweep_from_sets, SweepRecipe};

/// The structured error a poisoned cell fails with (also what the
/// dispatcher's manifest ends up holding for it).
pub(crate) fn poison_error(flat: usize) -> sysscale_types::SimError {
    sysscale_types::SimError::invalid_config(format!("poisoned cell {flat} (injected failure)"))
}

/// Dies as abruptly as `kill -9`: try SIGKILL via the system `kill`
/// utility, and if that is unavailable fall back to an abort. Neither path
/// flushes buffers or unwinds, which is the point — the dispatcher must
/// cope with a worker vanishing mid-lease.
fn die_hard() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    std::process::abort();
}

/// Hangs forever without closing the stream — the "stuck but alive"
/// failure mode (a `Job` with `fault_hangs`): the dispatcher's reader
/// thread sees no EOF, so only the heartbeat watchdog notices.
fn hang_forever() -> ! {
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// Expands a lease's flat indices, or returns `None` if any of them lies
/// past a sweep of `total` cells. A stepped lease is checked before it is
/// expanded — its count against `total`, its last index with checked
/// arithmetic — so a corrupt or hostile frame can neither request a huge
/// allocation nor overflow.
fn lease_flats(indices: &LeaseIndices, total: usize) -> Option<Vec<usize>> {
    if indices.is_empty() {
        return Some(Vec::new());
    }
    let last = match indices {
        LeaseIndices::Stepped { start, step, count } => {
            if *count > total as u64 {
                return None;
            }
            (count - 1).checked_mul(*step)?.checked_add(*start)?
        }
        LeaseIndices::Explicit(flats) => *flats.last()?,
    };
    (last < total as u64).then(|| indices.expand())
}

/// Runs the worker protocol loop over the given byte channel until
/// `Shutdown` or clean EOF.
///
/// # Errors
///
/// Returns a rendered error on protocol violations, transport failures, or
/// an unbuildable recipe. A failing *cell* is reported to the dispatcher as
/// a `WorkerError` frame first and then surfaces here, so the process exits
/// nonzero either way.
pub fn worker_main(rx: impl Read, tx: impl Write) -> Result<(), String> {
    let mut rx = BufReader::new(rx);
    let mut tx = BufWriter::new(tx);

    // The session opens with exactly one Job frame.
    let job = Message::read_from(&mut rx);
    let Ok(Some(Message::Job {
        batch_cells,
        quarantine,
        fault_after,
        fault_hangs,
        poison_flat,
        poison_crash,
        recipe: recipe_bytes,
    })) = job
    else {
        return Err(match job {
            Ok(Some(other)) => format!("expected Job frame, got {other:?}"),
            Ok(None) => "stream closed before Job frame".to_string(),
            Err(error) => format!("reading Job frame: {error}"),
        });
    };
    let batch_cells = batch_cells.max(1) as usize;
    let poison_flat = poison_flat.map(|flat| flat as usize);

    let recipe = SweepRecipe::decode(&recipe_bytes).map_err(|e| format!("decoding recipe: {e}"))?;
    let sets = recipe
        .build()
        .map_err(|e| format!("building recipe: {e}"))?;
    let sweep = sweep_from_sets(&sets);
    let total = sweep.cells();
    let mut pool = SessionPool::new();
    // Runs ascending cells on one thread — processes replace threads
    // rather than multiplying them — failing a poisoned cell on demand.
    let execute =
        |pool: &mut SessionPool, cells: &[usize]| match poison_flat.filter(|p| cells.contains(p)) {
            Some(p) => Err(sysscale::CellError {
                flat: p,
                error: poison_error(p),
            }),
            None => sweep.run_flat_indices(pool, 1, cells),
        };
    // Streams finished cells as `Result` frames — the one path every
    // result takes, so the `Job`'s die/hang fault fires on the n-th frame
    // whichever branch produced it.
    let mut results_sent = 0u64;
    let mut stream_results = |tx: &mut BufWriter<_>,
                              lease_id: u64,
                              pairs: Vec<(usize, RunRecord)>|
     -> Result<(), String> {
        for (flat, record) in pairs {
            Message::Result {
                lease_id,
                flat: flat as u64,
                record: Box::new(record),
            }
            .write_to(tx)
            .map_err(|e| format!("streaming result: {e}"))?;
            results_sent += 1;
            if fault_after.is_some_and(|n| results_sent >= n) {
                if fault_hangs {
                    hang_forever();
                }
                die_hard();
            }
        }
        Ok(())
    };

    loop {
        match Message::read_from(&mut rx) {
            Ok(Some(Message::Lease { lease_id, indices })) => {
                let Some(flats) = lease_flats(&indices, total) else {
                    return Err(format!(
                        "lease {lease_id} indexes past the sweep ({total} cells)"
                    ));
                };
                // Signal liveness before the first (possibly long) batch so
                // the dispatcher's heartbeat watchdog never mistakes lease
                // startup for a hang.
                Message::Heartbeat {
                    lease_id,
                    done_cells: 0,
                }
                .write_to(&mut tx)
                .map_err(|e| format!("streaming heartbeat: {e}"))?;
                let mut done_cells = 0u64;
                for batch in flats.chunks(batch_cells) {
                    // A crash-mode poisoned cell takes the whole process
                    // down, `kill -9` style — the failure shape the
                    // dispatcher can only isolate by bisecting the lease.
                    if poison_crash && poison_flat.is_some_and(|p| batch.contains(&p)) {
                        die_hard();
                    }
                    match execute(&mut pool, batch) {
                        Ok(pairs) => stream_results(&mut tx, lease_id, pairs)?,
                        Err(_) if quarantine => {
                            // Quarantine mode: isolate the failure by
                            // re-running the batch cell by cell, ascending.
                            // Failing cells become WorkerError frames (in
                            // the same stream position their Result would
                            // occupy); healthy cells still stream, and the
                            // worker keeps going.
                            for &flat in batch {
                                match execute(&mut pool, &[flat]) {
                                    Ok(pairs) => stream_results(&mut tx, lease_id, pairs)?,
                                    Err(cell_error) => Message::WorkerError {
                                        lease_id,
                                        flat: cell_error.flat as u64,
                                        error: cell_error.error,
                                    }
                                    .write_to(&mut tx)
                                    .map_err(|e| format!("streaming error: {e}"))?,
                                }
                            }
                        }
                        Err(cell_error) => {
                            Message::WorkerError {
                                lease_id,
                                flat: cell_error.flat as u64,
                                error: cell_error.error.clone(),
                            }
                            .write_to(&mut tx)
                            .map_err(|e| format!("streaming error: {e}"))?;
                            return Err(format!(
                                "cell {} failed: {}",
                                cell_error.flat, cell_error.error
                            ));
                        }
                    }
                    done_cells += batch.len() as u64;
                    Message::Heartbeat {
                        lease_id,
                        done_cells,
                    }
                    .write_to(&mut tx)
                    .map_err(|e| format!("streaming heartbeat: {e}"))?;
                }
                Message::LeaseDone {
                    lease_id,
                    cells: flats.len() as u64,
                }
                .write_to(&mut tx)
                .map_err(|e| format!("completing lease: {e}"))?;
            }
            Ok(Some(Message::Shutdown)) | Ok(None) => return Ok(()),
            Ok(Some(other)) => return Err(format!("unexpected frame: {other:?}")),
            Err(error) => return Err(format!("reading frame: {error}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::LeaseIndices;
    use crate::recipe::{GovernorSpec, MatrixRecipe, PlatformSpec, SweepRecipe, WorkloadsSpec};

    /// A 2×2 sweep small enough to execute for real in a unit test.
    fn tiny_recipe() -> SweepRecipe {
        SweepRecipe::single(MatrixRecipe {
            platform: PlatformSpec::SkylakeDefault,
            workloads: WorkloadsSpec::SpecNamed(vec!["mcf".to_string(), "lbm".to_string()]),
            governors: vec![
                GovernorSpec::Registry("baseline".to_string()),
                GovernorSpec::SysScaleDefault,
            ],
            baseline: Some("baseline".to_string()),
            duration_secs: Some(0.5),
            pinned_fingerprint: None,
        })
    }

    /// Drives a worker end-to-end in-process over byte buffers: Job, one
    /// lease covering the whole (tiny) sweep, Shutdown — and checks the
    /// result stream is ascending and complete.
    #[test]
    fn worker_executes_a_lease_and_streams_ascending_results() {
        let recipe = tiny_recipe();
        let total = recipe.total_cells();
        assert!(total >= 2, "single-platform recipe should have cells");
        let flats: Vec<usize> = (0..total).collect();

        let mut input = Vec::new();
        Message::Job {
            batch_cells: 2,
            quarantine: false,
            fault_after: None,
            fault_hangs: false,
            poison_flat: None,
            poison_crash: false,
            recipe: recipe.encode(),
        }
        .write_to(&mut input)
        .unwrap();
        Message::Lease {
            lease_id: 0,
            indices: LeaseIndices::from_flats(&flats),
        }
        .write_to(&mut input)
        .unwrap();
        Message::Shutdown.write_to(&mut input).unwrap();

        let mut output = Vec::new();
        worker_main(&input[..], &mut output).expect("worker session");

        let mut cursor = std::io::Cursor::new(output);
        let mut seen = Vec::new();
        let mut lease_done = false;
        while let Some(message) = Message::read_from(&mut cursor).unwrap() {
            match message {
                Message::Result { lease_id, flat, .. } => {
                    assert_eq!(lease_id, 0);
                    seen.push(flat as usize);
                }
                Message::Heartbeat { .. } => {}
                Message::LeaseDone { lease_id, cells } => {
                    assert_eq!((lease_id, cells as usize), (0, total));
                    lease_done = true;
                }
                other => panic!("unexpected worker frame: {other:?}"),
            }
        }
        assert!(lease_done, "lease must complete");
        assert_eq!(seen, flats, "results must stream in ascending flat order");
    }

    #[test]
    fn worker_rejects_a_lease_past_the_sweep() {
        let recipe = tiny_recipe();
        let total = recipe.total_cells();
        let mut job = Vec::new();
        Message::Job {
            batch_cells: 4,
            quarantine: false,
            fault_after: None,
            fault_hangs: false,
            poison_flat: None,
            poison_crash: false,
            recipe: recipe.encode(),
        }
        .write_to(&mut job)
        .unwrap();

        // One index past the end; a count no sweep has (expanding it
        // overflows the allocation size); and a stride whose last index
        // overflows u64.
        let hostile = [
            LeaseIndices::from_flats(&[total]),
            LeaseIndices::Stepped {
                start: 0,
                step: 1,
                count: u64::MAX,
            },
            LeaseIndices::Stepped {
                start: 1,
                step: u64::MAX,
                count: 2,
            },
        ];
        for indices in hostile {
            let mut input = job.clone();
            Message::Lease {
                lease_id: 9,
                indices: indices.clone(),
            }
            .write_to(&mut input)
            .unwrap();
            let mut output = Vec::new();
            let err = worker_main(&input[..], &mut output).unwrap_err();
            assert!(err.contains("lease 9"), "{indices:?}: {err}");
        }
    }
}
