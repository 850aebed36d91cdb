//! The dispatcher↔worker message protocol.
//!
//! Every message is one frame ([`crate::wire::write_frame`]): a type byte, a
//! `u32` payload length, and a payload encoded with [`crate::wire`]. The
//! message set is deliberately small:
//!
//! | type | message       | direction          | payload |
//! |------|---------------|--------------------|---------|
//! | 1    | `Job`         | dispatcher → worker | magic, version, batch cells, quarantine flag, injected faults, recipe blob |
//! | 2    | `Lease`       | dispatcher → worker | lease id, flat-index plan (stepped or explicit) |
//! | 3    | `Result`      | worker → dispatcher | lease id, flat index, encoded [`RunRecord`] |
//! | 4    | `LeaseDone`   | worker → dispatcher | lease id, cell count |
//! | 5    | `Heartbeat`   | worker → dispatcher | lease id, cells completed so far |
//! | 6    | `WorkerError` | worker → dispatcher | lease id, failing flat index, structured [`SimError`] (discriminant + payload fields) |
//! | 7    | `Shutdown`    | dispatcher → worker | empty |
//!
//! The `Job` frame opens with a protocol magic and version so a worker
//! binary from a different revision refuses the job instead of
//! misinterpreting the stream. It is also the worker's only configuration:
//! the faults the tests inject travel in it, not in the environment.

use std::io::{Read, Write};

use sysscale::RunRecord;
use sysscale_types::SimError;

use crate::codec;
use crate::wire::{read_frame, write_frame, Dec, Enc, WireError};

/// Magic prefix of a [`Message::Job`] payload (`"SSDP"`).
pub const PROTO_MAGIC: u32 = 0x5353_4450;

/// Protocol version; bump on any frame-layout change.
/// v2: `WorkerError` carries a structured [`SimError`] instead of a
/// rendered message.
/// v3: every frame header carries a CRC-32 over type+length+payload
/// ([`crate::wire`]), and `Job` carries the quarantine flag (a worker in
/// quarantine mode isolates a failing cell per-cell and keeps going instead
/// of exiting on the first `WorkerError`).
/// v4: `Job` drops the in-worker thread count (a worker folds every lease
/// on one thread; processes replace threads rather than multiplying them).
/// v5: `Job` carries the spawn's injected faults (die or hang after `n`
/// results; a poisoned flat and its crash flag) and drops the worker slot,
/// which no worker read.
pub const PROTO_VERSION: u16 = 5;

pub(crate) const FT_JOB: u8 = 1;
pub(crate) const FT_LEASE: u8 = 2;
pub(crate) const FT_RESULT: u8 = 3;
pub(crate) const FT_LEASE_DONE: u8 = 4;
pub(crate) const FT_HEARTBEAT: u8 = 5;
pub(crate) const FT_WORKER_ERROR: u8 = 6;
pub(crate) const FT_SHUTDOWN: u8 = 7;

/// The flat-index plan of one lease.
///
/// Round-robin shards produce stepped ranges (`start, start + step, …`),
/// which travel as three integers no matter how many cells the lease holds;
/// keyed shards produce irregular ascending lists, which travel explicitly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseIndices {
    /// `count` indices: `start, start + step, start + 2·step, …`.
    Stepped {
        /// First flat index.
        start: u64,
        /// Stride between consecutive indices (≥ 1).
        step: u64,
        /// Number of indices.
        count: u64,
    },
    /// An explicit strictly-ascending index list.
    Explicit(Vec<u64>),
}

impl LeaseIndices {
    /// Compresses a strictly-ascending flat-index list, preferring the
    /// stepped form when the list is an arithmetic progression.
    ///
    /// # Panics
    ///
    /// Panics if `flats` is empty or not strictly ascending.
    #[must_use]
    pub fn from_flats(flats: &[usize]) -> Self {
        assert!(!flats.is_empty(), "a lease needs at least one cell");
        assert!(
            flats.windows(2).all(|w| w[0] < w[1]),
            "lease indices must be strictly ascending"
        );
        if flats.len() == 1 {
            return LeaseIndices::Stepped {
                start: flats[0] as u64,
                step: 1,
                count: 1,
            };
        }
        let step = flats[1] - flats[0];
        if flats.windows(2).all(|w| w[1] - w[0] == step) {
            LeaseIndices::Stepped {
                start: flats[0] as u64,
                step: step as u64,
                count: flats.len() as u64,
            }
        } else {
            LeaseIndices::Explicit(flats.iter().map(|&f| f as u64).collect())
        }
    }

    /// Number of cells in the lease.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            LeaseIndices::Stepped { count, .. } => *count as usize,
            LeaseIndices::Explicit(flats) => flats.len(),
        }
    }

    /// Whether the lease is empty (never true for a well-formed lease).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the ascending flat-index list.
    #[must_use]
    pub fn expand(&self) -> Vec<usize> {
        match self {
            LeaseIndices::Stepped { start, step, count } => {
                (0..*count).map(|i| (*start + i * *step) as usize).collect()
            }
            LeaseIndices::Explicit(flats) => flats.iter().map(|&f| f as usize).collect(),
        }
    }

    fn encode(&self, enc: &mut Enc) {
        match self {
            LeaseIndices::Stepped { start, step, count } => {
                enc.put_u8(0);
                enc.put_u64(*start);
                enc.put_u64(*step);
                enc.put_u64(*count);
            }
            LeaseIndices::Explicit(flats) => {
                enc.put_u8(1);
                enc.put_u64(flats.len() as u64);
                for &flat in flats {
                    enc.put_u64(flat);
                }
            }
        }
    }

    fn decode(dec: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(match dec.u8()? {
            0 => {
                let (start, step, count) = (dec.u64()?, dec.u64()?, dec.u64()?);
                if step == 0 && count > 1 {
                    return Err(WireError::malformed("stepped lease with zero step"));
                }
                LeaseIndices::Stepped { start, step, count }
            }
            1 => {
                let count = dec.u64()?;
                let mut flats = Vec::with_capacity(count.min(1 << 24) as usize);
                for _ in 0..count {
                    flats.push(dec.u64()?);
                }
                if !flats.windows(2).all(|w| w[0] < w[1]) {
                    return Err(WireError::malformed("explicit lease not ascending"));
                }
                LeaseIndices::Explicit(flats)
            }
            tag => return Err(WireError::malformed(format!("lease indices tag {tag}"))),
        })
    }
}

/// One protocol message.
#[derive(Debug)]
pub enum Message {
    /// Opens a worker's session: the sub-batch size between heartbeats, the
    /// failure mode, the faults injected into this process, and the encoded
    /// [`crate::recipe::SweepRecipe`].
    Job {
        /// Cells per execution sub-batch (heartbeat cadence).
        batch_cells: u32,
        /// Quarantine mode: on a failing cell, re-run the batch cell by
        /// cell, report each failure as a `WorkerError`, and continue —
        /// instead of exiting after the first failure.
        quarantine: bool,
        /// Injected worker fault ([`crate::WorkerFault`]): right after
        /// streaming this many `Result` frames the worker dies as abruptly
        /// as `kill -9`, or hangs if `fault_hangs` is set.
        fault_after: Option<u64>,
        /// With `fault_after`: hang with the stream open instead of dying.
        fault_hangs: bool,
        /// Injected cell fault ([`crate::PoisonFault`]): this flat fails
        /// with a structured error in every worker that executes it.
        poison_flat: Option<u64>,
        /// With `poison_flat`: the cell kills its worker instead of failing.
        poison_crash: bool,
        /// Encoded sweep recipe.
        recipe: Vec<u8>,
    },
    /// Grants the worker one lease.
    Lease {
        /// Lease identifier (dispatcher-global).
        lease_id: u64,
        /// The cells the lease covers.
        indices: LeaseIndices,
    },
    /// One finished cell, streamed in ascending flat order within a lease.
    Result {
        /// The lease the cell belongs to.
        lease_id: u64,
        /// Flat cell index.
        flat: u64,
        /// The cell's result.
        record: Box<RunRecord>,
    },
    /// A lease finished; every `Result` of it has been sent.
    LeaseDone {
        /// The finished lease.
        lease_id: u64,
        /// Total cells executed (sanity check against the lease plan).
        cells: u64,
    },
    /// Liveness signal after each execution sub-batch.
    Heartbeat {
        /// The lease in progress.
        lease_id: u64,
        /// Cells completed so far in this lease.
        done_cells: u64,
    },
    /// A cell failed; the worker stops after reporting it.
    WorkerError {
        /// The lease the failure occurred in.
        lease_id: u64,
        /// Flat index of the failing cell.
        flat: u64,
        /// The structured simulator error ([`crate::codec::put_sim_error`]):
        /// the dispatcher surfaces the *same* [`SimError`] value the
        /// in-process executor would return, payload fields intact.
        error: SimError,
    },
    /// Orderly end of session; the worker exits cleanly.
    Shutdown,
}

impl Message {
    /// Writes the message as one frame and flushes.
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        let mut enc = Enc::new();
        let frame_type = match self {
            Message::Job {
                batch_cells,
                quarantine,
                fault_after,
                fault_hangs,
                poison_flat,
                poison_crash,
                recipe,
            } => {
                enc.put_u32(PROTO_MAGIC);
                enc.put_u16(PROTO_VERSION);
                enc.put_u32(*batch_cells);
                enc.put_bool(*quarantine);
                // Each fault: a presence flag, the value when present, then
                // its mode flag.
                for (value, flag) in [(fault_after, fault_hangs), (poison_flat, poison_crash)] {
                    enc.put_bool(value.is_some());
                    if let Some(value) = value {
                        enc.put_u64(*value);
                    }
                    enc.put_bool(*flag);
                }
                enc.put_bytes(recipe);
                FT_JOB
            }
            Message::Lease { lease_id, indices } => {
                enc.put_u64(*lease_id);
                indices.encode(&mut enc);
                FT_LEASE
            }
            Message::Result {
                lease_id,
                flat,
                record,
            } => {
                enc.put_u64(*lease_id);
                enc.put_u64(*flat);
                codec::put_record(&mut enc, record);
                FT_RESULT
            }
            Message::LeaseDone { lease_id, cells } => {
                enc.put_u64(*lease_id);
                enc.put_u64(*cells);
                FT_LEASE_DONE
            }
            Message::Heartbeat {
                lease_id,
                done_cells,
            } => {
                enc.put_u64(*lease_id);
                enc.put_u64(*done_cells);
                FT_HEARTBEAT
            }
            Message::WorkerError {
                lease_id,
                flat,
                error,
            } => {
                enc.put_u64(*lease_id);
                enc.put_u64(*flat);
                codec::put_sim_error(&mut enc, error);
                FT_WORKER_ERROR
            }
            Message::Shutdown => FT_SHUTDOWN,
        };
        write_frame(w, frame_type, &enc.into_bytes())
    }

    /// Reads the next message; `Ok(None)` on clean end-of-stream.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and malformed frames.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Self>, WireError> {
        let Some((frame_type, payload)) = read_frame(r)? else {
            return Ok(None);
        };
        let mut dec = Dec::new(&payload);
        let message = match frame_type {
            FT_JOB => {
                let magic = dec.u32()?;
                if magic != PROTO_MAGIC {
                    return Err(WireError::malformed(format!("job magic {magic:#010x}")));
                }
                let version = dec.u16()?;
                if version != PROTO_VERSION {
                    return Err(WireError::malformed(format!(
                        "protocol version {version} (this build speaks {PROTO_VERSION})"
                    )));
                }
                let batch_cells = dec.u32()?;
                let quarantine = dec.bool()?;
                let fault_after = if dec.bool()? { Some(dec.u64()?) } else { None };
                let fault_hangs = dec.bool()?;
                let poison_flat = if dec.bool()? { Some(dec.u64()?) } else { None };
                Message::Job {
                    batch_cells,
                    quarantine,
                    fault_after,
                    fault_hangs,
                    poison_flat,
                    poison_crash: dec.bool()?,
                    recipe: dec.bytes()?.to_vec(),
                }
            }
            FT_LEASE => Message::Lease {
                lease_id: dec.u64()?,
                indices: LeaseIndices::decode(&mut dec)?,
            },
            FT_RESULT => Message::Result {
                lease_id: dec.u64()?,
                flat: dec.u64()?,
                record: Box::new(codec::get_record(&mut dec)?),
            },
            FT_LEASE_DONE => Message::LeaseDone {
                lease_id: dec.u64()?,
                cells: dec.u64()?,
            },
            FT_HEARTBEAT => Message::Heartbeat {
                lease_id: dec.u64()?,
                done_cells: dec.u64()?,
            },
            FT_WORKER_ERROR => Message::WorkerError {
                lease_id: dec.u64()?,
                flat: dec.u64()?,
                error: codec::get_sim_error(&mut dec)?,
            },
            FT_SHUTDOWN => Message::Shutdown,
            tag => return Err(WireError::malformed(format!("frame type {tag}"))),
        };
        dec.finish()?;
        Ok(Some(message))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale_types::rng::SplitMix64;

    #[test]
    fn lease_indices_round_trip_property() {
        let mut rng = SplitMix64::new(0xA5A5);
        for case in 0..64 {
            // Alternate stepped and irregular ascending lists.
            let flats: Vec<usize> = if case % 2 == 0 {
                let start = (rng.next_u64() % 1000) as usize;
                let step = 1 + (rng.next_u64() % 7) as usize;
                let count = 1 + (rng.next_u64() % 20) as usize;
                (0..count).map(|i| start + i * step).collect()
            } else {
                let mut acc = (rng.next_u64() % 100) as usize;
                (0..1 + (rng.next_u64() % 20) as usize)
                    .map(|_| {
                        acc += 1 + (rng.next_u64() % 5) as usize;
                        acc
                    })
                    .collect()
            };
            let indices = LeaseIndices::from_flats(&flats);
            assert_eq!(indices.expand(), flats, "expand() must invert from_flats");
            assert_eq!(indices.len(), flats.len());
            let mut enc = Enc::new();
            indices.encode(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = Dec::new(&bytes);
            let decoded = LeaseIndices::decode(&mut dec).expect("decode");
            dec.finish().expect("consumed");
            assert_eq!(decoded, indices);
        }
    }

    #[test]
    fn stepped_compression_kicks_in_for_round_robin_shards() {
        // A round-robin worker shard (w, w+p, w+2p, ...) must travel as
        // three integers, not one per cell.
        let flats: Vec<usize> = (3..1000).step_by(4).collect();
        match LeaseIndices::from_flats(&flats) {
            LeaseIndices::Stepped { start, step, count } => {
                assert_eq!((start, step, count as usize), (3, 4, flats.len()));
            }
            other => panic!("expected stepped, got {other:?}"),
        }
    }

    #[test]
    fn job_frames_round_trip_with_and_without_each_fault() {
        let faults = [
            (None, false, None, false),
            (Some(5), false, None, false),
            (Some(3), true, None, false),
            (None, false, Some(7), false),
            (None, false, Some(13), true),
            (Some(u64::MAX), true, Some(0), true),
        ];
        for (fault_after, fault_hangs, poison_flat, poison_crash) in faults {
            let mut stream = Vec::new();
            Message::Job {
                batch_cells: 16,
                quarantine: poison_crash,
                fault_after,
                fault_hangs,
                poison_flat,
                poison_crash,
                recipe: vec![1, 2, 3],
            }
            .write_to(&mut stream)
            .unwrap();
            let mut cursor = std::io::Cursor::new(stream);
            match Message::read_from(&mut cursor).unwrap().unwrap() {
                Message::Job {
                    batch_cells,
                    quarantine,
                    fault_after: got_after,
                    fault_hangs: got_hangs,
                    poison_flat: got_flat,
                    poison_crash: got_crash,
                    recipe,
                } => assert_eq!(
                    (
                        batch_cells,
                        quarantine,
                        got_after,
                        got_hangs,
                        got_flat,
                        got_crash,
                        recipe
                    ),
                    (
                        16,
                        poison_crash,
                        fault_after,
                        fault_hangs,
                        poison_flat,
                        poison_crash,
                        vec![1, 2, 3]
                    )
                ),
                other => panic!("expected Job, got {other:?}"),
            }
            assert!(Message::read_from(&mut cursor).unwrap().is_none());
        }
    }

    #[test]
    fn control_messages_round_trip_over_a_stream() {
        let mut stream = Vec::new();
        Message::Lease {
            lease_id: 7,
            indices: LeaseIndices::from_flats(&[0, 2, 4]),
        }
        .write_to(&mut stream)
        .unwrap();
        Message::LeaseDone {
            lease_id: 7,
            cells: 3,
        }
        .write_to(&mut stream)
        .unwrap();
        Message::Heartbeat {
            lease_id: 7,
            done_cells: 2,
        }
        .write_to(&mut stream)
        .unwrap();
        Message::WorkerError {
            lease_id: 7,
            flat: 4,
            error: SimError::UnknownWorkload {
                name: "boom".to_string(),
            },
        }
        .write_to(&mut stream)
        .unwrap();
        Message::Shutdown.write_to(&mut stream).unwrap();

        let mut cursor = std::io::Cursor::new(stream);
        match Message::read_from(&mut cursor).unwrap().unwrap() {
            Message::Lease { lease_id, indices } => {
                assert_eq!(lease_id, 7);
                assert_eq!(indices.expand(), vec![0, 2, 4]);
            }
            other => panic!("expected Lease, got {other:?}"),
        }
        assert!(matches!(
            Message::read_from(&mut cursor).unwrap().unwrap(),
            Message::LeaseDone {
                lease_id: 7,
                cells: 3
            }
        ));
        assert!(matches!(
            Message::read_from(&mut cursor).unwrap().unwrap(),
            Message::Heartbeat {
                lease_id: 7,
                done_cells: 2
            }
        ));
        match Message::read_from(&mut cursor).unwrap().unwrap() {
            Message::WorkerError {
                lease_id,
                flat,
                error,
            } => {
                assert_eq!((lease_id, flat), (7, 4));
                assert_eq!(
                    error,
                    SimError::UnknownWorkload {
                        name: "boom".to_string()
                    }
                );
            }
            other => panic!("expected WorkerError, got {other:?}"),
        }
        assert!(matches!(
            Message::read_from(&mut cursor).unwrap().unwrap(),
            Message::Shutdown
        ));
        assert!(Message::read_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn job_frames_from_a_drifted_protocol_are_rejected() {
        // A frame whose CRC is *valid* but whose Job payload speaks an older
        // protocol version: the version check itself must reject it (a
        // drifted-but-honest peer, not wire corruption).
        let mut enc = Enc::new();
        enc.put_u32(PROTO_MAGIC);
        enc.put_u16(4);
        enc.put_u32(0); // worker_slot (v4 only)
        enc.put_u32(1); // batch_cells
        enc.put_bool(false); // quarantine
        enc.put_bytes(&[]); // recipe
        let mut stream = Vec::new();
        write_frame(&mut stream, FT_JOB, &enc.into_bytes()).unwrap();
        let mut cursor = std::io::Cursor::new(stream);
        let err = Message::read_from(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("protocol version"), "got: {err}");
    }

    #[test]
    fn corrupted_job_frames_fail_the_crc_before_parsing() {
        let mut stream = Vec::new();
        Message::Job {
            batch_cells: 1,
            quarantine: false,
            fault_after: None,
            fault_hangs: false,
            poison_flat: None,
            poison_crash: false,
            recipe: Vec::new(),
        }
        .write_to(&mut stream)
        .unwrap();
        // Flip a bit in the version field (after the 9-byte frame header
        // and the 4-byte magic): the CRC catches it.
        stream[crate::wire::FRAME_HEADER_LEN + 4] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(stream);
        let err = Message::read_from(&mut cursor).unwrap_err();
        assert!(err.to_string().contains("crc mismatch"), "got: {err}");
    }
}
