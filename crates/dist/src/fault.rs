//! Deterministic wire-fault injection for the dispatcher's read paths.
//!
//! A [`FaultPlan`] (seeded by [`crate::DistOptions::fault_plan`]) decides,
//! per worker connection, whether and where to sabotage the byte stream
//! the dispatcher reads from that worker: a chosen frame ordinal gets one
//! of the mutations in [`FaultKind`] — a bit-flipped payload, a corrupted
//! length prefix, a frame torn mid-write, a duplicated `Result` frame, or
//! a delayed delivery. Everything is a pure function of
//! `(seed, slot, generation)` — no wall clock, no global RNG — so a
//! faulted run is exactly reproducible, and only **generation 0**
//! connections are sabotaged: a replacement worker's stream runs clean,
//! which bounds lease executions under injection to 2, safely below the
//! dispatcher's give-up threshold.
//!
//! The injector sits *between* the transport and the frame parser
//! ([`FaultReader`] wraps the dispatcher-side read half), so the mutations
//! model real-world corruption: the CRC check in [`crate::wire`] rejects
//! flipped bits, the length cap and EOF handling reject torn or
//! length-corrupted frames (tearing the connection, which re-issues the
//! slot's leases through the ordinary death path), and the dispatcher's
//! dedup-by-`(lease, flat)` absorbs duplicated `Result` frames
//! idempotently. Every fault mode therefore ends in a clean
//! rejection+replay or an idempotent absorption — never a hang, panic, or
//! silent corruption.

use std::io::Read;

use sysscale_types::rng::SplitMix64;

use crate::proto::FT_RESULT;
use crate::wire::{FRAME_HEADER_LEN, MAX_FRAME_LEN};

/// Frame ordinals a connection's single fault is drawn from: large enough
/// to land mid-lease on real sweeps, small enough that short test sweeps
/// still reach the chosen ordinal.
const FAULT_ORDINAL_RANGE: u64 = 12;

/// The mutation applied at a chosen frame ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one payload bit (one CRC-check failure; empty payloads flip a
    /// CRC byte instead).
    BitFlipPayload,
    /// XOR the length prefix (either an over-cap length or a CRC/framing
    /// mismatch downstream).
    CorruptLength,
    /// Emit only half the frame, then EOF — a torn write from a peer that
    /// died mid-`write_all`.
    TruncateFrame,
    /// Deliver the next `Result` frame twice — a retransmit-style
    /// duplicate the dispatcher must absorb idempotently.
    DuplicateResult,
    /// Deliver the frame intact but late — a stalled-then-recovered write.
    DelayFrame,
}

/// All kinds, in discriminant order (drawing order for the plan RNG).
const ALL_KINDS: [FaultKind; 5] = [
    FaultKind::BitFlipPayload,
    FaultKind::CorruptLength,
    FaultKind::TruncateFrame,
    FaultKind::DuplicateResult,
    FaultKind::DelayFrame,
];

/// One concrete sabotage: which frame ordinal of a connection, and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireFault {
    /// Zero-based frame ordinal (counted on the worker→dispatcher stream).
    pub ordinal: u64,
    /// The mutation.
    pub kind: FaultKind,
}

/// A deterministic per-run sabotage schedule, seeded by a single `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The plan seed (nonzero; `0` means "no plan").
    pub seed: u64,
}

impl FaultPlan {
    /// A plan from a nonzero seed; `0` disables injection.
    #[must_use]
    pub fn new(seed: u64) -> Option<Self> {
        (seed != 0).then_some(Self { seed })
    }

    /// The fault (if any) for one worker connection. Only generation-0
    /// connections are sabotaged — a respawned worker's stream is clean,
    /// so injected faults always heal within one replay.
    #[must_use]
    pub fn connection_fault(&self, slot: usize, generation: u64) -> Option<WireFault> {
        if generation > 0 {
            return None;
        }
        let mut rng =
            SplitMix64::new(self.seed ^ (slot as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ordinal = rng.next_u64() % FAULT_ORDINAL_RANGE;
        let kind = ALL_KINDS[(rng.next_u64() % ALL_KINDS.len() as u64) as usize];
        Some(WireFault { ordinal, kind })
    }
}

/// A frame-aware sabotaging `Read` wrapper for one worker connection.
///
/// It parses the inner stream frame by frame (type byte, length, CRC,
/// payload — it never interprets payloads beyond the type byte), applies
/// its [`WireFault`] at the chosen ordinal, and serves the possibly-mutated
/// bytes to the caller. Corrupting faults also cut the stream (EOF after
/// the mutated frame), modelling the connection tear that real corruption
/// causes once the parser gives up.
pub struct FaultReader<R> {
    inner: R,
    fault: WireFault,
    ordinal: u64,
    fired: bool,
    dead: bool,
    buf: Vec<u8>,
    pos: usize,
}

impl<R: Read> FaultReader<R> {
    /// Wraps `inner` with one planned fault.
    pub fn new(inner: R, fault: WireFault) -> Self {
        Self {
            inner,
            fault,
            ordinal: 0,
            fired: false,
            dead: false,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Reads exactly `buf.len()` bytes from the inner stream; `Ok(false)`
    /// on EOF at offset 0, errors on EOF mid-buffer.
    fn fill_inner(&mut self, buf: &mut [u8]) -> std::io::Result<bool> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) if filled == 0 => return Ok(false),
                Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Pulls the next frame from the inner stream, applies the fault if
    /// this is its ordinal, and stages the output bytes.
    fn refill(&mut self) -> std::io::Result<()> {
        self.buf.clear();
        self.pos = 0;
        let mut header = [0u8; FRAME_HEADER_LEN];
        if !self.fill_inner(&mut header)? {
            return Ok(()); // clean EOF propagates
        }
        let len = u32::from_le_bytes(header[1..5].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            // The inner stream is already garbage; pass it through and let
            // the parser reject it.
            self.buf.extend_from_slice(&header);
            self.dead = true;
            return Ok(());
        }
        let mut payload = vec![0u8; len as usize];
        if !payload.is_empty() && !self.fill_inner(&mut payload)? {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }

        // The fault fires at the first eligible frame at or after its
        // ordinal; DuplicateResult additionally waits for a *Result* frame
        // (duplicating a heartbeat would be invisible to the dispatcher).
        let applies = !self.fired
            && self.ordinal >= self.fault.ordinal
            && (self.fault.kind != FaultKind::DuplicateResult || header[0] == FT_RESULT);
        self.ordinal += 1;
        if !applies {
            self.buf.extend_from_slice(&header);
            self.buf.extend_from_slice(&payload);
            return Ok(());
        }
        self.fired = true;
        match self.fault.kind {
            FaultKind::BitFlipPayload => {
                self.buf.extend_from_slice(&header);
                if payload.is_empty() {
                    // No payload bits to flip: flip a CRC bit instead.
                    let crc_byte = self.buf.len() - 2;
                    self.buf[crc_byte] ^= 0x10;
                } else {
                    let mid = payload.len() / 2;
                    payload[mid] ^= 0x10;
                }
                self.buf.extend_from_slice(&payload);
                self.dead = true;
            }
            FaultKind::CorruptLength => {
                let mut corrupt = header;
                corrupt[4] ^= 0x7F; // top length byte: a multi-GB "frame"
                self.buf.extend_from_slice(&corrupt);
                self.buf.extend_from_slice(&payload);
                self.dead = true;
            }
            FaultKind::TruncateFrame => {
                let keep = FRAME_HEADER_LEN + payload.len() / 2;
                self.buf.extend_from_slice(&header);
                self.buf.extend_from_slice(&payload);
                self.buf.truncate(keep.max(3)); // at least a torn header
                self.dead = true;
            }
            FaultKind::DuplicateResult => {
                self.buf.extend_from_slice(&header);
                self.buf.extend_from_slice(&payload);
                self.buf.extend_from_slice(&header);
                self.buf.extend_from_slice(&payload);
            }
            FaultKind::DelayFrame => {
                std::thread::sleep(std::time::Duration::from_millis(25));
                self.buf.extend_from_slice(&header);
                self.buf.extend_from_slice(&payload);
            }
        }
        Ok(())
    }
}

impl<R: Read> Read for FaultReader<R> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.buf.len() {
            if self.dead {
                return Ok(0); // the injected tear: EOF after the mutation
            }
            self.refill()?;
            if self.buf.is_empty() {
                return Ok(0); // inner stream hit clean EOF
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{read_frame, write_frame, WireError};

    /// A small synthetic stream: heartbeat-ish frames around one Result.
    fn sample_stream() -> Vec<u8> {
        let mut stream = Vec::new();
        write_frame(&mut stream, 5, &[1, 0, 0]).unwrap();
        write_frame(&mut stream, FT_RESULT, &[10, 20, 30, 40, 50, 60]).unwrap();
        write_frame(&mut stream, 5, &[2, 0, 0]).unwrap();
        write_frame(&mut stream, 4, &[9, 9]).unwrap();
        stream
    }

    fn drain(reader: &mut impl Read) -> (Vec<(u8, Vec<u8>)>, Option<WireError>) {
        let mut frames = Vec::new();
        loop {
            match read_frame(reader) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some(e)),
            }
        }
    }

    #[test]
    fn delay_passes_every_frame_through_intact() {
        let clean = {
            let (frames, err) = drain(&mut &sample_stream()[..]);
            assert!(err.is_none());
            frames
        };
        let stream = sample_stream();
        let mut reader = FaultReader::new(
            &stream[..],
            WireFault {
                ordinal: 1,
                kind: FaultKind::DelayFrame,
            },
        );
        let (frames, err) = drain(&mut reader);
        assert!(err.is_none());
        assert_eq!(frames, clean, "a delayed frame is still the same frame");
    }

    #[test]
    fn duplicate_result_emits_the_result_frame_twice() {
        let stream = sample_stream();
        let mut reader = FaultReader::new(
            &stream[..],
            WireFault {
                ordinal: 0,
                kind: FaultKind::DuplicateResult,
            },
        );
        let (frames, err) = drain(&mut reader);
        assert!(err.is_none(), "duplication is benign at the wire level");
        let results: Vec<_> = frames.iter().filter(|(t, _)| *t == FT_RESULT).collect();
        assert_eq!(results.len(), 2, "the Result frame must appear twice");
        assert_eq!(results[0], results[1]);
        assert_eq!(frames.len(), 5, "all four originals plus one duplicate");
    }

    #[test]
    fn bit_flip_fails_the_crc_and_tears_the_stream() {
        let stream = sample_stream();
        let mut reader = FaultReader::new(
            &stream[..],
            WireFault {
                ordinal: 1,
                kind: FaultKind::BitFlipPayload,
            },
        );
        let (frames, err) = drain(&mut reader);
        assert_eq!(frames.len(), 1, "frames before the fault still parse");
        assert!(
            err.is_some_and(|e| e.to_string().contains("crc mismatch")),
            "the flipped bit must be caught by the CRC"
        );
    }

    #[test]
    fn corrupt_length_is_rejected_not_misparsed() {
        let stream = sample_stream();
        let mut reader = FaultReader::new(
            &stream[..],
            WireFault {
                ordinal: 2,
                kind: FaultKind::CorruptLength,
            },
        );
        let (frames, err) = drain(&mut reader);
        assert_eq!(frames.len(), 2);
        assert!(err.is_some(), "a corrupted length prefix must error");
    }

    #[test]
    fn truncated_frame_reads_as_a_torn_write() {
        let stream = sample_stream();
        let mut reader = FaultReader::new(
            &stream[..],
            WireFault {
                ordinal: 3,
                kind: FaultKind::TruncateFrame,
            },
        );
        let (frames, err) = drain(&mut reader);
        assert_eq!(frames.len(), 3, "frames before the tear still parse");
        assert!(
            err.is_some_and(|e| e.to_string().contains("stream ended inside")),
            "the torn frame must read as an EOF inside a frame"
        );
    }

    #[test]
    fn plans_are_deterministic_and_generation_zero_only() {
        let plan = FaultPlan::new(41).expect("nonzero seed");
        for slot in 0..8 {
            let a = plan.connection_fault(slot, 0);
            let b = plan.connection_fault(slot, 0);
            assert_eq!(a, b, "same (seed, slot, generation) → same fault");
            assert!(a.is_some());
            assert!(
                plan.connection_fault(slot, 1).is_none(),
                "respawned workers must run clean"
            );
        }
        assert!(FaultPlan::new(0).is_none(), "seed 0 disables injection");
        // Different slots see different faults for most seeds (spot-check).
        let faults: std::collections::BTreeSet<_> = (0..8)
            .map(|slot| format!("{:?}", plan.connection_fault(slot, 0)))
            .collect();
        assert!(faults.len() > 1, "the plan must vary across slots");
    }
}
