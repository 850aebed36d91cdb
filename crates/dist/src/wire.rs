//! Hand-rolled length-prefixed binary framing.
//!
//! The repository is offline (no serde), so the dispatcher↔worker protocol
//! is encoded with a small explicit byte layer instead of a derive:
//!
//! * all integers are **little-endian** fixed width;
//! * `f64` values travel as their IEEE-754 bit pattern
//!   ([`f64::to_bits`]/[`f64::from_bits`]), so floating-point payloads
//!   round-trip **bit-exactly** — the foundation of the executor's
//!   bit-identical merge contract;
//! * strings and byte blobs are `u32` length + raw bytes (strings UTF-8);
//! * a frame on the transport is `type: u8`, `len: u32`, `crc: u32`,
//!   `payload` — see [`write_frame`]/[`read_frame`]. The CRC-32 covers the
//!   type byte, the length prefix, and the payload, so a bit flip anywhere
//!   in a frame is detected before the payload is parsed.
//!
//! Decoding is total: every malformed input surfaces as a [`WireError`],
//! never a panic, so a corrupt or truncated stream from a dying worker is an
//! ordinary error path. Transient I/O conditions (`Interrupted`, and
//! `WouldBlock` up to a bounded budget) are retried inside the frame
//! helpers, so a momentarily-stalled socket never surfaces as a frame
//! error; a transport wrapped in `net::CountRetries` counts them.

use std::fmt;
use std::io::{Read, Write};
use std::time::Duration;

/// Upper bound on one frame's payload, guarding the dispatcher against a
/// corrupt length prefix allocating unbounded memory. Generous: the largest
/// real frame (a serialized [`RunRecord`](sysscale::RunRecord) with a
/// collected trace) is a few megabytes.
pub const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

/// Bytes of a frame header on the wire: type (`u8`), payload length
/// (`u32`), CRC-32 (`u32`).
pub const FRAME_HEADER_LEN: usize = 9;

/// How many consecutive `WouldBlock` results a single read or write call
/// tolerates before giving up and surfacing the error. `Interrupted` is
/// always retried (it carries no backpressure meaning).
const TRANSIENT_RETRY_LIMIT: u32 = 4096;

/// Pause between `WouldBlock` retries, long enough to let the peer drain a
/// buffer, short enough (≪ a heartbeat interval) to never look like a hang.
const TRANSIENT_RETRY_PAUSE: Duration = Duration::from_micros(500);

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) lookup table,
/// built at compile time — the offline container has no crc crate.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// A streaming CRC-32 (IEEE) over one or more byte segments.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh checksum.
    #[must_use]
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Feeds a segment.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            let index = (self.state ^ u32::from(byte)) & 0xFF;
            self.state = (self.state >> 8) ^ CRC32_TABLE[index as usize];
        }
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

/// The checksum a frame carries: CRC-32 over type byte, length prefix, and
/// payload — so corruption of the *header* is caught too, not just payload
/// bit flips.
fn frame_crc(frame_type: u8, len: u32, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[frame_type]);
    crc.update(&len.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// An error produced by the wire layer: transport I/O failures plus every
/// way a peer's bytes can fail to parse.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The bytes do not parse as the expected shape.
    Malformed(String),
}

impl WireError {
    /// Shorthand for a malformed-payload error.
    pub fn malformed(reason: impl Into<String>) -> Self {
        WireError::Malformed(reason.into())
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(reason) => write!(f, "malformed wire data: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A byte-buffer encoder. All `put_*` methods append fixed little-endian
/// layouts; the buffer is the payload of exactly one frame.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Current encoded length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Encodes a `usize` as `u64` (the wire is 64-bit regardless of host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Encodes the IEEE-754 bit pattern — bit-exact round-trip.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// `u32` length + UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// `u32` length + raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        let len = u32::try_from(v.len()).expect("blob longer than u32::MAX");
        self.put_u32(len);
        self.buf.extend_from_slice(v);
    }
}

/// A cursor decoder over one frame's payload. Every method checks bounds
/// and returns [`WireError::Malformed`] instead of panicking.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the payload was consumed exactly — catches layout drift
    /// between encoder and decoder versions.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::malformed(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::malformed(format!(
                "need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Decodes a `u64` that must fit the host `usize`.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?)
            .map_err(|_| WireError::malformed("u64 value exceeds host usize"))
    }

    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::malformed(format!("bool byte {other}"))),
        }
    }

    pub fn str(&mut self) -> Result<String, WireError> {
        let bytes = self.bytes()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::malformed("string is not UTF-8"))
    }

    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// One `read` call with transient conditions retried: `Interrupted` always,
/// `WouldBlock` up to [`TRANSIENT_RETRY_LIMIT`] times with a short pause.
pub(crate) fn read_retrying(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut budget = TRANSIENT_RETRY_LIMIT;
    loop {
        match r.read(buf) {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && budget > 0 => {
                budget -= 1;
                std::thread::sleep(TRANSIENT_RETRY_PAUSE);
            }
            other => return other,
        }
    }
}

/// Fills `buf` completely via [`read_retrying`]; EOF before the buffer
/// fills is `UnexpectedEof`.
fn read_exact_retrying(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match read_retrying(r, &mut buf[filled..])? {
            0 => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => filled += n,
        }
    }
    Ok(())
}

/// Writes `buf` completely with the same transient-retry policy as
/// [`read_retrying`].
pub(crate) fn write_all_retrying(w: &mut impl Write, mut buf: &[u8]) -> std::io::Result<()> {
    let mut budget = TRANSIENT_RETRY_LIMIT;
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && budget > 0 => {
                budget -= 1;
                std::thread::sleep(TRANSIENT_RETRY_PAUSE);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Flushes with the transient-retry policy of [`read_retrying`].
fn flush_retrying(w: &mut impl Write) -> std::io::Result<()> {
    let mut budget = TRANSIENT_RETRY_LIMIT;
    loop {
        match w.flush() {
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && budget > 0 => {
                budget -= 1;
                std::thread::sleep(TRANSIENT_RETRY_PAUSE);
            }
            other => return other,
        }
    }
}

/// Writes one frame — `type` byte, `u32` payload length, `u32` CRC-32 over
/// type+length+payload, payload — and flushes, so a frame is visible to the
/// peer the moment the call returns.
///
/// # Errors
///
/// Propagates transport errors; rejects payloads over [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, frame_type: u8, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            WireError::malformed(format!("frame payload {} too large", payload.len()))
        })?;
    let crc = frame_crc(frame_type, len, payload);
    write_all_retrying(w, &[frame_type])?;
    write_all_retrying(w, &len.to_le_bytes())?;
    write_all_retrying(w, &crc.to_le_bytes())?;
    write_all_retrying(w, payload)?;
    flush_retrying(w)?;
    Ok(())
}

/// Reads one frame and verifies its CRC. Returns `Ok(None)` on a clean
/// end-of-stream (EOF at a frame boundary — how a closed pipe or socket
/// looks); EOF *inside* a frame is malformed (the peer died mid-write).
///
/// # Errors
///
/// Propagates transport errors; rejects length prefixes over
/// [`MAX_FRAME_LEN`], truncated frames, and checksum mismatches.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    let mut type_byte = [0u8; 1];
    match read_retrying(r, &mut type_byte) {
        Ok(0) => return Ok(None),
        Ok(_) => {}
        Err(e) => return Err(e.into()),
    }
    let mut len_bytes = [0u8; 4];
    read_exact_retrying(r, &mut len_bytes)
        .map_err(|_| WireError::malformed("stream ended inside a frame header"))?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(WireError::malformed(format!(
            "frame length {len} exceeds cap"
        )));
    }
    let mut crc_bytes = [0u8; 4];
    read_exact_retrying(r, &mut crc_bytes)
        .map_err(|_| WireError::malformed("stream ended inside a frame header"))?;
    let expected = u32::from_le_bytes(crc_bytes);
    let mut payload = vec![0u8; len as usize];
    read_exact_retrying(r, &mut payload)
        .map_err(|_| WireError::malformed("stream ended inside a frame payload"))?;
    let actual = frame_crc(type_byte[0], len, &payload);
    if actual != expected {
        return Err(WireError::malformed(format!(
            "frame crc mismatch (type {}, len {len}): computed {actual:#010x}, header carries \
             {expected:#010x}",
            type_byte[0]
        )));
    }
    Ok(Some((type_byte[0], payload)))
}

#[cfg(test)]
mod tests {
    use super::*;

    use sysscale_types::rng::SplitMix64;

    #[test]
    fn scalars_round_trip_bit_exactly() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..200 {
            let a = rng.next_u64();
            let b = rng.next_u64() as u32;
            let c = rng.next_u64() as u16;
            let d = rng.next_u64() as u8;
            // Arbitrary bit patterns, including NaNs and infinities.
            let f = f64::from_bits(rng.next_u64());
            let flag = rng.next_u64() % 2 == 0;

            let mut enc = Enc::new();
            enc.put_u64(a);
            enc.put_u32(b);
            enc.put_u16(c);
            enc.put_u8(d);
            enc.put_f64(f);
            enc.put_bool(flag);
            let bytes = enc.into_bytes();

            let mut dec = Dec::new(&bytes);
            assert_eq!(dec.u64().unwrap(), a);
            assert_eq!(dec.u32().unwrap(), b);
            assert_eq!(dec.u16().unwrap(), c);
            assert_eq!(dec.u8().unwrap(), d);
            assert_eq!(dec.f64().unwrap().to_bits(), f.to_bits());
            assert_eq!(dec.bool().unwrap(), flag);
            dec.finish().unwrap();
        }
    }

    #[test]
    fn strings_and_blobs_round_trip() {
        let mut enc = Enc::new();
        enc.put_str("");
        enc.put_str("437.leslie3d");
        enc.put_str("unicode: μJ → ∞");
        enc.put_bytes(&[0, 255, 1, 254]);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        assert_eq!(dec.str().unwrap(), "");
        assert_eq!(dec.str().unwrap(), "437.leslie3d");
        assert_eq!(dec.str().unwrap(), "unicode: μJ → ∞");
        assert_eq!(dec.bytes().unwrap(), &[0, 255, 1, 254]);
        dec.finish().unwrap();
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let mut enc = Enc::new();
        enc.put_u64(42);
        let bytes = enc.into_bytes();
        // Truncated: ask for more than is there.
        let mut dec = Dec::new(&bytes[..4]);
        assert!(dec.u64().is_err());
        // Trailing: finish() must notice unconsumed bytes.
        let dec = Dec::new(&bytes);
        assert!(dec.finish().is_err());
        // Bad bool byte.
        let mut dec = Dec::new(&[7]);
        assert!(dec.bool().is_err());
        // Non-UTF-8 string.
        let mut enc = Enc::new();
        enc.put_bytes(&[0xFF, 0xFE]);
        let bytes = enc.into_bytes();
        assert!(Dec::new(&bytes).str().is_err());
    }

    #[test]
    fn frames_round_trip_over_a_byte_stream() {
        let mut stream = Vec::new();
        write_frame(&mut stream, 3, b"hello").unwrap();
        write_frame(&mut stream, 9, b"").unwrap();
        write_frame(&mut stream, 255, &[1, 2, 3]).unwrap();

        let mut cursor = std::io::Cursor::new(stream);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Some((3, b"hello".to_vec()))
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((9, Vec::new())));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some((255, vec![1, 2, 3])));
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn eof_inside_a_frame_is_malformed_not_clean() {
        let mut stream = Vec::new();
        write_frame(&mut stream, 1, b"payload").unwrap();
        // Chop the stream inside the payload.
        stream.truncate(stream.len() - 3);
        let mut cursor = std::io::Cursor::new(stream);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut stream = vec![1u8];
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(stream);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 (IEEE 802.3) check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn any_single_bit_flip_in_a_frame_is_detected() {
        let mut clean = Vec::new();
        write_frame(&mut clean, 3, &[0xAB, 0x00, 0xFF, 0x42]).unwrap();
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut corrupt = clean.clone();
                corrupt[byte] ^= 1 << bit;
                let mut cursor = std::io::Cursor::new(corrupt);
                let outcome = read_frame(&mut cursor);
                assert!(
                    outcome.is_err(),
                    "flip at byte {byte} bit {bit} slipped through: {outcome:?}"
                );
            }
        }
    }
}
