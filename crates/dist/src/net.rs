//! Transient-failure handling for the byte streams the frames travel on.
//!
//! Two concerns live here, both satellites of the fault-tolerance layer:
//!
//! * **retry accounting**: `CountRetries` wraps one end of a stream and
//!   counts every transient error (`Interrupted`, `WouldBlock`) its inner
//!   stream returns into a counter the caller owns. The wire layer's frame
//!   helpers absorb those errors; the dispatcher wraps both ends of every
//!   worker's pipes with one counter per run, so
//!   [`crate::DistStats::retries`] is a per-run figure even when several
//!   dispatchers share one process;
//! * a **bounded, deterministically-jittered TCP connect backoff**
//!   ([`connect_with_backoff`]): sweep-service clients
//!   ([`crate::ServeClient::connect_tcp`]) dialing a listener retry a
//!   refused or not-yet-listening address with exponential delays whose
//!   jitter comes from a [`SplitMix64`] seeded by the address — no wall
//!   clock, no global RNG, same delay schedule on every run. Only
//!   *transient* connect errors are retried: a permanent failure (an
//!   unparseable address, an unroutable one) fails on the first attempt
//!   instead of burning the whole backoff budget.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sysscale_types::rng::SplitMix64;

/// The workspace's content hash (recipe fingerprints, backoff jitter seeds).
pub use sysscale_types::fnv1a64;

/// Connect attempts before [`connect_with_backoff`] gives up.
pub const CONNECT_ATTEMPTS: u32 = 8;

/// First retry delay; doubles per attempt up to [`CONNECT_DELAY_CAP_MS`].
const CONNECT_BASE_DELAY_MS: u64 = 2;

/// Ceiling on a single backoff delay.
const CONNECT_DELAY_CAP_MS: u64 = 100;

/// A `Read + Write` wrapper that adds one to `retries` for every
/// `Interrupted` or `WouldBlock` error its inner stream returns. The error
/// still reaches the caller unchanged — the wire layer's retrying helpers
/// absorb it — so wrapping a stream changes only the accounting.
pub(crate) struct CountRetries<T> {
    inner: T,
    retries: Arc<AtomicU64>,
}

impl<T> CountRetries<T> {
    pub(crate) fn new(inner: T, retries: Arc<AtomicU64>) -> Self {
        Self { inner, retries }
    }

    fn count<R>(&self, result: std::io::Result<R>) -> std::io::Result<R> {
        if let Err(error) = &result {
            if matches!(error.kind(), ErrorKind::Interrupted | ErrorKind::WouldBlock) {
                self.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }
}

impl<T: Read> Read for CountRetries<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let result = self.inner.read(buf);
        self.count(result)
    }
}

impl<T: Write> Write for CountRetries<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let result = self.inner.write(buf);
        self.count(result)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let result = self.inner.flush();
        self.count(result)
    }
}

/// Whether a failed `connect` is worth retrying: the peer may simply not be
/// listening *yet* (refused, reset, aborted, timed out) or the kernel asked
/// us to try again (`WouldBlock`, `Interrupted`). Anything else — an
/// unparseable address (`InvalidInput`), an address this host cannot use
/// (`AddrNotAvailable`), a permission failure — is permanent: retrying
/// burns the whole backoff budget to reach the identical error.
fn connect_error_is_transient(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
            | ErrorKind::Interrupted
    )
}

/// Connects to `addr` with bounded exponential backoff: up to
/// [`CONNECT_ATTEMPTS`] attempts, delays doubling from 2ms to a 100ms cap,
/// each stretched by a deterministic jitter (up to +50%) drawn from a
/// [`SplitMix64`] seeded by the address — so every run waits identically.
///
/// A listener that is momentarily slow to `accept` (or an address
/// published a beat before `listen`) is a retry, not a failed client. Only
/// transient error kinds are retried; a permanent failure (unparseable
/// address, `AddrNotAvailable`, permission denied) returns on the **first**
/// attempt instead of sleeping through the full backoff schedule.
///
/// # Errors
///
/// The first non-transient connect error, or the last transient one once
/// the attempt budget is exhausted.
pub fn connect_with_backoff(addr: &str) -> std::io::Result<TcpStream> {
    connect_counting_retries(addr).0
}

/// [`connect_with_backoff`], also returning how many attempts were retried.
fn connect_counting_retries(addr: &str) -> (std::io::Result<TcpStream>, u32) {
    let mut rng = SplitMix64::new(fnv1a64(addr.as_bytes()) ^ 0x5359_5353_4341_4C45);
    let mut delay_ms = CONNECT_BASE_DELAY_MS;
    let mut last_error = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => return (Ok(stream), attempt),
            Err(error) if connect_error_is_transient(error.kind()) => last_error = Some(error),
            Err(error) => return (Err(error), attempt),
        }
        if attempt + 1 < CONNECT_ATTEMPTS {
            let jitter = rng.next_u64() % (delay_ms / 2 + 1);
            std::thread::sleep(Duration::from_millis(delay_ms + jitter));
            delay_ms = (delay_ms * 2).min(CONNECT_DELAY_CAP_MS);
        }
    }
    let error =
        last_error.unwrap_or_else(|| std::io::Error::new(ErrorKind::NotConnected, "no attempts"));
    (Err(error), CONNECT_ATTEMPTS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_with_backoff_reaches_a_live_listener_first_try() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (stream, retries) = connect_counting_retries(&addr);
        drop(stream.expect("live listener"));
        assert_eq!(retries, 0, "a live listener costs zero retries");
    }

    #[test]
    fn connect_with_backoff_retries_transient_refusals() {
        // Bind-then-drop frees a port that normally refuses. The port *can*
        // be re-bound by an unrelated process between drop and connect, so
        // an unexpected success is an environment artifact, not a failure:
        // try a few fresh ports before giving the environment up as too
        // busy to test against (instead of flaking).
        for _ in 0..5 {
            let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            drop(listener);
            let started = std::time::Instant::now();
            let (outcome, retries) = connect_counting_retries(&addr);
            if outcome.is_ok() {
                continue; // port re-bound under us; try another
            }
            assert_eq!(
                retries,
                CONNECT_ATTEMPTS - 1,
                "every failed attempt but the last must count as a retry"
            );
            // Bounded: the whole budget is well under a second of delays.
            assert!(started.elapsed() < Duration::from_secs(10));
            return;
        }
        // Five freed ports all got re-bound instantly: nothing to assert
        // in an environment this adversarial, but nothing failed either.
    }

    #[test]
    fn connect_with_backoff_fails_fast_on_permanent_errors() {
        // An unparseable address can never succeed; retrying it would burn
        // the whole ~400ms backoff budget to reach the identical error.
        let started = std::time::Instant::now();
        let (outcome, retries) = connect_counting_retries("definitely not an address");
        assert!(outcome.is_err(), "nonsense address must fail");
        assert_eq!(retries, 0, "permanent failures must not retry");
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "permanent failures must not sleep through the backoff schedule"
        );
    }

    /// Yields one byte per read, with an `Interrupted` error before each.
    struct InterruptEveryOtherRead {
        reads: u64,
    }

    impl Read for InterruptEveryOtherRead {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            if self.reads % 2 == 1 {
                return Err(ErrorKind::Interrupted.into());
            }
            buf[0] = 0xA5;
            Ok(1)
        }
    }

    #[test]
    fn retry_counters_attribute_retries_per_stream_not_per_thread() {
        // Two runs' streams, read alternately on one thread: each counter
        // sees exactly its own stream's transient errors, which the wire
        // layer absorbs on the way to the bytes.
        let (count_a, count_b) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let mut a = CountRetries::new(InterruptEveryOtherRead { reads: 0 }, Arc::clone(&count_a));
        let mut b = CountRetries::new(InterruptEveryOtherRead { reads: 0 }, Arc::clone(&count_b));
        let mut byte = [0u8; 1];
        for round in 0..5 {
            assert_eq!(crate::wire::read_retrying(&mut a, &mut byte).unwrap(), 1);
            if round < 2 {
                assert_eq!(crate::wire::read_retrying(&mut b, &mut byte).unwrap(), 1);
            }
        }
        assert_eq!(count_a.load(Ordering::Relaxed), 5);
        assert_eq!(count_b.load(Ordering::Relaxed), 2);
    }
}
