//! Transient-failure handling for the dispatcher↔worker transports.
//!
//! Two concerns live here, both satellites of the fault-tolerance layer:
//!
//! * **retry accounting**: every transient I/O condition the wire layer
//!   absorbs (`Interrupted`, bounded `WouldBlock`, TCP connect retries)
//!   bumps a process-global total *and* the [`RetryScope`] installed on the
//!   current thread, if any. A dispatcher installs one scope per run — on
//!   its own thread and on every reader thread it spawns — so
//!   [`crate::DistStats::retries`] is a genuinely per-run figure even when
//!   several dispatchers share one process, while [`transient_retries`]
//!   stays the process-lifetime total;
//! * a **bounded, deterministically-jittered TCP connect backoff**
//!   ([`connect_with_backoff`]): workers dialing the dispatcher back retry
//!   a refused or not-yet-listening address with exponential delays whose
//!   jitter comes from a [`SplitMix64`] seeded by the address — no wall
//!   clock, no global RNG, same delay schedule on every run. Only
//!   *transient* connect errors are retried: a permanent failure (an
//!   unparseable address, an unroutable one) fails on the first attempt
//!   instead of burning the whole backoff budget.

use std::cell::RefCell;
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

/// Transient retries absorbed since process start (monotone; see
/// [`transient_retries`]).
static TRANSIENT_RETRIES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The per-run retry counter installed on this thread, if any.
    static ACTIVE_SCOPE: RefCell<Option<Arc<AtomicU64>>> = const { RefCell::new(None) };
}

/// A per-run transient-retry counter.
///
/// The process-global [`transient_retries`] total cannot attribute retries
/// to a run: two dispatchers in one process snapshotting before/after would
/// see each other's retries. A `RetryScope` is the per-run fix — the
/// dispatcher creates one per dispatch, installs it (via [`RetryScope::enter`])
/// on every thread that performs wire I/O for that run, and reads
/// [`RetryScope::count`] at the end. Retries noted on a thread with no
/// installed scope still count toward the process total only.
#[derive(Debug, Clone, Default)]
pub struct RetryScope {
    count: Arc<AtomicU64>,
}

impl RetryScope {
    /// A fresh scope with a zero count.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Retries attributed to this scope so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Installs this scope on the current thread until the returned guard
    /// drops (restoring whatever scope was active before — scopes nest).
    #[must_use]
    pub fn enter(&self) -> RetryScopeGuard {
        let previous =
            ACTIVE_SCOPE.with(|active| active.borrow_mut().replace(Arc::clone(&self.count)));
        RetryScopeGuard { previous }
    }
}

/// Restores the previously-installed [`RetryScope`] (if any) on drop.
#[derive(Debug)]
pub struct RetryScopeGuard {
    previous: Option<Arc<AtomicU64>>,
}

impl Drop for RetryScopeGuard {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ACTIVE_SCOPE.with(|active| *active.borrow_mut() = previous);
    }
}

/// Records one absorbed transient condition (`Interrupted`, `WouldBlock`,
/// or a connect retry): bumps the process total and the current thread's
/// installed [`RetryScope`], if any.
pub(crate) fn note_transient_retry() {
    TRANSIENT_RETRIES.fetch_add(1, Ordering::Relaxed);
    ACTIVE_SCOPE.with(|active| {
        if let Some(scope) = active.borrow().as_ref() {
            scope.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Transient I/O retries absorbed by this process since start. Monotone and
/// process-global; for a per-run figure, install a [`RetryScope`] (as
/// [`crate::DistStats::retries`] does).
#[must_use]
pub fn transient_retries() -> u64 {
    TRANSIENT_RETRIES.load(Ordering::Relaxed)
}

/// Whether a failed `connect` is worth retrying: the peer may simply not be
/// listening *yet* (refused, reset, aborted, timed out) or the kernel asked
/// us to try again (`WouldBlock`, `Interrupted`). Anything else — an
/// unparseable address (`InvalidInput`), an address this host cannot use
/// (`AddrNotAvailable`), a permission failure — is permanent: retrying
/// burns the whole backoff budget to reach the identical error.
fn connect_error_is_transient(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind;
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
/// [`SplitMix64`] seeded by the address — so two workers racing to the same
/// dispatcher don't retry in lockstep, yet every run waits identically.
///
/// This replaces the worker binary's previous single `connect` attempt: a
/// dispatcher that is momentarily slow to `accept` (or an address published
/// a beat before `listen`) is a retry, not a dead worker. Only transient
/// error kinds are retried; a permanent failure (unparseable address,
/// `AddrNotAvailable`, permission denied) returns on the **first** attempt
/// instead of sleeping through the full backoff schedule.
///
/// # Errors
///
/// The first non-transient connect error, or the last transient one once
/// the attempt budget is exhausted.
pub fn connect_with_backoff(addr: &str) -> std::io::Result<TcpStream> {
    let mut rng = SplitMix64::new(fnv1a64(addr.as_bytes()) ^ 0x5359_5353_4341_4C45);
    let mut delay_ms = CONNECT_BASE_DELAY_MS;
    let mut last_error = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(error) if connect_error_is_transient(error.kind()) => last_error = Some(error),
            Err(error) => return Err(error),
        }
        if attempt + 1 < CONNECT_ATTEMPTS {
            note_transient_retry();
            let jitter = rng.next_u64() % (delay_ms / 2 + 1);
            std::thread::sleep(Duration::from_millis(delay_ms + jitter));
            delay_ms = (delay_ms * 2).min(CONNECT_DELAY_CAP_MS);
        }
    }
    Err(last_error
        .unwrap_or_else(|| std::io::Error::new(std::io::ErrorKind::NotConnected, "no attempts")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn connect_with_backoff_reaches_a_live_listener_first_try() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let scope = RetryScope::new();
        let _guard = scope.enter();
        let stream = connect_with_backoff(&addr).expect("live listener");
        drop(stream);
        assert_eq!(scope.count(), 0, "a live listener costs zero retries");
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
            let scope = RetryScope::new();
            let guard = scope.enter();
            let started = std::time::Instant::now();
            let outcome = connect_with_backoff(&addr);
            drop(guard);
            if outcome.is_ok() {
                continue; // port re-bound under us; try another
            }
            assert_eq!(
                scope.count(),
                u64::from(CONNECT_ATTEMPTS - 1),
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
        let scope = RetryScope::new();
        let _guard = scope.enter();
        let started = std::time::Instant::now();
        let outcome = connect_with_backoff("definitely not an address");
        assert!(outcome.is_err(), "nonsense address must fail");
        assert_eq!(scope.count(), 0, "permanent failures must not retry");
        assert!(
            started.elapsed() < Duration::from_millis(250),
            "permanent failures must not sleep through the backoff schedule"
        );
    }

    #[test]
    fn retry_scopes_attribute_retries_per_run_not_per_process() {
        // Two interleaved "runs" (scopes) on two threads: each must see
        // exactly its own retries while the process total sees both — the
        // regression the process-global snapshot accounting had.
        let scope_a = RetryScope::new();
        let scope_b = RetryScope::new();
        let total_before = transient_retries();
        let barrier = std::sync::Barrier::new(2);
        let run = |scope: &RetryScope, bumps: u64| {
            let _guard = scope.enter();
            for _ in 0..bumps {
                barrier.wait();
                note_transient_retry();
            }
        };
        std::thread::scope(|s| {
            s.spawn(|| run(&scope_a, 3));
            run(&scope_b, 3);
        });
        assert_eq!(scope_a.count(), 3);
        assert_eq!(scope_b.count(), 3);
        assert!(transient_retries() - total_before >= 6);
    }

    #[test]
    fn retry_scope_guard_restores_the_previous_scope() {
        let outer = RetryScope::new();
        let inner = RetryScope::new();
        let _outer_guard = outer.enter();
        note_transient_retry();
        {
            let _inner_guard = inner.enter();
            note_transient_retry();
        }
        note_transient_retry();
        assert_eq!(outer.count(), 2, "outer scope resumes after inner drops");
        assert_eq!(inner.count(), 1);
    }
}
