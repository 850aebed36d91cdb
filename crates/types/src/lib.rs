//! # sysscale-types
//!
//! Shared vocabulary types for the SysScale mobile-SoC simulator: physical
//! units, SoC domains and voltage rails, DVFS operating points, PMU
//! performance counters, run metrics, statistics helpers, error types, and
//! the deterministic scoped worker pool ([`exec`]) the batch runners build
//! on.
//!
//! This crate is dependency-free and is consumed by every
//! other crate in the workspace.
//!
//! ## Example
//!
//! ```
//! use sysscale_types::{Domain, Freq, Power, SimTime};
//!
//! // Table 1 of the paper: the low operating point runs DRAM at 1.06 GHz.
//! let dram = Freq::from_ghz(1.06);
//! assert!(dram < Freq::from_ghz(1.6));
//!
//! // 4.5 W TDP over a 30 ms evaluation interval is a 135 mJ energy budget.
//! let budget = Power::from_watts(4.5) * SimTime::from_millis(30.0);
//! assert!((budget.as_mj() - 135.0).abs() < 1e-9);
//! assert_eq!(Domain::ALL.len(), 3);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod counters;
mod domain;
mod error;
pub mod exec;
mod metrics;
mod operating_point;
pub mod rng;
pub mod stats;
mod units;

pub use counters::{CounterKind, CounterSet, CounterWindow};
pub use domain::{Component, Domain, DomainMap, Rail};
pub use error::{SimError, SimResult};
pub use metrics::RunMetrics;
pub use operating_point::{
    skylake_lpddr3_ladder, OperatingPointId, OperatingPointTable, OperatingPointTableError,
    TransitionLatency, UncoreOperatingPoint,
};
pub use units::{Bandwidth, DataVolume, Energy, Freq, Power, SimTime, Voltage};

/// FNV-1a 64-bit hash — the workspace's deterministic, dependency-free
/// content hash (platform fingerprints, recipe fingerprints, backoff jitter
/// seeds). Its values are pinned: recipe fingerprints and journal keys
/// depend on them.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_known_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_F739_67E8);
    }
}
