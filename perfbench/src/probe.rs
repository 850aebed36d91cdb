//! Process-level probes read from `/proc/self`.

use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which the
/// kernel ABI fixes at 100 per second.
const TICKS_PER_SEC: f64 = 100.0;

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// CPU time (user + system) of this process plus its waited-for children,
/// seconds.
#[must_use]
pub fn cpu_secs() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime, stime, cutime and cstime are fields 14 to 17.
    let Some(rest) = stat.rsplit_once(')').map(|(_, rest)| rest) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = (11..15)
        .filter_map(|i| fields.get(i)?.parse::<u64>().ok())
        .sum();
    ticks as f64 / TICKS_PER_SEC
}

/// Wall and CPU time at one instant, for deltas over a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu: f64,
}

impl Mark {
    #[must_use]
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_secs(),
        }
    }

    /// `(wall seconds, cpu seconds)` elapsed since this mark.
    #[must_use]
    pub fn since(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_secs() - self.cpu)
    }
}
