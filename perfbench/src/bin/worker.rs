//! Worker process of the `dist_sweep` workload: the repository's dispatcher
//! protocol on stdin/stdout ([`sysscale_dist::worker_main`]). When
//! `PERFBENCH_WORKER_RSS_DIR` is set, the worker writes its peak resident
//! set (`VmHWM`, KiB) to `<dir>/<pid>` on exit so the benchmark can report
//! the workers' memory beside its own.

use std::process::ExitCode;

fn vm_hwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

fn main() -> ExitCode {
    let outcome = sysscale_dist::worker_main(std::io::stdin().lock(), std::io::stdout().lock());
    if let (Ok(dir), Some(kib)) = (std::env::var("PERFBENCH_WORKER_RSS_DIR"), vm_hwm_kib()) {
        let path = std::path::Path::new(&dir).join(std::process::id().to_string());
        let _ = std::fs::write(path, kib.to_string());
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench-worker: {message}");
            ExitCode::FAILURE
        }
    }
}
