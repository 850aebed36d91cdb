//! The distributed sweep worker executable.
//!
//! Spawned by the dispatcher ([`sysscale_dist::run_distributed`]), one
//! process per virtual worker slot. Speaks the framed protocol on
//! stdin/stdout; the opening `Job` frame carries its whole configuration.

use std::process::ExitCode;

use sysscale_dist::worker_main;

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        if arg == "--help" || arg == "-h" {
            println!(
                "usage: sysscale-dist-worker\n\n\
                 Executes sweep leases for a sysscale-dist dispatcher, speaking\n\
                 the framed protocol on stdin/stdout. It takes no arguments:\n\
                 the dispatcher's opening Job frame configures it."
            );
            return ExitCode::SUCCESS;
        }
        eprintln!("sysscale-dist-worker: unknown argument {arg:?}");
        return ExitCode::FAILURE;
    }

    match worker_main(std::io::stdin().lock(), std::io::stdout().lock()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sysscale-dist-worker: {message}");
            ExitCode::FAILURE
        }
    }
}
