//! Fault-tolerance probe: the fig. 10 sweep as one checksummed process.
//!
//! Runs the distributed fig. 10 sweep ([`SweepRecipe::fig10`]) and prints a
//! single JSON line with an FNV-1a-64 hash over every result record's codec
//! encoding (flat order) plus the run's [`sysscale_dist::DistStats`]
//! counters. Two
//! invocations print the same hash iff their merged results are
//! byte-identical — which is exactly what the checkpoint/resume and
//! wire-fault CI jobs assert across kill/resume cycles, process counts,
//! and fault-plan seeds.
//!
//! `--halt-after N` aborts the dispatcher after `N` retired leases (exit
//! code 3, journal left behind) — a deterministic stand-in for `kill -9` on
//! the dispatcher; the CI job also kills the real process mid-run.

use std::path::PathBuf;
use std::process::ExitCode;

use sysscale_dist::dispatcher::PoisonFault;
use sysscale_dist::net::fnv1a64;
use sysscale_dist::{codec, run_distributed, DistOptions, Enc, SweepRecipe};

const USAGE: &str = "usage: sysscale-dist-fig10 [--tdps W,W,..] [--procs N] \
                     [--journal PATH] [--halt-after N] [--fault-plan SEED] \
                     [--poison-flat N [--poison-crash]] [--duration SECS]";

fn fail(message: impl std::fmt::Display) -> ExitCode {
    eprintln!("sysscale-dist-fig10: {message}");
    ExitCode::FAILURE
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut tdps: Vec<f64> = vec![3.5, 4.5];
    let mut procs: Option<usize> = None;
    let mut journal: Option<PathBuf> = None;
    let mut halt_after: Option<usize> = None;
    let mut fault_plan: Option<u64> = None;
    let mut poison_flat: Option<usize> = None;
    let mut poison_crash = false;
    let mut duration_secs: Option<f64> = Some(0.25);

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        let parsed = match arg.as_str() {
            "--tdps" => value("--tdps").and_then(|v| {
                v.split(',')
                    .map(|w| w.trim().parse::<f64>().map_err(|e| format!("--tdps: {e}")))
                    .collect::<Result<Vec<f64>, _>>()
                    .map(|list| tdps = list)
            }),
            "--procs" => value("--procs").and_then(|v| {
                v.parse()
                    .map(|n| procs = Some(n))
                    .map_err(|e| format!("--procs: {e}"))
            }),
            "--journal" => value("--journal").map(|v| journal = Some(PathBuf::from(v))),
            "--halt-after" => value("--halt-after").and_then(|v| {
                v.parse()
                    .map(|n| halt_after = Some(n))
                    .map_err(|e| format!("--halt-after: {e}"))
            }),
            "--fault-plan" => value("--fault-plan").and_then(|v| {
                v.parse()
                    .map(|s| fault_plan = Some(s))
                    .map_err(|e| format!("--fault-plan: {e}"))
            }),
            "--poison-flat" => value("--poison-flat").and_then(|v| {
                v.parse()
                    .map(|n| poison_flat = Some(n))
                    .map_err(|e| format!("--poison-flat: {e}"))
            }),
            "--poison-crash" => {
                poison_crash = true;
                Ok(())
            }
            "--duration" => value("--duration").and_then(|v| {
                v.parse()
                    .map(|s| duration_secs = Some(s))
                    .map_err(|e| format!("--duration: {e}"))
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other:?}\n{USAGE}")),
        };
        if let Err(message) = parsed {
            return fail(message);
        }
    }

    let mut recipe = SweepRecipe::fig10(&tdps);
    for member in &mut recipe.members {
        member.duration_secs = duration_secs;
    }
    let options = DistOptions {
        procs,
        journal,
        fault_plan,
        halt_after_leases: halt_after,
        poison: poison_flat.map(|flat| PoisonFault {
            flat,
            crash: poison_crash,
        }),
        max_respawns: 64, // bisection under a crash-poison burns respawns
        ..DistOptions::default()
    };

    let outcome = if poison_flat.is_some() {
        sysscale_dist::run_distributed_partial(&recipe, &options)
    } else {
        run_distributed(&recipe, &options).map(|(sets, stats)| (sets, Default::default(), stats))
    };
    let (run_sets, failed, stats) = match outcome {
        Ok(result) => result,
        // A deliberate halt is the probe's stand-in for a dispatcher kill:
        // distinct exit code so CI can tell it from a real failure.
        Err(error) if error.to_string().contains("halted after") => {
            eprintln!("sysscale-dist-fig10: {error}");
            return ExitCode::from(3);
        }
        Err(error) => return fail(error),
    };

    // Hash every record's codec encoding, flat order: byte-identity in one
    // u64. Quarantined cells are absent from the stream on every run with
    // the same poison, so the hash stays comparable.
    let mut enc = Enc::new();
    let mut cells = 0u64;
    for set in &run_sets {
        for record in set.records() {
            codec::put_record(&mut enc, record);
            cells += 1;
        }
    }
    let hash = fnv1a64(&enc.into_bytes());
    let quarantined: Vec<String> = failed
        .cells()
        .iter()
        .map(|c| c.cell.flat.to_string())
        .collect();
    println!(
        "{{\"kind\":\"dist_fig10\",\"procs\":{},\"slots\":{},\"cells\":{},\"hash\":\"{:#018x}\",\
         \"quarantined\":[{}],\"quarantined_cells\":{},\"journal_resumes\":{},\
         \"frames_rejected\":{},\"retries\":{},\"reissued_leases\":{},\"result_frames\":{}}}",
        procs.unwrap_or(0),
        stats.slots,
        cells,
        hash,
        quarantined.join(","),
        stats.quarantined_cells,
        stats.journal_resumes,
        stats.frames_rejected,
        stats.retries,
        stats.reissued_leases,
        stats.result_frames,
    );
    ExitCode::SUCCESS
}
