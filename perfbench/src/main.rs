//! The repository's benchmark: four workloads driven through the crates'
//! public API from one process, with `nproc` compute workers.
//!
//! ```text
//! perfbench --workload <eval_sweep|serve_open|serve_mixed|dist_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>] [--rustc <v>] [--revision <r>]
//! ```
//!
//! The untraced run (`--trace 0`) prints every end-to-end metric; the traced
//! run (`--trace 1`) measures half the run untraced and half with spans and
//! counters around every layer call, and prints every per-layer metric plus
//! the tracing overhead. Every run checks its outputs; the last stdout line
//! is `{"correct", "attempted", "failed", "metrics"}`, and a full record
//! (metadata, notes, span summary, and for traced runs the spans) goes to
//! `--out-dir`. The exit code is non-zero when an output check failed.

mod dist;
mod eval;
mod fidelity;
mod layers;
mod probe;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use sysscale::{DemandPredictor, SocConfig};

use crate::layers::LayerTotals;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("cells_per_s", "cells/s"),
    ("slices_per_s", "slices/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("big_sweep_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("cpu_ms_per_cell", "ms"),
    ("gap_fig7_sysscale_pp", "pp"),
    ("gap_fig7_memscale_r_pp", "pp"),
    ("gap_fig7_coscale_r_pp", "pp"),
    ("gap_fig8_sysscale_pp", "pp"),
    ("gap_fig9_sysscale_pp", "pp"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("workloads.population_ms", "ms"),
    ("calibration.calibrate_ms", "ms"),
    ("recipe.build_ms", "ms"),
    ("recipe.encode_us", "us"),
    ("recipe.decode_us", "us"),
    ("scenario.plan_ms", "ms"),
    ("scenario.cell_us_p50", "us"),
    ("scenario.cell_us_p99", "us"),
    ("scenario.setup_us", "us"),
    ("scenario.fold_us", "us"),
    ("scenario.merge_us", "us"),
    ("scenario.sim_builds", "ratio"),
    ("scenario.worker_busy_frac", "ratio"),
    ("scenario.imbalance", "ratio"),
    ("soc.ns_per_slice", "ns"),
    ("soc.slices", "slices/cell"),
    ("soc.fixed_point_iters_per_slice", "iters/slice"),
    ("soc.transitions", "count/cell"),
    ("governor.decisions", "count/cell"),
    ("governor.decide_ns", "ns"),
    ("governor.build_us", "us"),
    ("codec.record_bytes", "bytes"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("wire.frame_us", "us"),
    ("serve.admit_us", "us"),
    ("serve.first_cell_ms", "ms"),
    ("serve.queued_ms", "ms"),
    ("serve.exec_ms", "ms"),
    ("serve.max_queue_depth", "count"),
    ("serve.busy_shed", "count"),
    ("serve.frames_rejected", "count"),
    ("serve.cached_platforms", "count"),
    ("client.gen_lag_p99_ms", "ms"),
    ("client.frames_in", "count"),
    ("dist.leases", "count/sweep"),
    ("dist.result_frames", "count/sweep"),
    ("dist.heartbeats", "count/sweep"),
    ("dist.workers_spawned", "count/sweep"),
    ("dist.reissued_leases", "count"),
    ("dist.retries", "count"),
    ("dist.first_result_ms", "ms"),
    ("dist.overhead_frac", "ratio"),
    ("proc.cpu_util", "ratio"),
    ("trace.overhead_cells_per_s", "cells/s"),
    ("trace.overhead_latency_p50_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.bench_run_self_ms", "ms"),
];

/// What a workload run needs to know.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Compute workers: fold threads, service workers, worker processes.
    pub threads: usize,
    /// The traced run's spans and the cell clock count from here.
    pub epoch: Instant,
    /// Where runs write their records (and the workers their peak RSS).
    pub out_dir: PathBuf,
}

/// One workload run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run's own measurement is not trustworthy, if it is not: the
    /// open-loop generator fell behind its schedule, or too few latency
    /// samples lie beyond the p99.
    pub invalid: Option<String>,
    pub e2e: BTreeMap<&'static str, f64>,
    pub layers: BTreeMap<&'static str, f64>,
    /// Sample counts and other context behind the metrics.
    pub notes: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.insert(name, value);
    }

    /// `latency_p50_ms` and `latency_p99_ms` from samples in any unit
    /// (`to_ms` converts), with the sample count and the p99's tail count.
    /// A p99 with fewer than [`stats::TAIL_SAMPLES`] samples beyond it
    /// marks the run invalid.
    pub fn latency(&mut self, samples: &Samples, to_ms: f64) {
        self.e2e("latency_p50_ms", samples.median() * to_ms);
        self.e2e("latency_p99_ms", samples.pct(0.99) * to_ms);
        let beyond = stats::beyond(samples.len(), 0.99);
        self.note("latency_samples", samples.len() as f64);
        self.note("latency_p99_beyond", beyond as f64);
        if !samples.tail_ok(0.99) && self.invalid.is_none() {
            self.invalid = Some(format!(
                "latency p99 has {beyond} of {} samples beyond it (need {})",
                samples.len(),
                stats::TAIL_SAMPLES
            ));
        }
    }

    /// The fidelity gaps, through the library's Figs. 7–9 fold.
    pub fn gaps(&mut self, config: &SocConfig, predictor: &DemandPredictor, threads: usize) {
        for gap in fidelity::gaps(config, predictor, threads).expect("evaluation figures") {
            let name = END_TO_END
                .iter()
                .find(|(n, _)| *n == gap.claim.metric)
                .expect("fidelity.tsv metric is an end-to-end metric")
                .0;
            self.e2e(name, gap.gap_pp);
        }
    }

    /// The scenario, soc and governor layer metrics of traced folds.
    pub fn cell_layers(&mut self, t: &LayerTotals) {
        let cells = t.cells.max(1) as f64;
        let cell_us = Samples::new(t.cell_us.clone());
        self.layer("scenario.cell_us_p50", cell_us.median());
        self.layer("scenario.cell_us_p99", cell_us.pct(0.99));
        self.note("cell_us_samples", cell_us.len() as f64);
        self.layer("scenario.fold_us", t.fold_ns as f64 / cells / 1e3);
        self.layer(
            "scenario.merge_us",
            t.merge_ns as f64 / t.merges.max(1) as f64 / 1e3,
        );
        let (busy, imbalance) = t.busy_and_imbalance();
        self.layer("scenario.worker_busy_frac", busy);
        self.layer("scenario.imbalance", imbalance);
        self.layer(
            "soc.ns_per_slice",
            t.soc_ns.saturating_sub(t.decide_ns) as f64 / t.slices.max(1) as f64,
        );
        self.layer("soc.slices", t.slices as f64 / cells);
        self.layer(
            "soc.fixed_point_iters_per_slice",
            t.fixed_point_iters as f64 / t.slices.max(1) as f64,
        );
        self.layer("soc.transitions", t.transitions as f64 / cells);
        self.layer("governor.decisions", t.decisions as f64 / cells);
        self.layer(
            "governor.decide_ns",
            t.decide_ns as f64 / t.decisions.max(1) as f64,
        );
        self.layer(
            "governor.build_us",
            t.build_ns as f64 / t.builds.max(1) as f64 / 1e3,
        );
    }
}

/// Runs `f`, recording a span when traced; returns its result and
/// duration in milliseconds.
pub fn timed<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    f: impl FnOnce() -> R,
) -> (R, f64) {
    let start = Instant::now();
    let out = match tracer {
        Some(t) => t.time(name, parent, 0, f),
        None => f(),
    };
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Median of unsorted values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values.to_vec()).median()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
    rustc: String,
    revision: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench/results"),
        rustc: "unknown".to_string(),
        revision: "unknown".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--out-dir" => args.out_dir = PathBuf::from(value),
            "--rustc" => args.rustc = value,
            "--revision" => args.revision = value,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run_workload(name: &str, ctx: &Ctx, seconds: f64, tracer: Option<&Arc<Tracer>>) -> Outcome {
    match name {
        "eval_sweep" => eval::run(ctx, seconds, tracer),
        "serve_open" => serve::run_open(ctx, seconds, tracer),
        "serve_mixed" => serve::run_mixed(ctx, seconds, tracer),
        "dist_sweep" => dist::run(ctx, seconds, tracer),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting keeps.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    const WORKLOADS: [&str; 4] = ["eval_sweep", "serve_open", "serve_mixed", "dist_sweep"];
    if !WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!(
            "perfbench: --workload must be one of {}",
            WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    }
    if let Err(error) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: creating {}: {error}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        epoch: Instant::now(),
        out_dir: args.out_dir.clone(),
    };

    let (outcome, spans) = if args.trace {
        // Half the run untraced, half traced: the difference is the
        // tracing overhead; the per-layer numbers come from the second.
        let base = run_workload(&args.workload, &ctx, args.seconds / 2.0, None);
        let tracer = Arc::new(Tracer::new(ctx.epoch));
        let mut traced = run_workload(&args.workload, &ctx, args.seconds / 2.0, Some(&tracer));
        let delta = |name: &str| traced.e2e[name] - base.e2e[name];
        let (cells, latency) = (delta("cells_per_s"), delta("latency_p50_ms"));
        traced.layer("trace.overhead_cells_per_s", cells);
        traced.layer("trace.overhead_latency_p50_ms", latency);
        traced.attempted += base.attempted;
        traced.failed += base.failed;
        traced.invalid = traced.invalid.or(base.invalid);
        let spans = Arc::try_unwrap(tracer)
            .expect("workload threads have ended")
            .into_spans();
        let summary = trace::summarize(&spans);
        traced.layer("trace.spans", spans.len() as f64);
        traced.layer(
            "trace.bench_run_self_ms",
            summary.get("bench.run").map_or(0.0, |s| s.2 as f64 / 1e6),
        );
        (traced, spans)
    } else {
        (
            run_workload(&args.workload, &ctx, args.seconds, None),
            Vec::new(),
        )
    };

    let (wanted, got): (&[(&str, &str)], &BTreeMap<&str, f64>) = if args.trace {
        (&PER_LAYER, &outcome.layers)
    } else {
        (&END_TO_END, &outcome.e2e)
    };
    let metrics: Vec<(&str, f64, &str)> = wanted
        .iter()
        .map(|&(name, unit)| (name, got.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    let correct = outcome.failed == 0 && outcome.invalid.is_none();

    let notes: Vec<(&str, f64, &str)> = outcome.notes.iter().map(|(k, v)| (*k, *v, "")).collect();
    let meta = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \"nproc\": {}, \
         \"revision\": {}, \"rustc\": {}, \"invalid\": {}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace,
        ctx.threads,
        json_str(&args.revision),
        json_str(&args.rustc),
        outcome
            .invalid
            .as_deref()
            .map_or("null".to_string(), json_str),
    );
    let all_e2e: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .filter_map(|&(n, u)| outcome.e2e.get(n).map(|v| (n, *v, u)))
        .collect();
    let all_layers: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .filter_map(|&(n, u)| outcome.layers.get(n).map(|v| (n, *v, u)))
        .collect();
    let span_summary: Vec<String> = trace::summarize(&spans)
        .iter()
        .map(|(name, (count, total, own))| {
            format!(
                "{}: {{\"count\": {count}, \"total_ms\": {}, \"self_ms\": {}}}",
                json_str(name),
                json_num(*total as f64 / 1e6),
                json_num(*own as f64 / 1e6)
            )
        })
        .collect();
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"meta\": {meta}, \"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \
         \"end_to_end\": {}, \"per_layer\": {}, \"notes\": {}, \"spans\": {{{}}}}}\n",
        outcome.attempted,
        outcome.failed,
        metrics_json(&all_e2e),
        metrics_json(&all_layers),
        metrics_json(&notes),
        span_summary.join(", ")
    );
    let write = || -> std::io::Result<()> {
        std::fs::write(args.out_dir.join(format!("{stem}.json")), &record)?;
        if args.trace {
            let file = std::fs::File::create(args.out_dir.join(format!("{stem}.spans.jsonl")))?;
            let mut out = std::io::BufWriter::new(file);
            trace::write_jsonl(&spans, &mut out)?;
            out.flush()?;
        }
        Ok(())
    };
    if let Err(error) = write() {
        eprintln!("perfbench: writing the run record: {error}");
        return ExitCode::from(2);
    }

    println!("{{\"meta\": {meta}, \"notes\": {}}}", metrics_json(&notes));
    if let Some(reason) = &outcome.invalid {
        eprintln!("perfbench: run invalid: {reason}");
    }
    if outcome.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed their output check",
            outcome.failed, outcome.attempted
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"name\":").count();
        assert_eq!(listed, 4 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn a_p99_without_ten_samples_beyond_it_invalidates_the_run() {
        let mut short = Outcome::default();
        short.latency(&Samples::new(vec![1.0; 999]), 1.0);
        assert!(short.invalid.is_some());
        assert_eq!(short.notes["latency_p99_beyond"], 9.0);
        let mut enough = Outcome::default();
        enough.latency(&Samples::new(vec![1.0; 1000]), 1.0);
        assert!(enough.invalid.is_none());
        assert_eq!(enough.notes["latency_p99_beyond"], 10.0);
    }
}
