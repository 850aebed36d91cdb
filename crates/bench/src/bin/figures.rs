//! Regenerates every table and figure of the SysScale evaluation.
//!
//! ```text
//! cargo run --release -p sysscale-bench --bin figures -- all
//! cargo run --release -p sysscale-bench --bin figures -- fig7 fig9
//! ```
//!
//! Available targets: `table1 table2 fig2a fig2b fig2c fig3a fig3b fig4 fig6
//! fig7 fig8 fig9 fig10 dram_sens overheads ablations all`.

use sysscale::experiments::evaluation::{self, PowerReductionFigure, SpeedupFigure};
use sysscale::experiments::{motivation, predictor_study, sensitivity};
use sysscale::types::exec;
use sysscale::{calibrate, CalibrationConfig, DemandPredictor, SessionPool, SocConfig};
use sysscale_bench as fmt;
use sysscale_workloads::WorkloadGenerator;

type Error = Box<dyn std::error::Error>;

/// What the targets of one invocation share: one session pool and worker
/// count, plus the calibrated predictor and Figs. 7/8/9, each computed the
/// first time a target needs it.
struct Figures {
    config: SocConfig,
    pool: SessionPool,
    threads: usize,
    predictor: Option<DemandPredictor>,
    evaluation: Option<(SpeedupFigure, SpeedupFigure, PowerReductionFigure)>,
}

impl Figures {
    /// The predictor calibrated on a synthetic representative population
    /// (Sec. 4.2).
    fn predictor(&mut self) -> Result<DemandPredictor, Error> {
        if let Some(predictor) = self.predictor {
            return Ok(predictor);
        }
        let population = WorkloadGenerator::with_seed(2020).population(120);
        let predictor =
            calibrate(&self.config, &population, &CalibrationConfig::default())?.predictor();
        Ok(*self.predictor.insert(predictor))
    }

    /// Figs. 7, 8 and 9, from one run of the main evaluation.
    fn evaluation(
        &mut self,
    ) -> Result<&(SpeedupFigure, SpeedupFigure, PowerReductionFigure), Error> {
        let figures = match self.evaluation.take() {
            Some(figures) => figures,
            None => {
                let predictor = self.predictor()?;
                evaluation::evaluation_figures_fold_in(
                    &mut self.pool,
                    self.threads,
                    &self.config,
                    &predictor,
                )?
            }
        };
        Ok(self.evaluation.insert(figures))
    }
}

#[allow(clippy::too_many_lines)]
fn run(target: &str, figures: &mut Figures) -> Result<(), Error> {
    let config = &figures.config;
    match target {
        "table1" => print!("{}", fmt::format_table1(&motivation::table1(config))),
        "table2" => print!("{}", fmt::format_table2(config)),
        "fig2a" => print!("{}", fmt::format_fig2a(&motivation::fig2a(config)?)),
        "fig2b" => {
            println!("Fig. 2(b) — bottleneck breakdown");
            for r in motivation::fig2b(config)? {
                println!(
                    "  {:<16} latency {:>5.1}%  bandwidth {:>5.1}%  non-memory {:>5.1}%",
                    r.workload,
                    r.latency_bound * 100.0,
                    r.bandwidth_bound * 100.0,
                    r.non_memory * 100.0
                );
            }
        }
        "fig2c" => {
            println!("Fig. 2(c) — memory bandwidth demand");
            for t in motivation::fig2c(config)? {
                println!(
                    "  {:<16} avg {:>6.2} GiB/s   peak {:>6.2} GiB/s",
                    t.workload, t.average_gib_s, t.peak_gib_s
                );
            }
        }
        "fig3a" => {
            println!("Fig. 3(a) — bandwidth demand over time (downsampled)");
            for t in motivation::fig3a(config)? {
                let step = (t.samples.len() / 12).max(1);
                let series: Vec<String> = t
                    .samples
                    .iter()
                    .step_by(step)
                    .map(|(_, b)| format!("{b:.1}"))
                    .collect();
                println!("  {:<16} [{}] GiB/s", t.workload, series.join(", "));
            }
        }
        "fig3b" => print!("{}", fmt::format_fig3b(&motivation::fig3b())),
        "fig4" => print!("{}", fmt::format_fig4(&motivation::fig4(config)?)),
        "fig6" => {
            let study = predictor_study::PredictorStudyConfig {
                workloads_per_panel: 180,
                ..predictor_study::PredictorStudyConfig::default()
            };
            let panels =
                predictor_study::fig6_in(&mut figures.pool, figures.threads, config, &study)?;
            print!("{}", fmt::format_fig6(&panels));
        }
        "fig7" => print!(
            "{}",
            fmt::format_speedup_figure(
                "Fig. 7 — SPEC CPU2006 performance improvement",
                &figures.evaluation()?.0
            )
        ),
        "fig8" => print!(
            "{}",
            fmt::format_speedup_figure(
                "Fig. 8 — graphics performance improvement",
                &figures.evaluation()?.1
            )
        ),
        "fig9" => print!("{}", fmt::format_fig9(&figures.evaluation()?.2)),
        "fig10" => {
            let p = figures.predictor()?;
            let tdps = [3.5, 4.5, 7.0, 15.0];
            let points = sensitivity::fig10_fold_in(&mut figures.pool, figures.threads, &p, &tdps)?;
            print!("{}", fmt::format_fig10(&points));
        }
        "dram_sens" => {
            let p = figures.predictor()?;
            let result = sensitivity::dram_sensitivity_in(&mut figures.pool, figures.threads, &p)?;
            print!("{}", fmt::format_dram_sensitivity(&result));
        }
        "overheads" => print!("{}", fmt::format_overheads(&sensitivity::overheads())),
        "ablations" => {
            let p = figures.predictor()?;
            print!("{}", fmt::format_ablations(&sensitivity::ablations(&p)?));
        }
        other => return Err(format!("unknown figure target '{other}'").into()),
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Error> {
    let targets: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = targets.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag '{flag}'").into());
    }
    let all = [
        "table1",
        "table2",
        "fig2a",
        "fig2b",
        "fig2c",
        "fig3a",
        "fig3b",
        "fig4",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "dram_sens",
        "overheads",
        "ablations",
    ];
    let selected: Vec<&str> = if targets.is_empty() || targets.iter().any(|t| t == "all") {
        all.to_vec()
    } else {
        targets.iter().map(String::as_str).collect()
    };
    let mut figures = Figures {
        config: SocConfig::skylake_default(),
        pool: SessionPool::new(),
        threads: exec::default_threads(),
        predictor: None,
        evaluation: None,
    };
    for target in selected {
        run(target, &mut figures)?;
    }
    Ok(())
}
