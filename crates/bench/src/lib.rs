//! # sysscale-bench
//!
//! Table and figure formatters for the `figures` binary, which regenerates
//! every table and figure of the paper's evaluation. Performance is
//! measured by the repository benchmark in `perfbench/`, not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use sysscale::experiments::evaluation::{PowerReductionFigure, SpeedupFigure};
use sysscale::experiments::motivation::{Fig2aRow, Fig3bRow, Fig4Result, Table1Row};
use sysscale::experiments::predictor_study::PredictorPanel;
use sysscale::experiments::sensitivity::{AblationRow, DramSensitivity, Overheads, TdpPoint};
use sysscale::SocConfig;

/// Formats Table 1.
#[must_use]
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("Table 1 — experimental setups\n");
    out.push_str(&format!(
        "{:<22} {:>12} {:>12}\n",
        "component", "baseline", "MD-DVFS"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22} {:>12} {:>12}\n",
            r.component, r.baseline, r.md_dvfs
        ));
    }
    out
}

/// Formats Table 2 (platform parameters) from a configuration.
#[must_use]
pub fn format_table2(config: &SocConfig) -> String {
    let mut out = String::from("Table 2 — SoC and memory parameters\n");
    out.push_str(&format!(
        "  CPU cores           : {} (x{} threads)\n",
        config.cpu.cores, config.cpu.threads_per_core
    ));
    out.push_str(&format!(
        "  LLC                 : {:.0} MiB\n",
        config.llc.size_mib
    ));
    out.push_str(&format!(
        "  TDP                 : {:.1} W\n",
        config.tdp.as_watts()
    ));
    out.push_str(&format!(
        "  DRAM                : {} dual-channel, {:.2} GHz default bin\n",
        config.dram().kind,
        config.uncore_ladder().highest().dram_freq.as_ghz()
    ));
    out.push_str(&format!(
        "  Uncore ladder       : {} operating points\n",
        config.uncore_ladder().len()
    ));
    out.push_str(&format!(
        "  Evaluation interval : {:.0} ms\n",
        config.evaluation_interval.as_millis()
    ));
    out
}

/// Formats the Fig. 2(a) rows.
#[must_use]
pub fn format_fig2a(rows: &[Fig2aRow]) -> String {
    let mut out = String::from("Fig. 2(a) — impact of static MD-DVFS (vs baseline)\n");
    out.push_str(&format!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>14}\n",
        "workload", "power", "energy", "perf", "EDP", "perf@redist"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}% {:>13.1}%\n",
            r.workload,
            -r.power_reduction_pct,
            -r.energy_reduction_pct,
            r.perf_change_pct,
            r.edp_improvement_pct,
            r.perf_change_with_redistribution_pct
        ));
    }
    out
}

/// Formats the Fig. 3(b) rows.
#[must_use]
pub fn format_fig3b(rows: &[Fig3bRow]) -> String {
    let mut out = String::from("Fig. 3(b) — static bandwidth demand per configuration\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<22} {:>7.2} GiB/s ({:>4.1}% of peak)\n",
            r.configuration,
            r.demand_gib_s,
            r.fraction_of_peak * 100.0
        ));
    }
    out
}

/// Formats the Fig. 4 result.
#[must_use]
pub fn format_fig4(result: &Fig4Result) -> String {
    format!(
        "Fig. 4 — unoptimized MRC values on the peak-bandwidth microbenchmark\n  \
         SoC power increase     : {:+.1}% (paper: +22% on the memory rail)\n  \
         memory power increase  : {:+.1}%\n  \
         performance degradation: {:+.1}% (paper: -10%)\n",
        result.power_increase_pct, result.memory_power_increase_pct, result.perf_degradation_pct
    )
}

/// Formats the Fig. 6 panels.
#[must_use]
pub fn format_fig6(panels: &[PredictorPanel]) -> String {
    let mut out = String::from("Fig. 6 — predictor accuracy (actual vs predicted impact)\n");
    out.push_str(&format!(
        "{:<10} {:>14} {:>10} {:>12} {:>10} {:>11}\n",
        "class", "freq pair", "workloads", "correlation", "accuracy", "false pos."
    ));
    for p in panels {
        out.push_str(&format!(
            "{:<10} {:>6.2}->{:<6.2} {:>10} {:>12.2} {:>9.1}% {:>10.1}%\n",
            p.class.name(),
            p.high_ghz,
            p.low_ghz,
            p.workloads,
            p.correlation,
            p.accuracy_pct,
            p.false_positive_pct
        ));
    }
    out
}

/// Formats a speedup figure (Figs. 7 and 8).
#[must_use]
pub fn format_speedup_figure(title: &str, figure: &SpeedupFigure) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>10}\n",
        "workload", "MemScale-R", "CoScale-R", "SysScale"
    ));
    for r in &figure.rows {
        out.push_str(&format!(
            "{:<18} {:>11.1}% {:>11.1}% {:>9.1}%\n",
            r.workload, r.memscale_redist_pct, r.coscale_redist_pct, r.sysscale_pct
        ));
    }
    out.push_str(&format!(
        "{:<18} {:>11.1}% {:>11.1}% {:>9.1}%   (max SysScale {:.1}%)\n",
        "average",
        figure.memscale_avg_pct,
        figure.coscale_avg_pct,
        figure.sysscale_avg_pct,
        figure.sysscale_max_pct
    ));
    out
}

/// Formats the Fig. 9 figure.
#[must_use]
pub fn format_fig9(figure: &PowerReductionFigure) -> String {
    let mut out = String::from("Fig. 9 — battery-life average power reduction\n");
    out.push_str(&format!(
        "{:<20} {:>10} {:>12} {:>12} {:>10}\n",
        "workload", "baseline W", "MemScale-R", "CoScale-R", "SysScale"
    ));
    for r in &figure.rows {
        out.push_str(&format!(
            "{:<20} {:>10.3} {:>11.1}% {:>11.1}% {:>9.1}%\n",
            r.workload,
            r.baseline_power_w,
            r.memscale_redist_pct,
            r.coscale_redist_pct,
            r.sysscale_pct
        ));
    }
    out.push_str(&format!(
        "SysScale average {:.1}% (max {:.1}%)\n",
        figure.sysscale_avg_pct, figure.sysscale_max_pct
    ));
    out
}

/// Formats the Fig. 10 TDP-sensitivity points.
#[must_use]
pub fn format_fig10(points: &[TdpPoint]) -> String {
    let mut out = String::from("Fig. 10 — SysScale SPEC speedup vs TDP (violin summaries)\n");
    out.push_str(&format!(
        "{:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "TDP", "mean", "median", "p25", "p75", "min", "max"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>6.1}W {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%\n",
            p.tdp_w,
            p.summary.mean,
            p.summary.median,
            p.summary.p25,
            p.summary.p75,
            p.summary.min,
            p.summary.max
        ));
    }
    out
}

/// Formats the DRAM sensitivity result.
#[must_use]
pub fn format_dram_sensitivity(result: &DramSensitivity) -> String {
    format!(
        "Sec. 7.4 — DRAM sensitivity\n  \
         LPDDR3 1.6->1.07 GHz battery power reduction : {:.1}%\n  \
         DDR4   1.87->1.33 GHz battery power reduction: {:.1}%\n  \
         DDR4 shortfall vs LPDDR3                      : {:.1}% (paper: ~7%)\n  \
         SPEC speedup, 2-point ladder                  : {:.1}%\n  \
         SPEC speedup, 3-point ladder (adds 0.8 GHz)   : {:.1}%\n",
        result.lpddr3_avg_power_reduction_pct,
        result.ddr4_avg_power_reduction_pct,
        result.ddr4_shortfall_pct,
        result.two_point_avg_speedup_pct,
        result.three_point_avg_speedup_pct
    )
}

/// Formats the overhead accounting.
#[must_use]
pub fn format_overheads(o: &Overheads) -> String {
    format!(
        "Sec. 5 — implementation overheads\n  \
         transition stall : {:.1} us (budget <10 us)\n  \
         MRC SRAM         : {} B (budget ~512 B)\n  \
         PMU firmware     : {} B (budget ~600 B)\n  \
         new counters     : {}\n",
        o.transition_stall_us, o.mrc_sram_bytes, o.firmware_bytes, o.new_counters
    )
}

/// Formats the ablation rows.
#[must_use]
pub fn format_ablations(rows: &[AblationRow]) -> String {
    let mut out =
        String::from("Ablations — SPEC-subset speedup / video-playback power reduction\n");
    for r in rows {
        out.push_str(&format!(
            "  {:<24} {:>7.1}% {:>7.1}%\n",
            r.name, r.avg_speedup_pct, r.video_playback_power_reduction_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale::experiments::motivation;

    #[test]
    fn formatters_produce_nonempty_tables() {
        let config = SocConfig::skylake_default();
        assert!(format_table1(&motivation::table1(&config)).contains("DRAM"));
        assert!(format_table2(&config).contains("TDP"));
        assert!(format_fig3b(&motivation::fig3b()).contains("display"));
        assert!(
            format_overheads(&sysscale::experiments::sensitivity::overheads())
                .contains("transition")
        );
    }
}
