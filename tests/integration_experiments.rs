//! Smoke tests of the experiment harness: every table/figure generator runs
//! and produces results with the paper's qualitative shape.

use sysscale::experiments::{evaluation, motivation, sensitivity};
use sysscale::types::exec;
use sysscale::{DemandPredictor, SessionPool, SocConfig};

#[test]
fn motivation_experiments_have_the_paper_shape() {
    let config = SocConfig::skylake_default();
    // Table 1.
    let table1 = motivation::table1(&config);
    assert_eq!(table1.len(), 5);
    // Fig. 2(a): power drops for all three; lbm loses performance.
    let fig2a = motivation::fig2a(&config).unwrap();
    assert!(fig2a.iter().all(|r| r.power_reduction_pct > 2.0));
    let lbm = fig2a.iter().find(|r| r.workload.contains("lbm")).unwrap();
    assert!(lbm.perf_change_pct < -5.0);
    // Fig. 2(c)/3(a): lbm demands much more bandwidth than perlbench; astar
    // varies over time.
    let fig3a = motivation::fig3a(&config).unwrap();
    let perl = fig3a.iter().find(|t| t.workload.contains("perl")).unwrap();
    let lbm_trace = fig3a.iter().find(|t| t.workload.contains("lbm")).unwrap();
    let astar = fig3a.iter().find(|t| t.workload.contains("astar")).unwrap();
    // Demand traces include the constant display (isochronous) demand, so
    // compare the workload-driven difference rather than the raw ratio.
    assert!(lbm_trace.average_gib_s > perl.average_gib_s + 1.0);
    assert!(astar.peak_gib_s >= astar.average_gib_s);
    assert!(astar.peak_gib_s > astar.average_gib_s + 0.25);
    // Fig. 3(b): a 4K panel demands ~4x the bandwidth of an HD panel.
    let fig3b = motivation::fig3b();
    let hd = fig3b
        .iter()
        .find(|r| r.configuration == "display: 1x HD")
        .unwrap();
    let uhd = fig3b
        .iter()
        .find(|r| r.configuration == "display: 1x 4K")
        .unwrap();
    assert!(uhd.fraction_of_peak / hd.fraction_of_peak > 3.0);
    // Fig. 4: unoptimized MRC costs both power and performance.
    let fig4 = motivation::fig4(&config).unwrap();
    assert!(fig4.perf_degradation_pct > 3.0);
    assert!(fig4.memory_power_increase_pct > 5.0);
}

#[test]
fn evaluation_figures_reproduce_the_headline_ordering() {
    let config = SocConfig::skylake_default();
    let predictor = DemandPredictor::skylake_default();
    let (fig7, fig8, fig9) = evaluation::evaluation_figures_fold_in(
        &mut SessionPool::new(),
        exec::default_threads(),
        &config,
        &predictor,
    )
    .unwrap();

    // Fig. 7: SysScale beats both projected -Redist baselines on the SPEC
    // suite average.
    assert!(
        fig7.sysscale_avg_pct > fig7.memscale_avg_pct
            && fig7.sysscale_avg_pct > fig7.coscale_avg_pct,
        "sysscale {} vs memscale {} vs coscale {}",
        fig7.sysscale_avg_pct,
        fig7.memscale_avg_pct,
        fig7.coscale_avg_pct
    );

    assert_eq!(fig8.rows.len(), 3);
    assert!(fig8.sysscale_avg_pct > fig8.memscale_avg_pct);
    assert!(fig8.sysscale_avg_pct > 3.0, "{}", fig8.sysscale_avg_pct);

    assert_eq!(fig9.rows.len(), 4);
    assert!(fig9.sysscale_avg_pct > 3.0);
    for row in &fig9.rows {
        assert!(row.sysscale_pct >= row.memscale_redist_pct - 0.5, "{row:?}");
    }
}

#[test]
fn overheads_and_transition_budget_hold_on_the_real_flow() {
    let o = sensitivity::overheads();
    assert!(o.transition_stall_us < 10.0);
    assert!(o.mrc_sram_bytes <= 512);
    let measured = sensitivity::measured_transition_stall(&SocConfig::skylake_default()).unwrap();
    assert!(measured.as_micros() < 10.0);
}

#[test]
fn ablations_show_mrc_reload_and_redistribution_matter() {
    let predictor = DemandPredictor::skylake_default();
    let rows = sensitivity::ablations(&predictor).unwrap();
    let by_name = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
    let full = by_name("sysscale");
    let no_redist = by_name("no-redistribution");
    // Without redistribution the performance benefit largely disappears.
    assert!(full.avg_speedup_pct > no_redist.avg_speedup_pct + 1.0);
    // Power savings on video playback remain available without
    // redistribution.
    assert!(no_redist.video_playback_power_reduction_pct > 2.0);
    // A much slower transition flow does not change the picture dramatically
    // (transitions are rare at the 30 ms interval).
    let slow = by_name("slow-transition-100us");
    assert!(slow.avg_speedup_pct > full.avg_speedup_pct - 3.0);
}
