//! Paper-fidelity gaps: |reproduced − paper| for the evaluation's headline
//! averages. The paper values are data (`fidelity.tsv`); the reproduced
//! values come from the library's fold-based evaluation, whose figure
//! reductions are the ones the `figures` binary prints. Gaps are reported,
//! never asserted to lie in a band.

use sysscale::experiments::evaluation::evaluation_figures_fold_in;
use sysscale::{DemandPredictor, SessionPool, SocConfig};
use sysscale_types::SimResult;

const TABLE: &str = include_str!("../fidelity.tsv");

/// One paper claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub metric: String,
    pub figure: String,
    pub quantity: String,
    pub paper_pct: f64,
}

/// The claims in `fidelity.tsv`, in file order.
///
/// # Panics
///
/// Panics on a malformed table, which is part of the benchmark's source.
#[must_use]
pub fn claims() -> Vec<Claim> {
    TABLE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 4, "fidelity.tsv row: {line:?}");
            Claim {
                metric: cols[0].to_string(),
                figure: cols[1].to_string(),
                quantity: cols[2].to_string(),
                paper_pct: cols[3].parse().expect("numeric paper value"),
            }
        })
        .collect()
}

/// One measured gap.
#[derive(Debug, Clone, PartialEq)]
pub struct Gap {
    pub claim: Claim,
    pub measured_pct: f64,
    pub gap_pp: f64,
}

/// Runs Figs. 7–9 through the library's fold path at `threads` workers and
/// returns every claim's gap.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn gaps(
    config: &SocConfig,
    predictor: &DemandPredictor,
    threads: usize,
) -> SimResult<Vec<Gap>> {
    let (fig7, fig8, fig9) =
        evaluation_figures_fold_in(&mut SessionPool::new(), threads, config, predictor)?;
    Ok(claims()
        .into_iter()
        .map(|claim| {
            let measured_pct = match claim.metric.as_str() {
                "gap_fig7_sysscale_pp" => fig7.sysscale_avg_pct,
                "gap_fig7_memscale_r_pp" => fig7.memscale_avg_pct,
                "gap_fig7_coscale_r_pp" => fig7.coscale_avg_pct,
                "gap_fig8_sysscale_pp" => fig8.sysscale_avg_pct,
                "gap_fig9_sysscale_pp" => fig9.sysscale_avg_pct,
                other => panic!("fidelity.tsv names unknown metric {other}"),
            };
            Gap {
                gap_pp: (measured_pct - claim.paper_pct).abs(),
                measured_pct,
                claim,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_holds_the_five_claims() {
        let claims = claims();
        assert_eq!(claims.len(), 5);
        assert_eq!(claims[0].metric, "gap_fig7_sysscale_pp");
        assert_eq!(claims[0].paper_pct, 9.2);
        assert_eq!(claims[4].paper_pct, 8.5);
    }
}
