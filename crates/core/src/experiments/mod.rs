//! The experiment harness: one module per group of tables/figures of the
//! paper's evaluation, each producing a result that the `figures` binary
//! prints.
//!
//! Every module is implemented on top of the [`crate::scenario`] API, and
//! each paper result has exactly one public function. Fig. 6, Figs. 7/8/9,
//! Fig. 10 and the Sec. 7.4 DRAM study each run as one [`crate::SweepSet`]
//! on the caller's [`crate::SessionPool`] and worker count; the first three
//! fold their records into the result
//! ([`crate::SweepSet::run_parallel_fold`]). The paths they replaced
//! (collect-then-reduce, one matrix per configuration point) live on in
//! test code only, next to the differential tests that compare against
//! them. The remaining studies run their own matrices at
//! [`sysscale_types::exec::default_threads`] (override with the
//! `SYSSCALE_THREADS` environment variable; `1` reproduces the sequential
//! path).
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`motivation`] | Table 1, Fig. 2(a–c), Fig. 3(a–b), Fig. 4 |
//! | [`predictor_study`] | Fig. 6 |
//! | [`evaluation`] | Fig. 7, Fig. 8, Fig. 9 |
//! | [`sensitivity`] | Fig. 10, the Sec. 7.4 DRAM sensitivity, Sec. 5 overheads, and the ablations |

pub mod evaluation;
pub mod motivation;
pub mod predictor_study;
pub mod sensitivity;

#[cfg(test)]
mod tests {
    use crate::scenario::{auto_duration, Scenario, SimSession, DEFAULT_MIN_RUN};
    use sysscale_workloads::spec_workload;

    #[test]
    fn run_duration_covers_one_iteration() {
        let astar = spec_workload("astar").unwrap();
        assert!(auto_duration(&astar) >= astar.iteration_length());
        let gamess = spec_workload("gamess").unwrap();
        assert_eq!(
            auto_duration(&gamess),
            gamess.iteration_length().max(DEFAULT_MIN_RUN)
        );
    }

    #[test]
    fn single_runs_go_through_the_scenario_api() {
        // A single experiment run spelled with the scenario API: the default
        // duration comes from `auto_duration`.
        let workload = spec_workload("hmmer").unwrap();
        let scenario = Scenario::builder(workload.clone()).build().unwrap();
        assert_eq!(scenario.duration(), auto_duration(&workload));
        let record = SimSession::new().run(&scenario).unwrap();
        assert!(record.report.metrics.work_done > 0.0);
    }
}
