//! The SysScale governor and the MemScale/CoScale-style baseline governors.
//!
//! All three implement the [`Governor`] hook of the SoC simulator. SysScale
//! is the paper's holistic policy (Sec. 4.3): it predicts the demand of all
//! three domains and redistributes the freed budget to the compute domain.
//! The MemScale-like policy scales only the memory subsystem based on its
//! bandwidth utilization; the CoScale-like policy additionally caps the CPU
//! frequency on memory-bound intervals. Neither baseline reloads MRC values
//! nor scales the shared `V_SA`/`V_IO` rails — use
//! [`crate::baselines::memscale_config`] to build the matching platform
//! configuration.

use sysscale_soc::{Governor, GovernorDecision, GovernorInput};
use sysscale_types::{CounterKind, Freq};

use crate::predictor::DemandPredictor;

/// The SysScale multi-domain DVFS governor.
#[derive(Debug, Clone, PartialEq)]
pub struct SysScaleGovernor {
    predictor: DemandPredictor,
    /// Whether the freed uncore budget is redistributed to the compute
    /// domain (true for SysScale; false gives a power-save-only ablation).
    pub redistribute: bool,
}

impl SysScaleGovernor {
    /// Creates the governor with a given predictor.
    #[must_use]
    pub fn new(predictor: DemandPredictor) -> Self {
        Self {
            predictor,
            redistribute: true,
        }
    }

    /// The governor with hand-tuned default thresholds.
    #[must_use]
    pub fn with_default_thresholds() -> Self {
        Self::new(DemandPredictor::skylake_default())
    }

    /// Disables budget redistribution (ablation: SysScale as a pure
    /// power-saving mechanism).
    #[must_use]
    pub fn without_redistribution(mut self) -> Self {
        self.redistribute = false;
        self
    }

    /// The predictor in use.
    #[must_use]
    pub fn predictor(&self) -> &DemandPredictor {
        &self.predictor
    }
}

impl Default for SysScaleGovernor {
    fn default() -> Self {
        Self::with_default_thresholds()
    }
}

impl Governor for SysScaleGovernor {
    fn name(&self) -> &str {
        if self.redistribute {
            "sysscale"
        } else {
            "sysscale-no-redist"
        }
    }

    fn decide(&mut self, input: &GovernorInput<'_>) -> GovernorDecision {
        let averages = input.counters.averages();
        let prediction =
            self.predictor
                .predict(&averages, input.static_demand, input.peak_bandwidth);
        // The algorithm of Sec. 4.3: any triggered condition moves the SoC to
        // the (next) higher operating point; otherwise it moves to the (next)
        // lower one. With the two-point ladder of the real implementation
        // this degenerates to high/low.
        let target = if prediction.needs_high_performance {
            input.ladder.step_up(input.current_op)
        } else {
            input.ladder.step_down(input.current_op)
        };
        GovernorDecision {
            target_op: target,
            redistribute_to_compute: self.redistribute,
            cpu_freq_cap: None,
        }
    }
}

/// A MemScale-style memory-only DVFS governor: it lowers the memory operating
/// point whenever the consumed bandwidth fits comfortably below the capacity
/// of the lower point, and raises it otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemScaleGovernor {
    /// Utilization of the *low* operating point's sustainable bandwidth above
    /// which the governor returns to the high point.
    pub upscale_utilization: f64,
}

impl MemScaleGovernor {
    /// The power-saving MemScale-like policy. Its `-Redist` performance is
    /// projected from the measured savings afterwards
    /// ([`crate::project_redistributed_speedup`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            upscale_utilization: 0.55,
        }
    }
}

impl Default for MemScaleGovernor {
    fn default() -> Self {
        Self::new()
    }
}

fn bandwidth_utilization_of_low_point(input: &GovernorInput<'_>) -> f64 {
    let averages = input.counters.averages();
    let bytes_per_sample = averages.value(CounterKind::MemoryBandwidthBytes);
    if input.sample_seconds <= 0.0 {
        return 0.0;
    }
    let consumed = bytes_per_sample / input.sample_seconds;
    let low = input.ladder.lowest();
    let high = input.ladder.highest();
    let low_peak =
        input.peak_bandwidth.as_bytes_per_sec() * (low.dram_freq.as_hz() / high.dram_freq.as_hz());
    if low_peak <= 0.0 {
        1.0
    } else {
        consumed / low_peak
    }
}

impl Governor for MemScaleGovernor {
    fn name(&self) -> &str {
        "memscale"
    }

    fn decide(&mut self, input: &GovernorInput<'_>) -> GovernorDecision {
        let utilization = bandwidth_utilization_of_low_point(input);
        let target = if utilization > self.upscale_utilization {
            input.ladder.step_up(input.current_op)
        } else {
            input.ladder.step_down(input.current_op)
        };
        GovernorDecision {
            target_op: target,
            redistribute_to_compute: false,
            cpu_freq_cap: None,
        }
    }
}

/// A CoScale-style coordinated CPU + memory DVFS governor: memory decisions
/// follow the MemScale rule, and on memory-bound intervals the CPU frequency
/// request is additionally capped (slowing cores that are stalled anyway).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoScaleGovernor {
    /// The embedded memory policy.
    pub memory: MemScaleGovernor,
    /// LLC stall cycles per sample above which the interval counts as memory
    /// bound and the CPU cap applies.
    pub stall_threshold: f64,
    /// The CPU frequency cap applied on memory-bound intervals.
    pub cpu_cap: Freq,
}

impl CoScaleGovernor {
    /// The power-saving CoScale-like policy. Like MemScale, its `-Redist`
    /// performance is projected afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self {
            memory: MemScaleGovernor::new(),
            stall_threshold: 400_000.0,
            cpu_cap: Freq::from_ghz(1.2),
        }
    }
}

impl Default for CoScaleGovernor {
    fn default() -> Self {
        Self::new()
    }
}

impl Governor for CoScaleGovernor {
    fn name(&self) -> &str {
        "coscale"
    }

    fn decide(&mut self, input: &GovernorInput<'_>) -> GovernorDecision {
        let mut decision = self.memory.decide(input);
        let stalls = input.counters.averages().value(CounterKind::LlcStalls);
        if stalls > self.stall_threshold {
            decision.cpu_freq_cap = Some(self.cpu_cap);
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sysscale_types::{
        skylake_lpddr3_ladder, Bandwidth, CounterSet, CounterWindow, OperatingPointTable, Power,
    };

    fn window_with(kind: CounterKind, value: f64) -> CounterWindow {
        let mut w = CounterWindow::new();
        let mut s = CounterSet::new();
        s.set(kind, value);
        w.push(s);
        w
    }

    fn input<'a>(
        window: &'a CounterWindow,
        ladder: &'a OperatingPointTable,
        static_gib: f64,
    ) -> GovernorInput<'a> {
        GovernorInput {
            counters: window,
            static_demand: Bandwidth::from_gib_s(static_gib),
            current_op: ladder.highest_id(),
            ladder,
            tdp: Power::from_watts(4.5),
            peak_bandwidth: Bandwidth::from_gib_s(23.8),
            sample_seconds: 1e-3,
        }
    }

    #[test]
    fn sysscale_steps_down_on_quiet_intervals_and_up_on_demand() {
        let ladder = skylake_lpddr3_ladder();
        let mut gov = SysScaleGovernor::default();
        assert_eq!(gov.name(), "sysscale");

        let quiet = CounterWindow::new();
        let d = gov.decide(&input(&quiet, &ladder, 2.0));
        assert_eq!(d.target_op, ladder.lowest_id());
        assert!(d.redistribute_to_compute);

        let busy = window_with(CounterKind::LlcStalls, 9.0e5);
        let mut in2 = input(&busy, &ladder, 2.0);
        in2.current_op = ladder.lowest_id();
        let d2 = gov.decide(&in2);
        assert_eq!(d2.target_op, ladder.highest_id());
    }

    #[test]
    fn sysscale_honours_static_demand_even_with_quiet_counters() {
        // A 4K panel's CSR-derived demand keeps the SoC at the high point
        // regardless of what the dynamic counters say (Sec. 4.2).
        let ladder = skylake_lpddr3_ladder();
        let mut gov = SysScaleGovernor::default();
        let quiet = CounterWindow::new();
        let d = gov.decide(&input(&quiet, &ladder, 18.0));
        assert_eq!(d.target_op, ladder.highest_id());
    }

    #[test]
    fn no_redistribution_variant_keeps_budget_fixed() {
        let ladder = skylake_lpddr3_ladder();
        let mut gov = SysScaleGovernor::default().without_redistribution();
        assert_eq!(gov.name(), "sysscale-no-redist");
        let quiet = CounterWindow::new();
        assert!(
            !gov.decide(&input(&quiet, &ladder, 1.0))
                .redistribute_to_compute
        );
    }

    #[test]
    fn memscale_reacts_to_bandwidth_utilization_only() {
        let ladder = skylake_lpddr3_ladder();
        let mut gov = MemScaleGovernor::new();
        assert_eq!(gov.name(), "memscale");
        // Low bandwidth -> low point, even with huge stall counts (MemScale
        // has no latency condition).
        let mut s = CounterSet::new();
        s.set(CounterKind::MemoryBandwidthBytes, 1.0e6);
        s.set(CounterKind::LlcStalls, 9.0e5);
        let mut w = CounterWindow::new();
        w.push(s);
        let d = gov.decide(&input(&w, &ladder, 2.0));
        assert_eq!(d.target_op, ladder.lowest_id());
        assert!(!d.redistribute_to_compute);
        // High consumed bandwidth -> high point.
        let busy = window_with(CounterKind::MemoryBandwidthBytes, 14.0e6);
        let d2 = gov.decide(&input(&busy, &ladder, 2.0));
        assert_eq!(d2.target_op, ladder.highest_id());
    }

    #[test]
    fn coscale_adds_a_cpu_cap_on_memory_bound_intervals() {
        let ladder = skylake_lpddr3_ladder();
        let mut gov = CoScaleGovernor::new();
        assert_eq!(gov.name(), "coscale");
        let mut s = CounterSet::new();
        s.set(CounterKind::MemoryBandwidthBytes, 14.0e6);
        s.set(CounterKind::LlcStalls, 9.0e5);
        let mut w = CounterWindow::new();
        w.push(s);
        let d = gov.decide(&input(&w, &ladder, 2.0));
        assert_eq!(d.cpu_freq_cap, Some(Freq::from_ghz(1.2)));
        // Compute-bound interval: no cap.
        let calm = window_with(CounterKind::MemoryBandwidthBytes, 2.0e6);
        let d2 = gov.decide(&input(&calm, &ladder, 2.0));
        assert!(d2.cpu_freq_cap.is_none());
    }
}
