//! Ablation A1: why four stages, and why a coarse mux instead of
//! cascading two fine circuits (DESIGN.md §6).

use crate::EXPERIMENT_SEED;
use vardelay_analog::{CharacterizedDelay, EdgeTransform};
use vardelay_core::{FineDelayLine, ModelConfig};
use vardelay_measure::{tie_sequence, JitterStats};
use vardelay_runner::Runner;
use vardelay_siggen::{BitPattern, EdgeStream};
use vardelay_units::{BitRate, Time, Voltage};

/// One row of the stage-count ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageAblation {
    /// Number of cascaded variable-gain stages.
    pub stages: usize,
    /// Adjustment range at low rate (1 ns toggle).
    pub dc_range: Time,
    /// Adjustment range at the 6.4 GHz RZ stress interval (78 ps).
    pub range_at_6g4: Time,
    /// Output TJ pk-pk on a clean 6.4 Gb/s PRBS7 stream (added jitter).
    pub added_tj: Time,
}

/// Characterizes the paper prototype's cascade at every depth in `depths`
/// (ascending) in one tapped sweep on `runner`. Each table lands in the
/// characterization cache under its depth's own key, so the per-cell
/// `characterize_with` lookups that follow only hit, and depths another
/// ablation already measured are not measured again.
fn characterize_depths(runner: Runner, depths: &[usize]) {
    let line = FineDelayLine::new(&ModelConfig::paper_prototype().quiet(), EXPERIMENT_SEED);
    let (vctrls, intervals) = line.default_grids();
    line.characterize_depths_with(runner, depths, &vctrls, &intervals);
}

/// Sweeps the cascade depth 1..=max_stages, reporting the range/jitter
/// trade-off that motivates the paper's choice of four stages plus a
/// passive coarse section.
pub fn stage_count_ablation(max_stages: usize, bits: usize) -> Vec<StageAblation> {
    stage_count_ablation_with(Runner::global(), max_stages, bits)
}

/// [`stage_count_ablation`] on an explicit [`Runner`]. Depths
/// `1..=max_stages` are characterized in one shared-prefix sweep; the
/// cells are then fully independent — each builds its own line and seeds
/// its edge model with `EXPERIMENT_SEED + stages` — so the fan-out is
/// bit-identical to the serial loop.
pub fn stage_count_ablation_with(
    runner: Runner,
    max_stages: usize,
    bits: usize,
) -> Vec<StageAblation> {
    let rate = BitRate::from_gbps(6.4);
    let clean = EdgeStream::nrz(&BitPattern::prbs7(1, bits), rate);
    let depths: Vec<usize> = (1..=max_stages).collect();
    characterize_depths(runner, &depths);
    runner.run(max_stages, |idx| {
        let stages = idx + 1;
        let mut cfg = ModelConfig::paper_prototype();
        cfg.stages = stages;
        let line = FineDelayLine::new(&cfg.quiet(), EXPERIMENT_SEED);
        let (vctrls, intervals) = line.default_grids();
        let seed = EXPERIMENT_SEED + stages as u64;
        let mut model = line.edge_model_with(runner, &vctrls, &intervals, seed);
        model.set_vctrl(Voltage::from_v(0.75));
        let out = model.transform(&clean);
        let added = JitterStats::from_times(&tie_sequence(&out))
            .expect("stream carries edges")
            .peak_to_peak;
        StageAblation {
            stages,
            dc_range: line.delay_range_with(runner, Time::from_ps(1000.0)),
            range_at_6g4: line.delay_range_with(runner, Time::from_ps(78.0)),
            added_tj: added,
        }
    })
}

/// The "one coarse level of logic vs a second fine cascade" comparison:
/// jitter added by the 4-stage + passive-coarse architecture versus an
/// 8-stage all-fine cascade covering the same total range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArchitectureComparison {
    /// Added TJ of 4 fine stages + passive coarse taps (7 active stages).
    pub coarse_plus_fine_tj: Time,
    /// Added TJ of an 8-stage fine cascade (9 active stages).
    pub all_fine_tj: Time,
    /// DC range of the 8-stage cascade (it does cover the range…).
    pub all_fine_range: Time,
}

/// Quantifies the §3 design argument ("we must be concerned with the
/// undesirable noise and jitter added by each stage").
pub fn architecture_comparison(bits: usize) -> ArchitectureComparison {
    architecture_comparison_with(Runner::global(), bits)
}

/// [`architecture_comparison`] on an explicit [`Runner`]. Both arms'
/// depths are characterized in one shared-prefix sweep; the arms are then
/// independent builds with their own seeds, so running them as two tasks
/// is bit-identical to the serial order.
pub fn architecture_comparison_with(runner: Runner, bits: usize) -> ArchitectureComparison {
    let rate = BitRate::from_gbps(6.4);
    let clean = EdgeStream::nrz(&BitPattern::prbs7(1, bits), rate);
    characterize_depths(runner, &[4, 8]);

    // Paper architecture: 4 fine + output + fanout + mux = 7 active.
    // Alternative: two fine circuits back-to-back = 8 VGA + output = 9.
    let arms = [
        (4usize, 7usize, EXPERIMENT_SEED + 40),
        (8, 9, EXPERIMENT_SEED + 41),
    ];
    let measured = runner.par_map(&arms, |_, &(stages, active, seed)| {
        let mut cfg = ModelConfig::paper_prototype();
        cfg.stages = stages;
        let line = FineDelayLine::new(&cfg.quiet(), EXPERIMENT_SEED);
        let (vctrls, intervals) = line.default_grids();
        let table = line.characterize_with(runner, &vctrls, &intervals);
        let mut model =
            CharacterizedDelay::new(table, Voltage::from_v(0.75), cfg.chain_rj(active), seed);
        let out = model.transform(&clean);
        let tj = JitterStats::from_times(&tie_sequence(&out))
            .expect("stream carries edges")
            .peak_to_peak;
        (tj, line.delay_range_with(runner, Time::from_ps(1000.0)))
    });

    ArchitectureComparison {
        coarse_plus_fine_tj: measured[0].0,
        all_fine_tj: measured[1].0,
        all_fine_range: measured[1].1,
    }
}

/// The common-vs-per-stage control ablation (DESIGN.md §6): the paper
/// drives all stages from one `Vctrl` "for simplicity". Per-stage control
/// could stagger the stages to linearize the transfer — this quantifies
/// what that buys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlStrategyAblation {
    /// Range with the common control (paper's choice).
    pub common_range: Time,
    /// Integral nonlinearity of the common-control transfer curve.
    pub common_inl: Time,
    /// Range with staggered per-stage controls spanning the same span.
    pub staggered_range: Time,
    /// INL of the staggered transfer curve.
    pub staggered_inl: Time,
}

/// Sweeps both control strategies over 13 settings at a 1 Gb/s toggle.
///
/// Staggering: stage `i` of `n` runs at
/// `v + (i − (n−1)/2) · span/(2n)`, clamped — each stage operates on a
/// different (more linear) part of the sigmoid.
pub fn control_strategy_ablation() -> ControlStrategyAblation {
    control_strategy_ablation_with(Runner::global())
}

/// [`control_strategy_ablation`] on an explicit [`Runner`]. Each of the
/// 13 settings measures both strategies on its own clone of the probe:
/// `set_vctrl` / `set_stage_vctrls` fully override the stage controls,
/// so a cloned-and-set probe is bit-identical to the serial loop's
/// reused one — only the wall clock changes.
pub fn control_strategy_ablation_with(runner: Runner) -> ControlStrategyAblation {
    use vardelay_measure::linearity::integral_nonlinearity;

    let cfg = ModelConfig::paper_prototype().quiet();
    let line = FineDelayLine::new(&cfg, EXPERIMENT_SEED);
    let interval = Time::from_ps(1000.0);
    let points = 13;
    let span = 1.5;
    let stages = line.stage_count();

    let rows = runner.run(points, |i| {
        let v = span * i as f64 / (points - 1) as f64;
        let mut probe = line.clone();
        probe.set_vctrl(Voltage::from_v(v));
        let common = probe.measure_delay(interval).as_ps();

        let offsets: Vec<Voltage> = (0..stages)
            .map(|k| {
                let off = (k as f64 - (stages as f64 - 1.0) / 2.0) * span / (2.0 * stages as f64);
                Voltage::from_v((v + off).clamp(0.0, span))
            })
            .collect();
        probe.set_stage_vctrls(&offsets);
        let staggered = probe.measure_delay(interval).as_ps();
        (v, common, staggered)
    });
    let xs: Vec<f64> = rows.iter().map(|r| r.0).collect();
    let common: Vec<f64> = rows.iter().map(|r| r.1).collect();
    let staggered: Vec<f64> = rows.iter().map(|r| r.2).collect();
    let range = |ys: &[f64]| {
        Time::from_ps(
            ys.iter().cloned().fold(f64::MIN, f64::max)
                - ys.iter().cloned().fold(f64::MAX, f64::min),
        )
    };
    ControlStrategyAblation {
        common_range: range(&common),
        common_inl: Time::from_ps(integral_nonlinearity(&xs, &common).expect("well-posed")),
        staggered_range: range(&staggered),
        staggered_inl: Time::from_ps(integral_nonlinearity(&xs, &staggered).expect("well-posed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_grows_with_stages() {
        let rows = stage_count_ablation(5, 1200);
        for w in rows.windows(2) {
            assert!(
                w[1].dc_range > w[0].dc_range,
                "{} -> {}",
                w[0].dc_range,
                w[1].dc_range
            );
        }
        // Four stages clear the 33 ps coarse step even at 6.4 GHz RZ…
        assert!(rows[3].range_at_6g4 > Time::from_ps(20.0));
        // …while one stage never could.
        assert!(rows[0].range_at_6g4 < Time::from_ps(15.0));
    }

    #[test]
    fn jitter_grows_with_stages() {
        let rows = stage_count_ablation(5, 2000);
        assert!(
            rows[4].added_tj > rows[0].added_tj,
            "{} vs {}",
            rows[4].added_tj,
            rows[0].added_tj
        );
    }

    #[test]
    fn staggered_control_trades_range_for_linearity() {
        let r = control_strategy_ablation();
        // Staggering averages the sigmoid over offsets: a more linear
        // curve, at the cost of some range (the outer stages clamp).
        assert!(
            r.staggered_inl < r.common_inl,
            "staggering did not linearize: {r:?}"
        );
        assert!(
            r.staggered_range <= r.common_range,
            "staggering cannot grow the range: {r:?}"
        );
        assert!(
            r.staggered_range > r.common_range * 0.6,
            "too much range lost: {r:?}"
        );
    }

    #[test]
    fn coarse_section_beats_a_second_cascade_on_jitter() {
        let cmp = architecture_comparison(2000);
        assert!(
            cmp.all_fine_tj > cmp.coarse_plus_fine_tj,
            "all-fine {} vs coarse+fine {}",
            cmp.all_fine_tj,
            cmp.coarse_plus_fine_tj
        );
        // The 8-stage cascade does cover the range — the objection is
        // jitter, not range.
        assert!(cmp.all_fine_range > Time::from_ps(100.0));
    }
}
