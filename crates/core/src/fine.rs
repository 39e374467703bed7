//! The fine-adjustment delay line: a common-`Vctrl` cascade of
//! variable-gain buffers with an amplitude-recovery output stage
//! (paper §2, Fig. 6).

use crate::config::ModelConfig;
use vardelay_analog::{
    measure_delay_tables_cached_with, AnalogBlock, CharacterizedDelay, DelayTable, LimitingBuffer,
    TappedCascade, VgaBuffer,
};
use vardelay_runner::Runner;
use vardelay_siggen::{BitPattern, EdgeStream};
use vardelay_units::{BitRate, Time, Voltage};
use vardelay_waveform::{to_edge_stream, Waveform};

/// The N-stage fine delay line.
///
/// All variable-gain stages share one control voltage "for simplicity"
/// (paper §2); the output stage restores the full logic swing so the
/// circuit can drive the coarse section or the DUT.
///
/// # Examples
///
/// ```
/// use vardelay_core::{FineDelayLine, ModelConfig};
/// use vardelay_units::Voltage;
///
/// let mut line = FineDelayLine::new(&ModelConfig::paper_prototype(), 7);
/// assert_eq!(line.stage_count(), 4);
/// line.set_vctrl(Voltage::from_v(1.2));
/// assert!((line.vctrl().as_v() - 1.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FineDelayLine {
    stages: Vec<VgaBuffer>,
    output_stage: LimitingBuffer,
    vctrl: Voltage,
    config: ModelConfig,
}

impl FineDelayLine {
    /// Builds the line described by `config` (its `stages` field sets the
    /// cascade depth), seeding each stage's noise stream independently.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        config.validate();
        let stages: Vec<VgaBuffer> = (0..config.stages)
            .map(|i| VgaBuffer::new(config.vga.clone(), seed.wrapping_add(i as u64 * 0x9e37)))
            .collect();
        let output_stage = LimitingBuffer::new(config.fixed.clone(), seed.wrapping_add(0xbeef));
        let mid = config.vga.vctrl_min.lerp(config.vga.vctrl_max, 0.5);
        let mut line = FineDelayLine {
            stages,
            output_stage,
            vctrl: mid,
            config: config.clone(),
        };
        line.set_vctrl(mid);
        line
    }

    /// Number of variable-gain stages.
    pub fn stage_count(&self) -> usize {
        self.stages.len()
    }

    /// The common control voltage.
    pub fn vctrl(&self) -> Voltage {
        self.vctrl
    }

    /// Applies the common control voltage to every stage.
    pub fn set_vctrl(&mut self, vctrl: Voltage) {
        self.vctrl = vctrl.clamp(self.config.vga.vctrl_min, self.config.vga.vctrl_max);
        for stage in &mut self.stages {
            stage.set_vctrl(self.vctrl);
        }
    }

    /// Applies an individual control voltage per stage — the alternative
    /// the paper rejects "for simplicity" (§2). [`FineDelayLine::vctrl`]
    /// then reports the mean. Useful for trimming stage mismatch or
    /// splitting a target between slow and fast stages.
    ///
    /// # Panics
    ///
    /// Panics if `vctrls.len()` differs from the stage count.
    pub fn set_stage_vctrls(&mut self, vctrls: &[Voltage]) {
        assert_eq!(
            vctrls.len(),
            self.stages.len(),
            "one control voltage per stage required"
        );
        for (stage, &v) in self.stages.iter_mut().zip(vctrls) {
            stage.set_vctrl(v.clamp(self.config.vga.vctrl_min, self.config.vga.vctrl_max));
        }
        self.vctrl = vctrls.iter().copied().sum::<Voltage>() / vctrls.len() as f64;
    }

    /// The per-stage control voltages currently applied.
    pub fn stage_vctrls(&self) -> Vec<Voltage> {
        self.stages.iter().map(|s| s.vctrl()).collect()
    }

    /// Bottom of the usable control range.
    pub fn vctrl_min(&self) -> Voltage {
        self.config.vga.vctrl_min
    }

    /// Top of the usable control range.
    pub fn vctrl_max(&self) -> Voltage {
        self.config.vga.vctrl_max
    }

    /// The model configuration this line was built from.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Measures the mean propagation delay at the current `Vctrl` for a
    /// 1010… stimulus toggling every `interval`, using the waveform engine
    /// on a noise-free copy (clean mean, as on a bench with averaging).
    ///
    /// # Panics
    ///
    /// Panics if the line loses the stimulus entirely (no measurable
    /// crossings). Fault-tolerant callers should use
    /// [`FineDelayLine::try_measure_delay`].
    pub fn measure_delay(&self, interval: Time) -> Time {
        self.try_measure_delay(interval)
            .expect("the fine line passes the stimulus")
    }

    /// [`FineDelayLine::measure_delay`] returning a typed error instead
    /// of panicking when the line output carries no measurable edges
    /// (e.g. a degenerate configuration or a dead driver under fault
    /// injection) — the characterization path for quarantined channels.
    ///
    /// # Errors
    ///
    /// Returns [`vardelay_measure::MeasureDelayError`] when no
    /// steady-state delay can be paired from the output.
    pub fn try_measure_delay(
        &self,
        interval: Time,
    ) -> Result<Time, vardelay_measure::MeasureDelayError> {
        let quiet_cfg = self.config.quiet();
        let mut quiet = FineDelayLine::new(&quiet_cfg, 0);
        quiet.set_stage_vctrls(&self.stage_vctrls());
        let rate = BitRate::from_bps(1.0 / interval.as_s());
        let stimulus = EdgeStream::nrz(&BitPattern::clock(24), rate);
        let wf = Waveform::render(&stimulus, &self.config.render);
        let out = quiet.process(&wf);
        let out_stream = to_edge_stream(&out, 0.0, rate.bit_period());
        vardelay_waveform::pool::recycle(out.into_samples());
        vardelay_waveform::pool::recycle(wf.into_samples());
        // Steady-state, polarity-safe tail pairing.
        vardelay_measure::tail_mean_delay(&stimulus, &out_stream, 8)
    }

    /// The fine adjustment range at a toggle `interval`: delay at maximum
    /// `Vctrl` minus delay at minimum `Vctrl` — the quantity plotted
    /// against frequency in Fig. 15. The two endpoint measurements fan
    /// out on the global [`Runner`].
    pub fn delay_range(&self, interval: Time) -> Time {
        self.delay_range_with(Runner::global(), interval)
    }

    /// [`FineDelayLine::delay_range`] on an explicit [`Runner`]. Each
    /// endpoint probes a fresh clone of the line, so the result is
    /// bit-identical to the serial pair at every thread count.
    pub fn delay_range_with(&self, runner: Runner, interval: Time) -> Time {
        let endpoints = [self.vctrl_min(), self.vctrl_max()];
        let measured = runner.par_map(&endpoints, |_, &v| {
            let mut probe = self.clone();
            probe.set_vctrl(v);
            probe.measure_delay(interval)
        });
        measured[1] - measured[0]
    }

    /// Characterizes the full line into a `delay(Vctrl, interval)` table
    /// using the waveform engine (noise disabled). Grid cells are measured
    /// in parallel on the global [`Runner`], and the table is memoized by
    /// the quiet model's fingerprint — the closure builds a fresh seed-0
    /// noise-free line per cell, so the result depends only on the
    /// configuration and grids.
    pub fn characterize(&self, vctrls: &[Voltage], intervals: &[Time]) -> DelayTable {
        self.characterize_with(Runner::global(), vctrls, intervals)
    }

    /// [`FineDelayLine::characterize`] on an explicit [`Runner`] (used by
    /// determinism tests to force thread counts).
    pub fn characterize_with(
        &self,
        runner: Runner,
        vctrls: &[Voltage],
        intervals: &[Time],
    ) -> DelayTable {
        self.characterize_depths_with(runner, &[self.stage_count()], vctrls, intervals)
            .pop()
            .expect("one table per depth")
    }

    /// Characterizes this line's design at several cascade depths in one
    /// sweep: each grid cell drives a single seed-0 noise-free line to the
    /// deepest of `depths` and taps the output stage after every requested
    /// depth, instead of rebuilding and re-driving the shared stage prefix
    /// once per depth. Entry `k` of the result is bit-identical to
    /// [`FineDelayLine::characterize_with`] on this configuration with
    /// `stages = depths[k]`, and is memoized under that same key: depths
    /// already cached are not re-measured, and later single-depth lookups
    /// hit.
    ///
    /// # Panics
    ///
    /// Panics if `depths` is empty, not strictly ascending, or starts at
    /// zero.
    pub fn characterize_depths_with(
        &self,
        runner: Runner,
        depths: &[usize],
        vctrls: &[Voltage],
        intervals: &[Time],
    ) -> Vec<DelayTable> {
        assert!(
            depths.first().is_some_and(|&d| d > 0),
            "depths start at one stage"
        );
        let mut cfg = self.config.quiet();
        let keys: Vec<u64> = depths
            .iter()
            .map(|&d| {
                cfg.stages = d;
                cfg.fingerprint()
            })
            .collect();
        // `cfg` now holds the deepest depth: every cell builds that line.
        let build = move |v: Voltage| -> Box<dyn TappedCascade + Send> {
            let mut line = FineDelayLine::new(&cfg, 0);
            line.set_vctrl(v);
            Box::new(line)
        };
        let render = &self.config.render;
        measure_delay_tables_cached_with(runner, &keys, &build, depths, vctrls, intervals, render)
    }

    /// Builds the fast edge-domain model of this line: the characterized
    /// delay table plus the aggregate random jitter of `stages + 1` active
    /// components.
    pub fn edge_model(
        &self,
        vctrls: &[Voltage],
        intervals: &[Time],
        seed: u64,
    ) -> CharacterizedDelay {
        self.edge_model_with(Runner::global(), vctrls, intervals, seed)
    }

    /// [`FineDelayLine::edge_model`], characterizing on an explicit
    /// [`Runner`].
    pub fn edge_model_with(
        &self,
        runner: Runner,
        vctrls: &[Voltage],
        intervals: &[Time],
        seed: u64,
    ) -> CharacterizedDelay {
        let table = self.characterize_with(runner, vctrls, intervals);
        let rj = self.config.chain_rj(self.stage_count() + 1);
        CharacterizedDelay::new(table, self.vctrl, rj, seed)
    }

    /// The default characterization grids: 9 control points over the
    /// control span × 8 toggle intervals from 70 ps to 2 ns.
    pub fn default_grids(&self) -> (Vec<Voltage>, Vec<Time>) {
        let n_v = 9;
        let vctrls = (0..n_v)
            .map(|i| {
                self.vctrl_min()
                    .lerp(self.vctrl_max(), i as f64 / (n_v - 1) as f64)
            })
            .collect();
        let intervals = [70.0, 90.0, 110.0, 156.25, 210.0, 320.0, 640.0, 2000.0]
            .iter()
            .map(|&ps| Time::from_ps(ps))
            .collect();
        (vctrls, intervals)
    }
}

impl FineDelayLine {
    /// Processes with a time-varying common control voltage — the
    /// waveform-domain jitter-injection path: every variable-gain stage
    /// follows the same `vctrl` trace while the data flows through.
    pub fn process_modulated(&mut self, input: &Waveform, vctrl: &Waveform) -> Waveform {
        let Some((first, rest)) = self.stages.split_first_mut() else {
            return self.output_stage.process(input);
        };
        let mut wf = first.process_modulated(input, vctrl);
        for stage in rest {
            let next = stage.process_modulated(&wf, vctrl);
            vardelay_waveform::pool::recycle(core::mem::replace(&mut wf, next).into_samples());
        }
        let out = self.output_stage.process(&wf);
        vardelay_waveform::pool::recycle(wf.into_samples());
        out
    }
}

impl TappedCascade for FineDelayLine {
    /// Taps the output stage after each requested number of variable-gain
    /// stages. Stage `i` is seeded identically at every depth, and each
    /// tap runs a fresh clone of the output stage, so the tap at depth `d`
    /// equals [`AnalogBlock::process`] on a line built `d` stages deep.
    ///
    /// # Panics
    ///
    /// Panics if a requested depth exceeds the stage count.
    fn process_taps(&mut self, input: &Waveform, depths: &[usize], tap: &mut dyn FnMut(Waveform)) {
        let deepest = depths.last().copied().unwrap_or(0);
        assert!(deepest <= self.stages.len(), "tap beyond the last stage");
        let mut prefix: Option<Waveform> = None;
        let mut driven = 0;
        for &depth in depths {
            for stage in &mut self.stages[driven..depth] {
                let next = stage.process(prefix.as_ref().unwrap_or(input));
                if let Some(done) = prefix.replace(next) {
                    vardelay_waveform::pool::recycle(done.into_samples());
                }
            }
            driven = depth;
            let mut output_stage = self.output_stage.clone();
            tap(output_stage.process(prefix.as_ref().unwrap_or(input)));
        }
        if let Some(done) = prefix {
            vardelay_waveform::pool::recycle(done.into_samples());
        }
    }
}

impl AnalogBlock for FineDelayLine {
    fn process(&mut self, input: &Waveform) -> Waveform {
        // Feed `input` to the first stage directly, then recycle each
        // intermediate trace as soon as the next stage has consumed it —
        // the steady-state solve path allocates nothing per stage.
        let Some((first, rest)) = self.stages.split_first_mut() else {
            return self.output_stage.process(input);
        };
        let mut wf = first.process(input);
        for stage in rest {
            let next = stage.process(&wf);
            vardelay_waveform::pool::recycle(core::mem::replace(&mut wf, next).into_samples());
        }
        let out = self.output_stage.process(&wf);
        vardelay_waveform::pool::recycle(wf.into_samples());
        out
    }

    fn name(&self) -> &str {
        "fine-delay-line"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_line(stages: usize) -> FineDelayLine {
        let mut cfg = ModelConfig::paper_prototype().quiet();
        cfg.stages = stages;
        FineDelayLine::new(&cfg, 1)
    }

    #[test]
    fn four_stage_range_matches_paper_anchor() {
        // Fig. 7: ~56 ps range over the 1.5 V span at low rate. Accept the
        // 45–70 ps band: the shape matters, not the exact figure.
        let line = quiet_line(4);
        let range = line.delay_range(Time::from_ps(1000.0)).as_ps();
        assert!((45.0..70.0).contains(&range), "4-stage range {range} ps");
    }

    #[test]
    fn two_stage_range_is_roughly_half() {
        let four = quiet_line(4).delay_range(Time::from_ps(1000.0)).as_ps();
        let two = quiet_line(2).delay_range(Time::from_ps(1000.0)).as_ps();
        assert!(two < four * 0.7, "two {two} vs four {four}");
        assert!(two > four * 0.3, "two {two} vs four {four}");
    }

    #[test]
    fn range_shrinks_at_high_toggle_rates() {
        // Fig. 15: the range collapses as the clock frequency rises.
        let line = quiet_line(4);
        let slow = line.delay_range(Time::from_ps(1000.0)).as_ps();
        let fast = line.delay_range(Time::from_ps(78.0)).as_ps(); // 6.4 GHz RZ
        assert!(fast < slow * 0.75, "slow {slow} fast {fast}");
        assert!(fast > 5.0, "range collapsed entirely: {fast}");
    }

    #[test]
    fn delay_is_monotone_in_vctrl() {
        let mut line = quiet_line(4);
        let interval = Time::from_ps(500.0);
        let mut prev: Option<Time> = None;
        for i in 0..=8 {
            line.set_vctrl(Voltage::from_v(1.5 * i as f64 / 8.0));
            let d = line.measure_delay(interval);
            if let Some(p) = prev {
                assert!(d >= p - Time::from_fs(300.0), "not monotone: {d} < {p}");
            }
            prev = Some(d);
        }
    }

    #[test]
    fn edge_model_agrees_with_waveform_engine() {
        let mut line = quiet_line(4);
        let (vctrls, intervals) = line.default_grids();
        let mut model = line.edge_model(&vctrls, &intervals, 3);

        let interval = Time::from_ps(320.0);
        for v in [0.3, 0.75, 1.2] {
            let vctrl = Voltage::from_v(v);
            line.set_vctrl(vctrl);
            model.set_vctrl(vctrl);
            let wf_delay = line.measure_delay(interval);
            let rate = BitRate::from_bps(1.0 / interval.as_s());
            let stim = EdgeStream::nrz(&BitPattern::clock(24), rate);
            let out = vardelay_analog::EdgeTransform::transform(&mut model, &stim);
            let edge_delay = vardelay_measure::mean_delay(&stim, &out).unwrap();
            let err = (wf_delay - edge_delay).abs();
            assert!(
                err < Time::from_ps(1.0),
                "engines disagree at {vctrl}: {wf_delay} vs {edge_delay}"
            );
        }
    }

    #[test]
    fn per_stage_vctrls_interpolate_the_common_settings() {
        let line = quiet_line(4);
        let interval = Time::from_ps(500.0);
        let mut lo = line.clone();
        lo.set_vctrl(Voltage::ZERO);
        let d_lo = lo.measure_delay(interval);
        let mut hi = line.clone();
        hi.set_vctrl(Voltage::from_v(1.5));
        let d_hi = hi.measure_delay(interval);
        // One stage at max, three at min: delay strictly between the
        // all-min and all-max settings.
        let mut mixed = line.clone();
        mixed.set_stage_vctrls(&[
            Voltage::from_v(1.5),
            Voltage::ZERO,
            Voltage::ZERO,
            Voltage::ZERO,
        ]);
        let d_mixed = mixed.measure_delay(interval);
        assert!(d_mixed > d_lo, "{d_mixed} vs {d_lo}");
        assert!(d_mixed < d_hi, "{d_mixed} vs {d_hi}");
        assert_eq!(mixed.stage_vctrls().len(), 4);
    }

    #[test]
    #[should_panic(expected = "one control voltage per stage")]
    fn per_stage_vctrls_validate_length() {
        let mut line = quiet_line(4);
        line.set_stage_vctrls(&[Voltage::ZERO]);
    }

    #[test]
    fn vctrl_clamps_to_control_range() {
        let mut line = quiet_line(2);
        line.set_vctrl(Voltage::from_v(99.0));
        assert_eq!(line.vctrl(), line.vctrl_max());
        line.set_vctrl(Voltage::from_v(-99.0));
        assert_eq!(line.vctrl(), line.vctrl_min());
    }
}
