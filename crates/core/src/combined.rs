//! The combined coarse + fine delay circuit (paper §3–4, Fig. 10).

use crate::calibration::CalibrationTable;
use crate::coarse::CoarseDelaySection;
use crate::config::ModelConfig;
use crate::dac::VctrlDac;
use crate::error::SetDelayError;
use crate::fine::FineDelayLine;
use vardelay_analog::{AnalogBlock, Fingerprint};
use vardelay_runner::Runner;
use vardelay_units::{Time, Voltage};
use vardelay_waveform::Waveform;

/// The programmed operating point chosen by [`CombinedDelayCircuit::set_delay`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySetting {
    /// Selected coarse tap (0..4).
    pub tap: usize,
    /// Programmed DAC code.
    pub dac_code: u32,
    /// The control voltage produced by that code.
    pub vctrl: Voltage,
    /// The relative delay the calibration predicts for this setting.
    pub predicted_delay: Time,
    /// `predicted_delay − requested` (dominated by DAC quantization).
    pub predicted_error: Time,
}

/// The full prototype channel: coarse section cascaded with the fine line,
/// programmed through a DAC against a measured calibration.
///
/// Delays are *relative*: `set_delay(Time::ZERO)` selects tap 0 at the
/// fine line's minimum-delay control voltage; the fixed through-delay of
/// the seven active stages is common mode and irrelevant for deskew.
#[derive(Debug, Clone)]
pub struct CombinedDelayCircuit {
    coarse: CoarseDelaySection,
    fine: FineDelayLine,
    dac: VctrlDac,
    calibration: Option<CalibrationTable>,
    config: ModelConfig,
}

impl CombinedDelayCircuit {
    /// Builds an uncalibrated circuit. Run
    /// [`calibrate`](Self::calibrate) before programming delays.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        config.validate();
        CombinedDelayCircuit {
            coarse: CoarseDelaySection::new(config, seed.wrapping_add(0xc0)),
            fine: FineDelayLine::new(config, seed.wrapping_add(0xf1)),
            dac: VctrlDac::new(12, config.vga.vctrl_min, config.vga.vctrl_max),
            calibration: None,
            config: config.clone(),
        }
    }

    /// The coarse section.
    pub fn coarse(&self) -> &CoarseDelaySection {
        &self.coarse
    }

    /// The fine line.
    pub fn fine(&self) -> &FineDelayLine {
        &self.fine
    }

    /// The control DAC.
    pub fn dac(&self) -> &VctrlDac {
        &self.dac
    }

    /// The calibration table, if [`calibrate`](Self::calibrate) has run.
    pub fn calibration(&self) -> Option<&CalibrationTable> {
        self.calibration.as_ref()
    }

    /// Measures the fine delay-vs-`Vctrl` curve at a representative toggle
    /// interval (320 ps ≈ 3.1 Gb/s clock pattern) over 17 control points
    /// and stores the table — the paper's Fig. 7 procedure.
    pub fn calibrate(&mut self) -> &CalibrationTable {
        self.calibrate_at(Time::from_ps(320.0), 17)
    }

    /// [`CombinedDelayCircuit::calibrate`] on an explicit [`Runner`].
    pub fn calibrate_with(&mut self, runner: Runner) -> &CalibrationTable {
        self.calibrate_at_with(runner, Time::from_ps(320.0), 17)
    }

    /// Installs an externally measured calibration table — used by
    /// multi-channel units sharing one channel's curve, and by hosts that
    /// persist calibrations across sessions.
    pub fn install_calibration(&mut self, table: CalibrationTable) {
        self.calibration = Some(table);
    }

    /// [`CombinedDelayCircuit::calibrate`] through the characterization
    /// cache: the fine line's delay table is measured **once per model
    /// fingerprint** (`measure_delay_tables_cached_with` in `vardelay-analog`,
    /// single-flight across racing callers) and every later calibration
    /// — another channel of a multi-tenant unit, another server start in
    /// the same process — rebuilds its [`CalibrationTable`] from the
    /// cached curve without re-running the waveform sweep. This is the
    /// solve path `vardelay-serve` programs channels through.
    ///
    /// The curve is measured by the characterization engine rather than
    /// [`calibrate`](Self::calibrate)'s direct per-point sweep, so the
    /// two tables can differ by the engines' (sub-picosecond) tail
    ///-pairing differences; both are valid calibrations of the same
    /// line.
    pub fn calibrate_cached(&mut self) -> &CalibrationTable {
        self.calibrate_cached_with(Runner::global())
    }

    /// [`CombinedDelayCircuit::calibrate_cached`] on an explicit
    /// [`Runner`].
    pub fn calibrate_cached_with(&mut self, runner: Runner) -> &CalibrationTable {
        let interval = Time::from_ps(320.0);
        let points = 17;
        let grid: Vec<Voltage> = (0..points)
            .map(|i| {
                self.fine
                    .vctrl_min()
                    .lerp(self.fine.vctrl_max(), i as f64 / (points - 1) as f64)
            })
            .collect();
        let table = self.fine.characterize_with(runner, &grid, &[interval]);
        let mut curve = table.curve_at(interval).into_iter();
        let cal = CalibrationTable::from_measurement(&grid, |_| {
            curve.next().expect("one curve point per grid voltage").1
        });
        self.calibration = Some(cal);
        self.calibration.as_ref().expect("just stored")
    }

    /// Calibrates at a caller-chosen toggle interval and grid size.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn calibrate_at(&mut self, interval: Time, points: usize) -> &CalibrationTable {
        self.calibrate_at_with(Runner::global(), interval, points)
    }

    /// [`CombinedDelayCircuit::calibrate_at`] on an explicit [`Runner`].
    /// Grid points are measured in parallel — each probes a fresh clone of
    /// the fine line, so the table is bit-identical to the serial sweep at
    /// every thread count.
    ///
    /// Each probe internally measures a fresh noise-free seed-0 line built
    /// from the quiet configuration, so the whole sweep is a pure function
    /// of `(quiet fingerprint, interval, grid)` — which is exactly the key
    /// the solve cache (`crate::solve`) memoizes it under. A repeat
    /// calibration of an identical channel skips the waveform simulation
    /// entirely and returns the byte-identical table; set
    /// `VARDELAY_NO_CACHE` to force every solve through the full sweep.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2`.
    pub fn calibrate_at_with(
        &mut self,
        runner: Runner,
        interval: Time,
        points: usize,
    ) -> &CalibrationTable {
        assert!(points >= 2, "calibration needs at least two points");
        let _solve = vardelay_obs::span("core.solve_us");
        let grid: Vec<Voltage> = (0..points)
            .map(|i| {
                self.fine
                    .vctrl_min()
                    .lerp(self.fine.vctrl_max(), i as f64 / (points - 1) as f64)
            })
            .collect();
        let table = if vardelay_runner::cache_enabled() {
            let mut fp = Fingerprint::new();
            fp.push_u64(self.config.quiet().fingerprint());
            fp.push_f64(interval.as_s());
            fp.push_usize(points);
            for v in &grid {
                fp.push_f64(v.as_v());
            }
            crate::solve::solve_table_cached(fp.finish(), || {
                self.sweep_calibration(runner, &grid, interval)
            })
        } else {
            self.sweep_calibration(runner, &grid, interval)
        };
        self.calibration = Some(table);
        self.calibration.as_ref().expect("just stored")
    }

    /// The slow-path calibration sweep: one full waveform simulation per
    /// grid point, fanned out on `runner`. This is the authority the fast
    /// path's cache is filled from.
    fn sweep_calibration(
        &self,
        runner: Runner,
        grid: &[Voltage],
        interval: Time,
    ) -> CalibrationTable {
        let fine = self.fine.clone();
        let delays = runner.par_map(grid, |_, &v| {
            let mut probe = fine.clone();
            probe.set_vctrl(v);
            probe.measure_delay(interval)
        });
        let mut next = delays.into_iter();
        CalibrationTable::from_measurement(grid, |_| {
            next.next().expect("one measured delay per grid point")
        })
    }

    /// The total programmable relative range: last coarse tap plus the
    /// calibrated fine range — about 140 ps for the prototype, satisfying
    /// the ≥120 ps application requirement.
    ///
    /// # Errors
    ///
    /// Returns [`SetDelayError::NotCalibrated`] before calibration.
    pub fn total_range(&self) -> Result<Time, SetDelayError> {
        let cal = self
            .calibration
            .as_ref()
            .ok_or(SetDelayError::NotCalibrated)?;
        Ok(self.coarse.max_tap_delay() + cal.range())
    }

    /// Programs the circuit to `target` relative delay: picks the highest
    /// coarse tap not exceeding the target, then solves the fine control
    /// voltage for the residue and rounds it to the nearest DAC code.
    ///
    /// # Errors
    ///
    /// Returns [`SetDelayError::NotCalibrated`] before calibration, or
    /// [`SetDelayError::OutOfRange`] if `target` exceeds the combined
    /// range.
    pub fn set_delay(&mut self, target: Time) -> Result<DelaySetting, SetDelayError> {
        let cal = self
            .calibration
            .as_ref()
            .ok_or(SetDelayError::NotCalibrated)?;
        let fine_range = cal.range();
        let max = self.coarse.max_tap_delay() + fine_range;
        if target < Time::ZERO || target > max {
            return Err(SetDelayError::OutOfRange {
                requested: target,
                min: Time::ZERO,
                max,
            });
        }
        // Highest tap whose residue fits the fine range. Taps ascend, so
        // scan from the top; tap 0 always fits because target >= 0. The
        // femtosecond slack absorbs floating-point rounding at the exact
        // range boundary.
        let eps = Time::from_fs(10.0);
        let taps = self.coarse.tap_delays();
        let tap = (0..4)
            .rev()
            .find(|&k| {
                let residue = target - taps[k];
                residue >= -eps && residue <= fine_range + eps
            })
            .ok_or(SetDelayError::OutOfRange {
                requested: target,
                min: Time::ZERO,
                max,
            })?;
        let residue = (target - taps[tap]).clamp(Time::ZERO, fine_range);
        let fine_target = cal.min_delay() + residue;
        let vctrl_exact = cal
            .vctrl_for_delay(fine_target)
            .expect("residue is within the fine range by construction");
        let dac_code = self.dac.code_for(vctrl_exact);
        let vctrl = self.dac.voltage(dac_code);
        let predicted_delay = taps[tap] + (cal.delay_at(vctrl) - cal.min_delay());

        self.coarse.select_tap(tap).expect("tap index in range");
        self.fine.set_vctrl(vctrl);
        Ok(DelaySetting {
            tap,
            dac_code,
            vctrl,
            predicted_delay,
            predicted_error: predicted_delay - target,
        })
    }

    /// The worst-case gap between adjacent programmable delays: with the
    /// fine range exceeding every coarse step, coverage is continuous and
    /// the step is set by the DAC (sub-picosecond).
    ///
    /// # Errors
    ///
    /// Returns [`SetDelayError::NotCalibrated`] before calibration.
    pub fn setting_resolution(&self) -> Result<Time, SetDelayError> {
        let cal = self
            .calibration
            .as_ref()
            .ok_or(SetDelayError::NotCalibrated)?;
        Ok(self.dac.delay_resolution(cal.mean_slope_s_per_v()))
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }
}

impl AnalogBlock for CombinedDelayCircuit {
    fn process(&mut self, input: &Waveform) -> Waveform {
        let after_coarse = self.coarse.process(input);
        let out = self.fine.process(&after_coarse);
        vardelay_waveform::pool::recycle(after_coarse.into_samples());
        out
    }

    fn name(&self) -> &str {
        "combined-delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_siggen::{BitPattern, EdgeStream};
    use vardelay_units::BitRate;
    use vardelay_waveform::to_edge_stream;

    fn calibrated() -> CombinedDelayCircuit {
        let mut c = CombinedDelayCircuit::new(&ModelConfig::paper_prototype().quiet(), 1);
        c.calibrate();
        c
    }

    #[test]
    fn uncalibrated_is_an_error() {
        let mut c = CombinedDelayCircuit::new(&ModelConfig::paper_prototype(), 1);
        assert_eq!(
            c.set_delay(Time::from_ps(10.0)),
            Err(SetDelayError::NotCalibrated)
        );
        assert_eq!(c.total_range(), Err(SetDelayError::NotCalibrated));
    }

    #[test]
    fn total_range_meets_the_120ps_requirement() {
        let c = calibrated();
        let range = c.total_range().unwrap();
        assert!(range > Time::from_ps(120.0), "combined range only {range}");
        assert!(range < Time::from_ps(180.0), "implausibly large {range}");
    }

    #[test]
    fn out_of_range_is_reported() {
        let mut c = calibrated();
        let max = c.total_range().unwrap();
        let err = c.set_delay(max + Time::from_ps(1.0)).unwrap_err();
        match err {
            SetDelayError::OutOfRange { requested, .. } => {
                assert!((requested - max - Time::from_ps(1.0)).abs() < Time::from_fs(1.0));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(c.set_delay(Time::from_ps(-5.0)).is_err());
    }

    #[test]
    fn settings_cover_the_range_with_small_predicted_error() {
        let mut c = calibrated();
        let max = c.total_range().unwrap();
        for i in 0..=20 {
            let target = max * (i as f64 / 20.0);
            let setting = c.set_delay(target).unwrap();
            assert!(
                setting.predicted_error.abs() < Time::from_ps(1.0),
                "target {target}: error {}",
                setting.predicted_error
            );
        }
    }

    #[test]
    fn programmed_delay_is_realized_in_simulation() {
        let mut c = calibrated();
        let rate = BitRate::from_bps(1.0 / 320e-12);
        let stream = EdgeStream::nrz(&BitPattern::clock(24), rate);
        let wf = Waveform::render(&stream, &c.config().render);

        // Reference: zero relative delay.
        c.set_delay(Time::ZERO).unwrap();
        let base = to_edge_stream(&c.process(&wf), 0.0, rate.bit_period());

        for target_ps in [20.0, 75.0, 130.0] {
            let target = Time::from_ps(target_ps);
            c.set_delay(target).unwrap();
            let out = to_edge_stream(&c.process(&wf), 0.0, rate.bit_period());
            let d = vardelay_measure::tail_mean_delay(&base, &out, 8).unwrap();
            assert!(
                (d - target).abs() < Time::from_ps(2.5),
                "target {target}, realized {d}"
            );
        }
    }

    #[test]
    fn cached_calibration_matches_the_direct_sweep() {
        let cfg = ModelConfig::paper_prototype().quiet();
        let mut direct = CombinedDelayCircuit::new(&cfg, 1);
        direct.calibrate();
        let mut cached = CombinedDelayCircuit::new(&cfg, 1);
        cached.calibrate_cached();
        // Different measurement engines, same physical curve: ranges
        // agree to a couple of picoseconds and programming works across
        // the full span.
        let dr = direct.calibration().unwrap().range();
        let cr = cached.calibration().unwrap().range();
        assert!(
            (dr - cr).abs() < Time::from_ps(3.0),
            "direct {dr} vs cached {cr}"
        );
        let max = cached.total_range().unwrap();
        for i in 0..=10 {
            let target = max * (i as f64 / 10.0);
            let s = cached.set_delay(target).unwrap();
            assert!(
                s.predicted_error.abs() < Time::from_ps(1.0),
                "target {target}: error {}",
                s.predicted_error
            );
        }
        // A second cached calibration reproduces the identical table
        // (served from the characterization cache, not re-measured).
        let first = cached.calibration().unwrap().clone();
        let mut again = CombinedDelayCircuit::new(&cfg, 99);
        again.calibrate_cached();
        assert_eq!(again.calibration(), Some(&first));
    }

    #[test]
    fn resolution_is_sub_picosecond() {
        let c = calibrated();
        let res = c.setting_resolution().unwrap();
        assert!(res < Time::from_ps(0.1), "resolution {res}");
    }

    #[test]
    fn higher_targets_use_higher_taps() {
        let mut c = calibrated();
        let low = c.set_delay(Time::from_ps(5.0)).unwrap();
        let high = c.set_delay(Time::from_ps(120.0)).unwrap();
        assert!(low.tap < high.tap);
        assert_eq!(high.tap, 3);
    }
}
