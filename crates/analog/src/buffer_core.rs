//! The shared differential-buffer signal path.
//!
//! Every active component in the prototype (variable-gain stages, output
//! stage, fanout, mux) shares one behavioral path:
//!
//! ```text
//! in ──► [+noise] ──► limiting gm (tanh) ──► slew limit ──► one-pole ──► out
//! ```
//!
//! The limiting stage regenerates logic levels at the programmed swing;
//! the slew limiter gives the amplitude-proportional crossing delay that
//! the whole paper exploits; the one-pole models finite bandwidth, which
//! both compresses the swing at high toggle rates (the Fig. 15 range
//! roll-off) and produces inter-symbol interference; and the input-referred
//! noise converts to random jitter at each crossing.

use crate::block::AnalogBlock;
use vardelay_siggen::SplitMix64;
use vardelay_units::{Frequency, Time, Voltage};
use vardelay_waveform::{pool, Waveform};

/// Per-sample amplitude program for the shared signal path: either a
/// constant half-swing (the plain [`AnalogBlock::process`] path, which
/// needs no buffer at all) or a borrowed per-sample trace (the modulated
/// jitter-injection path).
enum Drive<'a> {
    Const(f64),
    PerSample(&'a [f64]),
}

impl Drive<'_> {
    fn first(&self) -> f64 {
        match self {
            Drive::Const(half) => *half,
            Drive::PerSample(halves) => halves.first().copied().unwrap_or(0.0),
        }
    }
}

/// Electrical parameters of a buffer path.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferCoreConfig {
    /// Differential output swing (rail-to-rail, i.e. `±swing/2`).
    pub swing: Voltage,
    /// Input linear range of the limiting stage: inputs beyond `±v_lin/2`
    /// saturate. Small values = hard limiting = strong regeneration.
    pub v_lin: Voltage,
    /// Output slew rate in volts per second.
    pub slew_v_per_s: f64,
    /// −3 dB bandwidth of the output pole.
    pub bandwidth: Frequency,
    /// Input-referred RMS voltage noise (converts to RJ at crossings).
    pub noise_rms: Voltage,
    /// Fixed propagation delay (package, interconnect, bias).
    pub prop_delay: Time,
    /// Gain-envelope settling time constant: after every switching event
    /// the stage's current-steering gain control re-develops the
    /// programmed swing with this time constant. When toggles arrive
    /// faster than the envelope settles, the *amplitude-dependent* part of
    /// the propagation delay compresses — the mechanism behind the
    /// paper's Fig. 15 range roll-off. Set at or below the sample period
    /// to disable (fixed-gain buffers).
    pub envelope_tau: Time,
    /// The swing the output snaps to immediately after a switching event,
    /// before the envelope re-develops (amplitude-independent floor).
    pub envelope_floor: Voltage,
}

impl BufferCoreConfig {
    /// A clean full-swing ECL-style buffer comparable to the commercial
    /// parts in the prototype: 800 mV swing, 9 GHz bandwidth,
    /// 0.033 V/ps slew, ~20 ps fixed delay.
    pub fn ecl_default() -> Self {
        BufferCoreConfig {
            swing: Voltage::from_mv(800.0),
            v_lin: Voltage::from_mv(60.0),
            slew_v_per_s: 0.033e12,
            bandwidth: Frequency::from_ghz(9.0),
            noise_rms: Voltage::from_mv(1.2),
            prop_delay: Time::from_ps(20.0),
            envelope_tau: Time::ZERO, // fixed-gain: no envelope dynamics
            envelope_floor: Voltage::from_mv(40.0),
        }
    }

    /// Validates parameter positivity.
    ///
    /// # Panics
    ///
    /// Panics if any physical parameter is non-positive (noise may be zero).
    pub fn validate(&self) {
        assert!(self.swing > Voltage::ZERO, "swing must be positive");
        assert!(self.v_lin > Voltage::ZERO, "linear range must be positive");
        assert!(self.slew_v_per_s > 0.0, "slew rate must be positive");
        assert!(
            self.bandwidth > Frequency::ZERO,
            "bandwidth must be positive"
        );
        assert!(
            self.noise_rms >= Voltage::ZERO,
            "noise must be non-negative"
        );
        assert!(self.prop_delay >= Time::ZERO, "delay must be non-negative");
        assert!(
            self.envelope_tau >= Time::ZERO,
            "envelope time constant must be non-negative"
        );
        assert!(
            self.envelope_floor > Voltage::ZERO,
            "envelope floor must be positive"
        );
    }
}

/// The shared buffer signal path with a programmable output swing.
#[derive(Debug, Clone)]
pub struct BufferCore {
    config: BufferCoreConfig,
    /// Current output swing target; [`crate::VgaBuffer`] retunes this from
    /// `Vctrl`, fixed-gain stages leave it at `config.swing`.
    amplitude: Voltage,
    rng: SplitMix64,
    label: String,
}

impl BufferCore {
    /// Creates a buffer path with the given parameters and noise seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`BufferCoreConfig::validate`]).
    pub fn new(label: &str, config: BufferCoreConfig, seed: u64) -> Self {
        config.validate();
        let amplitude = config.swing;
        BufferCore {
            config,
            amplitude,
            rng: SplitMix64::new(seed),
            label: label.to_owned(),
        }
    }

    /// The electrical configuration.
    pub fn config(&self) -> &BufferCoreConfig {
        &self.config
    }

    /// Current output swing.
    pub fn amplitude(&self) -> Voltage {
        self.amplitude
    }

    /// Reprograms the output swing (clamped to be positive).
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is not strictly positive.
    pub fn set_amplitude(&mut self, amplitude: Voltage) {
        assert!(amplitude > Voltage::ZERO, "amplitude must be positive");
        self.amplitude = amplitude;
    }
}

impl BufferCore {
    /// Processes with a per-sample amplitude program: `amplitude` is a
    /// voltage trace (full differential swing versus time) sampled onto
    /// the input grid — the waveform-domain model of the jitter-injection
    /// path, where `Vctrl` moves while data flows.
    ///
    /// Amplitudes are clamped to at least 1 mV so the limiter stays
    /// well-defined.
    pub fn process_modulated(&mut self, input: &Waveform, amplitude: &Waveform) -> Waveform {
        let mut halves = pool::take(input.len());
        for i in 0..input.len() {
            halves.push((amplitude.value_at(input.time_of(i)) / 2.0).max(0.0005));
        }
        let out = self.process_inner(input, Drive::PerSample(&halves));
        pool::recycle(halves);
        out
    }

    /// The whole signal path in one pass over the input, writing straight
    /// into a pooled output buffer. Per sample: add the band-limited noise,
    /// limit (tanh, with the gain envelope when enabled), slew-limit, then
    /// the output pole. The slew and pole states start from the first
    /// limited sample and the RNG is drawn in sample order, so the output
    /// must stay bit-identical to applying the four stages as separate
    /// passes — the oracle the tests compare against.
    fn process_inner(&mut self, input: &Waveform, drive: Drive<'_>) -> Waveform {
        let out = match drive {
            Drive::Const(half) => self.fused(input, half, |_| half),
            Drive::PerSample(halves) => self.fused(input, drive.first(), |i| halves[i]),
        };
        // Fixed propagation delay.
        Waveform::new(input.t0() + self.config.prop_delay, input.dt(), out)
    }

    /// Monomorphizes the fused loop on whether noise and the gain envelope
    /// are enabled, so the per-sample body carries no dead branches.
    fn fused(
        &mut self,
        input: &Waveform,
        first_half: f64,
        half: impl Fn(usize) -> f64,
    ) -> Vec<f64> {
        let noisy = self.config.noise_rms > Voltage::ZERO;
        let enveloped = self.config.envelope_tau > input.dt();
        match (noisy, enveloped) {
            (false, false) => self.fused_loop::<false, false>(input, first_half, half),
            (false, true) => self.fused_loop::<false, true>(input, first_half, half),
            (true, false) => self.fused_loop::<true, false>(input, first_half, half),
            (true, true) => self.fused_loop::<true, true>(input, first_half, half),
        }
    }

    /// The fused loop. `half` is the drive at each sample; `first_half`
    /// seeds the envelope.
    #[inline(always)]
    fn fused_loop<const NOISY: bool, const ENVELOPE: bool>(
        &mut self,
        input: &Waveform,
        first_half: f64,
        half: impl Fn(usize) -> f64,
    ) -> Vec<f64> {
        let dt = input.dt();
        let v_lin = self.config.v_lin.as_v();
        let pole_tau = self.config.bandwidth.one_pole_tau();

        // Input-referred noise: white Gaussian per sample would have
        // unbounded bandwidth, so draw it band-limited by reusing the
        // output pole's time constant via an exponential-smoothing walk.
        let noise = self.config.noise_rms.as_v();
        let (mut n, beta, innov) = if NOISY {
            let beta = (-(dt / pole_tau)).exp();
            // Scale the innovation so the stationary RMS equals noise_rms.
            let innov = noise * (1.0 - beta * beta).sqrt();
            (self.rng.gaussian() * noise, beta, innov)
        } else {
            (0.0, 0.0, 0.0)
        };
        // Limiting transconductor: regenerate at the programmed swing.
        // The envelope models the gain control re-developing after every
        // switching event: the output snaps to ±floor, then grows toward
        // ±swing/2 with tau_env. With tau_env at/below the sample period
        // (fixed-gain stages) the envelope is always settled.
        let env_alpha = 1.0 - (-(dt / self.config.envelope_tau)).exp();
        let floor_half = self.config.envelope_floor.as_v() / 2.0;
        let mut env = first_half;
        let mut prev_positive = false;
        // Finite slew of the output emitter followers.
        let max_step = self.config.slew_v_per_s * dt.as_s();
        // Output pole, exact discretization of its step response.
        let alpha = 1.0 - (-(dt / pole_tau)).exp();

        let mut out = pool::take(input.len());
        let (mut slewed, mut pole) = (0.0, 0.0);
        for (i, &x) in input.samples().iter().enumerate() {
            let mut s = x;
            if NOISY {
                s += n;
                n = beta * n + innov * self.rng.gaussian();
            }
            let u = (2.0 * s / v_lin).tanh();
            let limited = if ENVELOPE {
                if i == 0 {
                    prev_positive = s >= 0.0;
                }
                let half = half(i);
                let positive = u >= 0.0;
                if positive != prev_positive {
                    env = floor_half.min(half);
                    prev_positive = positive;
                } else {
                    env += (half - env) * env_alpha;
                }
                u * env
            } else {
                half(i) * u
            };
            if i == 0 {
                slewed = limited;
            }
            slewed += (limited - slewed).clamp(-max_step, max_step);
            if i == 0 {
                pole = slewed;
            }
            pole += alpha * (slewed - pole);
            out.push(pole);
        }
        out
    }
}

impl AnalogBlock for BufferCore {
    fn process(&mut self, input: &Waveform) -> Waveform {
        self.process_inner(input, Drive::Const(self.amplitude.as_v() / 2.0))
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_measure::mean_delay;
    use vardelay_siggen::{BitPattern, EdgeStream};
    use vardelay_units::BitRate;
    use vardelay_waveform::{to_edge_stream, RenderConfig};

    fn quiet(mut cfg: BufferCoreConfig) -> BufferCoreConfig {
        cfg.noise_rms = Voltage::ZERO;
        cfg
    }

    fn process_stream(
        core: &mut BufferCore,
        rate: BitRate,
        bits: usize,
    ) -> (EdgeStream, EdgeStream) {
        let stream = EdgeStream::nrz(&BitPattern::clock(bits), rate);
        let wf = Waveform::render(&stream, &RenderConfig::default_source());
        let out = core.process(&wf);
        let out_stream = to_edge_stream(&out, 0.0, rate.bit_period());
        (stream, out_stream)
    }

    #[test]
    fn regenerates_full_swing() {
        let mut core = BufferCore::new("b", quiet(BufferCoreConfig::ecl_default()), 1);
        let (_, out) = process_stream(&mut core, BitRate::from_gbps(1.0), 16);
        assert_eq!(out.len(), 16);
    }

    #[test]
    fn larger_amplitude_means_longer_delay() {
        // The paper's core effect: delay grows with programmed swing.
        let cfg = quiet(BufferCoreConfig::ecl_default());
        let rate = BitRate::from_gbps(1.0);
        let stream = EdgeStream::nrz(&BitPattern::clock(16), rate);
        let wf = Waveform::render(&stream, &RenderConfig::default_source());

        let mut delays = Vec::new();
        for mv in [100.0, 400.0, 750.0] {
            let mut core = BufferCore::new("b", cfg.clone(), 1);
            core.set_amplitude(Voltage::from_mv(mv));
            let out = core.process(&wf);
            let out_stream = to_edge_stream(&out, 0.0, rate.bit_period());
            delays.push(mean_delay(&stream, &out_stream).unwrap());
        }
        assert!(delays[1] > delays[0], "{:?}", delays);
        assert!(delays[2] > delays[1], "{:?}", delays);
        // Expected range ~ (0.75-0.1)/(2*0.033) ≈ 9.8 ps per stage.
        let range = (delays[2] - delays[0]).as_ps();
        assert!((5.0..20.0).contains(&range), "range {range} ps");
    }

    #[test]
    fn noise_produces_crossing_jitter() {
        let mut cfg = BufferCoreConfig::ecl_default();
        cfg.noise_rms = Voltage::from_mv(8.0);
        let rate = BitRate::from_gbps(1.0);
        let mut core = BufferCore::new("b", cfg, 42);
        let (input, out) = process_stream(&mut core, rate, 400);
        let seq = vardelay_measure::delay_sequence(&input, &out).unwrap();
        let stats = vardelay_measure::JitterStats::from_times(&seq).unwrap();
        assert!(
            stats.rms > Time::from_fs(50.0),
            "noise produced no jitter: {stats}"
        );
        assert!(stats.rms < Time::from_ps(5.0), "implausibly large jitter");
    }

    #[test]
    fn bandwidth_compresses_swing_at_high_rate() {
        let mut cfg = quiet(BufferCoreConfig::ecl_default());
        cfg.bandwidth = Frequency::from_ghz(4.0);
        let mut core = BufferCore::new("b", cfg, 1);
        let stream = EdgeStream::rz_clock(Frequency::from_ghz(6.4), 40);
        let wf = Waveform::render(&stream, &RenderConfig::default_source());
        let out = core.process(&wf);
        let (lo, hi) = out.extremes().unwrap();
        // 800 mV programmed swing cannot settle within a 78 ps pulse.
        assert!(hi < 0.4 && lo > -0.4, "no compression: {lo}..{hi}");
        assert!(hi > 0.05, "signal vanished: {lo}..{hi}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = BufferCoreConfig::ecl_default();
        cfg.noise_rms = Voltage::from_mv(5.0);
        let wf = Waveform::render(
            &EdgeStream::nrz(&BitPattern::clock(10), BitRate::from_gbps(1.0)),
            &RenderConfig::default_source(),
        );
        let a = BufferCore::new("b", cfg.clone(), 7).process(&wf);
        let b = BufferCore::new("b", cfg, 7).process(&wf);
        assert_eq!(a, b);
    }

    /// The four-pass kernel the fused loop replaced: copy, noise plus
    /// limiter, slew limiter, output pole. Kept as the oracle the fused
    /// path must match bit for bit.
    fn process_four_pass(core: &mut BufferCore, input: &Waveform, drive: Drive<'_>) -> Waveform {
        use vardelay_waveform::{OnePole, SlewLimiter};

        let at = |i: usize| match drive {
            Drive::Const(half) => half,
            Drive::PerSample(halves) => halves[i],
        };
        let v_lin = core.config.v_lin.as_v();
        let noise = core.config.noise_rms.as_v();
        let mut out = Waveform::new(input.t0(), input.dt(), pool::take_copy(input.samples()));
        if noise > 0.0 {
            let tau = core.config.bandwidth.one_pole_tau();
            let beta = (-(input.dt() / tau)).exp();
            let innov = noise * (1.0 - beta * beta).sqrt();
            let mut n = core.rng.gaussian() * noise;
            for s in out.samples_mut() {
                *s += n;
                n = beta * n + innov * core.rng.gaussian();
            }
        }
        let tau_env = core.config.envelope_tau;
        if tau_env > input.dt() {
            let alpha = 1.0 - (-(input.dt() / tau_env)).exp();
            let floor_half = core.config.envelope_floor.as_v() / 2.0;
            let mut env = drive.first();
            let mut prev_positive = out.samples().first().is_some_and(|&v| v >= 0.0);
            for (i, s) in out.samples_mut().iter_mut().enumerate() {
                let half = at(i);
                let u = (2.0 * *s / v_lin).tanh();
                let positive = u >= 0.0;
                if positive != prev_positive {
                    env = floor_half.min(half);
                    prev_positive = positive;
                } else {
                    env += (half - env) * alpha;
                }
                *s = u * env;
            }
        } else {
            for (i, s) in out.samples_mut().iter_mut().enumerate() {
                *s = at(i) * (2.0 * *s / v_lin).tanh();
            }
        }
        SlewLimiter::new(core.config.slew_v_per_s).apply(&mut out);
        OnePole::with_corner(core.config.bandwidth).apply(&mut out);
        out.shift(core.config.prop_delay);
        out
    }

    fn bits(wf: &Waveform) -> (u64, u64, Vec<u64>) {
        let samples = wf.samples().iter().map(|v| v.to_bits()).collect();
        (wf.t0().as_s().to_bits(), wf.dt().as_s().to_bits(), samples)
    }

    /// Seeded property: across noise on/off, envelope on/off, constant and
    /// per-sample drive, and 0-, 1-, 2- and many-sample inputs, the fused
    /// kernel reproduces the four-pass oracle bit for bit — output samples,
    /// time axis, and the RNG state it leaves behind.
    #[test]
    fn fused_kernel_matches_four_pass_oracle() {
        let mut rng = SplitMix64::new(0x0f05_ed00);
        for case in 0..64u64 {
            let noisy = case & 1 == 1;
            let enveloped = case & 2 == 2;
            let per_sample = case & 4 == 4;
            let len = match case / 8 {
                0 => 0,
                1 => 1,
                2 => 2,
                _ => 3 + (rng.next_f64() * 400.0) as usize,
            };
            let mut cfg = BufferCoreConfig::ecl_default();
            cfg.noise_rms = Voltage::from_mv(if noisy {
                0.5 + 8.0 * rng.next_f64()
            } else {
                0.0
            });
            cfg.v_lin = Voltage::from_mv(20.0 + 100.0 * rng.next_f64());
            cfg.slew_v_per_s = (0.005 + 0.05 * rng.next_f64()) * 1e12;
            cfg.bandwidth = Frequency::from_ghz(2.0 + 10.0 * rng.next_f64());
            if enveloped {
                cfg.envelope_tau = Time::from_ps(2.0 + 60.0 * rng.next_f64());
            }
            let dt = Time::from_ps(0.25 + rng.next_f64());
            let samples: Vec<f64> = (0..len)
                .map(|i| {
                    // Exact flats (repeated values) broken by wiggles.
                    let level = if (i / 37) % 2 == 0 { 0.4 } else { -0.4 };
                    match (i + case as usize) % 11 {
                        0..=3 => level + 0.05 * (rng.next_f64() - 0.5),
                        4 => 0.0,
                        5 => -0.0,
                        _ => level,
                    }
                })
                .collect();
            let input = Waveform::new(Time::from_ps(-3.0), dt, samples);
            let halves: Vec<f64> = (0..len).map(|_| 0.005 + 0.4 * rng.next_f64()).collect();
            let seed = rng.next_u64();
            let mut fused = BufferCore::new("b", cfg.clone(), seed);
            let mut oracle = BufferCore::new("b", cfg, seed);
            let half = 0.005 + 0.4 * rng.next_f64();
            let (drive_a, drive_b) = if per_sample {
                (Drive::PerSample(&halves), Drive::PerSample(&halves))
            } else {
                (Drive::Const(half), Drive::Const(half))
            };
            let a = fused.process_inner(&input, drive_a);
            let b = process_four_pass(&mut oracle, &input, drive_b);
            assert_eq!(bits(&a), bits(&b), "case {case}: samples differ");
            assert_eq!(
                fused.rng.next_u64(),
                oracle.rng.next_u64(),
                "case {case}: RNG streams diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn amplitude_validated() {
        let mut core = BufferCore::new("b", BufferCoreConfig::ecl_default(), 1);
        core.set_amplitude(Voltage::ZERO);
    }
}
