//! The closed-loop deskew application (paper §1, Fig. 2).
//!
//! The ATE's native per-channel delay steps are ~100 ps — far too coarse
//! for parallel-synchronous interfaces needing <5 ps channel-to-channel
//! alignment. The loop measured here is the paper's end application:
//!
//! 1. measure each channel's skew against channel 0;
//! 2. remove the bulk with the tester's 100 ps programmed delays;
//! 3. remove the residue (0–100 ps) with one vardelay circuit per channel,
//!    programmed through its calibration to sub-picosecond resolution.

use crate::bus::ParallelBus;
use std::sync::Arc;
use vardelay_core::{CombinedDelayCircuit, DelaySetting, ModelConfig, SetDelayError};
use vardelay_measure::mean_delay;
use vardelay_obs as obs;
use vardelay_runner::Runner;
use vardelay_siggen::{EdgeStream, GaussianRj, JitterModel, SplitMix64};
use vardelay_units::Time;

/// Error returned when the deskew loop cannot complete.
#[derive(Debug, Clone, PartialEq)]
pub enum DeskewError {
    /// A channel produced no measurable edges (dead driver, open fixture),
    /// so its skew cannot be determined.
    UnmeasurableChannel {
        /// The offending channel index.
        channel: usize,
    },
    /// A required correction exceeded the combined ATE + vardelay range.
    CorrectionOutOfRange {
        /// The offending channel index.
        channel: usize,
        /// The underlying range error.
        source: SetDelayError,
    },
    /// Degraded mode quarantined so many channels that no meaningful
    /// alignment remains (fewer than two measurable channels).
    TooFewHealthyChannels {
        /// Channels that survived quarantine.
        healthy: usize,
    },
}

impl core::fmt::Display for DeskewError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeskewError::UnmeasurableChannel { channel } => {
                write!(f, "channel {channel} produced no measurable edges")
            }
            DeskewError::CorrectionOutOfRange { channel, source } => {
                write!(f, "channel {channel} correction failed: {source}")
            }
            DeskewError::TooFewHealthyChannels { healthy } => {
                write!(
                    f,
                    "only {healthy} healthy channel(s) remain; deskew needs at least 2"
                )
            }
        }
    }
}

impl std::error::Error for DeskewError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeskewError::CorrectionOutOfRange { source, .. } => Some(source),
            DeskewError::UnmeasurableChannel { .. } | DeskewError::TooFewHealthyChannels { .. } => {
                None
            }
        }
    }
}

/// The correction applied to one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelCorrection {
    /// Channel index.
    pub channel: usize,
    /// Skew measured against channel 0 before correction.
    pub measured_skew: Time,
    /// Delay this channel must gain to align with the latest channel.
    pub required_delay: Time,
    /// The part removed by the ATE's quantized programmed delay.
    pub ate_programmed: Time,
    /// The vardelay operating point chosen for the residue.
    pub vardelay_setting: DelaySetting,
    /// Residual misalignment measured after correction.
    pub residual: Time,
}

/// The outcome of one deskew run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeskewOutcome {
    /// Per-channel corrections, channel 0 first.
    pub corrections: Vec<ChannelCorrection>,
    /// Peak-to-peak bus skew before correction.
    pub before_peak_to_peak: Time,
    /// Peak-to-peak bus skew after correction.
    pub after_peak_to_peak: Time,
    /// The corrected output streams (for downstream eye checks).
    pub corrected_streams: Vec<EdgeStream>,
}

impl DeskewOutcome {
    /// Whether the run met the paper's <5 ps channel-to-channel target.
    pub fn meets_5ps_target(&self) -> bool {
        self.after_peak_to_peak < Time::from_ps(5.0)
    }
}

/// A deterministic measurement-fault predicate: `(channel, attempt)` →
/// "this measurement attempt fails" (attempts are 1-based).
///
/// Injected by the fault campaigns (see `vardelay-faults`'s
/// `TransientFaults`, whose `fails` method has exactly this shape) so the
/// degraded loop's retry/quarantine path can be exercised without real
/// broken hardware. Must be a pure function of its arguments — the
/// determinism contract (DESIGN.md §8) extends to faults.
pub type MeasurementFaultHook = Arc<dyn Fn(usize, u32) -> bool + Send + Sync>;

/// Retry discipline for degraded-mode measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradedPolicy {
    /// Measurement attempts per channel before quarantine (≥ 1).
    pub max_measure_attempts: u32,
    /// Base of the simulated exponential backoff between attempts, in
    /// microseconds. The backoff is *recorded* (obs histogram
    /// `deskew.backoff_us`) but never slept, so retries change no
    /// experiment bytes.
    pub backoff_base_us: u64,
}

impl Default for DegradedPolicy {
    /// Three attempts with a 100 µs simulated backoff base.
    fn default() -> Self {
        DegradedPolicy {
            max_measure_attempts: 3,
            backoff_base_us: 100,
        }
    }
}

impl DegradedPolicy {
    /// The simulated backoff before retry `attempt` (1-based), doubling
    /// per attempt with a shift cap.
    pub fn backoff_us(&self, attempt: u32) -> u64 {
        self.backoff_base_us << attempt.saturating_sub(1).min(16)
    }
}

/// A channel the degraded loop refused to correct, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedChannel {
    /// Channel index.
    pub channel: usize,
    /// Measurement attempts spent on the channel before it was condemned
    /// (quarantine can also happen later, at correction time, after the
    /// measurement itself succeeded).
    pub attempts: u32,
    /// The error that condemned the channel.
    pub reason: DeskewError,
}

/// The outcome of a degraded-mode deskew run.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedOutcome {
    /// Corrections applied to the healthy channels, in channel order.
    pub corrections: Vec<ChannelCorrection>,
    /// Channels excluded from alignment, in channel order.
    pub quarantined: Vec<QuarantinedChannel>,
    /// The channel every skew was measured against (the first measurable
    /// channel).
    pub reference_channel: usize,
    /// Peak-to-peak skew across the healthy channels before correction.
    pub before_peak_to_peak: Time,
    /// Peak-to-peak skew across the healthy channels after correction.
    pub after_peak_to_peak: Time,
    /// Corrected streams, `None` for quarantined channels.
    pub corrected_streams: Vec<Option<EdgeStream>>,
}

impl DegradedOutcome {
    /// Number of channels that were measured and corrected.
    pub fn healthy_count(&self) -> usize {
        self.corrections.len()
    }

    /// The quarantined channel indices, ascending.
    pub fn quarantined_channels(&self) -> Vec<usize> {
        self.quarantined.iter().map(|q| q.channel).collect()
    }

    /// Whether the *healthy* channels met the paper's <5 ps target.
    pub fn meets_5ps_target(&self) -> bool {
        self.after_peak_to_peak < Time::from_ps(5.0)
    }
}

/// The deskew loop: one calibrated vardelay circuit per bus channel.
pub struct DeskewEngine {
    config: ModelConfig,
    /// Static per-circuit delay mismatch (manufacturing spread between the
    /// per-channel vardelay boards), 1σ.
    instance_error_sigma: Time,
    seed: u64,
    runner: Runner,
    measurement_faults: Option<MeasurementFaultHook>,
}

impl core::fmt::Debug for DeskewEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DeskewEngine")
            .field("config", &self.config)
            .field("instance_error_sigma", &self.instance_error_sigma)
            .field("seed", &self.seed)
            .field("runner", &self.runner)
            .field(
                "measurement_faults",
                &self.measurement_faults.as_ref().map(|_| "<hook>"),
            )
            .finish()
    }
}

impl DeskewEngine {
    /// Creates an engine with the paper-prototype vardelay model and a
    /// 0.8 ps 1σ per-circuit instance mismatch, running on the global
    /// [`Runner`].
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        DeskewEngine {
            config: config.clone(),
            instance_error_sigma: Time::from_ps(0.8),
            seed,
            runner: Runner::global(),
            measurement_faults: None,
        }
    }

    /// Installs a deterministic measurement-fault predicate, builder
    /// style — consulted by [`run_degraded`](Self::run_degraded) before
    /// every skew-measurement attempt. Fault campaigns wire
    /// `vardelay-faults`' `TransientFaults::fails` through this.
    pub fn with_measurement_faults(mut self, hook: MeasurementFaultHook) -> Self {
        self.measurement_faults = Some(hook);
        self
    }

    /// Overrides the per-circuit instance mismatch, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn with_instance_error(mut self, sigma: Time) -> Self {
        assert!(sigma >= Time::ZERO, "instance error must be non-negative");
        self.instance_error_sigma = sigma;
        self
    }

    /// Overrides the runner, builder style — determinism tests force
    /// thread counts through this.
    pub fn with_runner(mut self, runner: Runner) -> Self {
        self.runner = runner;
        self
    }

    /// Runs the loop on `bus`: measures skews, programs the ATE steps and
    /// the per-channel vardelay circuits, and re-measures.
    ///
    /// # Errors
    ///
    /// Returns [`DeskewError::UnmeasurableChannel`] when a channel yields
    /// no pairable edges (dead driver / open fixture), and
    /// [`DeskewError::CorrectionOutOfRange`] if a required correction
    /// exceeds the combined ATE + vardelay range.
    pub fn run(&self, bus: &mut ParallelBus) -> Result<DeskewOutcome, DeskewError> {
        let mut rng = SplitMix64::new(self.seed);

        // 1. Measure the incoming skews against channel 0. Generation and
        // pairing fan out per channel; errors keep channel order, so the
        // first failing channel is reported exactly as in the serial loop.
        let streams = bus.generate_all_with(self.runner);
        let skews: Vec<Time> = self
            .runner
            .par_map(&streams, |i, s| {
                mean_delay(&streams[0], s)
                    .map_err(|_| DeskewError::UnmeasurableChannel { channel: i })
            })
            .into_iter()
            .collect::<Result<_, _>>()?;
        let latest = skews
            .iter()
            .copied()
            .fold(Time::from_s(f64::NEG_INFINITY), Time::max);
        let earliest = skews
            .iter()
            .copied()
            .fold(Time::from_s(f64::INFINITY), Time::min);
        let before_pp = latest - earliest;

        // One calibration serves all channel circuits (same design); each
        // instance then differs by a static mismatch term.
        let mut reference_circuit = CombinedDelayCircuit::new(&self.config, self.seed);
        reference_circuit.calibrate_with(self.runner);

        // 2. Serial prepass in channel order: everything that consumes the
        // engine's sequential RNG (the per-instance mismatch draws) or
        // mutates shared state (programming, circuit settings) stays in
        // the exact order of the serial loop so results are bit-identical
        // at every thread count.
        let chain_rj = self.config.chain_rj(self.config.active_components());
        let mut corrections = Vec::with_capacity(bus.width());
        let mut realized = Vec::with_capacity(bus.width());
        for (i, skew) in skews.iter().enumerate() {
            let required = latest - *skew;
            let resolution = bus.channels()[i].timing_resolution();
            let ate_part = required.floor_to(resolution);
            let residue = required - ate_part;
            let setting = reference_circuit
                .set_delay(residue)
                .map_err(|source| DeskewError::CorrectionOutOfRange { channel: i, source })?;
            let instance_error = self.instance_error_sigma * rng.gaussian();
            realized.push(setting.predicted_delay + instance_error);
            bus.channels_mut()[i].program_delay(ate_part);
            corrections.push(ChannelCorrection {
                channel: i,
                measured_skew: *skew,
                required_delay: required,
                ate_programmed: ate_part,
                vardelay_setting: setting,
                residual: Time::ZERO, // filled in below
            });
        }

        // 3. Heavy per-channel work in parallel: regenerate each corrected
        // stream and apply the chain's RJ from the channel's private,
        // index-derived jitter seed (no draws from the shared `rng`).
        let corrected: Vec<EdgeStream> = self.runner.run(bus.width(), |i| {
            let through = bus.channels()[i].generate().delayed(realized[i]);
            if chain_rj > Time::ZERO {
                GaussianRj::new(chain_rj, self.seed.wrapping_add(0x515 + i as u64)).apply(&through)
            } else {
                through
            }
        });

        // 4. Re-measure the corrected bus.
        let after: Vec<Time> = self.runner.par_map(&corrected, |_, s| {
            mean_delay(&corrected[0], s).expect("corrected channels keep the pattern")
        });
        let hi = after
            .iter()
            .copied()
            .fold(Time::from_s(f64::NEG_INFINITY), Time::max);
        let lo = after
            .iter()
            .copied()
            .fold(Time::from_s(f64::INFINITY), Time::min);
        let mean_after: Time = after.iter().copied().sum::<Time>() / after.len() as f64;
        for (c, a) in corrections.iter_mut().zip(&after) {
            c.residual = *a - mean_after;
        }

        Ok(DeskewOutcome {
            corrections,
            before_peak_to_peak: before_pp,
            after_peak_to_peak: hi - lo,
            corrected_streams: corrected,
        })
    }

    /// Runs the loop in **degraded mode**: channels that cannot be
    /// measured (within `policy.max_measure_attempts` deterministic
    /// retries) or whose correction is out of range are *quarantined* and
    /// reported instead of aborting the whole bus, and the healthy
    /// remainder is aligned as usual.
    ///
    /// The skew of each channel is measured against the first measurable
    /// channel (the reference). Retry backoff is simulated — recorded in
    /// the `deskew.backoff_us` histogram, never slept — so a degraded run
    /// is as reproducible as a healthy one; the per-instance mismatch RNG
    /// is drawn for every channel in channel order, quarantined or not,
    /// so the healthy channels' corrections do not depend on *which*
    /// channels failed.
    ///
    /// # Errors
    ///
    /// Returns [`DeskewError::TooFewHealthyChannels`] when fewer than two
    /// channels survive quarantine; per-channel failures are returned in
    /// [`DegradedOutcome::quarantined`], not as errors.
    pub fn run_degraded(
        &self,
        bus: &mut ParallelBus,
        policy: DegradedPolicy,
    ) -> Result<DegradedOutcome, DeskewError> {
        let max_attempts = policy.max_measure_attempts.max(1);
        let mut rng = SplitMix64::new(self.seed);
        let width = bus.width();
        let streams = bus.generate_all_with(self.runner);

        // 1. Measure each channel against the first measurable one, with
        // deterministic bounded retries. This pass is serial by design:
        // the reference is discovered on the fly, the per-attempt fault
        // hook must see a stable attempt sequence, and pairing a few edge
        // streams is cheap next to generating them (done in parallel
        // above).
        let mut reference: Option<usize> = None;
        let mut skews: Vec<Option<Time>> = Vec::with_capacity(width);
        let mut quarantined: Vec<QuarantinedChannel> = Vec::new();
        let mut attempts_spent = vec![0u32; width];
        for (i, stream) in streams.iter().enumerate() {
            let reference_stream = &streams[reference.unwrap_or(i)];
            let mut measured = None;
            let mut attempt = 0u32;
            while attempt < max_attempts {
                attempt += 1;
                let injected = self
                    .measurement_faults
                    .as_ref()
                    .is_some_and(|fails| fails(i, attempt));
                let outcome = if injected {
                    None
                } else {
                    mean_delay(reference_stream, stream).ok()
                };
                match outcome {
                    Some(skew) => {
                        measured = Some(skew);
                        break;
                    }
                    None if attempt < max_attempts && obs::enabled() => {
                        obs::counter("deskew.retries").incr();
                        obs::histogram("deskew.backoff_us").record(policy.backoff_us(attempt));
                    }
                    None => {}
                }
            }
            attempts_spent[i] = attempt;
            if obs::enabled() {
                obs::histogram("deskew.measure_attempts").record(u64::from(attempt));
            }
            match measured {
                Some(skew) => {
                    if reference.is_none() {
                        reference = Some(i);
                    }
                    skews.push(Some(skew));
                }
                None => {
                    if obs::enabled() {
                        obs::counter("deskew.quarantined").incr();
                    }
                    quarantined.push(QuarantinedChannel {
                        channel: i,
                        attempts: attempt,
                        reason: DeskewError::UnmeasurableChannel { channel: i },
                    });
                    skews.push(None);
                }
            }
        }

        let healthy_skews: Vec<Time> = skews.iter().copied().flatten().collect();
        if healthy_skews.len() < 2 {
            return Err(DeskewError::TooFewHealthyChannels {
                healthy: healthy_skews.len(),
            });
        }
        let reference_channel = reference.expect("at least two healthy channels");
        let latest = healthy_skews
            .iter()
            .copied()
            .fold(Time::from_s(f64::NEG_INFINITY), Time::max);
        let earliest = healthy_skews
            .iter()
            .copied()
            .fold(Time::from_s(f64::INFINITY), Time::min);
        let before_pp = latest - earliest;

        let mut reference_circuit = CombinedDelayCircuit::new(&self.config, self.seed);
        reference_circuit.calibrate_with(self.runner);

        // 2. Serial prepass, as in `run`: the instance-mismatch RNG is
        // drawn for every channel (even quarantined ones) so the draw
        // positions never depend on the fault pattern.
        let chain_rj = self.config.chain_rj(self.config.active_components());
        let mut corrections = Vec::new();
        let mut realized: Vec<Option<Time>> = Vec::with_capacity(width);
        for i in 0..width {
            let instance_error = self.instance_error_sigma * rng.gaussian();
            let Some(skew) = skews[i] else {
                realized.push(None);
                continue;
            };
            let required = latest - skew;
            let resolution = bus.channels()[i].timing_resolution();
            let ate_part = required.floor_to(resolution);
            let residue = required - ate_part;
            match reference_circuit.set_delay(residue) {
                Ok(setting) => {
                    realized.push(Some(setting.predicted_delay + instance_error));
                    bus.channels_mut()[i].program_delay(ate_part);
                    corrections.push(ChannelCorrection {
                        channel: i,
                        measured_skew: skew,
                        required_delay: required,
                        ate_programmed: ate_part,
                        vardelay_setting: setting,
                        residual: Time::ZERO, // filled in below
                    });
                }
                Err(source) => {
                    if obs::enabled() {
                        obs::counter("deskew.quarantined").incr();
                    }
                    quarantined.push(QuarantinedChannel {
                        channel: i,
                        attempts: attempts_spent[i],
                        reason: DeskewError::CorrectionOutOfRange { channel: i, source },
                    });
                    realized.push(None);
                }
            }
        }
        quarantined.sort_by_key(|q| q.channel);
        if corrections.len() < 2 {
            return Err(DeskewError::TooFewHealthyChannels {
                healthy: corrections.len(),
            });
        }

        // 3. Regenerate the corrected healthy streams in parallel (same
        // private jitter-seed scheme as `run`).
        let corrected: Vec<Option<EdgeStream>> = self.runner.run(width, |i| {
            realized[i].map(|delay| {
                let through = bus.channels()[i].generate().delayed(delay);
                if chain_rj > Time::ZERO {
                    GaussianRj::new(chain_rj, self.seed.wrapping_add(0x515 + i as u64))
                        .apply(&through)
                } else {
                    through
                }
            })
        });

        // 4. Re-measure the healthy channels against the first of them.
        let healthy_streams: Vec<&EdgeStream> = corrected.iter().flatten().collect();
        let after: Vec<Time> = self.runner.par_map(&healthy_streams, |_, s| {
            mean_delay(healthy_streams[0], s).expect("corrected channels keep the pattern")
        });
        let hi = after
            .iter()
            .copied()
            .fold(Time::from_s(f64::NEG_INFINITY), Time::max);
        let lo = after
            .iter()
            .copied()
            .fold(Time::from_s(f64::INFINITY), Time::min);
        let mean_after: Time = after.iter().copied().sum::<Time>() / after.len() as f64;
        for (c, a) in corrections.iter_mut().zip(&after) {
            c.residual = *a - mean_after;
        }

        Ok(DegradedOutcome {
            corrections,
            quarantined,
            reference_channel,
            before_peak_to_peak: before_pp,
            after_peak_to_peak: hi - lo,
            corrected_streams: corrected,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_units::BitRate;

    fn run_once(seed: u64, spread_ps: f64) -> DeskewOutcome {
        let mut bus = ParallelBus::with_random_skew(
            4,
            BitRate::from_gbps(6.4),
            Time::from_ps(spread_ps),
            seed,
        );
        DeskewEngine::new(&ModelConfig::paper_prototype(), seed)
            .run(&mut bus)
            .expect("healthy bus deskews")
    }

    #[test]
    fn deskew_reaches_the_5ps_target() {
        let outcome = run_once(11, 80.0);
        assert!(
            outcome.before_peak_to_peak > Time::from_ps(20.0),
            "bus was already aligned: {}",
            outcome.before_peak_to_peak
        );
        assert!(
            outcome.meets_5ps_target(),
            "after {}",
            outcome.after_peak_to_peak
        );
    }

    #[test]
    fn ate_alone_cannot_reach_the_target() {
        // Quantizing the required delays to 100 ps leaves up to ±50 ps —
        // this is the paper's motivation in one assertion.
        let bus = ParallelBus::with_random_skew(4, BitRate::from_gbps(6.4), Time::from_ps(80.0), 3);
        let streams = bus.generate_all();
        let skews: Vec<Time> = streams
            .iter()
            .map(|s| mean_delay(&streams[0], s).unwrap())
            .collect();
        let latest = skews.iter().copied().fold(Time::ZERO, Time::max);
        let residues: Vec<f64> = skews
            .iter()
            .map(|&s| {
                let required = latest - s;
                (required - required.round_to(Time::from_ps(100.0))).as_ps()
            })
            .collect();
        let pp = residues.iter().cloned().fold(f64::MIN, f64::max)
            - residues.iter().cloned().fold(f64::MAX, f64::min);
        assert!(pp > 5.0, "ATE-only residual {pp} ps");
    }

    #[test]
    fn corrections_use_only_positive_delays() {
        let outcome = run_once(5, 80.0);
        for c in &outcome.corrections {
            assert!(c.required_delay >= Time::ZERO, "{c:?}");
            assert!(c.ate_programmed >= Time::ZERO);
        }
    }

    #[test]
    fn several_seeds_all_converge() {
        for seed in [1, 2, 3, 4, 5] {
            let outcome = run_once(seed, 80.0);
            assert!(
                outcome.after_peak_to_peak < Time::from_ps(6.0),
                "seed {seed}: after {}",
                outcome.after_peak_to_peak
            );
        }
    }

    #[test]
    fn dead_channel_is_reported_not_panicked() {
        use crate::channel::AteChannel;
        use vardelay_siggen::BitPattern;
        // Channel 1 drives a constant pattern: zero edges, unmeasurable.
        let good = BitPattern::prbs7(1, 254);
        let dead = BitPattern::from_str("0000").unwrap().repeat(64);
        let mut bus = ParallelBus::new(vec![
            AteChannel::sb6g(0, good.clone(), 1),
            AteChannel::sb6g(1, dead, 2),
            AteChannel::sb6g(2, good, 3),
        ]);
        let err = DeskewEngine::new(&ModelConfig::paper_prototype(), 4)
            .run(&mut bus)
            .unwrap_err();
        assert_eq!(err, DeskewError::UnmeasurableChannel { channel: 1 });
        assert!(err.to_string().contains("channel 1"));
    }

    /// A hook that kills the given channels outright (never measurable).
    fn dead_channels_hook(dead: &[usize]) -> super::MeasurementFaultHook {
        let dead = dead.to_vec();
        Arc::new(move |channel, _attempt| dead.contains(&channel))
    }

    #[test]
    fn degraded_without_faults_matches_the_plain_loop() {
        let seed = 11;
        let mut bus_a =
            ParallelBus::with_random_skew(4, BitRate::from_gbps(6.4), Time::from_ps(80.0), seed);
        let mut bus_b =
            ParallelBus::with_random_skew(4, BitRate::from_gbps(6.4), Time::from_ps(80.0), seed);
        let engine = DeskewEngine::new(&ModelConfig::paper_prototype(), seed);
        let plain = engine.run(&mut bus_a).expect("healthy bus deskews");
        let degraded = engine
            .run_degraded(&mut bus_b, DegradedPolicy::default())
            .expect("healthy bus deskews in degraded mode too");
        assert!(degraded.quarantined.is_empty());
        assert_eq!(degraded.reference_channel, 0);
        assert_eq!(degraded.corrections, plain.corrections);
        assert_eq!(degraded.after_peak_to_peak, plain.after_peak_to_peak);
        assert_eq!(
            degraded.corrected_streams,
            plain
                .corrected_streams
                .into_iter()
                .map(Some)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn ht3_with_two_dead_channels_aligns_the_healthy_six() {
        // The ISSUE acceptance scenario: an 8-channel HyperTransport-3
        // bus with two injected dead drivers must still align the six
        // healthy channels to <5 ps and report exactly the dead pair.
        let mut scenario = crate::scenario::BusScenario::hypertransport3(21);
        let outcome = DeskewEngine::new(&ModelConfig::paper_prototype(), 21)
            .with_measurement_faults(dead_channels_hook(&[2, 5]))
            .run_degraded(scenario.bus_mut(), DegradedPolicy::default())
            .expect("six healthy channels remain");
        assert_eq!(outcome.quarantined_channels(), vec![2, 5]);
        assert_eq!(outcome.healthy_count(), 6);
        for q in &outcome.quarantined {
            assert_eq!(q.attempts, DegradedPolicy::default().max_measure_attempts);
            assert!(matches!(
                q.reason,
                DeskewError::UnmeasurableChannel { channel } if channel == q.channel
            ));
        }
        assert!(
            outcome.meets_5ps_target(),
            "healthy channels after {}",
            outcome.after_peak_to_peak
        );
        assert!(outcome.corrected_streams[2].is_none());
        assert!(outcome.corrected_streams[5].is_none());
        assert_eq!(outcome.reference_channel, 0);
    }

    #[test]
    fn weak_channel_recovers_within_the_retry_budget() {
        // Channel 1 fails its first two attempts, then measures fine —
        // the retry loop must absorb it without quarantine.
        let hook: super::MeasurementFaultHook =
            Arc::new(|channel, attempt| channel == 1 && attempt <= 2);
        let mut bus =
            ParallelBus::with_random_skew(4, BitRate::from_gbps(6.4), Time::from_ps(80.0), 11);
        let outcome = DeskewEngine::new(&ModelConfig::paper_prototype(), 11)
            .with_measurement_faults(hook)
            .run_degraded(&mut bus, DegradedPolicy::default())
            .expect("weak channel recovers");
        assert!(outcome.quarantined.is_empty());
        assert_eq!(outcome.healthy_count(), 4);
        assert!(outcome.meets_5ps_target());
    }

    #[test]
    fn dead_reference_candidate_falls_to_the_next_channel() {
        // Channel 0 dead: the reference moves to channel 1 and the rest
        // still aligns.
        let mut bus =
            ParallelBus::with_random_skew(4, BitRate::from_gbps(6.4), Time::from_ps(80.0), 7);
        let outcome = DeskewEngine::new(&ModelConfig::paper_prototype(), 7)
            .with_measurement_faults(dead_channels_hook(&[0]))
            .run_degraded(&mut bus, DegradedPolicy::default())
            .expect("three healthy channels remain");
        assert_eq!(outcome.reference_channel, 1);
        assert_eq!(outcome.quarantined_channels(), vec![0]);
        assert!(outcome.meets_5ps_target());
    }

    #[test]
    fn too_few_healthy_channels_is_an_error() {
        let mut bus =
            ParallelBus::with_random_skew(4, BitRate::from_gbps(6.4), Time::from_ps(80.0), 9);
        let err = DeskewEngine::new(&ModelConfig::paper_prototype(), 9)
            .with_measurement_faults(dead_channels_hook(&[0, 1, 2]))
            .run_degraded(&mut bus, DegradedPolicy::default())
            .unwrap_err();
        assert_eq!(err, DeskewError::TooFewHealthyChannels { healthy: 1 });
        assert!(err.to_string().contains("at least 2"));
        use std::error::Error;
        assert!(err.source().is_none());
    }

    #[test]
    fn degraded_outcome_is_identical_at_every_thread_count() {
        let reference = {
            let mut bus = crate::scenario::BusScenario::hypertransport3(33);
            DeskewEngine::new(&ModelConfig::paper_prototype(), 33)
                .with_measurement_faults(dead_channels_hook(&[4]))
                .with_runner(Runner::serial())
                .run_degraded(bus.bus_mut(), DegradedPolicy::default())
                .expect("deskews")
        };
        for threads in [2, 4, 8] {
            let mut bus = crate::scenario::BusScenario::hypertransport3(33);
            let outcome = DeskewEngine::new(&ModelConfig::paper_prototype(), 33)
                .with_measurement_faults(dead_channels_hook(&[4]))
                .with_runner(Runner::new(threads))
                .run_degraded(bus.bus_mut(), DegradedPolicy::default())
                .expect("deskews");
            assert_eq!(outcome, reference, "threads={threads}");
        }
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let policy = DegradedPolicy::default();
        assert_eq!(policy.backoff_us(1), 100);
        assert_eq!(policy.backoff_us(2), 200);
        assert_eq!(policy.backoff_us(3), 400);
        assert_eq!(policy.backoff_us(40), 100 << 16);
    }

    #[test]
    fn correction_errors_chain_to_their_set_delay_source() {
        // Satellite pin: DeskewError::CorrectionOutOfRange must expose
        // the underlying SetDelayError through Error::source().
        use std::error::Error;
        use vardelay_core::SetDelayError;
        let source = SetDelayError::OutOfRange {
            requested: Time::from_ps(500.0),
            min: Time::ZERO,
            max: Time::from_ps(150.0),
        };
        let err = DeskewError::CorrectionOutOfRange { channel: 3, source };
        let chained = err
            .source()
            .expect("out-of-range corrections carry a source")
            .downcast_ref::<SetDelayError>()
            .expect("source is the SetDelayError");
        assert_eq!(chained, &source);
        assert!(DeskewError::UnmeasurableChannel { channel: 0 }
            .source()
            .is_none());
    }

    #[test]
    fn wider_buses_also_converge() {
        let mut bus =
            ParallelBus::with_random_skew(8, BitRate::from_gbps(6.4), Time::from_ps(80.0), 21);
        let outcome = DeskewEngine::new(&ModelConfig::paper_prototype(), 21)
            .run(&mut bus)
            .expect("healthy bus deskews");
        assert!(
            outcome.after_peak_to_peak < Time::from_ps(8.0),
            "after {}",
            outcome.after_peak_to_peak
        );
        assert_eq!(outcome.corrections.len(), 8);
    }
}
