//! The paper's primary contribution: a picosecond-resolution variable
//! delay circuit for multi-gigahertz data signals, plus its jitter-injector
//! variant.
//!
//! Reproduces Keezer, Minier & Ducharme, *"Variable Delay of
//! Multi-Gigahertz Digital Signals for Deskew and Jitter-Injection Test
//! Applications"*, DATE 2008, behaviorally:
//!
//! * [`FineDelayLine`] — a cascade of variable-gain buffers sharing one
//!   control voltage, closed by a full-swing output stage. Sweeping
//!   `Vctrl` moves the propagation delay continuously by ~50 ps
//!   (paper §2, Figs. 3–7).
//! * [`CoarseDelaySection`] — 1:4 fanout, four controlled-length lines
//!   (0/33/66/99 ps designed) and a 4:1 mux (paper §3, Figs. 8–9).
//! * [`CombinedDelayCircuit`] — coarse + fine in cascade, ~140 ps total
//!   range, programmed through a 12-bit [`VctrlDac`] and a measured
//!   [`CalibrationTable`] (paper Fig. 10).
//! * [`JitterInjector`] — the §5 variant: AC-coupled voltage noise on
//!   `Vctrl` converts to timing jitter on the passed signal.
//! * [`selftest`] — built-in circuit self-test: DAC stuck/flaky-bit
//!   sweep and calibration-corruption checks feeding a [`CircuitHealth`]
//!   verdict (consumed by the fault-injection campaigns and the
//!   degraded-mode deskew loop).
//!
//! # Examples
//!
//! Program a combined circuit to a target delay:
//!
//! ```
//! use vardelay_core::{CombinedDelayCircuit, ModelConfig};
//! use vardelay_units::Time;
//!
//! let mut circuit = CombinedDelayCircuit::new(&ModelConfig::paper_prototype(), 1);
//! circuit.calibrate();
//! let setting = circuit.set_delay(Time::from_ps(75.0))?;
//! assert!(setting.predicted_error.abs() < Time::from_ps(2.0));
//! # Ok::<(), vardelay_core::SetDelayError>(())
//! ```

pub mod baseline;
pub mod calibration;
pub mod coarse;
pub mod combined;
pub mod config;
pub mod dac;
pub mod drift;
pub mod error;
pub mod fine;
pub mod injector;
pub mod multichannel;
pub mod selftest;
pub mod sentinel;
pub mod solve;

pub use baseline::PhaseInterpolator;
pub use calibration::{CalibrationError, CalibrationTable, ParseCalibrationError};
pub use coarse::CoarseDelaySection;
pub use combined::{CombinedDelayCircuit, DelaySetting};
pub use config::ModelConfig;
pub use dac::VctrlDac;
pub use drift::TempCo;
pub use error::SetDelayError;
pub use fine::FineDelayLine;
pub use injector::JitterInjector;
pub use multichannel::{CalibrationStrategy, InstanceSpread, MultiChannelDelay};
pub use selftest::{
    check_calibration, test_dac, CalibrationHealth, CircuitHealth, DacHealth, DacUnderTest,
    HealthVerdict,
};
pub use sentinel::{
    probe_indices, Sentinel, SentinelConfig, SentinelProbe, SentinelReport, SentinelVerdict,
};
pub use solve::{clear_solve_cache, solve_cache_stats, solve_fallbacks};
