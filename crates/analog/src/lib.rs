//! Behavioral analog block library.
//!
//! The paper's delay circuit is built from seven active components: four
//! variable-gain buffers, an output stage, a 1:4 fanout buffer and a 4:1
//! multiplexer, plus four controlled-length transmission lines. This crate
//! models each of them behaviorally in two domains:
//!
//! * **Waveform domain** ([`AnalogBlock`]): blocks transform sampled
//!   differential traces through a limiting amplifier → slew limiter →
//!   one-pole bandwidth path. The paper's central effect — propagation
//!   delay that grows with programmed output amplitude because a bigger
//!   swing takes `A/(2·SR)` longer to cross the 50 % threshold — *emerges*
//!   from this signal path rather than being table-driven (paper Figs. 4–5).
//! * **Edge domain** ([`EdgeTransform`]): a fast path for long captures.
//!   [`characterize`] builds a delay-vs-(Vctrl, preceding-interval) lookup
//!   table *by measuring the waveform model*, exactly the way one would
//!   characterize the physical prototype on a bench; the table then drives
//!   a per-edge model that reproduces amplitude- and frequency-dependent
//!   delay plus data-dependent jitter at a fraction of the cost.
//!
//! Blocks:
//!
//! * [`VgaBuffer`] — the variable-gain buffer (100–750 mV swing).
//! * [`LimitingBuffer`] — the fixed-swing output/recovery stage.
//! * [`FanoutBuffer`] — 1:4 copy with per-output skew.
//! * [`Mux4`] — the 4:1 tap selector.
//! * [`TransmissionLine`] — controlled-length differential pair.
//! * [`AcCoupling`], [`OuNoise`] — the jitter-injection path onto `Vctrl`.

pub mod block;
pub mod buffer_core;
pub mod chain;
pub mod characterize;
pub mod coupling;
pub mod crosstalk;
pub mod ctle;
pub mod deemphasis;
pub mod fanout;
pub mod lossy;
pub mod mux;
pub mod noise;
pub mod tline;
pub mod vga_buffer;

pub use block::{AnalogBlock, EdgeTransform, TappedCascade};
pub use buffer_core::{BufferCore, BufferCoreConfig};
pub use chain::{Chain, EdgeChain};
pub use characterize::{
    characterization_cache_stats, characterization_single_flight_waits,
    clear_characterization_cache, measure_delay_table, measure_delay_table_with,
    measure_delay_tables_cached_with, try_measure_delay_table, try_measure_delay_table_with,
    CharacterizeError, CharacterizedDelay, DelayTable,
};
pub use coupling::AcCoupling;
pub use crosstalk::CrosstalkCoupling;
pub use ctle::Ctle;
pub use deemphasis::DeEmphasis;
pub use fanout::FanoutBuffer;
pub use lossy::LossyChannel;
pub use mux::{Mux4, SelectTapError};
pub use noise::OuNoise;
pub use tline::TransmissionLine;
pub use vardelay_obs::Fingerprint;
pub use vga_buffer::{LimitingBuffer, VgaBuffer, VgaBufferConfig};
