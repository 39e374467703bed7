//! The block traits shared by all analog components.

use vardelay_siggen::EdgeStream;
use vardelay_waveform::Waveform;

/// A waveform-domain circuit block.
///
/// Blocks are stateful (noise generators advance their RNG streams) and
/// process one trace at a time. The output trace may have a different time
/// axis (propagation delay) but keeps the input's sample period.
pub trait AnalogBlock {
    /// Transforms an input trace into the block's output trace.
    fn process(&mut self, input: &Waveform) -> Waveform;

    /// A short human-readable block name for chain diagnostics.
    fn name(&self) -> &str;
}

/// A cascade whose output can be taken after any prefix of its stages —
/// the characterization view of a delay line whose depth is a design
/// parameter (see [`crate::characterize::measure_delay_tables_cached_with`]).
pub trait TappedCascade {
    /// Drives `input` once through the first `depths.last()` stages and
    /// calls `tap` once per entry of `depths`, in order, with the output a
    /// freshly built cascade of that depth would produce from `input`.
    /// `depths` is strictly ascending.
    fn process_taps(&mut self, input: &Waveform, depths: &[usize], tap: &mut dyn FnMut(Waveform));
}

/// An edge-domain circuit block — the fast path for long captures.
pub trait EdgeTransform {
    /// Transforms an input edge stream into the block's output stream.
    fn transform(&mut self, input: &EdgeStream) -> EdgeStream;

    /// A short human-readable block name for chain diagnostics.
    fn name(&self) -> &str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_units::Time;

    struct Passthrough;

    impl AnalogBlock for Passthrough {
        fn process(&mut self, input: &Waveform) -> Waveform {
            input.clone()
        }
        fn name(&self) -> &str {
            "passthrough"
        }
    }

    impl EdgeTransform for Passthrough {
        fn transform(&mut self, input: &EdgeStream) -> EdgeStream {
            input.clone()
        }
        fn name(&self) -> &str {
            "passthrough"
        }
    }

    #[test]
    fn traits_are_object_safe() {
        let mut wf_block: Box<dyn AnalogBlock> = Box::new(Passthrough);
        let mut edge_block: Box<dyn EdgeTransform> = Box::new(Passthrough);
        let wf = Waveform::zeros(Time::ZERO, Time::from_ps(1.0), 4);
        assert_eq!(wf_block.process(&wf).len(), 4);
        assert_eq!(AnalogBlock::name(&*wf_block), "passthrough");
        let s = EdgeStream::default();
        assert!(edge_block.transform(&s).is_empty());
    }
}
