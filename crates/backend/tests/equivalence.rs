//! Trait-object equivalence: driving the paper's circuit through
//! `dyn DelayBackend` must be byte-identical to driving
//! [`CombinedDelayCircuit`] directly — same calibration CSV, same taps
//! and DAC codes, same predicted delays, same sentinel probes — at
//! every worker thread count `VARDELAY_THREADS` can select. This is
//! the refactor guard for the serve layer: PR 10 swapped every bank
//! channel from a concrete circuit to a boxed backend, and this suite
//! is what makes that swap provably invisible on the default path.

use vardelay_backend::{make_backend, BackendKind, BackendSentinel};
use vardelay_core::{CombinedDelayCircuit, ModelConfig, Sentinel, SentinelConfig};
use vardelay_runner::Runner;
use vardelay_units::Time;

const SEED: u64 = 0x5e7e;

/// The thread counts the suite pins — serial, the CI default, and an
/// oversubscribed pool (what `VARDELAY_THREADS=1|2|4` would select).
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn runner(threads: usize) -> Runner {
    if threads == 1 {
        Runner::serial()
    } else {
        Runner::new(threads)
    }
}

#[test]
fn calibration_csv_is_byte_identical_at_every_thread_count() {
    let config = ModelConfig::paper_prototype();
    let mut baseline: Option<String> = None;
    for threads in THREAD_COUNTS {
        let mut direct = CombinedDelayCircuit::new(&config, SEED);
        let direct_csv = direct.calibrate_with(runner(threads)).to_csv();
        let mut backend = make_backend(BackendKind::Circuit, &config, SEED);
        let trait_csv = backend.calibrate_with(runner(threads)).to_csv();
        assert_eq!(
            direct_csv, trait_csv,
            "trait path diverged from direct path at {threads} thread(s)"
        );
        // And the table itself is thread-count invariant, so the wire
        // and snapshot artifacts never depend on VARDELAY_THREADS.
        match &baseline {
            None => baseline = Some(trait_csv),
            Some(first) => assert_eq!(
                first, &trait_csv,
                "calibration changed between thread counts"
            ),
        }
    }
}

#[test]
fn solve_settings_match_field_for_field_at_every_thread_count() {
    let config = ModelConfig::paper_prototype();
    for threads in THREAD_COUNTS {
        let mut direct = CombinedDelayCircuit::new(&config, SEED);
        direct.calibrate_with(runner(threads));
        let mut backend = make_backend(BackendKind::Circuit, &config, SEED);
        backend.calibrate_with(runner(threads));
        assert_eq!(
            backend.total_range().unwrap(),
            direct.total_range().unwrap()
        );
        assert_eq!(
            backend.setting_resolution().unwrap(),
            direct.setting_resolution().unwrap()
        );
        for tenth_ps in 0..=1200 {
            let target = Time::from_ps(f64::from(tenth_ps) / 10.0);
            let want = direct.set_delay(target).unwrap();
            let got = backend.set_delay(target).unwrap();
            assert_eq!(got.tap, want.tap, "{target} at {threads} thread(s)");
            assert_eq!(got.dac_code, want.dac_code, "{target}");
            assert_eq!(got.vctrl, want.vctrl, "{target}");
            assert_eq!(got.predicted_delay, want.predicted_delay, "{target}");
            assert_eq!(got.predicted_error, want.predicted_error, "{target}");
            assert_eq!(got.dead_time, Time::ZERO, "the circuit is glitchless");
        }
    }
}

#[test]
fn backend_sentinel_reproduces_the_core_sentinel_byte_for_byte() {
    let config = ModelConfig::paper_prototype();
    let mut circuit = CombinedDelayCircuit::new(&config, SEED);
    circuit.calibrate_with(Runner::serial());
    let mut backend = make_backend(BackendKind::Circuit, &config, SEED);
    backend.calibrate_with(Runner::serial());
    let core = Sentinel::from_circuit(&circuit, SentinelConfig::default()).unwrap();
    let trait_level =
        BackendSentinel::from_backend(backend.as_ref(), SentinelConfig::default()).unwrap();
    for seed in [0u64, 1, 9, 0xdead] {
        let want = core.run(seed);
        let got = trait_level.run(seed);
        assert_eq!(got.residual, want.residual, "seed {seed}");
        assert_eq!(got.probes.len(), want.probes.len(), "seed {seed}");
        for (g, w) in got.probes.iter().zip(&want.probes) {
            assert_eq!(g.vctrl, w.vctrl, "seed {seed}");
            assert_eq!(g.expected, w.expected, "seed {seed}");
            assert_eq!(g.measured, w.measured, "seed {seed}");
        }
    }
}

#[test]
fn clone_backend_preserves_the_installed_table_and_solve_state() {
    let config = ModelConfig::paper_prototype();
    let mut backend = make_backend(BackendKind::Circuit, &config, SEED);
    backend.calibrate_with(Runner::serial());
    let mut clone = backend.clone_backend();
    assert_eq!(
        backend.calibration().unwrap().to_csv(),
        clone.calibration().unwrap().to_csv()
    );
    for ps in [0.0, 17.5, 61.5, 99.9] {
        let want = backend.set_delay(Time::from_ps(ps)).unwrap();
        let got = clone.set_delay(Time::from_ps(ps)).unwrap();
        assert_eq!(got, want, "{ps} ps");
    }
}
