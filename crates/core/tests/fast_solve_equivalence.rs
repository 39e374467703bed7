//! The fast-path acceptance property: a `set_delay`
//! answered from the solve cache must agree with a full re-simulation —
//! same calibration table byte for byte, same hardware setting within
//! one table LSB.
//!
//! The solve cache is process-wide, so every test here serializes on one
//! mutex. A cold calibration clears the cache first, so its miss runs the
//! full sweep; a warm one is a fresh circuit whose calibration hits.

use std::sync::{Mutex, OnceLock};

use vardelay_core::{
    clear_solve_cache, solve_cache_stats, CombinedDelayCircuit, DelaySetting, ModelConfig,
};
use vardelay_units::Time;

fn gate_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Calibrates one fresh circuit — after emptying the solve cache when
/// `cold` — and solves every target, returning the table CSV and the
/// settings.
fn solve_all(cold: bool, targets: &[f64]) -> (String, Vec<DelaySetting>) {
    if cold {
        clear_solve_cache();
    }
    let mut circuit = CombinedDelayCircuit::new(&ModelConfig::paper_prototype(), 7);
    let table_csv = circuit.calibrate().to_csv();
    let settings = targets
        .iter()
        .map(|ps| circuit.set_delay(Time::from_ps(*ps)).expect("in range"))
        .collect();
    (table_csv, settings)
}

#[test]
fn fast_path_settings_agree_with_full_resimulation_within_one_lsb() {
    let _guard = gate_lock().lock().unwrap_or_else(|e| e.into_inner());

    // Sweep the usable range densely enough to cross every coarse tap.
    let targets: Vec<f64> = (0..=40).map(|i| 5.0 + i as f64 * 3.0).collect();
    let (slow_csv, slow) = solve_all(true, &targets);
    let (_, cold_misses) = solve_cache_stats();
    let (fast_csv, fast) = solve_all(false, &targets);
    if vardelay_runner::cache_enabled() {
        let (_, warm_misses) = solve_cache_stats();
        assert_eq!(warm_misses, cold_misses, "the warm calibration re-measured");
    }

    // The cached-solve table is the same sweep memoized: byte-identical.
    assert_eq!(slow_csv, fast_csv, "calibration tables diverged");

    let mut circuit = CombinedDelayCircuit::new(&ModelConfig::paper_prototype(), 7);
    circuit.calibrate();
    let lsb = circuit.setting_resolution().expect("calibrated");
    for ((ps, s), f) in targets.iter().zip(&slow).zip(&fast) {
        assert_eq!(s.tap, f.tap, "coarse tap diverged at {ps} ps");
        assert!(
            s.dac_code.abs_diff(f.dac_code) <= 1,
            "dac code diverged at {ps} ps: {} vs {}",
            s.dac_code,
            f.dac_code
        );
        let diff = (s.predicted_delay - f.predicted_delay).abs();
        assert!(
            diff <= lsb,
            "predicted delay diverged at {ps} ps by {diff} (> 1 LSB = {lsb})"
        );
    }
}

#[test]
fn repeat_calibrations_hit_the_cache_and_return_identical_tables() {
    if !vardelay_runner::cache_enabled() {
        return; // VARDELAY_NO_CACHE=1: every calibration measures.
    }
    let _guard = gate_lock().lock().unwrap_or_else(|e| e.into_inner());

    clear_solve_cache();
    let mut a = CombinedDelayCircuit::new(&ModelConfig::paper_prototype(), 7);
    let first = a.calibrate().to_csv();
    let (_, misses_after_first) = solve_cache_stats();

    // A different seed, same configuration: the characterization
    // fingerprint matches, so the second circuit's calibration is the
    // cached table — no new measurement, byte-identical CSV.
    let mut b = CombinedDelayCircuit::new(&ModelConfig::paper_prototype(), 99);
    let second = b.calibrate().to_csv();
    let (hits, misses) = solve_cache_stats();
    assert_eq!(first, second, "cache hit must reproduce the table exactly");
    assert_eq!(misses, misses_after_first, "second calibrate re-measured");
    assert!(hits >= 1, "second calibrate missed the cache");

    // A materially different configuration must not alias.
    let mut cfg = ModelConfig::paper_prototype();
    cfg.stages += 1;
    let mut c = CombinedDelayCircuit::new(&cfg, 7);
    let third = c.calibrate().to_csv();
    assert_ne!(first, third, "distinct configs aliased in the solve cache");
}
