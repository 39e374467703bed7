//! The calibration-solve fast path.
//!
//! Every [`crate::CombinedDelayCircuit::calibrate`] sweep probes the fine
//! line's delay at a grid of control voltages through the full waveform
//! simulation — and because each probe internally builds a fresh
//! noise-free, seed-0 line from the quiet configuration, the whole sweep
//! is a pure function of `(quiet-config fingerprint, interval, grid)`.
//! This module memoizes that function in a [`Memo`]: a repeat solve for
//! the same fingerprint returns the cached [`CalibrationTable`]
//! **byte-identical** to what a re-simulation would have produced,
//! skipping the entire waveform sweep (EffiTest-style calibrated
//! prediction instead of exhaustive re-measurement).
//!
//! The slow path is kept as the authority: a cache miss runs the full
//! simulation, and a cached table that is not strictly increasing (flat
//! monotonized segments make the inversion ambiguous at the LSB level)
//! falls back to a fresh measurement rather than trusting the cache.
//!
//! `VARDELAY_NO_CACHE` forces every solve down the slow path (the check
//! is in [`crate::CombinedDelayCircuit::calibrate_at_with`]) — the CI
//! determinism job `cmp`s `repro all` CSVs with the memos on and off to
//! prove the paths byte-identical.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

use crate::calibration::CalibrationTable;
use vardelay_obs as obs;
use vardelay_runner::Memo;

static MEMO: LazyLock<Memo<u64, CalibrationTable>> = LazyLock::new(|| {
    Memo::pure(
        "core.solve_fast_hits",
        "core.solve_fast_misses",
        "core.solve_single_flight_waits",
    )
});

static SOLVE_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// `(hits, misses)` counters of the process-wide solve cache. A miss is
/// counted once per *measurement*, not once per caller — racers that
/// waited on an in-flight solve count under the
/// `core.solve_single_flight_waits` obs counter instead.
pub fn solve_cache_stats() -> (u64, u64) {
    let [hits, misses, ..] = MEMO.stats();
    (hits, misses)
}

/// How many cached tables were rejected (not strictly increasing) and
/// re-measured through the slow path. The lookup that found the rejected
/// table still counts as a hit or a wait.
pub fn solve_fallbacks() -> u64 {
    SOLVE_FALLBACKS.load(Ordering::Relaxed)
}

/// Empties the solve cache (counters are left running). Meant for tests
/// and cold-start benchmarks. Threads already waiting on an in-flight
/// solve keep their slot and complete normally.
pub fn clear_solve_cache() {
    MEMO.clear();
}

/// Returns the calibration table for `key`, measuring through `measure`
/// at most once per key. `key` must fingerprint everything the sweep
/// depends on (quiet model config, interval, grid voltages).
///
/// A cached table that is not strictly increasing is *not* served: flat
/// segments (produced by monotonizing a noisy measurement) make the
/// inversion degenerate, so such keys fall back to a fresh measurement
/// every time and are counted under [`solve_fallbacks`].
pub(crate) fn solve_table_cached(
    key: u64,
    measure: impl Fn() -> CalibrationTable,
) -> CalibrationTable {
    let mut measured_here = false;
    let table = &MEMO.get_or_init(&[key], drop, |_| {
        measured_here = true;
        let _span = obs::span("core.solve_miss_us");
        vec![measure()]
    })[0];
    if measured_here || table.is_strictly_increasing() {
        return CalibrationTable::clone(table);
    }
    // A degenerate curve someone else measured: don't trust the
    // inversion, take the slow path afresh for this caller.
    SOLVE_FALLBACKS.fetch_add(1, Ordering::Relaxed);
    obs::counter("core.solve_fallbacks").incr();
    measure()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_units::{Time, Voltage};

    fn toy_table(slope_ps_per_v: f64) -> CalibrationTable {
        let grid: Vec<Voltage> = (0..5).map(|i| Voltage::from_v(i as f64 * 0.3)).collect();
        CalibrationTable::from_measurement(&grid, |v| {
            Time::from_ps(100.0 + slope_ps_per_v * v.as_v())
        })
    }

    #[test]
    fn repeat_keys_measure_once() {
        let key = 0x50fa_57e0_0000_0001;
        let calls = std::sync::atomic::AtomicU64::new(0);
        let run = || {
            solve_table_cached(key, || {
                calls.fetch_add(1, Ordering::Relaxed);
                toy_table(30.0)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "second call must hit");
    }

    #[test]
    fn non_monotone_tables_fall_back_to_measurement() {
        let key = 0x50fa_57e0_0000_0002;
        // A flat curve: monotonization leaves equal neighbours, so the
        // cached inversion is degenerate and must not be served.
        let flat = solve_table_cached(key, || toy_table(0.0));
        assert!(!flat.is_strictly_increasing());
        let fallbacks_before = solve_fallbacks();
        let calls = std::sync::atomic::AtomicU64::new(0);
        let again = solve_table_cached(key, || {
            calls.fetch_add(1, Ordering::Relaxed);
            toy_table(0.0)
        });
        assert_eq!(again, flat);
        assert_eq!(calls.load(Ordering::Relaxed), 1, "fallback re-measures");
        assert!(solve_fallbacks() > fallbacks_before);
    }
}
