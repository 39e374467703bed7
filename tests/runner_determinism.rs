//! Parallel-vs-serial determinism regression tests.
//!
//! The runner's contract (DESIGN.md §8) is that every experiment is
//! *bit-identical* at every thread count: results are collected by task
//! index and every task derives private state (fresh blocks, per-task RNG
//! streams) instead of sharing a sequential generator. These tests pin
//! that contract on the two experiments the paper's applications depend
//! on — the Fig. 7 fine-delay sweep (E1) and the Fig. 2 bus deskew (E9) —
//! by comparing the exact CSV bytes a `repro` run would write.

use vardelay_analog::{measure_delay_table_with, AnalogBlock};
use vardelay_ate::report::deskew_table;
use vardelay_bench::{ablation, fine_delay, skew};
use vardelay_core::{FineDelayLine, ModelConfig};
use vardelay_obs as obs;
use vardelay_obs::journal;
use vardelay_obs::json::Value;
use vardelay_runner::Runner;
use vardelay_units::Voltage;

#[test]
fn fig7_series_csv_is_byte_identical_at_any_thread_count() {
    let serial = fine_delay::fig7_delay_vs_vctrl_with(Runner::new(1), 7).to_csv();
    for threads in [2, 8] {
        let parallel = fine_delay::fig7_delay_vs_vctrl_with(Runner::new(threads), 7).to_csv();
        assert_eq!(serial, parallel, "fig7 CSV diverged at {threads} threads");
    }
}

#[test]
fn fig15_series_csv_is_byte_identical_at_any_thread_count() {
    let freqs = [0.5, 6.4];
    let (s4, s2) = fine_delay::fig15_range_vs_frequency_with(Runner::new(1), &freqs);
    let (p4, p2) = fine_delay::fig15_range_vs_frequency_with(Runner::new(4), &freqs);
    assert_eq!(s4.to_csv(), p4.to_csv());
    assert_eq!(s2.to_csv(), p2.to_csv());
}

#[test]
fn deskew_outcome_is_byte_identical_at_any_thread_count() {
    let serial = skew::fig2_deskew_with(Runner::new(1), 4);
    let serial_csv = deskew_table(&serial).to_csv();
    for threads in [2, 8] {
        let parallel = skew::fig2_deskew_with(Runner::new(threads), 4);
        assert_eq!(
            serial, parallel,
            "deskew outcome diverged at {threads} threads"
        );
        assert_eq!(serial_csv, deskew_table(&parallel).to_csv());
    }
}

/// Obs instrumentation (spans, counters, histograms) is observational by
/// contract: with it on or off, the E1/E6/E9 CSV bytes must not move.
/// (`set_enabled` is process-global; the other tests in this binary never
/// read obs state, so flipping it here cannot affect their results —
/// that's exactly the property under test.)
#[test]
fn obs_instrumentation_leaves_csvs_byte_identical() {
    let run_all = || {
        let e1 = fine_delay::fig7_delay_vs_vctrl_with(Runner::new(2), 7).to_csv();
        let (s4, s2) = fine_delay::fig15_range_vs_frequency_with(Runner::new(2), &[0.5, 6.4]);
        let e9 = deskew_table(&skew::fig2_deskew_with(Runner::new(2), 4)).to_csv();
        (e1, s4.to_csv(), s2.to_csv(), e9)
    };
    obs::set_enabled(true);
    let instrumented = run_all();
    // Spans and counters actually recorded while enabled.
    assert!(
        obs::counter("runner.batches").get() > 0,
        "instrumented run must hit the runner counters"
    );
    obs::set_enabled(false);
    let quiet = run_all();
    obs::set_enabled(true);
    assert_eq!(instrumented, quiet, "obs on/off changed experiment bytes");
}

/// The journal contract the repro binary relies on: two consecutive
/// `repro all` runs append two valid records (no overwrite), and the
/// regression gate can diff them.
#[test]
fn two_all_runs_append_two_valid_journal_records() {
    let mut path = std::env::temp_dir();
    path.push(format!("vardelay_journal_det_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let record = |wall_s: f64| {
        Value::obj()
            .with("schema", journal::SCHEMA_VERSION)
            .with("experiments", "all")
            .with("threads", 1u64)
            .with("wall_s", wall_s)
            .with("csv_points", 1934u64)
    };
    journal::append(&path, &record(6.5)).unwrap();
    journal::append(&path, &record(6.4)).unwrap();

    let records = journal::load(&path).unwrap();
    assert_eq!(records.len(), 2, "both runs must survive in the journal");
    for r in &records {
        assert_eq!(r.get("experiments").and_then(Value::as_str), Some("all"));
        assert_eq!(
            r.get("schema").and_then(Value::as_u64),
            Some(journal::SCHEMA_VERSION)
        );
        assert!(r.get("wall_s").and_then(Value::as_f64).is_some());
    }
    let cmp = journal::evaluate(journal::gate("all").unwrap(), &records).unwrap();
    let wall = cmp.row("wall_s").unwrap();
    assert_eq!(wall.older, Some(6.5));
    assert_eq!(wall.newer, 6.4);
    assert!(!cmp.regressed, "{cmp}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn characterization_is_identical_across_thread_counts_and_cache_states() {
    let line = FineDelayLine::new(&ModelConfig::paper_prototype().quiet(), 1);
    let (vctrls, intervals) = line.default_grids();
    let vctrls = &vctrls[..3];
    let intervals = &intervals[..2];

    let serial = line.characterize_with(Runner::new(1), vctrls, intervals);
    for threads in [2, 8] {
        // Clearing between runs forces a real remeasure at this thread
        // count instead of a trivial cache hit.
        vardelay_analog::clear_characterization_cache();
        let parallel = line.characterize_with(Runner::new(threads), vctrls, intervals);
        assert_eq!(serial, parallel, "table diverged at {threads} threads");
    }
    // And the warm-cache path returns the same table again.
    let cached = line.characterize_with(Runner::new(3), vctrls, intervals);
    assert_eq!(serial, cached);
}

/// The depth-family sweep taps one deep cascade instead of building each
/// depth separately; every tapped table must equal, byte for byte, both a
/// cold single-depth `characterize_with` and the plain waveform-chain
/// measurement of a line built that deep — at 1 and 2 threads.
#[test]
fn depth_family_tables_equal_per_depth_characterization() {
    let base = ModelConfig::paper_prototype().quiet();
    let line = FineDelayLine::new(&base, 1);
    let (vctrls, intervals) = line.default_grids();
    let vctrls = &vctrls[..3];
    let intervals = &intervals[..2];
    let depths = [1, 2, 3, 5];
    let bytes = |table: &vardelay_analog::DelayTable| format!("{table:?}");

    for threads in [1, 2] {
        let runner = Runner::new(threads);
        vardelay_analog::clear_characterization_cache();
        let family = line.characterize_depths_with(runner, &depths, vctrls, intervals);
        assert_eq!(family.len(), depths.len());
        for (&depth, tapped) in depths.iter().zip(&family) {
            let mut cfg = base.clone();
            cfg.stages = depth;
            let deep = FineDelayLine::new(&cfg, 1);
            // The family stored this depth under characterize's own key…
            assert_eq!(
                bytes(&deep.characterize_with(runner, vctrls, intervals)),
                bytes(tapped),
                "cached depth {depth} at {threads} threads"
            );
            // …and a cold single-depth measurement agrees with it.
            vardelay_analog::clear_characterization_cache();
            let single = deep.characterize_with(runner, vctrls, intervals);
            assert_eq!(bytes(&single), bytes(tapped), "depth {depth}");
            let build = |v: Voltage| -> Box<dyn AnalogBlock + Send> {
                let mut fresh = FineDelayLine::new(&cfg, 0);
                fresh.set_vctrl(v);
                Box::new(fresh)
            };
            let chain = measure_delay_table_with(runner, &build, vctrls, intervals, &cfg.render);
            assert_eq!(bytes(&chain), bytes(tapped), "chain depth {depth}");
        }
    }
}

/// The ablations characterize their depth family once and then fan out;
/// serial and 2-thread runs must agree exactly, each from a cold cache.
#[test]
fn ablations_are_identical_serial_and_parallel() {
    let run = |runner: Runner| {
        vardelay_analog::clear_characterization_cache();
        (
            ablation::stage_count_ablation_with(runner, 3, 600),
            ablation::architecture_comparison_with(runner, 600),
            ablation::control_strategy_ablation_with(runner),
        )
    };
    let serial = run(Runner::serial());
    let parallel = run(Runner::new(2));
    assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
}
