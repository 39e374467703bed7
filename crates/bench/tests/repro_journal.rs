//! End-to-end regression tests for the `repro` benchmark journal — the
//! ISSUE 2 headline bug: a single-experiment run (`repro fig9`) used to
//! **overwrite** the root `BENCH_repro.json`, erasing the record of the
//! last full `repro all` run. These tests drive the real binary in a
//! scratch working directory and assert the journal only ever grows.

use std::path::{Path, PathBuf};
use std::process::Command;

use vardelay_obs::journal;
use vardelay_obs::json::Value;

/// A scratch directory the repro binary runs in (its journal and
/// `target/repro/` CSVs land here, not in the repository).
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Scratch {
        let mut dir = std::env::temp_dir();
        dir.push(format!("vardelay_repro_e2e_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch { dir }
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("BENCH_repro.json")
    }

    /// Runs `repro <arg>` with the scratch dir as cwd, returning the exit
    /// code.
    fn repro(&self, arg: &str) -> i32 {
        self.repro_env(&[arg], &[]).status.code().unwrap_or(-1)
    }

    /// Runs `repro` with arbitrary args and extra environment variables,
    /// returning the full output for stderr assertions.
    fn repro_env(&self, args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(args).current_dir(&self.dir);
        for (k, v) in envs {
            cmd.env(k, v);
        }
        cmd.output().expect("spawn repro")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn seeded_all_record(wall_s: f64) -> Value {
    Value::obj()
        .with("schema", journal::SCHEMA_VERSION)
        .with("experiments", "all")
        .with("threads", 1u64)
        .with("wall_s", wall_s)
}

#[test]
fn single_experiment_runs_append_and_never_clobber_the_all_record() {
    let scratch = Scratch::new("no_clobber");
    // The journal already holds a full-run record (legacy pretty format,
    // exactly what a pre-journal checkout carries).
    std::fs::write(
        scratch.journal_path(),
        "{\n  \"experiments\": \"all\",\n  \"threads\": 1,\n  \"wall_s\": 6.5,\n  \
         \"csv_points\": 1934\n}\n",
    )
    .unwrap();

    assert_eq!(scratch.repro("fig9"), 0);
    assert_eq!(scratch.repro("fig9"), 0);

    let records = journal::load(&scratch.journal_path()).unwrap();
    assert_eq!(
        records.len(),
        3,
        "seeded all record + two fig9 appends, no overwrite"
    );
    // The pre-existing `all` record survived, bit-for-bit in content.
    assert_eq!(
        records[0].get("experiments").and_then(Value::as_str),
        Some("all")
    );
    assert_eq!(records[0].get("wall_s").and_then(Value::as_f64), Some(6.5));
    assert_eq!(
        records[0].get("csv_points").and_then(Value::as_u64),
        Some(1934)
    );
    for r in &records[1..] {
        assert_eq!(r.get("experiments").and_then(Value::as_str), Some("fig9"));
        assert!(r.get("wall_s").and_then(Value::as_f64).is_some());
        assert!(
            r.get("csv_points").and_then(Value::as_u64).unwrap_or(0) > 0,
            "fig9 writes a CSV with data points"
        );
    }
    // And the fig9 CSV really landed under the scratch target/repro.
    assert!(scratch
        .dir
        .join("target/repro/fig09_coarse_taps.csv")
        .is_file());
}

#[test]
fn compare_gates_on_wall_clock_regression() {
    let scratch = Scratch::new("compare_gate");

    // No records at all → not comparable (exit 2).
    assert_eq!(scratch.repro("compare"), 2);

    // Two healthy runs → gate passes.
    journal::append(&scratch.journal_path(), &seeded_all_record(6.5)).unwrap();
    journal::append(&scratch.journal_path(), &seeded_all_record(6.6)).unwrap();
    assert_eq!(scratch.repro("compare"), 0);

    // A >10 % regression in the newest run → gate fails.
    journal::append(&scratch.journal_path(), &seeded_all_record(7.5)).unwrap();
    assert_eq!(scratch.repro("compare"), 1);

    // Interleaved single-figure records never confuse the gate: append a
    // fast fig9 record after the regression — compare still looks at the
    // latest two `all` records.
    journal::append(
        &scratch.journal_path(),
        &Value::obj()
            .with("schema", journal::SCHEMA_VERSION)
            .with("experiments", "fig9")
            .with("threads", 1u64)
            .with("wall_s", 0.01),
    )
    .unwrap();
    assert_eq!(scratch.repro("compare"), 1);
}

#[test]
fn unknown_subcommand_exits_with_usage_error() {
    let scratch = Scratch::new("usage");
    assert_eq!(scratch.repro("fig99"), 2);
    assert!(!Path::new(&scratch.journal_path()).exists());
    // Unknown names inside a comma selection are rejected the same way.
    assert_eq!(scratch.repro("fig9,fig99"), 2);
    assert!(!Path::new(&scratch.journal_path()).exists());
}

/// The ISSUE 4 satellite bug: `repro faults` with the injection kill
/// switch thrown (`VARDELAY_FAULTS=0`) runs no campaign and writes no
/// CSV — it used to append a `"wall_s":0,"csv_points":0` record that
/// poisoned the journal's time series. Zero-output runs must not append.
#[test]
fn zero_output_run_appends_no_journal_record() {
    let scratch = Scratch::new("zero_record");
    let out = scratch.repro_env(&["faults"], &[("VARDELAY_FAULTS", "0")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("zero-point journal append skipped"),
        "the skip is announced: {stdout}"
    );
    assert!(
        !scratch.journal_path().exists(),
        "no journal record for a run that produced nothing"
    );
    assert!(
        !scratch
            .dir
            .join("target/repro/BENCH_repro_last.json")
            .exists(),
        "no last-run record either"
    );
}

/// `repro compare` must fail with a clear one-line error — not a panic,
/// not a silent pass — when fewer than two valid records remain after
/// filtering zero-point and resumed records.
#[test]
fn compare_reports_too_few_records_after_filtering() {
    let scratch = Scratch::new("compare_filtered");
    // One healthy record, one zero-point record (the old bug's droppings),
    // one resumed partial run: only the first is a valid baseline.
    journal::append(&scratch.journal_path(), &seeded_all_record(6.5)).unwrap();
    journal::append(
        &scratch.journal_path(),
        &seeded_all_record(0.0)
            .with("csv_points", 0u64)
            .with("csv_files", 0u64),
    )
    .unwrap();
    journal::append(
        &scratch.journal_path(),
        &seeded_all_record(1.2)
            .with("resumed", true)
            .with("resume_skips", 12u64),
    )
    .unwrap();
    let out = scratch.repro_env(&["compare"], &[]);
    assert_eq!(out.status.code(), Some(2), "not comparable → exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().find(|l| !l.is_empty()).unwrap_or_default();
    assert!(
        line.contains("need two valid") && line.contains("found 1"),
        "one clear diagnostic line, got: {stderr}"
    );
}

/// The newest record of a two-record journal that arms `target`'s gate:
/// green passes every check, red fails one.
fn gate_record(target: &str, red: bool) -> Value {
    let base = |kind: &str, threads: u64| {
        Value::obj()
            .with("schema", journal::SCHEMA_VERSION)
            .with("experiments", kind)
            .with("threads", threads)
    };
    let pick = |green: f64, bad: f64| if red { bad } else { green };
    match target {
        "all" => base("all", 1).with("wall_s", pick(6.5, 7.5)),
        "serve-bench" => base("serve-bench", 4)
            .with("p99_us", pick(400.0, 1700.0))
            .with("throughput_rps", 5000.0),
        "fairness" => base("serve-bench-mt", 4)
            .with("tenants", 16u64)
            .with("p999_us", 2000.0)
            .with("fairness_ratio", pick(1.1, 9.7)),
        "hotpath" => base("all", 1)
            .with("wall_s", 6.5)
            .with("csv_points", 172u64)
            .with("solve_p99_us", 4000.0)
            .with("pool_allocs", pick(9.5, 10.6)),
        "soak" => base("soak", 2)
            .with("incidents", 4u64)
            .with("unhealed", pick(0.0, 1.0))
            .with("mttr_p99_us", 100_000.0)
            .with("availability", 1.0),
        "restart" => base("restart", 2)
            .with("cold_start_us", 900_000.0)
            .with("warm_start_us", 100_000.0)
            .with("banks_restored", 1u64)
            .with("banks_recalibrated", 0u64)
            .with("wal_records_replayed", 12u64)
            .with("replay_mismatches", pick(0.0, 3.0)),
        "backends" => base("backends", 2)
            .with("contract_violations", pick(0.0, 1.0))
            .with("reference_drift", false)
            .with("faults_detected", 3u64)
            .with("faults_expected", 3u64),
        other => panic!("no fixture for gate {other:?}"),
    }
}

#[test]
fn every_compare_target_dispatches_through_the_binary() {
    assert_eq!(journal::GATES.len(), 7, "one fixture per gate below");
    for gate in journal::GATES {
        let target = gate.target;
        for (red, want) in [(false, 0), (true, 1)] {
            let scratch = Scratch::new(&format!("dispatch_{target}_{red}"));
            let path = scratch.journal_path();
            journal::append(&path, &gate_record(target, false)).unwrap();
            journal::append(&path, &gate_record(target, red)).unwrap();
            let out = scratch.repro_env(&["compare", target], &[]);
            assert_eq!(
                out.status.code(),
                Some(want),
                "compare {target} red={red}: {}",
                String::from_utf8_lossy(&out.stdout)
            );
        }
        let empty = Scratch::new(&format!("dispatch_{target}_empty"));
        assert_eq!(
            empty.repro_env(&["compare", target], &[]).status.code(),
            Some(2),
            "compare {target} on an empty journal"
        );
    }
}

#[test]
fn bare_compare_runs_only_the_armed_gates() {
    let scratch = Scratch::new("bare_armed");
    journal::append(&scratch.journal_path(), &seeded_all_record(6.5)).unwrap();
    journal::append(&scratch.journal_path(), &seeded_all_record(6.6)).unwrap();
    let out = scratch.repro_env(&["compare"], &[]);
    assert_eq!(out.status.code(), Some(0), "unarmed gates are skipped");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 1, "only the all verdict: {stdout}");
    assert!(stdout.contains("all: wall_s 6.5 -> 6.6"), "{stdout}");
}

#[test]
fn an_unknown_compare_target_lists_every_target() {
    let scratch = Scratch::new("compare_unknown");
    let out = scratch.repro_env(&["compare", "bogus"], &[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for gate in journal::GATES {
        assert!(stderr.contains(&format!("{:?}", gate.target)), "{stderr}");
    }
}

/// Every subcommand rejects an unknown or extra argument with exit 2
/// and the usage, before doing any work: a mistyped lever such as
/// `--no-recall` must never run a green campaign.
#[test]
fn unknown_and_extra_arguments_exit_2_with_usage() {
    let scratch = Scratch::new("argv");
    let cases: &[&[&str]] = &[
        &["soak", "--bogus"],
        &["soak", "--no-recall"],
        &["soak", "--no-recal", "--no-recal"],
        &["serve-bench", "mt", "junk"],
        &["serve-bench", "--hot-tenant", "0"],
        &["serve-bench", "mt", "--hot-tenant"],
        &["serve-bench", "mt", "--hot-tenant", "16"],
        &["serve-bench", "mt", "--hot-tenant", "x"],
        &["serve-bench", "mt", "--hot-tenant", "0", "extra"],
        &["restart", "x"],
        &["backends", "x"],
        &["serve", "x"],
        &["compare", "all", "extra"],
        &["fig9", "extra"],
        &["--bogus"],
    ];
    for args in cases {
        let out = scratch.repro_env(args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: repro"), "{args:?}: {stderr}");
    }
    assert!(
        !scratch.journal_path().exists(),
        "a rejected command appends nothing"
    );
    let out = scratch.repro_env(&["serve-bench", "mt", "--hot-tenant", "16"], &[]);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("0..16"),
        "the range is named"
    );
}

/// An instrumented record carries the run's raw buffer-pool allocation
/// total as `pool_allocs` — a count, not a per-request ratio.
#[test]
fn an_instrumented_record_carries_the_raw_pool_allocation_count() {
    let scratch = Scratch::new("pool_allocs");
    let out = scratch.repro_env(&["table1"], &[("VARDELAY_OBS", "1")]);
    assert!(out.status.success());
    let records = journal::load(&scratch.journal_path()).unwrap();
    let record = records.last().expect("one record");
    assert!(record.get("solve_p99_us").is_some(), "table1 solves");
    let allocs = record.get("pool_allocs").and_then(Value::as_f64);
    assert!(
        allocs.is_some_and(|a| a >= 0.0 && a.fract() == 0.0),
        "{allocs:?}"
    );
    assert!(record.get("allocs_per_request").is_none());
}
