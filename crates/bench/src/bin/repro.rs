//! `repro` — regenerates every table and figure of the paper's evaluation
//! from the behavioral model and prints the same rows/series the paper
//! reports. CSVs are written under `target/repro/` **atomically** (staged
//! as `<file>.tmp`, then renamed — a kill mid-run never leaves a torn
//! CSV); every run appends one record to the `BENCH_repro.json` journal
//! (JSONL, append-only under an advisory lock — a single-figure run never
//! clobbers the record of a full `all` run, and two concurrent repro
//! processes cannot interleave a line).
//!
//! Usage:
//!
//! ```text
//! repro [all|<name>[,<name>...]] [--resume]
//!   names: fig1 fig2 fig7 fig9 fig12 fig13 fig14 fig15 fig16 fig17
//!          table1 ablation extensions faults
//! repro compare [all|serve-bench|fairness|hotpath|soak|restart|backends]
//!                 # regression gate: diff the latest two valid `all`
//!                 # journal records, exit non-zero on >10 % wall-clock
//!                 # regression (exit 2 when <2 valid records remain);
//!                 # with no target, also gates the latest two
//!                 # serve-bench records when the journal has them, the
//!                 # multi-tenant fairness/p99.9 gate once two
//!                 # serve-bench-mt records exist, and the hot-path
//!                 # dimensions (p99 solve time, buffer-pool
//!                 # allocations per run) once two instrumented `all`
//!                 # records exist
//! repro serve     # the delay-control server (DESIGN.md §12): listens
//!                 # on VARDELAY_SERVE_ADDR until a wire `shutdown`,
//!                 # then drains and appends a serve-drain record
//! repro serve-bench [mt [--hot-tenant N]]
//!                 # seeded open-loop load generator; appends a
//!                 # serve-bench latency/throughput journal record.
//!                 # `mt` runs the multi-tenant campaign instead (16
//!                 # tenants × 2 clients, per-tenant throughput and
//!                 # max/min fairness ratio, p99.9) and appends a
//!                 # serve-bench-mt record; `--hot-tenant N` (0..15)
//!                 # injects a 10× hot tenant for the starved-tenant
//!                 # gate check
//! repro soak [--no-recal]
//!                 # the self-healing chaos campaign (DESIGN.md §15):
//!                 # drift incidents + network chaos against a live
//!                 # server under load; measures detection latency,
//!                 # MTTR, and healthy-channel availability and appends
//!                 # a `soak` record for `repro compare soak`.
//!                 # VARDELAY_FAULTS=0 masks the injection (quiet run,
//!                 # no record); `--no-recal` sabotages healing (with a
//!                 # 5 s per-incident budget) so the gate's red leg is
//!                 # provable
//! repro restart   # the durable-serving campaign (DESIGN.md §16):
//!                 # cold boot → program delays with retry ids →
//!                 # crash-shaped stop → warm boot on the same state
//!                 # directory; measures cold/warm start, banks
//!                 # restored, WAL records replayed, and byte-level
//!                 # replay divergence, and appends a `restart` record
//!                 # for `repro compare restart`. With faults armed it
//!                 # also corrupts a snapshot and requires the refused
//!                 # bank to recalibrate
//! repro backends  # the cross-backend campaign (DESIGN.md §17): every
//!                 # DelayBackend kind (circuit, vernier, dll) measured
//!                 # against its advertised contract — resolution,
//!                 # range, monotonicity, dead time, one-LSB solves —
//!                 # plus a deskew-under-faults leg per backend; writes
//!                 # backends_compare.csv and appends a `backends`
//!                 # record for `repro compare backends`
//! ```
//!
//! Every subcommand rejects an unknown or extra argument with exit 2 and
//! this usage, so a mistyped flag can never run a green campaign.
//!
//! After each experiment a checkpoint (input fingerprint + CSV digests)
//! lands under `target/repro/checkpoints/`; `--resume` skips experiments
//! whose checkpoint still matches, so a killed campaign continues from
//! where it died with byte-identical final CSVs (DESIGN.md §11).
//!
//! `repro faults` runs the fault-injection campaign (DESIGN.md §10): every
//! fault class from `vardelay-faults` is injected and the run fails
//! (exit 1) unless each one is detected by the self-test or the degraded
//! deskew loop.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vardelay_analog::{characterization_cache_stats, characterization_single_flight_waits};
use vardelay_ate::report::{deskew_summary, deskew_table};
use vardelay_bench::checkpoint::{checkpoint_dir, Checkpoint, CsvRecord};
use vardelay_bench::{
    ablation, backends_campaign, checkpoint, eyes, faults_campaign, fine_delay, injection, restart,
    serve_bench, skew, soak, try_output_dir,
};
use vardelay_measure::report::fmt_ps;
use vardelay_measure::{Series, Table};
use vardelay_obs as obs;
use vardelay_obs::json::Value;
use vardelay_obs::{artifact, journal};
use vardelay_runner::{Deadline, Runner};

/// The append-only benchmark journal at the repository root (see
/// EXPERIMENTS.md §Runtime for the record schema).
const JOURNAL_PATH: &str = "BENCH_repro.json";

/// Name of the experiment currently running, so a failed write can say
/// which experiment's output was lost.
static CURRENT_EXPERIMENT: Mutex<String> = Mutex::new(String::new());
/// Human-readable descriptions of every failed write.
static SAVE_FAILURES: Mutex<Vec<String>> = Mutex::new(Vec::new());
/// Total CSV data points written (the repro throughput denominator).
static CSV_POINTS: AtomicUsize = AtomicUsize::new(0);
/// Total CSV files written (journal accounting; tracked outside the obs
/// registry so the record stays correct with `VARDELAY_OBS=0`).
static CSV_FILES: AtomicUsize = AtomicUsize::new(0);
/// (file name, content digest) of every CSV the *currently running*
/// experiment wrote — drained into that experiment's checkpoint.
static CSV_DIGESTS: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());

// The experiment-name and failure-list locks are only ever held around
// trivial reads/pushes, but a panicking experiment (the whole point of the
// fault campaign) can still poison them — recover the data instead of
// compounding the panic, since a poisoned diagnostics list is still a
// valid diagnostics list.
fn set_current_experiment(name: &str) {
    name.clone_into(
        &mut CURRENT_EXPERIMENT
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
}

fn current_experiment() -> String {
    CURRENT_EXPERIMENT
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Records a diagnostic that must turn the run's exit status red, without
/// aborting the remaining experiments.
fn record_save_failure(failure: String) {
    eprintln!("repro: {failure}");
    SAVE_FAILURES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(failure);
}

fn save_csv(name: &str, csv: &str) {
    let experiment = current_experiment();
    let result = try_output_dir().and_then(|dir| {
        let path = dir.join(format!("{name}.csv"));
        // Staged-then-renamed: a kill at any instant leaves either the
        // complete old file, the complete new file, or a stale `.tmp`
        // the next run sweeps — never a torn CSV (DESIGN.md §11).
        artifact::write_atomic(&path, csv).map(|()| path)
    });
    match result {
        Ok(path) => {
            CSV_POINTS.fetch_add(csv.lines().count().saturating_sub(1), Ordering::Relaxed);
            CSV_FILES.fetch_add(1, Ordering::Relaxed);
            CSV_DIGESTS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push((format!("{name}.csv"), artifact::digest(csv)));
            obs::counter("repro.csv_files").incr();
            obs::counter("repro.csv_bytes").add(csv.len() as u64);
            println!("  [csv: {}]", path.display());
        }
        Err(e) => {
            record_save_failure(format!(
                "experiment {experiment}: could not save {name}.csv under target/repro: {e}"
            ));
        }
    }
}

/// Drains the CSV records accumulated since the last drain (i.e. the
/// current experiment's outputs).
fn drain_csv_digests() -> Vec<CsvRecord> {
    CSV_DIGESTS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .drain(..)
        .map(|(file, digest)| CsvRecord { file, digest })
        .collect()
}

fn save_series(name: &str, series: &Series) {
    save_csv(name, &series.to_csv());
}

fn save_table(name: &str, table: &Table) {
    save_csv(name, &table.to_csv());
}

fn series_table(title: &str, series: &[&Series]) -> Table {
    let first = series.first().expect("at least one series");
    // Series swept over different grids used to index everything with the
    // first one's length and panic mid-run; validate up front, record a
    // red-exit diagnostic, and render the common prefix instead.
    let rows = series.iter().map(|s| s.len()).min().unwrap_or(0);
    if series.iter().any(|s| s.len() != rows) {
        let lengths = series
            .iter()
            .map(|s| format!("{} has {} points", s.label, s.len()))
            .collect::<Vec<_>>()
            .join("; ");
        record_save_failure(format!(
            "experiment {}: series lengths differ in table {title:?} ({lengths}); \
             truncated to the common {rows} rows",
            current_experiment()
        ));
    }
    let mut headers = vec![first.x_label.as_str()];
    headers.extend(series.iter().map(|s| s.label.as_str()));
    let mut table = Table::new(title, &headers);
    for i in 0..rows {
        let mut row = vec![format!("{:.3}", first.xs[i])];
        for s in series {
            row.push(format!("{:.2}", s.ys[i]));
        }
        table.push_owned_row(row);
    }
    table
}

fn fig7() {
    println!("\n### Fig. 7 — fine delay vs Vctrl (4-stage)");
    let series = fine_delay::fig7_delay_vs_vctrl(31);
    let summary = fine_delay::fig7_summary(&series);
    println!("{}", series_table("Delay vs control voltage", &[&series]));
    println!(
        "range = {} (paper ~56 ps); mid slope = {:.1} ps/V; mid R^2 = {:.4}",
        summary.range, summary.mid_slope_ps_per_v, summary.mid_r_squared
    );
    save_series("fig07_delay_vs_vctrl", &series);
}

fn fig9() {
    println!("\n### Fig. 9 — coarse tap delays");
    let taps = fine_delay::fig9_coarse_taps();
    let mut table = Table::new(
        "Coarse taps (paper measured 0/33/70/95 ps)",
        &["tap", "designed_ps", "measured_ps", "deviation_ps"],
    );
    for t in &taps {
        table.push_owned_row(vec![
            t.tap.to_string(),
            fmt_ps(t.designed),
            fmt_ps(t.measured),
            fmt_ps(t.measured - t.designed),
        ]);
    }
    println!("{table}");
    save_table("fig09_coarse_taps", &table);
}

fn eye_result(r: &eyes::EyeExperimentResult, paper: &str) {
    println!("{}", r.label);
    println!(
        "  fine range = {}, TJ in = {}, TJ out = {}, added = {}",
        r.fine_range, r.input_tj, r.output_tj, r.added_tj
    );
    println!("  paper: {paper}");
}

/// The eye/TJ summary CSV for Figs. 12–14 (EXPERIMENTS.md promises every
/// experiment lands CSVs in `target/repro/`).
fn eye_summary_table(r: &eyes::EyeExperimentResult) -> Table {
    let mut table = Table::new(&r.label, &["metric", "ps"]);
    for (metric, value) in [
        ("fine_range_ps", r.fine_range),
        ("input_tj_ps", r.input_tj),
        ("output_tj_ps", r.output_tj),
        ("added_tj_ps", r.added_tj),
    ] {
        table.push_owned_row(vec![metric.to_owned(), format!("{:.3}", value.as_ps())]);
    }
    table
}

fn fig12() {
    println!("\n### Fig. 12 — 4.8 Gb/s eye");
    let r = eyes::fig12_eye_4g8(8000);
    eye_result(&r, "fine range 49.5 ps, TJ out 18.5 ps (~+7 ps)");
    save_table("fig12_eye_summary", &eye_summary_table(&r));
}

fn fig13() {
    println!("\n### Fig. 13 — 6.4 Gb/s eye through combined circuit");
    let r = eyes::fig13_eye_6g4(8000);
    eye_result(&r, "TJ in 26 ps -> TJ out 39 ps (+13 ps)");
    save_table("fig13_eye_summary", &eye_summary_table(&r));
}

fn fig14() {
    println!("\n### Fig. 14 — 6.4 GHz RZ clock");
    let r = eyes::fig14_rz_6g4(8000);
    eye_result(&r, "fine range 23.5 ps, TJ 10.5 ps");
    save_table("fig14_eye_summary", &eye_summary_table(&r));
}

fn fig15() {
    println!("\n### Fig. 15 — delay range vs clock frequency");
    let freqs = fine_delay::fig15_default_freqs();
    let (s4, s2) = fine_delay::fig15_range_vs_frequency(&freqs);
    println!(
        "{}",
        series_table("Fine range vs RZ clock frequency (GHz)", &[&s4, &s2])
    );
    println!("paper: 4-stage usable beyond 6.4 GHz; 2-stage ineffective past ~6 GHz");
    save_series("fig15_range_4stage", &s4);
    save_series("fig15_range_2stage", &s2);
}

fn fig16() {
    println!("\n### Fig. 16 — jitter injection at 3.2 Gb/s");
    let r = injection::fig16_injection(8000);
    println!(
        "reference TJ = {}, baseline out TJ = {}, with {} noise TJ = {}",
        r.reference_tj, r.baseline_tj, r.noise_vpp, r.injected_tj
    );
    println!("paper: reference 8 ps -> 69 ps with 900 mVpp noise");
    let mut table = Table::new("Fig.16 jitter injection at 3.2 Gb/s", &["metric", "value"]);
    for (metric, value) in [
        ("reference_tj_ps", r.reference_tj.as_ps()),
        ("baseline_tj_ps", r.baseline_tj.as_ps()),
        ("injected_tj_ps", r.injected_tj.as_ps()),
        ("noise_vpp_mv", r.noise_vpp.as_v() * 1e3),
    ] {
        table.push_owned_row(vec![metric.to_owned(), format!("{value:.3}")]);
    }
    save_table("fig16_injection_summary", &table);
}

fn fig17() {
    println!("\n### Fig. 17 — added jitter vs noise amplitude");
    let series = injection::fig17_injection_sweep(6000, 11);
    println!("{}", series_table("Added jitter vs noise Vpp", &[&series]));
    println!("paper: approximately linear, ~40 ps added at 0.9 Vpp");
    save_series("fig17_injection_sweep", &series);
}

fn fig2() {
    println!("\n### Fig. 2 — parallel-bus deskew (4 x 6.4 Gb/s)");
    let outcome = skew::fig2_deskew(4);
    let table = deskew_table(&outcome);
    println!("{table}");
    println!("{}", deskew_summary(&outcome));
    save_table("fig02_deskew", &table);
}

fn fig1() {
    println!("\n### Fig. 1 — clock-to-data-eye alignment");
    let r = skew::fig1_eye_alignment();
    println!(
        "receiver scan across one UI ({}): best sampling phase = {} ({:.2} UI)",
        r.ui,
        r.best_phase,
        r.best_phase / r.ui
    );
    save_series("fig01_eye_scan", &r.scan);
}

fn table1() {
    println!("\n### Table 1 — application requirements (paper Section 1)");
    let t = fine_delay::table1_requirements();
    let mut table = Table::new(
        "Requirements check",
        &["requirement", "paper_target", "measured", "met"],
    );
    let rows = [
        (
            "setting resolution",
            "<= 1 ps",
            format!("{}", t.setting_resolution),
            t.setting_resolution.as_ps() <= 1.0,
        ),
        (
            "total range",
            ">= 120 ps",
            format!("{}", t.total_range),
            t.total_range.as_ps() >= 120.0,
        ),
        (
            "fine range @ 6.4 Gb/s covers 33 ps coarse step",
            "> 33 ps",
            format!("{}", t.fine_range_at_6g4),
            t.fine_range_at_6g4.as_ps() > 33.0,
        ),
    ];
    for (req, target, measured, met) in rows {
        table.push_owned_row(vec![
            req.to_owned(),
            target.to_owned(),
            measured,
            if met { "yes" } else { "NO" }.to_owned(),
        ]);
    }
    println!("{table}");
    save_table("table1_requirements", &table);
}

fn ablation_report() {
    println!("\n### Ablation A1 — stage count and architecture");
    let rows = ablation::stage_count_ablation(6, 4000);
    let mut table = Table::new(
        "Stage-count ablation",
        &["stages", "dc_range_ps", "range@6.4GHz_ps", "added_tj_ps"],
    );
    for r in &rows {
        table.push_owned_row(vec![
            r.stages.to_string(),
            fmt_ps(r.dc_range),
            fmt_ps(r.range_at_6g4),
            fmt_ps(r.added_tj),
        ]);
    }
    println!("{table}");
    save_table("ablation_stages", &table);

    let cmp = ablation::architecture_comparison(4000);
    println!(
        "coarse+fine added TJ = {} vs all-fine (8-stage) = {} (range {})",
        cmp.coarse_plus_fine_tj, cmp.all_fine_tj, cmp.all_fine_range
    );
    println!("paper Section 3: the coarse mux avoids the extra cascade's jitter");

    let ctrl = ablation::control_strategy_ablation();
    println!(
        "control strategy: common Vctrl range {} / INL {} vs staggered per-stage range {} / INL {}",
        ctrl.common_range, ctrl.common_inl, ctrl.staggered_range, ctrl.staggered_inl
    );
    println!("the paper's common control trades linearity for range and simplicity");
}

fn extensions() {
    use vardelay_bench::extensions;
    println!("\n### Extensions (beyond the paper's figures)");
    let x1 = extensions::x1_multichannel();
    println!(
        "X1 4-channel unit: shared-cal accuracy {} pk-pk, per-channel {} pk-pk, common range {}",
        x1.shared_accuracy, x1.per_channel_accuracy, x1.common_range
    );
    let x2 = extensions::x2_tolerance();
    match x2.max_tolerated {
        Some(t) => println!("X2 jitter tolerance: receiver tolerates up to {t} of injected TJ"),
        None => println!("X2 jitter tolerance: receiver failed without stress"),
    }
    let x3 = extensions::x3_drift();
    println!(
        "X3 temperature drift: fine range {} at cal temp -> {} at +40 K (recalibration restores sub-ps accuracy)",
        x3.cold_range, x3.hot_range
    );
    let b1 = extensions::b1_baseline_comparison(400);
    println!(
        "B1 baseline: eye height {:.0} mV in -> vardelay {:.0} mV vs clock-phase interpolator {:.0} mV \
         (interpolator clock-delay error only {})",
        b1.input_height * 1e3,
        b1.vardelay_height * 1e3,
        b1.interpolator_height * 1e3,
        b1.interpolator_clock_error
    );
    let x4 = extensions::x4_coded_traffic(6000);
    println!(
        "X4 8b/10b traffic: output TJ {} (PRBS7: {}) — line coding is handled transparently",
        x4.coded_tj, x4.prbs_tj
    );
}

fn faults() {
    println!("\n### Faults — injected-fault detection campaign (DESIGN.md \u{a7}10)");
    let campaign = faults_campaign::faults_campaign();
    if !campaign.injection_enabled {
        println!("{}", campaign.summary());
        return;
    }
    let table = campaign.table();
    println!("{table}");
    println!("{}", campaign.summary());
    save_table("faults_campaign", &table);
    if campaign.detected() < campaign.expected() || !campaign.degraded_all_ok() {
        record_save_failure(format!(
            "experiment faults: campaign below expectations — {}",
            campaign.summary()
        ));
    }
}

/// Best-effort `git describe` so journal records are attributable to a
/// commit; falls back to `"unknown"` outside a git checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Appends this run's record to the `BENCH_repro.json` journal (one
/// JSONL line per run — **append**, never overwrite, so a single-figure
/// run cannot clobber the trajectory of full `all` runs) and writes the
/// same record to `target/repro/BENCH_repro_last.json` for consumers
/// that only want the latest run.
///
/// A run that produced **no CSV output at all** (a skipped campaign —
/// e.g. `repro faults` under `VARDELAY_FAULTS=0` — or a `--resume` run
/// where every checkpoint matched) appends nothing: a zero-point record
/// carries no measurement and would only pollute the time series. A
/// `--resume` run that skipped *some* experiments is recorded with
/// `resumed: true` so `repro compare` knows not to use its partial wall
/// clock as a baseline.
fn write_runtime_record(arg: &str, wall_s: f64, timings: &[(String, f64)], resume_skips: usize) {
    let points = CSV_POINTS.load(Ordering::Relaxed);
    let files = CSV_FILES.load(Ordering::Relaxed);
    let (hits, misses) = characterization_cache_stats();
    let waits = characterization_single_flight_waits();
    let (solve_hits, solve_misses) = vardelay_core::solve_cache_stats();
    println!(
        "\nruntime: {wall_s:.2} s on {} thread(s), {points} CSV points in {files} files, \
         cache {hits} hits / {misses} misses / {waits} single-flight waits, \
         solve cache {solve_hits} hits / {solve_misses} misses \
         [journal: {JOURNAL_PATH}]",
        Runner::global().threads()
    );
    if points == 0 && files == 0 {
        println!("repro: no CSV output this run; zero-point journal append skipped");
    } else {
        let mut per_experiment = Value::obj();
        for (name, s) in timings {
            per_experiment = per_experiment.with(name, (s * 1000.0).round() / 1000.0);
        }
        let mut record = Value::obj()
            .with("schema", journal::SCHEMA_VERSION)
            .with("experiments", arg)
            .with("threads", Runner::global().threads())
            .with("git", git_describe())
            .with("unix_ms", unix_ms())
            .with("wall_s", (wall_s * 1000.0).round() / 1000.0)
            .with("csv_files", files)
            .with("csv_points", points)
            .with(
                "points_per_s",
                if wall_s > 0.0 {
                    ((points as f64 / wall_s) * 1000.0).round() / 1000.0
                } else {
                    0.0
                },
            )
            .with("cache_hits", hits)
            .with("cache_misses", misses)
            .with("single_flight_waits", waits)
            .with("solve_hits", solve_hits)
            .with("solve_misses", solve_misses)
            .with("solve_fallbacks", vardelay_core::solve_fallbacks());
        // The hot-path dimensions (p99 solve time and the run's
        // buffer-pool allocations) come from the obs registry, so a
        // `VARDELAY_OBS=0` run simply omits them — the hotpath compare
        // gate skips uninstrumented records.
        let solve = obs::histogram("core.solve_us").summary();
        if solve.count > 0 {
            let pool_allocs = obs::counter("waveform.pool_allocs").get();
            record = record
                .with("solve_p99_us", solve.p99)
                .with("pool_allocs", pool_allocs);
            println!(
                "hotpath: {} solve(s), p99 {} \u{00b5}s, {pool_allocs} pool allocs \
                 ({} pool reuses)",
                solve.count,
                solve.p99,
                obs::counter("waveform.pool_reuses").get()
            );
        }
        if resume_skips > 0 {
            record = record
                .with("resumed", true)
                .with("resume_skips", resume_skips);
        }
        record = record.with("per_experiment_s", per_experiment);
        if let Err(e) = journal::append(Path::new(JOURNAL_PATH), &record) {
            eprintln!("repro: could not append to {JOURNAL_PATH}: {e}");
        }
        if let Ok(dir) = try_output_dir() {
            let last = dir.join("BENCH_repro_last.json");
            if let Err(e) = artifact::write_atomic(&last, &(record.render() + "\n")) {
                eprintln!("repro: could not write {}: {e}", last.display());
            }
        }
    }
    if obs::enabled() {
        println!("\n--- metrics (vardelay-obs) ---\n{}", obs::snapshot());
    }
}

/// `repro compare [target]` — the regression gates of
/// [`journal::GATES`]. With a target, runs that one gate; bare, runs
/// every gate, requiring only `all` (the others arm themselves once
/// their records exist). Exit 0 when every verdict is ok, 1 when one
/// regressed, 2 when a required gate has too few comparable records,
/// the journal is unreadable, or the target is unknown.
fn run_compare(target: Option<&str>) -> ! {
    let gates: Vec<&journal::Gate> = match target {
        None => journal::GATES.iter().collect(),
        Some(name) => match journal::gate(name) {
            Some(gate) => vec![gate],
            None => {
                let targets: Vec<String> = journal::GATES
                    .iter()
                    .map(|g| format!("{:?}", g.target))
                    .collect();
                eprintln!(
                    "repro compare: unknown target {name:?} (expected one of: {})",
                    targets.join(", ")
                );
                std::process::exit(2);
            }
        },
    };
    let records = match journal::load(Path::new(JOURNAL_PATH)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("repro compare: {e}");
            std::process::exit(2);
        }
    };
    let mut regressed = false;
    for gate in gates {
        match journal::evaluate(gate, &records) {
            Ok(verdict) => {
                println!("repro compare: {verdict}");
                regressed |= verdict.regressed;
            }
            Err(journal::CompareError::TooFewRecords { .. })
                if target.is_none() && gate.target != "all" => {}
            Err(e) => {
                eprintln!("repro compare: {e}");
                std::process::exit(2);
            }
        }
    }
    std::process::exit(i32::from(regressed));
}

/// `repro serve` — runs the standalone delay-control server until a
/// wire `shutdown` request arrives, then drains gracefully and appends
/// a `serve-drain` record to the journal (so the CI smoke job can
/// assert the drain flushed its counters).
fn run_serve() -> ! {
    let handle = or_exit(
        "serve",
        vardelay_serve::serve(vardelay_serve::ServeConfig::from_env()),
    );
    println!("repro serve: listening on {}", handle.addr());
    let report = handle.join();
    println!("repro serve: {report}");
    let record = Value::obj()
        .with("schema", journal::SCHEMA_VERSION)
        .with("experiments", "serve-drain")
        .with("git", git_describe())
        .with("unix_ms", unix_ms())
        .with("requests", report.stats.requests)
        .with("ok", report.stats.ok)
        .with("parse_errors", report.stats.parse_errors)
        .with("bad_requests", report.stats.bad_requests)
        .with("overloaded", report.stats.overloaded)
        .with("deadline_exceeded", report.stats.deadline_exceeded)
        .with("internal_errors", report.stats.internal_errors)
        .with("batched", report.stats.batched);
    append_and_exit("serve", &record)
}

/// Unwraps a subcommand's result, or reports the error and exits 2.
fn or_exit<T>(command: &str, result: std::io::Result<T>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("repro {command}: {e}");
        std::process::exit(2);
    })
}

/// Appends a subcommand's `record` to the journal and exits 0, or 1
/// when the append fails.
fn append_and_exit(command: &str, record: &Value) -> ! {
    if let Err(e) = journal::append(Path::new(JOURNAL_PATH), record) {
        eprintln!("repro {command}: could not append to {JOURNAL_PATH}: {e}");
        std::process::exit(1);
    }
    println!("repro {command}: record appended [journal: {JOURNAL_PATH}]");
    std::process::exit(0);
}

/// `repro serve-bench [mt]` — the serving-SLO benchmarks. With
/// `VARDELAY_SERVE_ADDR` set, drives the server already listening
/// there; otherwise spins up an in-process server on an ephemeral port
/// (sharded per `VARDELAY_SERVE_SHARDS`, default 4, for the `mt`
/// campaign), drives it, and drains it. The single-tenant run appends a
/// `serve-bench` record; `mt` runs the seeded multi-tenant campaign and
/// appends a `serve-bench-mt` record for the fairness gate;
/// `--hot-tenant N` injects the starved-tenant hog.
fn run_serve_bench(args: &[String]) -> ! {
    let tenants = serve_bench::MtLoadConfig::default().tenants;
    let (mt, hot_tenant) = match args {
        [] => (false, None),
        [mode] if mode == "mt" => (true, None),
        [mode, flag, n] if mode == "mt" && flag == "--hot-tenant" => {
            match n.parse::<usize>().ok().filter(|&t| t < tenants) {
                Some(t) => (true, Some(t)),
                None => usage_exit(&format!(
                    "--hot-tenant takes a tenant index in 0..{tenants}, got {n:?}"
                )),
            }
        }
        _ => usage_exit(&format!("bad serve-bench arguments {args:?}")),
    };
    let drive = |addr: std::net::SocketAddr| -> std::io::Result<(String, Value)> {
        if mt {
            let config = serve_bench::MtLoadConfig {
                hot_tenant,
                ..Default::default()
            };
            if let Some(hot) = hot_tenant {
                println!("repro serve-bench: hot-tenant injection on tenant {hot}");
            }
            serve_bench::run_mt_load(addr, &config)
                .map(|report| (report.summary(), report.record(&git_describe(), unix_ms())))
        } else {
            let config = serve_bench::LoadConfig::default();
            serve_bench::run_load(addr, &config)
                .map(|report| (report.summary(), report.record(&git_describe(), unix_ms())))
        }
    };
    let external = std::env::var("VARDELAY_SERVE_ADDR")
        .ok()
        .filter(|a| !a.trim().is_empty());
    let result = match external {
        Some(addr) => {
            let addr: std::net::SocketAddr = match addr.parse() {
                Ok(addr) => addr,
                Err(e) => {
                    eprintln!("repro serve-bench: bad VARDELAY_SERVE_ADDR {addr:?}: {e}");
                    std::process::exit(2);
                }
            };
            println!("repro serve-bench: driving external server at {addr}");
            drive(addr)
        }
        None => {
            let mut config = vardelay_serve::ServeConfig::in_process();
            if mt {
                // The mt campaign exists to exercise the sharded path:
                // default to the standalone shard count unless pinned.
                config.shards = std::env::var("VARDELAY_SERVE_SHARDS")
                    .ok()
                    .and_then(|raw| raw.trim().parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or(4);
            }
            let handle = or_exit("serve-bench", vardelay_serve::serve(config));
            println!(
                "repro serve-bench: in-process server on {} (set VARDELAY_SERVE_ADDR to \
                 drive an external one)",
                handle.addr()
            );
            let result = drive(handle.addr());
            handle.shutdown();
            let drained = handle.join();
            println!("repro serve-bench: {drained}");
            result
        }
    };
    let (summary, record) = or_exit("serve-bench", result);
    println!("{summary}");
    append_and_exit("serve-bench", &record)
}

/// `repro soak` — the self-healing chaos campaign (DESIGN.md §15).
/// Runs drift incidents and network chaos against a live in-process
/// server under seeded load, then appends a `soak` journal record with
/// the measured detection latency, MTTR, and healthy-channel
/// availability for `repro compare soak`. A faults-masked run
/// (`VARDELAY_FAULTS=0`) soaks load only and appends **no** record — a
/// campaign that injected nothing has no healing measurement, and a
/// zero-point record would only pollute the MTTR trajectory.
/// `--no-recal` sabotages healing for the gate's red leg.
fn run_soak(args: &[String]) -> ! {
    let config = match args {
        [] => soak::SoakConfig::default(),
        [flag] if flag == "--no-recal" => soak::SoakConfig::no_recal(),
        _ => usage_exit(&format!("bad soak arguments {args:?}")),
    };
    let report = or_exit("soak", soak::run_soak(&config));
    println!("{}", report.summary());
    if !report.faults_enabled {
        println!(
            "repro soak: fault injection masked (VARDELAY_FAULTS=0); \
             quiet run, journal append skipped"
        );
        std::process::exit(0);
    }
    append_and_exit("soak", &report.record(&git_describe(), unix_ms()))
}

/// `repro restart` — the durable-serving campaign (DESIGN.md §16).
/// Cold boot, crash-shaped stop, warm boot on the same state directory;
/// appends a `restart` journal record with the measured cold/warm start
/// times, restore counters, and byte-level replay divergence for
/// `repro compare restart`. Unlike `repro soak`, a faults-masked run
/// still appends — the cold/warm measurement needs no injection; only
/// the snapshot-sabotage leg is skipped.
fn run_restart() -> ! {
    let report = or_exit(
        "restart",
        restart::run_restart(&restart::RestartConfig::default()),
    );
    println!("{}", report.summary());
    append_and_exit("restart", &report.record(&git_describe(), unix_ms()))
}

/// `repro backends` — the cross-backend comparison campaign
/// (DESIGN.md §17). Measures every [`vardelay_backend::DelayBackend`]
/// kind against its advertised contract, runs the per-backend
/// deskew-under-faults leg, writes `backends_compare.csv`, and appends
/// a `backends` journal record for `repro compare backends`. A
/// contract violation, a reference drift from the directly-driven
/// circuit, or an undetected fault exits 2 — the gate's evidence must
/// never be silently green.
fn run_backends() -> ! {
    let config = backends_campaign::BackendsConfig::from_env();
    let report = backends_campaign::backends_campaign(&config);
    let table = report.table();
    println!("{table}");
    println!("{}", report.summary());
    set_current_experiment("backends");
    save_csv("backends_compare", &table.to_csv());
    let record = report.record(&git_describe(), unix_ms());
    if let Err(e) = journal::append(Path::new(JOURNAL_PATH), &record) {
        eprintln!("repro backends: could not append to {JOURNAL_PATH}: {e}");
        std::process::exit(1);
    }
    println!("repro backends: record appended [journal: {JOURNAL_PATH}]");
    if save_failure_count() > 0 {
        std::process::exit(1);
    }
    let failed = report.contract_violations() > 0
        || report.reference_drift
        || report.faults_detected() < report.faults_expected();
    if failed {
        eprintln!(
            "repro backends: campaign below expectations — {}",
            report.summary()
        );
        std::process::exit(2);
    }
    std::process::exit(0);
}

/// An experiment's name and its entry point.
type Experiment = (&'static str, fn());

/// Every experiment, in the paper's presentation order — the order
/// `repro all` runs them and the order checkpoints are laid down in.
const EXPERIMENTS: &[Experiment] = &[
    ("fig7", fig7),
    ("fig9", fig9),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig2", fig2),
    ("fig1", fig1),
    ("table1", table1),
    ("ablation", ablation_report),
    ("extensions", extensions),
    ("faults", faults),
];

/// Resolves `all` or a comma-separated selection against the experiment
/// table. Duplicate names are collapsed to their first occurrence —
/// `repro fig12,fig12` must not run the experiment twice and
/// double-write its checkpoint. `Err` carries the first unknown name.
fn parse_selection(arg: &str) -> Result<Vec<Experiment>, String> {
    if arg == "all" {
        return Ok(EXPERIMENTS.to_vec());
    }
    let mut picked: Vec<Experiment> = Vec::new();
    for name in arg.split(',').filter(|s| !s.is_empty()) {
        match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some(&entry) => {
                if !picked.iter().any(|(n, _)| *n == entry.0) {
                    picked.push(entry);
                }
            }
            None => return Err(name.to_owned()),
        }
    }
    if picked.is_empty() {
        return Err(arg.to_owned());
    }
    Ok(picked)
}

/// Prints `problem` and the usage, then exits 2.
fn usage_exit(problem: &str) -> ! {
    let names = EXPERIMENTS
        .iter()
        .map(|(n, _)| *n)
        .collect::<Vec<_>>()
        .join(" ");
    eprintln!(
        "repro: {problem}\nusage: repro [all|<name>[,<name>...]] [--resume] | \
         compare [all|serve-bench|fairness|hotpath|soak|restart|backends] | serve | \
         serve-bench [mt [--hot-tenant N]] | soak [--no-recal] | restart | backends\n  \
         names: {names}"
    );
    std::process::exit(2);
}

fn save_failure_count() -> usize {
    SAVE_FAILURES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .len()
}

/// Runs one experiment, under a post-hoc deadline when
/// `VARDELAY_DEADLINE_MS` is set. Returns whether the experiment is
/// checkpointable (completed within budget without panicking).
fn run_experiment(name: &str, f: fn(), budget: Option<Duration>) -> bool {
    let Some(budget) = budget else {
        f();
        return true;
    };
    // One task on the serial runner: the supervisor thread flags the
    // straggler, and even an experiment that never polls the token is
    // caught post-hoc (elapsed > budget ⇒ DeadlineExceeded).
    match Runner::serial()
        .run_with_deadline(1, budget, |_, _deadline: &Deadline| f())
        .pop()
    {
        Some(Ok(())) => true,
        Some(Err(e)) => {
            record_save_failure(format!("experiment {name}: {e}"));
            false
        }
        None => false,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some((command, rest)) = args.split_first() {
        match (command.as_str(), rest) {
            ("compare", []) => run_compare(None),
            ("compare", [target]) => run_compare(Some(target)),
            ("serve", []) => run_serve(),
            ("serve-bench", _) => run_serve_bench(rest),
            ("soak", _) => run_soak(rest),
            ("restart", []) => run_restart(),
            ("backends", []) => run_backends(),
            ("compare" | "serve" | "restart" | "backends", _) => {
                usage_exit(&format!("bad {command} arguments {rest:?}"))
            }
            _ => {}
        }
    }
    let mut resume = false;
    let mut selection_arg: Option<String> = None;
    for arg in args {
        match arg.as_str() {
            "--resume" => resume = true,
            "compare" => run_compare(None),
            _ if arg.starts_with('-') => usage_exit(&format!("unknown flag {arg:?}")),
            _ if selection_arg.is_some() => usage_exit(&format!("extra argument {arg:?}")),
            _ => selection_arg = Some(arg),
        }
    }
    let arg = selection_arg.unwrap_or_else(|| "all".to_owned());
    let selection = parse_selection(&arg)
        .unwrap_or_else(|unknown| usage_exit(&format!("unknown experiment {unknown:?}")));

    // A previous run killed mid-write can only leave `.tmp` stage files
    // behind (renames are atomic); clear them before producing output.
    match artifact::sweep_stale_tmp(Path::new("target/repro")) {
        Ok(0) | Err(_) => {}
        Ok(n) => println!("repro: swept {n} stale .tmp file(s) from an interrupted run"),
    }

    let deadline_budget = Deadline::budget_from_env();
    if let Some(b) = deadline_budget {
        println!(
            "repro: per-experiment deadline {} ms (VARDELAY_DEADLINE_MS)",
            b.as_millis()
        );
    }

    let started = Instant::now();
    let mut timings: Vec<(String, f64)> = Vec::new();
    let mut resume_skips = 0usize;
    for &(name, f) in &selection {
        let fp = checkpoint::fingerprint(name);
        let out_dir = try_output_dir();
        let ckpt_dir = out_dir.as_ref().map(|out| checkpoint_dir(out)).ok();
        if resume {
            let matched = out_dir
                .as_ref()
                .ok()
                .zip(ckpt_dir.as_ref())
                .is_some_and(|(out, dir)| {
                    Checkpoint::load(dir, name).is_some_and(|ck| ck.matches(fp, out))
                });
            if matched {
                println!("repro: {name} — checkpoint matches, skipped (--resume)");
                obs::counter("repro.checkpoint_skips").incr();
                resume_skips += 1;
                continue;
            }
        }
        set_current_experiment(name);
        drain_csv_digests(); // discard any leftovers from a failed experiment
        let failures_before = save_failure_count();
        let t0 = Instant::now();
        let completed = {
            let _span = obs::span(&format!("repro.{name}_us"));
            run_experiment(name, f, deadline_budget)
        };
        timings.push((name.to_owned(), t0.elapsed().as_secs_f64()));
        let csvs = drain_csv_digests();
        if completed && save_failure_count() == failures_before {
            let ck = Checkpoint {
                experiment: name.to_owned(),
                fingerprint: fp,
                csvs,
            };
            match ckpt_dir.as_ref().map(|dir| ck.save(dir)) {
                Some(Ok(_)) | None => {}
                // Warn-only: a lost checkpoint just means resume re-runs
                // this experiment.
                Some(Err(e)) => eprintln!("repro: could not checkpoint {name}: {e}"),
            }
        }
        // The chaos gate's seeded crash: dies *after* the checkpoint
        // lands, the worst case for resume correctness.
        vardelay_faults::kill_point(name);
    }
    if resume_skips > 0 {
        println!(
            "repro: resumed — {resume_skips} experiment(s) skipped, {} re-run",
            selection.len() - resume_skips
        );
    }
    write_runtime_record(
        &arg,
        started.elapsed().as_secs_f64(),
        &timings,
        resume_skips,
    );
    let failures = SAVE_FAILURES
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if !failures.is_empty() {
        eprintln!(
            "\nrepro: {} output file(s) could not be written:",
            failures.len()
        );
        for f in failures.iter() {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_selection;

    #[test]
    fn selection_deduplicates_and_preserves_first_occurrence_order() {
        let names = |arg: &str| -> Vec<&'static str> {
            parse_selection(arg)
                .unwrap()
                .into_iter()
                .map(|(n, _)| n)
                .collect()
        };
        assert_eq!(names("fig12,fig12"), vec!["fig12"]);
        assert_eq!(names("fig9,fig12,fig9,fig12,fig9"), vec!["fig9", "fig12"]);
        // Dedup never reorders: first occurrence wins.
        assert_eq!(names("faults,fig7,faults"), vec!["faults", "fig7"]);
    }

    #[test]
    fn selection_rejects_unknown_names_anywhere_in_the_list() {
        assert_eq!(parse_selection("fig12,bogus"), Err("bogus".to_owned()));
        assert_eq!(parse_selection("bogus,fig12"), Err("bogus".to_owned()));
        assert_eq!(parse_selection(""), Err("".to_owned()));
        assert_eq!(parse_selection(",,"), Err(",,".to_owned()));
    }
}
