//! The `campaign` workload: the fourteen experiments `repro all` runs,
//! called through the `vardelay-bench` library on a fixed 2-thread
//! [`Runner`], with both memo caches cleared before every iteration.
//!
//! An op is one experiment (`attempted`, `failed`, `ops_per_s`); the
//! latency sample is one whole campaign per iteration, so `p50_us` is
//! `campaign_s` in µs and `p99_us` the slowest iteration.
//!
//! Result text stays in memory. Every iteration must reproduce the first
//! byte for byte, and the paper anchors must hold; a miss fails that
//! experiment's op. The experiments' inputs are the paper's own (fixed
//! seeds inside `vardelay-bench`), so the workload seed does not change
//! them — varying them would change the anchors being checked.

use std::time::Instant;

use vardelay_analog::clear_characterization_cache;
use vardelay_bench::{ablation, extensions, eyes, faults_campaign, fine_delay, injection, skew};
use vardelay_core::{clear_solve_cache, CombinedDelayCircuit, ModelConfig};
use vardelay_runner::Runner;

use crate::stats::Passes;
use crate::{trace, Report, THREADS};

/// One experiment's in-memory output.
pub struct Output {
    /// Full-precision rendering of every reported value.
    pub text: String,
    /// Data points the experiment reports (series points, table rows, or
    /// one per summary record).
    pub points: usize,
}

type Experiment = fn(Runner) -> Result<Output, String>;

fn record(value: &impl std::fmt::Debug, points: usize) -> Output {
    Output {
        text: format!("{value:?}"),
        points,
    }
}

fn fig7(r: Runner) -> Result<Output, String> {
    let series = fine_delay::fig7_delay_vs_vctrl_with(r, 31);
    let range = fine_delay::fig7_summary(&series).range.as_ps();
    if !(45.0..70.0).contains(&range) {
        return Err(format!("fig7 fine range {range:.2} ps outside 45..70 ps"));
    }
    Ok(Output {
        points: series.len(),
        text: series.to_csv(),
    })
}

fn fig9(_: Runner) -> Result<Output, String> {
    let taps = fine_delay::fig9_coarse_taps();
    if taps.windows(2).any(|w| w[1].measured <= w[0].measured) {
        return Err("fig9 coarse taps are not monotone".to_owned());
    }
    Ok(record(&taps, taps.len()))
}

fn fig15(r: Runner) -> Result<Output, String> {
    let (s4, s2) = fine_delay::fig15_range_vs_frequency_with(r, &fine_delay::fig15_default_freqs());
    Ok(Output {
        points: s4.len() + s2.len(),
        text: s4.to_csv() + &s2.to_csv(),
    })
}

fn fig17(r: Runner) -> Result<Output, String> {
    let series = injection::fig17_injection_sweep_with(r, 6000, 11);
    Ok(Output {
        points: series.len(),
        text: series.to_csv(),
    })
}

fn table1(_: Runner) -> Result<Output, String> {
    let t = fine_delay::table1_requirements();
    if t.total_range.as_ps() < 120.0 {
        return Err(format!(
            "table1 combined range {} below 120 ps",
            t.total_range
        ));
    }
    Ok(record(&t, 3))
}

fn ablation(r: Runner) -> Result<Output, String> {
    let stages = ablation::stage_count_ablation_with(r, 6, 4000);
    let arch = ablation::architecture_comparison_with(r, 4000);
    let ctrl = ablation::control_strategy_ablation_with(r);
    Ok(record(&(&stages, arch, ctrl), stages.len() + 2))
}

fn extensions(_: Runner) -> Result<Output, String> {
    let all = (
        extensions::x1_multichannel(),
        extensions::x2_tolerance(),
        extensions::x3_drift(),
        extensions::b1_baseline_comparison(400),
        extensions::x4_coded_traffic(6000),
    );
    Ok(record(&all, 5))
}

fn faults(r: Runner) -> Result<Output, String> {
    let campaign = faults_campaign::faults_campaign_with(r);
    if campaign.detected() < campaign.expected() || !campaign.degraded_all_ok() {
        return Err(format!("faults campaign: {}", campaign.summary()));
    }
    let table = campaign.table().to_csv();
    Ok(Output {
        points: table.lines().count().saturating_sub(1),
        text: table,
    })
}

/// Every experiment, in `repro all` order.
pub const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("fig7", fig7),
    ("fig9", fig9),
    ("fig12", |_| Ok(record(&eyes::fig12_eye_4g8(8000), 1))),
    ("fig13", |_| Ok(record(&eyes::fig13_eye_6g4(8000), 1))),
    ("fig14", |_| Ok(record(&eyes::fig14_rz_6g4(8000), 1))),
    ("fig15", fig15),
    ("fig16", |_| {
        Ok(record(&injection::fig16_injection(8000), 1))
    }),
    ("fig17", fig17),
    ("fig2", |r| {
        let outcome = skew::fig2_deskew_with(r, 4);
        Ok(record(&outcome, 4))
    }),
    ("fig1", |_| {
        let scan = skew::fig1_eye_alignment();
        Ok(record(&scan, scan.scan.len()))
    }),
    ("table1", table1),
    ("ablation", ablation),
    ("extensions", extensions),
    ("faults", faults),
];

/// Empties both memo caches, so the next solve pays a cold sweep.
pub fn clear_caches() {
    clear_characterization_cache();
    clear_solve_cache();
}

/// The cold start a fresh campaign process pays before its first
/// experiment: both memo caches cleared, the experiment runner built, and
/// the paper prototype's fine-stage calibration swept from scratch (the
/// solve every later calibration in the campaign is served from).
pub fn cold_setup() -> f64 {
    let started = Instant::now();
    clear_caches();
    let runner = Runner::new(THREADS);
    let mut circuit = CombinedDelayCircuit::new(&ModelConfig::paper_prototype(), 1);
    std::hint::black_box(circuit.calibrate_with(runner));
    started.elapsed().as_secs_f64()
}

/// The outcome of one campaign iteration.
pub struct Iteration {
    /// Wall seconds for all fourteen experiments.
    pub wall_s: f64,
    /// Per-experiment wall seconds, in run order.
    pub experiment_s: Vec<f64>,
    /// Per-experiment output, `Err` for a failed anchor or a panic.
    pub outputs: Vec<Result<Output, String>>,
}

/// Runs the fourteen experiments once, from cold caches.
pub fn iterate(runner: Runner) -> Iteration {
    clear_caches();
    let started = Instant::now();
    let mut experiment_s = Vec::with_capacity(EXPERIMENTS.len());
    let mut outputs = Vec::with_capacity(EXPERIMENTS.len());
    for (index, (name, experiment)) in EXPERIMENTS.iter().enumerate() {
        let t0 = Instant::now();
        let output = {
            let _span = trace::span("bench.experiment", index as u64);
            std::panic::catch_unwind(|| experiment(runner))
                .unwrap_or_else(|_| Err(format!("{name} panicked")))
        };
        experiment_s.push(t0.elapsed().as_secs_f64());
        outputs.push(output);
    }
    Iteration {
        wall_s: started.elapsed().as_secs_f64(),
        experiment_s,
        outputs,
    }
}

/// FNV-1a over every experiment's name and text, in `repro all` order.
pub fn digest(texts: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (text, (name, _)) in texts.iter().zip(EXPERIMENTS.iter()) {
        for b in name.bytes().chain([0]).chain(text.bytes()).chain([0]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Runs campaign iterations until `seconds` have been measured (at least
/// one), checking every iteration against the first.
pub fn run(seconds: f64) -> Report {
    let setup_s: Vec<f64> = (0..5).map(|_| cold_setup()).collect();
    let runner = Runner::new(THREADS);
    let mut report = Report {
        setup_s,
        ..Report::default()
    };
    let mut reference: Option<Vec<String>> = None;
    let mut per_experiment: Vec<Vec<f64>> = vec![Vec::new(); EXPERIMENTS.len()];
    let started = Instant::now();
    // What a user waits for is the whole campaign: one latency sample per
    // iteration, one iteration per pass. (Experiments differ in size by
    // three orders of magnitude, so a median over them would fall in the
    // gap between two clusters and jump between runs.)
    let mut passes = Passes::new(1, started);
    while passes.count() == 0 || started.elapsed().as_secs_f64() < seconds {
        let it = iterate(runner);
        passes.record(it.wall_s * 1e6, Instant::now());
        let mut texts = Vec::with_capacity(it.outputs.len());
        for (i, output) in it.outputs.into_iter().enumerate() {
            report.attempted += 1;
            let name = EXPERIMENTS[i].0;
            let text = match output {
                Ok(out) => out.text,
                Err(why) => {
                    report.fail(why);
                    texts.push(String::new());
                    continue;
                }
            };
            per_experiment[i].push(it.experiment_s[i] * 1e3);
            if reference.as_ref().is_some_and(|r| r[i] != text) {
                report.fail(format!("{name}: output differs from the first iteration"));
            } else {
                report.ok += 1;
            }
            texts.push(text);
        }
        if reference.is_none() {
            report
                .notes
                .push(format!("campaign_digest = {:016x}", digest(&texts)));
            reference = Some(texts);
        }
    }
    report.measured_s = started.elapsed().as_secs_f64();
    report.set_passes(passes);
    let medians: Vec<String> = EXPERIMENTS
        .iter()
        .zip(&per_experiment)
        .map(|((name, _), ms)| match ms.is_empty() {
            true => format!("{name}=failed"),
            false => format!("{name}={:.1}", crate::stats::median(ms)),
        })
        .collect();
    report.notes.push(format!(
        "{} iterations; experiment medians (ms): {}",
        report.pass_s.len(),
        medians.join(" ")
    ));
    report
}
