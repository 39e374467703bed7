//! The repository benchmark for `vardelay`.
//!
//! `perfbench --workload <campaign|serve_hot|serve_churn> --seed <n>
//! --seconds <s> --trace <0|1>` drives one workload through the public
//! APIs of the workspace crates and prints its metrics; the last line of
//! standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). `--trace 0` reports the end-to-end metrics and must run
//! the `perfbench` binary; `--trace 1` reports the per-layer metrics and
//! must run `perfbench-traced`, the only build with the counting
//! allocator. `METRICS.md` is the metric catalogue.

pub mod alloc;
pub mod campaign;
pub mod layers;
pub mod serve_load;
pub mod stats;
pub mod trace;

use std::process::ExitCode;

/// Worker threads of every runner and server the benchmark builds.
pub const THREADS: usize = 2;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `repro all` experiment campaign, cold caches every iteration.
    Campaign,
    /// Closed-loop pipelined `set_delay` against a warm in-memory server.
    ServeHot,
    /// Open-loop durable multi-tenant, multi-backend churn.
    ServeChurn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "campaign" => Some(Workload::Campaign),
            "serve_hot" => Some(Workload::ServeHot),
            "serve_churn" => Some(Workload::ServeChurn),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Campaign => "campaign",
            Workload::ServeHot => "serve_hot",
            Workload::ServeChurn => "serve_churn",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds of measurement.
    pub seconds: f64,
    /// Whether this is the traced per-layer run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Removes every `VARDELAY_*` variable from this process's environment
/// and pins `VARDELAY_THREADS` to [`THREADS`], so no knob of the program
/// changes what is measured (code that still sizes itself from the
/// environment, such as `Runner::global`, sees exactly two threads).
/// Returns the variables that were removed.
fn pin_environment() -> Vec<String> {
    let removed: Vec<(std::ffi::OsString, String)> = std::env::vars_os()
        .filter(|(k, _)| k.to_string_lossy().starts_with("VARDELAY_"))
        .map(|(k, v)| {
            let shown = format!("{}={}", k.to_string_lossy(), v.to_string_lossy());
            (k, shown)
        })
        .collect();
    for (k, _) in &removed {
        std::env::remove_var(k);
    }
    std::env::set_var("VARDELAY_THREADS", THREADS.to_string());
    removed.into_iter().map(|(_, shown)| shown).collect()
}

/// What one untraced workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Wall seconds of each pass over the workload's fixed script.
    pub pass_s: Vec<f64>,
    /// Latency percentiles of each pass, µs.
    pub pass_latency: Vec<stats::Percentiles>,
    /// Successful ops.
    pub ok: u64,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed: an error reply, a transport failure or a failed check.
    pub failed: u64,
    /// Extra lines for the human-readable summary.
    pub notes: Vec<String>,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

impl Report {
    /// Takes the complete passes of `passes`.
    pub fn set_passes(&mut self, passes: stats::Passes) {
        let passes = passes.complete();
        self.pass_s = passes.wall_s;
        self.pass_latency = passes.summaries;
    }

    /// Counts one failed op and keeps its reason (the first 20).
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The process's resident-set high-water mark, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn end_to_end(report: &Report) -> Result<Vec<Metric>, String> {
    if report.pass_latency.is_empty() || report.setup_s.is_empty() {
        return Err("no successful op was measured".to_owned());
    }
    // Each pass's percentiles come from its own raw samples; the reported
    // value is the median over passes, so one stalled second of a shared
    // machine moves one pass, not the run.
    let per_pass = &report.pass_latency;
    let p50 = stats::median(&per_pass.iter().map(|p| p.p50).collect::<Vec<_>>());
    let p99 = stats::median(&per_pass.iter().map(|p| p.p99).collect::<Vec<_>>());
    let worst_p99 = per_pass.iter().map(|p| p.p99).fold(0.0, f64::max);
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    println!(
        "  latency: {} passes of n={} samples (highest percentile with >=10 samples beyond it: p{:.2}); worst pass p99 = {worst_p99:.1} us",
        per_pass.len(),
        per_pass[0].count,
        per_pass[0].supported_pct,
    );
    Ok(vec![
        Metric::new("setup_s", stats::median(&report.setup_s), "s"),
        Metric::new("campaign_s", stats::median(&report.pass_s), "s"),
        Metric::new("ops_per_s", report.ok as f64 / report.measured_s, "1/s"),
        Metric::new("p50_us", p50, "us"),
        Metric::new("p99_us", p99, "us"),
        Metric::new("peak_rss_mb", rss, "MiB"),
    ])
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

/// Runs the benchmark; `traced_build` says whether the counting
/// allocator is installed (only the `perfbench-traced` binary has it).
pub fn main(traced_build: bool) -> ExitCode {
    let removed = pin_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <campaign|serve_hot|serve_churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.trace != traced_build {
        eprintln!(
            "perfbench: --trace {} must run the {} binary",
            u8::from(args.trace),
            if args.trace {
                "perfbench-traced"
            } else {
                "perfbench"
            }
        );
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "  environment: VARDELAY_THREADS={THREADS} pinned; removed [{}]; available_parallelism={}",
        removed.join(", "),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let started = std::time::Instant::now();
    let steal_before = stats::steal_ticks();
    let (attempted, failed, failures, metrics) = if args.trace {
        let traced = layers::traced_run(args);
        (
            traced.attempted,
            traced.failed,
            traced.failures,
            Ok(traced.metrics),
        )
    } else {
        let report = match args.workload {
            Workload::Campaign => campaign::run(args.seconds),
            Workload::ServeHot => serve_load::run_hot(args.seed, args.seconds),
            Workload::ServeChurn => serve_load::run_churn(args.seed, args.seconds),
        };
        for note in &report.notes {
            println!("  {note}");
        }
        let metrics = end_to_end(&report);
        (report.attempted, report.failed, report.failures, metrics)
    };
    // A shared host's noise shows here: CPU time the hypervisor took
    // during the run, as a share of the machine's CPU time.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal_s = (stats::steal_ticks() - steal_before) as f64 / 100.0;
    println!(
        "  host steal during the run: {:.2} % of CPU time",
        100.0 * steal_s / (started.elapsed().as_secs_f64() * cpus as f64)
    );
    for why in failures.iter().take(20) {
        println!("  FAILED: {why}");
    }
    let metrics = match metrics {
        Ok(m) if m.iter().all(|m| m.value.is_finite()) => m,
        Ok(_) => {
            eprintln!("perfbench: a metric is not finite");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    for m in &metrics {
        println!("  {} = {} {}", m.name, m.value, m.unit);
    }
    println!("  fail_ratio = {fail_ratio} ({failed} of {attempted})");
    print_result(
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        &metrics,
    );
    ExitCode::SUCCESS
}
