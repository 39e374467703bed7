//! The traced run: per-layer metrics.
//!
//! Every number here comes from a span the harness opens around a call
//! into one crate's public API (see [`crate::trace`]); the program itself
//! carries no instrumentation. The run has three parts, the same for
//! every workload except the first:
//!
//! 1. the overhead pair — the named workload run once with spans off and
//!    once with spans on, in this process (`trace.overhead_pct`);
//! 2. short traced passes of all three workloads, for the counts, ratios
//!    and allocation figures that only exist under load;
//! 3. layer probes: each layer's call repeated on inputs derived from the
//!    seed, one span per call, reported as the median self time.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vardelay_analog::{
    characterization_cache_stats, AnalogBlock, CharacterizedDelay, EdgeTransform,
};
use vardelay_ate::{DegradedPolicy, DeskewEngine, ParallelBus};
use vardelay_backend::{make_backend, BackendKind, BackendSentinel, DelayBackend};
use vardelay_core::{
    solve_cache_stats, CalibrationTable, FineDelayLine, ModelConfig, SentinelConfig,
};
use vardelay_measure::{dual_dirac_tj, tie_sequence};
use vardelay_obs::json::Value;
use vardelay_runner::{task_seed, Runner};
use vardelay_serve::{
    BankId, BankRegistry, ChannelState, DedupTable, DelayReply, Envelope, FairQueue, Request,
    Response, SnapshotStore, Wal, WalRecord, SERVE_SEED,
};
use vardelay_siggen::{BitPattern, EdgeStream, SplitMix64};
use vardelay_units::{BitRate, Time, Voltage};
use vardelay_waveform::Waveform;

use crate::serve_load::{self, CHANNELS};
use crate::{alloc, campaign, stats, trace, Args, Metric, Report, Workload, THREADS};

/// What the traced run produced.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Ops attempted across the traced passes and checked probes.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
}

impl Traced {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }

    fn absorb(&mut self, report: Report) {
        self.attempted += report.attempted;
        self.failed += report.failed;
        self.failures.extend(report.failures);
    }

    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(why());
        }
    }
}

/// Median self time, ns, of the spans named `name`.
fn median_self_ns(selfs: &HashMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    selfs.get(name).map_or(f64::NAN, |v| stats::median(v))
}

/// Calls `f` `reps` times, each inside a span named `name`.
fn probe<T>(name: &'static str, reps: usize, mut f: impl FnMut(usize) -> T) -> T {
    let mut last = None;
    for rep in 0..reps {
        let _span = trace::span(name, rep as u64);
        last = Some(std::hint::black_box(f(rep)));
    }
    last.expect("at least one repetition")
}

/// Median over passes of each pass's median latency, µs.
fn median_p50(report: &Report) -> f64 {
    stats::median(
        &report
            .pass_latency
            .iter()
            .map(|p| p.p50)
            .collect::<Vec<_>>(),
    )
}

fn obs_counter(name: &str) -> u64 {
    vardelay_obs::counter(name).get()
}

/// Runs the traced per-layer measurement.
pub fn traced_run(args: Args) -> Traced {
    let mut out = Traced::default();
    let seed = args.seed;

    overhead_pair(args.workload, seed, &mut out);
    trace::set_enabled(true);
    traced_campaign(&mut out);
    traced_hot(seed, &mut out);
    traced_churn(seed, &mut out);
    probes(seed, &mut out);
    trace::set_enabled(false);

    let spans = trace::spans();
    let selfs = trace::self_times(&spans);
    for (metric, span, unit, per) in SPAN_METRICS {
        let per = match per {
            Per::Scale(scale) => scale,
            Per::Count(count) => out.value(count),
        };
        out.push(metric, median_self_ns(&selfs, span) / per, unit);
    }
    let replay_sum_ns: f64 = REPLAY_LAYERS
        .iter()
        .map(|span| median_self_ns(&selfs, span))
        .sum::<f64>()
        + out.value("serve.queue_hop_ns");
    let wire_p50_us = out.value("bench.wire_p50_us");
    out.push(
        "serve.unattributed_us",
        wire_p50_us - replay_sum_ns / 1e3,
        "us",
    );

    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("perfbench-traces");
    let path = dir.join(format!("{}-{seed}.jsonl", args.workload.name()));
    match trace::write_jsonl(&path, &spans) {
        Ok(()) => println!("  {} spans written to {}", spans.len(), path.display()),
        Err(e) => eprintln!(
            "perfbench: could not write spans to {}: {e}",
            path.display()
        ),
    }
    out.metrics.retain(|m| !HELPERS.contains(&m.name.as_str()));
    out
}

/// Intermediate values other metrics are derived from; not reported.
const HELPERS: [&str; 4] = [
    "bench.wire_p50_us",
    "waveform.samples_per_call",
    "measure.edges_per_call",
    "campaign.points",
];

/// What a span-derived metric divides the median self time (ns) by.
#[derive(Clone, Copy)]
enum Per {
    /// A unit conversion (1e3 for µs, 1e6 for ms).
    Scale(f64),
    /// The work count another metric records, e.g. samples per call.
    Count(&'static str),
}

use Per::{Count, Scale};

/// Span-derived metrics: (metric, span name, unit, divisor).
const SPAN_METRICS: [(&str, &str, &str, Per); 17] = [
    (
        "waveform.render_ns_per_sample",
        "waveform.render",
        "ns",
        Count("waveform.samples_per_call"),
    ),
    (
        "analog.vga_ns_per_sample",
        "analog.vga_process",
        "ns",
        Count("waveform.samples_per_call"),
    ),
    (
        "analog.characterize_ms_per_grid",
        "analog.characterize",
        "ms",
        Scale(1e6),
    ),
    (
        "analog.edge_transform_ns_per_edge",
        "analog.edge_transform",
        "ns",
        Count("measure.edges_per_call"),
    ),
    (
        "analog.edge_transform_vctrls_ns_per_edge",
        "analog.edge_transform_vctrls",
        "ns",
        Count("measure.edges_per_call"),
    ),
    (
        "measure.tie_ns_per_edge",
        "measure.tie",
        "ns",
        Count("measure.edges_per_call"),
    ),
    ("core.calibrate_ms", "core.calibrate", "ms", Scale(1e6)),
    (
        "core.vctrl_solve_ns",
        "core.vctrl_solve",
        "ns",
        Scale(SOLVES_PER_SPAN as f64),
    ),
    (
        "backend.sentinel_probe_ms",
        "backend.sentinel_probe",
        "ms",
        Scale(1e6),
    ),
    ("ate.deskew_ms", "ate.deskew", "ms", Scale(1e6)),
    ("runner.batch_overhead_us", "runner.batch", "us", Scale(1e3)),
    ("obs.json_parse_ns", "obs.json_parse", "ns", Scale(1.0)),
    ("obs.json_render_ns", "obs.json_render", "ns", Scale(1.0)),
    (
        "serve.envelope_parse_ns",
        "serve.envelope_parse",
        "ns",
        Scale(1.0),
    ),
    (
        "serve.response_render_ns",
        "serve.response_render",
        "ns",
        Scale(1.0),
    ),
    (
        "serve.bank_get_hit_ns",
        "serve.bank_get_hit",
        "ns",
        Scale(1.0),
    ),
    (
        "serve.bank_get_miss_ms",
        "serve.bank_get_miss",
        "ms",
        Scale(1e6),
    ),
];

/// The layer calls one replayed `serve_hot` request makes, each measured
/// by its own span; with the queue hop they are the attributed part of a
/// wire round trip.
const REPLAY_LAYERS: [&str; 6] = [
    "obs.json_parse",
    "serve.envelope_parse",
    "serve.bank_get_hit",
    "backend.set_delay.circuit",
    "serve.response_render",
    "obs.json_render",
];

/// PRBS-7 bits rendered by the waveform and VGA probes.
const PROBE_BITS: usize = 256;
/// `vctrl_for_delay` calls per `core.vctrl_solve` span.
const SOLVES_PER_SPAN: usize = 1000;

fn overhead_pair(workload: Workload, seed: u64, out: &mut Traced) {
    let measure = |traced: bool| -> f64 {
        trace::set_enabled(traced);
        let value = match workload {
            Workload::Campaign => campaign::iterate(Runner::new(THREADS)).wall_s,
            Workload::ServeHot => {
                let r = serve_load::run_hot(seed, 3.0);
                r.measured_s / r.ok.max(1) as f64
            }
            Workload::ServeChurn => {
                let r = serve_load::run_churn(seed, 3.0);
                median_p50(&r)
            }
        };
        trace::set_enabled(false);
        value
    };
    let plain = measure(false);
    let traced = measure(true);
    out.push("trace.overhead_pct", 100.0 * (traced - plain) / plain, "%");
    // The cost of one span, for reading the figure above.
    trace::set_enabled(true);
    let started = Instant::now();
    for i in 0..10_000 {
        let _span = trace::span("trace.empty", i);
    }
    out.push(
        "trace.span_cost_ns",
        started.elapsed().as_nanos() as f64 / 10_000.0,
        "ns",
    );
    trace::set_enabled(false);
}

fn traced_campaign(out: &mut Traced) {
    let (hits0, misses0) = characterization_cache_stats();
    let (shits0, smisses0) = solve_cache_stats();
    let allocs0 = alloc::allocations();
    let it = campaign::iterate(Runner::new(THREADS));
    let allocs = alloc::allocations() - allocs0;
    let (hits1, misses1) = characterization_cache_stats();
    let (shits1, smisses1) = solve_cache_stats();
    let mut points = 0;
    for (i, output) in it.outputs.iter().enumerate() {
        out.check(output.is_ok(), || {
            format!(
                "{}: {}",
                campaign::EXPERIMENTS[i].0,
                output.as_ref().err().cloned().unwrap_or_default()
            )
        });
        points += output.as_ref().map_or(0, |o| o.points);
    }
    let ratio = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
    out.push(
        "analog.cache_hit_ratio",
        ratio(hits1 - hits0, misses1 - misses0),
        "count",
    );
    out.push("analog.cache_misses", (misses1 - misses0) as f64, "count");
    out.push(
        "core.solve_cache_hit_ratio",
        ratio(shits1 - shits0, smisses1 - smisses0),
        "count",
    );
    out.push("campaign.points", points as f64, "count");
    out.push(
        "campaign.allocs_per_point",
        allocs as f64 / points.max(1) as f64,
        "count",
    );
}

fn traced_hot(seed: u64, out: &mut Traced) {
    let (handle, _) = match serve_load::boot(serve_load::hot_config()) {
        Ok(booted) => booted,
        Err(e) => return out.check(false, || format!("boot: {e}")),
    };
    let mut report = Report::default();
    let allocs0 = alloc::allocations();
    serve_load::hot_load(handle.addr(), seed, 1.0, &mut report);
    let allocs = alloc::allocations() - allocs0;
    let drain = serve_load::stop(handle);
    if !report.pass_latency.is_empty() {
        out.push("bench.wire_p50_us", median_p50(&report), "us");
    }
    out.push(
        "serve.allocs_per_set_delay",
        allocs as f64 / report.ok.max(1) as f64,
        "count",
    );
    out.push(
        "serve.batch_ratio",
        drain.stats.batched as f64 / report.ok.max(1) as f64,
        "count",
    );
    out.absorb(report);
}

fn traced_churn(seed: u64, out: &mut Traced) {
    let config = serve_load::churn_config(serve_load::fresh_state_dir("churn"));
    let (handle, _) = match serve_load::boot(config) {
        Ok(booted) => booted,
        Err(e) => return out.check(false, || format!("boot: {e}")),
    };
    let names = [
        "serve.bank_builds",
        "serve.bank_evictions",
        "persist.snapshots_unchanged",
        "persist.snapshots_saved",
    ];
    let before: Vec<u64> = names.iter().map(|n| obs_counter(n)).collect();
    let load = serve_load::churn_load(handle.addr(), seed, 4.0);
    let drain = serve_load::stop(handle);
    let delta: Vec<f64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| (obs_counter(n) - b) as f64)
        .collect();
    serve_load::remove_state();
    let ok = load.passes.count() as f64;
    out.push(
        "serve.bank_hit_ratio",
        1.0 - delta[0] / ok.max(1.0),
        "count",
    );
    out.push("serve.bank_builds", delta[0], "count");
    out.push("serve.bank_evictions", delta[1], "count");
    out.push(
        "serve.dedup_hit_ratio",
        drain.stats.dedup_hits as f64 / load.attempted.max(1) as f64,
        "count",
    );
    out.push(
        "serve.snapshot_skip_ratio",
        delta[2] / (delta[2] + delta[3]).max(1.0),
        "count",
    );
    out.push(
        "bench.sched_lag_p99_us",
        stats::percentiles(&mut load.sched_lag_us.clone()).p99,
        "us",
    );
    let mut report = Report {
        attempted: load.attempted,
        ok: ok as u64,
        ..Report::default()
    };
    report.failed = load.attempted.saturating_sub(report.ok);
    report.failures = load.failures;
    out.absorb(report);
}

fn probes(seed: u64, out: &mut Traced) {
    let model = ModelConfig::paper_prototype();
    let quiet = model.quiet();
    let mut rng = SplitMix64::new(task_seed(seed, 0x1a7e));

    // waveform + analog: one PRBS-7 capture through the renderer and the
    // 4-stage VGA chain.
    let stream = EdgeStream::nrz(
        &BitPattern::prbs7(seed, PROBE_BITS),
        BitRate::from_gbps(6.4),
    );
    let wf = probe("waveform.render", 20, |_| {
        Waveform::render(&stream, &model.render)
    });
    out.push("waveform.samples_per_call", wf.len() as f64, "count");
    let mut line = FineDelayLine::new(&quiet, 0);
    line.set_vctrl(Voltage::from_v(0.75));
    probe("analog.vga_process", 20, |_| {
        AnalogBlock::process(&mut line, &wf)
    });

    // Characterization miss and the edge engine built from it.
    let (vctrls, intervals) = line.default_grids();
    let table = probe("analog.characterize", 3, |_| {
        vardelay_analog::clear_characterization_cache();
        line.characterize_with(Runner::new(THREADS), &vctrls, &intervals)
    });
    let data = EdgeStream::nrz(&BitPattern::prbs7(seed, 8000), BitRate::from_gbps(6.4));
    out.push("measure.edges_per_call", data.len() as f64, "count");
    let mut engine = CharacterizedDelay::new(table, Voltage::from_v(0.75), model.chain_rj(5), seed);
    let moved = probe("analog.edge_transform", 20, |_| engine.transform(&data));
    let ramp: Vec<Voltage> = (0..data.len())
        .map(|i| Voltage::from_v(0.2 + 1.1 * (i % 97) as f64 / 96.0))
        .collect();
    probe("analog.edge_transform_vctrls", 20, |_| {
        engine.transform_with_vctrls(&data, &ramp)
    });
    let tj = probe("measure.tie", 20, |_| {
        dual_dirac_tj(&tie_sequence(&moved), 1e-12)
    });
    out.check(tj.is_some(), || {
        "dual-Dirac TJ undefined on the probe capture".to_owned()
    });

    // Cold calibration sweep and its inversion.
    let grid: Vec<Voltage> = (0..17)
        .map(|i| line.vctrl_min().lerp(line.vctrl_max(), i as f64 / 16.0))
        .collect();
    let fine = FineDelayLine::new(&model, SERVE_SEED);
    let cal = probe("core.calibrate", 3, |_| {
        campaign::clear_caches();
        CalibrationTable::from_measurement(&grid, |v| {
            let mut p = fine.clone();
            p.set_vctrl(v);
            p.measure_delay(Time::from_ps(320.0))
        })
    });
    let (lo, hi) = (cal.min_delay().as_ps(), cal.max_delay().as_ps());
    let targets: Vec<Time> = (0..SOLVES_PER_SPAN)
        .map(|_| Time::from_ps(lo + (hi - lo) * rng.next_f64()))
        .collect();
    probe("core.vctrl_solve", 50, |_| {
        targets
            .iter()
            .map(|&t| cal.vctrl_for_delay(t).map_or(0.0, |v| v.as_v()))
            .sum::<f64>()
    });

    // Backends: cold and cache-warm calibration, set_delay, sentinel.
    let grid_ps = serve_load::ps_grid();
    for (k, kind) in BackendKind::ALL.into_iter().enumerate() {
        let cold: Vec<f64> = (0..3)
            .map(|_| {
                campaign::clear_caches();
                let mut b = make_backend(kind, &model, SERVE_SEED);
                let _span = trace::span("backend.calibrate_cold", 0);
                let t0 = Instant::now();
                b.calibrate_with(Runner::new(THREADS));
                t0.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        let cold = stats::median(&cold);
        let mut backend = make_backend(kind, &model, SERVE_SEED);
        let warm = time_ms(5, || {
            let _span = trace::span("backend.calibrate_warm", 0);
            backend.calibrate_with(Runner::new(THREADS));
        });
        out.push(&format!("backend.calibrate_ms.{}", kind.name()), cold, "ms");
        out.push(
            &format!("backend.calibrate_warm_ms.{}", kind.name()),
            warm,
            "ms",
        );
        let mut ns = Vec::new();
        let mut worst: f64 = 0.0;
        for i in 0..2000 {
            let target =
                Time::from_ps(grid_ps[(rng.next_u64() % 16) as usize] + 0.37 * (i % 7) as f64);
            let t0 = Instant::now();
            let setting = {
                let _span = trace::span(SET_DELAY_SPANS[k], i);
                backend.set_delay(target)
            };
            ns.push(t0.elapsed().as_nanos() as f64);
            worst = worst.max(setting.map_or(f64::INFINITY, |s| s.predicted_error.as_ps().abs()));
        }
        let lsb = serve_load::lsb_ps(kind);
        out.check(worst <= lsb, || {
            format!("{} set_delay error {worst} ps above one LSB", kind.name())
        });
        out.push(
            &format!("backend.set_delay_ns.{}", kind.name()),
            stats::median(&ns),
            "ns",
        );
    }
    let circuit = {
        let mut b = make_backend(BackendKind::Circuit, &model, SERVE_SEED);
        b.calibrate_with(Runner::serial());
        b
    };
    let sentinel = BackendSentinel::from_backend(
        circuit.as_ref(),
        SentinelConfig {
            probes: 1,
            ..SentinelConfig::default()
        },
    )
    .expect("calibrated backend");
    let report = probe("backend.sentinel_probe", 10, |rep| {
        sentinel.run(task_seed(seed, rep as u64))
    });
    out.check(report.residual.as_ps().abs() < 0.2, || {
        format!("sentinel residual {} on an undrifted bank", report.residual)
    });

    // The bus-4 deskew loop the wire op runs.
    for rep in 0..3u64 {
        let bus_seed = task_seed(seed, 0xd35 + rep);
        let engine = DeskewEngine::new(&model, bus_seed).with_runner(Runner::serial());
        let mut lanes = ParallelBus::with_random_skew(
            4,
            BitRate::from_gbps(3.2),
            Time::from_ps(120.0),
            bus_seed,
        );
        let outcome = {
            let _span = trace::span("ate.deskew", rep);
            engine.run_degraded(&mut lanes, DegradedPolicy::default())
        };
        out.check(
            outcome
                .as_ref()
                .is_ok_and(|o| o.after_peak_to_peak.as_ps() <= 5.0),
            || format!("deskew probe {rep}: {outcome:?}"),
        );
    }

    probe("runner.batch", 200, |_| {
        Runner::new(THREADS).run(16, |i| i * i)
    });

    serve_probes(seed, circuit.as_ref(), out);
}

const SET_DELAY_SPANS: [&str; 3] = [
    "backend.set_delay.circuit",
    "backend.set_delay.vernier",
    "backend.set_delay.dll",
];

/// Median wall ms of `reps` calls.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let ms: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&ms)
}

fn serve_probes(seed: u64, circuit: &dyn DelayBackend, out: &mut Traced) {
    let model = ModelConfig::paper_prototype();
    let table = circuit.calibration().expect("calibrated").clone();

    // Replay the serve_hot request mix through the layers one request
    // walks: parse, bank lookup, solve, render.
    let registry = BankRegistry::new(model.clone(), CHANNELS, SERVE_SEED, 8);
    let id = BankId::new("", BackendKind::Circuit);
    registry.get(&id, Runner::new(THREADS));
    let grid = serve_load::ps_grid();
    let mut rng = SplitMix64::new(task_seed(seed, 0));
    for k in 0..4000u64 {
        let channel = (rng.next_u64() % CHANNELS as u64) as usize;
        let ps = grid[(rng.next_u64() % 16) as usize];
        let line = serve_load::set_delay_line(k, channel, ps);
        let _request = trace::span("bench.request", k);
        let envelope = {
            let _s = trace::span("serve.envelope_parse", k);
            let value = {
                let _j = trace::span("obs.json_parse", k);
                Value::parse(&line)
            };
            value
                .map_err(|e| e.to_string())
                .and_then(|v| Envelope::from_value(&v))
        };
        let Ok(Envelope {
            request: Request::SetDelay { channel, ps },
            ..
        }) = envelope
        else {
            out.check(false, || format!("replayed line did not parse: {line}"));
            continue;
        };
        let bank = {
            let _s = trace::span("serve.bank_get_hit", k);
            registry.get(&id, Runner::serial())
        };
        let setting = {
            let _s = trace::span("backend.set_delay.circuit", k);
            let mut backend = bank.channels[channel].lock().expect("channel lock");
            backend.set_delay(Time::from_ps(ps))
        };
        let Ok(setting) = setting else {
            out.check(false, || format!("replayed set_delay {ps} ps failed"));
            continue;
        };
        let response = Response::Delay(DelayReply {
            channel,
            requested_ps: ps,
            tap: setting.tap,
            dac_code: setting.dac_code,
            vctrl_mv: setting.vctrl.as_mv(),
            predicted_ps: setting.predicted_delay.as_ps(),
            error_ps: setting.predicted_error.as_ps(),
            batched: 1,
        });
        let _s = trace::span("serve.response_render", k);
        let value = response.to_value(Some(k));
        let _j = trace::span("obs.json_render", k);
        std::hint::black_box(value.render());
    }

    // Bank misses: new tenants through an 8-bank LRU.
    for k in 0..16u64 {
        let _s = trace::span("serve.bank_get_miss", k);
        registry.get(
            &BankId::new(format!("miss{k}"), BackendKind::Circuit),
            Runner::serial(),
        );
    }

    // Cross-thread queue hop: push on this thread, pop on another.
    let queue = Arc::new(FairQueue::<Instant>::new(64));
    let hops = Mutex::new(Vec::with_capacity(4000));
    let popped = AtomicU64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while let Some(pushed) = {
                let _s = trace::span("serve.queue_pop", 0);
                queue.pop()
            } {
                hops.lock()
                    .expect("hops")
                    .push(pushed.elapsed().as_nanos() as f64);
                popped.fetch_add(1, Ordering::SeqCst);
            }
        });
        for k in 0..4000u64 {
            {
                let _s = trace::span("serve.queue_push", k);
                let _ = queue.try_push(0, Instant::now());
            }
            while popped.load(Ordering::SeqCst) <= k {
                std::hint::spin_loop();
            }
        }
        queue.close();
    });
    out.push(
        "serve.queue_hop_ns",
        stats::median(&hops.into_inner().expect("hops")),
        "ns",
    );

    // Durability: WAL append, snapshot save (changed / unchanged) and load.
    let dir = serve_load::fresh_state_dir("probe");
    let store =
        match std::fs::create_dir_all(&dir).and_then(|()| SnapshotStore::open(dir.clone(), 1)) {
            Ok(store) => store,
            Err(e) => return out.check(false, || format!("snapshot store: {e}")),
        };
    let (mut wal, _, _) = match Wal::open(&store.wal_path()) {
        Ok(opened) => opened,
        Err(e) => return out.check(false, || format!("wal: {e}")),
    };
    let mut wal_us = Vec::new();
    for k in 0..2000u64 {
        let record = WalRecord::Apply {
            tenant: format!("t{:02}", k % 16),
            channel: (k % 8) as usize,
            ps: grid[(k % 16) as usize],
        };
        let t0 = Instant::now();
        let ok = {
            let _s = trace::span("serve.wal_append", k);
            wal.append(&record).is_ok()
        };
        wal_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if !ok {
            out.check(false, || "wal append failed".to_owned());
            break;
        }
    }
    out.push("serve.wal_append_us", stats::median(&wal_us), "us");
    let shifted = CalibrationTable::from_measurement(table.vctrls(), |v| {
        table.delay_at(v) + Time::from_ps(0.001)
    });
    let tables = [&table, &shifted];
    let mut k = 0usize;
    let mut saved = true;
    let changed = time_ms(20, || {
        k += 1;
        let _s = trace::span("serve.snapshot_save", k as u64);
        saved &= store
            .save_channel("t00", 0, ChannelState::Healthy, tables[k % 2])
            .is_ok();
    });
    let unchanged = time_ms(20, || {
        let _s = trace::span("serve.snapshot_save_unchanged", 0);
        saved &= store
            .save_channel("t00", 0, ChannelState::Healthy, &table)
            .is_ok();
    });
    let mut loaded = true;
    let load_us = time_ms(200, || {
        let _s = trace::span("serve.snapshot_load", 0);
        loaded &= store.load_channel("t00", 0).is_ok();
    }) * 1e3;
    out.check(saved && loaded, || {
        format!("snapshot probe: saved={saved} loaded={loaded}")
    });
    out.push("serve.snapshot_save_ms", changed, "ms");
    out.push("serve.snapshot_save_unchanged_ms", unchanged, "ms");
    out.push("serve.snapshot_load_us", load_us, "us");
    drop(wal);
    serve_load::remove_state();

    // Dedup lookups that hit.
    let dedup = DedupTable::new(64);
    let cached = Response::error(vardelay_serve::ErrorKind::Internal, "x");
    for k in 0..64 {
        dedup.record("t00", &format!("r{k}"), &cached);
    }
    let keys: Vec<String> = (0..64).map(|k| format!("r{k}")).collect();
    let mut hits = 0u64;
    let started = Instant::now();
    {
        let _s = trace::span("serve.dedup_lookup", 0);
        for _ in 0..100 {
            for key in &keys {
                hits += u64::from(dedup.lookup("t00", key).is_some());
            }
        }
    }
    out.push(
        "serve.dedup_lookup_ns",
        started.elapsed().as_nanos() as f64 / 6400.0,
        "ns",
    );
    out.check(hits == 6400, || format!("dedup lookups hit {hits} of 6400"));
}
