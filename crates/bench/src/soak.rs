//! `repro soak` — the self-healing chaos campaign (DESIGN.md §15).
//!
//! Spins up an in-process server with the health supervisor armed,
//! keeps seeded client load running on the healthy channels, lets a
//! [`vardelay_faults::NetChaos`] striker misbehave at the socket layer,
//! and injects a sequence of physical drift incidents into one channel.
//! For every incident the campaign measures **detection latency** (drift
//! injected → the wire `stats` report shows an unhealthy channel) and
//! **MTTR** (drift injected → the channel is back to `Healthy` and the
//! unhealthy count is zero again). The aggregate lands in a `soak`
//! journal record gated by `repro compare soak` via
//! the `soak` row of [`vardelay_obs::journal::GATES`]: availability on the
//! never-drifted channels must hold the floor, every incident must heal,
//! and the p99 MTTR must not blow up run-over-run.
//!
//! With fault injection masked (`VARDELAY_FAULTS=0`) the campaign runs
//! load only — no drift, no chaos — and reports zero incidents and zero
//! quarantines; the caller skips the journal append because a quiet run
//! carries no healing measurement. With recalibration sabotaged
//! (`VARDELAY_SERVE_RECAL=0`) every incident is detected but none ever
//! heals, which is the deterministic red leg the CI gate check pulls.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use vardelay_faults::NetChaos;
use vardelay_obs::json::Value;
use vardelay_runner::task_seed;
use vardelay_serve::{
    serve, ChannelState, Client, Envelope, ErrorKind, Request, Response, ServeConfig, StatsReply,
};
use vardelay_siggen::SplitMix64;

use crate::EXPERIMENT_SEED;

/// The channel every drift incident targets. Load stays on the channels
/// below it, so availability measures the *blast radius* of an incident,
/// not the quarantined channel itself.
pub const DRIFT_CHANNEL: usize = 7;

/// Campaign shape. [`Default`] is what CI runs: four drift incidents of
/// alternating severity against channel [`DRIFT_CHANNEL`], a 25 ms
/// sentinel period, two load clients on the healthy channels, and a
/// 30 s per-incident heal budget.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Temperature offsets (kelvin, absolute from the base model) to
    /// inject, one incident at a time. Consecutive values must differ —
    /// an incident is a *change* of physical truth — and the severity
    /// the sentinel sees is the gap to the **previously calibrated**
    /// offset, not to zero.
    pub incidents: Vec<f64>,
    /// Health-supervisor period for the soaked server.
    pub health_period: Duration,
    /// Per-incident budget for detection + healing; an incident that is
    /// not back to healthy within it counts as `unhealed`.
    pub incident_budget: Duration,
    /// Concurrent load clients on the healthy channels.
    pub load_clients: usize,
    /// Pause between one load client's requests.
    pub load_gap: Duration,
    /// Root seed for the load mix and the chaos strike plan.
    pub seed: u64,
}

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            incidents: vec![8.0, 40.0, 6.0, 30.0],
            health_period: Duration::from_millis(25),
            incident_budget: Duration::from_secs(30),
            load_clients: 2,
            load_gap: Duration::from_millis(2),
            seed: EXPERIMENT_SEED,
        }
    }
}

impl SoakConfig {
    /// The default campaign with the per-incident budget taken from
    /// `VARDELAY_SOAK_BUDGET_MS` when set. A healthy run detects in
    /// ~0.2 s and heals in under 1 s, so the CI red leg — where every
    /// incident runs its full budget because nothing ever heals —
    /// shrinks the budget rather than waiting out 4 × 30 s.
    pub fn from_env() -> Self {
        let mut config = SoakConfig::default();
        if let Some(ms) = std::env::var("VARDELAY_SOAK_BUDGET_MS")
            .ok()
            .and_then(|raw| raw.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
        {
            config.incident_budget = Duration::from_millis(ms);
        }
        config
    }
}

/// What the soak measured.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Whether drift/chaos injection was armed ([`vardelay_faults::enabled`]).
    pub faults_enabled: bool,
    /// Drift incidents injected.
    pub incidents: u64,
    /// Incidents never back to healthy within the budget.
    pub unhealed: u64,
    /// Median drift-injected → unhealthy-visible latency, microseconds.
    pub detect_p50_us: u64,
    /// 99th-percentile detection latency, microseconds.
    pub detect_p99_us: u64,
    /// Median drift-injected → healthy-again time, microseconds.
    pub mttr_p50_us: u64,
    /// 99th-percentile time to recover, microseconds.
    pub mttr_p99_us: u64,
    /// Load requests attempted on the healthy channels.
    pub attempts: u64,
    /// Load requests answered with a delay setting.
    pub ok: u64,
    /// Load requests shed with `overloaded` (backpressure, not an
    /// outage — excluded from the availability denominator).
    pub overloaded: u64,
    /// Load requests that failed hard (unavailable/internal/transport).
    pub failures: u64,
    /// `ok / (ok + failures)` — healthy-channel availability (1.0 when
    /// no load completed at all).
    pub availability: f64,
    /// Network-chaos strikes landed during the campaign.
    pub strikes: u64,
    /// Quarantine entries the server counted.
    pub quarantines: u64,
    /// Background table rebuilds the server counted.
    pub recalibrations: u64,
    /// Partial-line connections the reaper cut.
    pub reaped: u64,
    /// Response writes cut by the IO deadline.
    pub io_timeouts: u64,
    /// The server's worker count (the gate's comparability key).
    pub workers: u64,
    /// Wall clock of the whole campaign.
    pub wall: Duration,
}

impl SoakReport {
    /// One greppable summary line. The CI soak job asserts on
    /// `quarantines=` / `recalibrations=` (zero on the faults-masked
    /// leg) and `unhealed=`.
    pub fn summary(&self) -> String {
        format!(
            "soak: incidents={} unhealed={} detect_p50={} us detect_p99={} us \
             mttr_p50={} us mttr_p99={} us availability={:.4} attempts={} ok={} \
             overloaded={} failures={} strikes={} quarantines={} recalibrations={} \
             reaped={} io_timeouts={} workers={} faults={}",
            self.incidents,
            self.unhealed,
            self.detect_p50_us,
            self.detect_p99_us,
            self.mttr_p50_us,
            self.mttr_p99_us,
            self.availability,
            self.attempts,
            self.ok,
            self.overloaded,
            self.failures,
            self.strikes,
            self.quarantines,
            self.recalibrations,
            self.reaped,
            self.io_timeouts,
            self.workers,
            if self.faults_enabled { "on" } else { "off" }
        )
    }

    /// The journal record `repro compare soak` gates on via
    /// the `soak` row of [`vardelay_obs::journal::GATES`].
    pub fn record(&self, git: &str, unix_ms: u64) -> Value {
        Value::obj()
            .with("schema", vardelay_obs::journal::SCHEMA_VERSION)
            .with("experiments", "soak")
            .with("threads", self.workers)
            .with("git", git)
            .with("unix_ms", unix_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with("incidents", self.incidents)
            .with("unhealed", self.unhealed)
            .with("detect_p50_us", self.detect_p50_us)
            .with("detect_p99_us", self.detect_p99_us)
            .with("mttr_p50_us", self.mttr_p50_us as f64)
            .with("mttr_p99_us", self.mttr_p99_us as f64)
            .with("availability", self.availability)
            .with("attempts", self.attempts)
            .with("ok", self.ok)
            .with("overloaded", self.overloaded)
            .with("failures", self.failures)
            .with("strikes", self.strikes)
            .with("quarantines", self.quarantines)
            .with("recalibrations", self.recalibrations)
            .with("reaped", self.reaped)
            .with("io_timeouts", self.io_timeouts)
    }
}

/// Quantile of a sample set by nearest-rank (0 for an empty set — a
/// campaign with no healed incident has no recovery time to report).
fn quantile_us(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((samples.len() - 1) as f64 * q).round() as usize;
    samples[rank]
}

/// Hard load failures: responses that mean the service broke for a
/// healthy channel. `overloaded` is deliberate shedding and is tallied
/// separately.
fn is_hard_failure(kind: ErrorKind) -> bool {
    !matches!(kind, ErrorKind::Overloaded)
}

#[derive(Default)]
struct LoadCounts {
    attempts: AtomicU64,
    ok: AtomicU64,
    overloaded: AtomicU64,
    failures: AtomicU64,
}

/// One wire `stats` round-trip, retrying through `overloaded` sheds
/// (the chaos striker can legitimately flood a queue for a moment).
fn probe_stats(client: &mut Client, id: u64) -> std::io::Result<StatsReply> {
    loop {
        let (_, response) = client.call(&Envelope {
            id: Some(id),
            deadline_ms: None,
            tenant: None,
            req_id: None,
            backend: None,
            request: Request::Stats,
        })?;
        match response {
            Response::Stats(stats) => return Ok(stats),
            Response::Error(err) if err.kind == ErrorKind::Overloaded => {
                std::thread::sleep(Duration::from_millis(5));
            }
            other => return Err(std::io::Error::other(format!("stats probe drew {other:?}"))),
        }
    }
}

/// Runs the campaign and gathers the report.
///
/// Uses its own in-process server (workers=2, one shard, the
/// configured sentinel period); `VARDELAY_SERVE_RECAL=0` in the
/// environment sabotages recalibration exactly as it would for
/// `repro serve`.
///
/// # Errors
///
/// Returns an I/O error when the server cannot bind or the probe
/// client's connection dies; load-client failures mid-run are counted
/// in the report instead.
pub fn run_soak(config: &SoakConfig) -> std::io::Result<SoakReport> {
    vardelay_obs::set_enabled(true);
    let faults_enabled = vardelay_faults::enabled();

    let mut serve_config = ServeConfig::in_process();
    serve_config.workers = 2;
    serve_config.shards = 1;
    serve_config.health_period = Some(config.health_period);
    serve_config.recalibrate = !matches!(
        std::env::var("VARDELAY_SERVE_RECAL").as_deref(),
        Ok("0") | Ok("off") | Ok("false")
    );
    let handle = serve(serve_config)?;
    let addr = handle.addr();
    let mut probe = Client::connect(addr)?;

    let stop = AtomicBool::new(false);
    let counts = LoadCounts::default();
    let strikes = AtomicU64::new(0);
    let started = Instant::now();
    let mut detect_us: Vec<u64> = Vec::new();
    let mut mttr_us: Vec<u64> = Vec::new();
    let mut unhealed = 0u64;
    let mut injected = 0u64;

    let incident_result = std::thread::scope(|scope| -> std::io::Result<()> {
        // Seeded closed-loop load on the healthy channels 0..DRIFT_CHANNEL.
        for client_index in 0..config.load_clients {
            let counts = &counts;
            let stop = &stop;
            let mut client = Client::connect(addr)?;
            let seed = task_seed(config.seed, client_index as u64);
            let gap = config.load_gap;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(seed);
                let mut id = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    id += 1;
                    let channel = (rng.next_u64() % DRIFT_CHANNEL as u64) as usize;
                    let ps = 7.5 * (rng.next_u64() % 16) as f64;
                    counts.attempts.fetch_add(1, Ordering::Relaxed);
                    match client.call(&Envelope {
                        id: Some(id),
                        deadline_ms: None,
                        tenant: None,
                        req_id: None,
                        backend: None,
                        request: Request::SetDelay { channel, ps },
                    }) {
                        Ok((_, Response::Delay(_))) => {
                            counts.ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok((_, Response::Error(err))) if !is_hard_failure(err.kind) => {
                            counts.overloaded.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            counts.failures.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // A dead socket fails this request and every
                            // later one unless we reconnect.
                            counts.failures.fetch_add(1, Ordering::Relaxed);
                            if let Ok(fresh) = Client::connect(addr) {
                                client = fresh;
                            }
                        }
                    }
                    std::thread::sleep(gap);
                }
            });
        }

        // The misbehaving-client striker (masked along with drift).
        if faults_enabled {
            let stop = &stop;
            let strikes = &strikes;
            let chaos = NetChaos::new(task_seed(config.seed, 0xc4a05));
            scope.spawn(move || {
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if matches!(chaos.strike(addr, n), Ok(Some(_))) {
                        strikes.fetch_add(1, Ordering::Relaxed);
                    }
                    n += 1;
                }
            });
        }

        // The incident driver: inject, time detection, time recovery.
        // Warm the drifted channel first so incident 1 measures healing,
        // not first-touch calibration.
        let (_, warm) = probe.call(&Envelope {
            id: Some(1),
            deadline_ms: None,
            tenant: None,
            req_id: None,
            backend: None,
            request: Request::SetDelay {
                channel: DRIFT_CHANNEL,
                ps: 60.0,
            },
        })?;
        if !matches!(warm, Response::Delay(_)) {
            stop.store(true, Ordering::Relaxed);
            return Err(std::io::Error::other(format!(
                "drift channel refused before any incident: {warm:?}"
            )));
        }

        let mut id = 100u64;
        for &delta_k in &config.incidents {
            if !handle.inject_drift("", DRIFT_CHANNEL, delta_k) {
                // Masked (VARDELAY_FAULTS=0): let the load soak for a
                // moment anyway so the quiet run's availability is a
                // measurement, not two warm-up requests.
                std::thread::sleep(Duration::from_millis(500));
                break;
            }
            injected += 1;
            let t0 = Instant::now();
            let budget = t0 + config.incident_budget;

            // Detection: the sentinel marks the channel unhealthy.
            let mut detected = false;
            while Instant::now() < budget {
                id += 1;
                if probe_stats(&mut probe, id)?.unhealthy >= 1 {
                    detected = true;
                    detect_us.push(t0.elapsed().as_micros() as u64);
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if !detected {
                unhealed += 1;
                continue;
            }

            // Healing: recalibrated, re-admitted, nothing unhealthy left.
            let mut healed = false;
            while Instant::now() < budget {
                id += 1;
                let stats = probe_stats(&mut probe, id)?;
                if stats.unhealthy == 0
                    && handle.channel_state("", DRIFT_CHANNEL) == ChannelState::Healthy
                {
                    healed = true;
                    mttr_us.push(t0.elapsed().as_micros() as u64);
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            if !healed {
                unhealed += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        Ok(())
    });
    stop.store(true, Ordering::Relaxed);
    incident_result?;

    handle.shutdown();
    let drained = handle.join();

    let ok = counts.ok.load(Ordering::Relaxed);
    let failures = counts.failures.load(Ordering::Relaxed);
    let completed = ok + failures;
    Ok(SoakReport {
        faults_enabled,
        incidents: injected,
        unhealed,
        detect_p50_us: quantile_us(&mut detect_us, 0.50),
        detect_p99_us: quantile_us(&mut detect_us, 0.99),
        mttr_p50_us: quantile_us(&mut mttr_us, 0.50),
        mttr_p99_us: quantile_us(&mut mttr_us, 0.99),
        attempts: counts.attempts.load(Ordering::Relaxed),
        ok,
        overloaded: counts.overloaded.load(Ordering::Relaxed),
        failures,
        availability: if completed == 0 {
            1.0
        } else {
            ok as f64 / completed as f64
        },
        strikes: strikes.load(Ordering::Relaxed),
        quarantines: drained.stats.quarantines,
        recalibrations: drained.stats.recalibrations,
        reaped: drained.stats.reaped,
        io_timeouts: drained.stats.io_timeouts,
        workers: drained.stats.workers,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_obs::journal;

    fn report(mttr_p99_us: u64, availability: f64, unhealed: u64) -> SoakReport {
        SoakReport {
            faults_enabled: true,
            incidents: 4,
            unhealed,
            detect_p50_us: 30_000,
            detect_p99_us: 60_000,
            mttr_p50_us: mttr_p99_us / 2,
            mttr_p99_us,
            attempts: 4_000,
            ok: 3_990,
            overloaded: 10,
            failures: 0,
            availability,
            strikes: 12,
            quarantines: 3,
            recalibrations: 4,
            reaped: 2,
            io_timeouts: 1,
            workers: 2,
            wall: Duration::from_secs(8),
        }
    }

    #[test]
    fn the_record_round_trips_through_the_soak_gate() {
        let record = report(400_000, 1.0, 0).record("deadbeef", 1_700_000_000_000);
        let reparsed = Value::parse(&record.render()).expect("record renders valid JSON");
        assert_eq!(
            reparsed.get("experiments").and_then(Value::as_str),
            Some("soak")
        );
        let records = vec![record.clone(), record];
        let cmp = journal::evaluate(journal::gate("soak").unwrap(), &records)
            .expect("two identical records compare");
        assert!(!cmp.regressed, "{cmp}");
    }

    #[test]
    fn a_sabotaged_run_turns_the_gate_red_on_unhealed_incidents() {
        // Recalibration off: availability on the healthy channels holds
        // and MTTR is flat-zero, but nothing ever heals — `unhealed`
        // alone must trip the gate.
        let green = report(400_000, 1.0, 0).record("deadbeef", 1_700_000_000_000);
        let mut sabotaged = report(0, 1.0, 4);
        sabotaged.recalibrations = 0;
        sabotaged.mttr_p50_us = 0;
        let records = vec![green, sabotaged.record("deadbeef", 1_700_000_100_000)];
        let cmp =
            journal::evaluate(journal::gate("soak").unwrap(), &records).expect("records compare");
        assert!(cmp.regressed, "{cmp}");
        assert!(cmp.to_string().contains("REGRESSED"), "{cmp}");
    }

    #[test]
    fn the_summary_carries_the_fields_ci_greps() {
        let summary = report(400_000, 1.0, 0).summary();
        for needle in [
            "incidents=4",
            "unhealed=0",
            "availability=1.0000",
            "quarantines=3",
            "recalibrations=4",
            "faults=on",
        ] {
            assert!(summary.contains(needle), "{needle} missing from {summary}");
        }
    }

    #[test]
    fn quantiles_use_nearest_rank_and_default_to_zero() {
        assert_eq!(quantile_us(&mut [], 0.99), 0);
        assert_eq!(quantile_us(&mut [7], 0.50), 7);
        let mut samples = vec![40, 10, 20, 30];
        assert_eq!(quantile_us(&mut samples, 0.99), 40);
        assert_eq!(quantile_us(&mut samples, 0.50), 30);
    }
}
