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
//! ([`SoakConfig::no_recal`], `repro soak --no-recal`) every incident
//! is detected but none ever heals, which is the deterministic red leg
//! the CI gate check pulls.
//!
//! The load is the closed-loop case of the [`load`](crate::load)
//! driver: [`SoakConfig::load_clients`] untagged clients on the
//! [`soak_mix`] over channels `0..DRIFT_CHANNEL`, until the incidents
//! are done.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use vardelay_faults::NetChaos;
use vardelay_obs::json::Value;
use vardelay_runner::task_seed;
use vardelay_serve::{
    serve, ChannelState, Client, Envelope, Request, Response, ServeConfig, ServerHandle,
};
use vardelay_siggen::SplitMix64;

use crate::load::{self, ClientSpec, LoadPlan, Pacing, Tally};
use crate::EXPERIMENT_SEED;

/// The channel every drift incident targets. Load stays on the channels
/// below it, so availability measures the *blast radius* of an incident,
/// not the quarantined channel itself.
pub const DRIFT_CHANNEL: usize = 7;

/// Campaign shape. [`Default`] is what CI runs: four drift incidents of
/// alternating severity against channel [`DRIFT_CHANNEL`], a 25 ms
/// sentinel period, two load clients on the healthy channels, a 30 s
/// per-incident heal budget, and recalibration on.
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
    /// Whether the supervisor rebuilds drifted tables; off sabotages
    /// self-healing (detection and quarantine still run).
    pub recalibrate: bool,
}

/// The per-incident budget of a [`SoakConfig::no_recal`] run. A healthy
/// run detects in ~0.2 s; with nothing able to heal, every incident
/// runs out its budget, so the red leg uses a short one instead of
/// waiting out 4 × 30 s.
pub const NO_RECAL_BUDGET: Duration = Duration::from_secs(5);

impl Default for SoakConfig {
    fn default() -> Self {
        SoakConfig {
            incidents: vec![8.0, 40.0, 6.0, 30.0],
            health_period: Duration::from_millis(25),
            incident_budget: Duration::from_secs(30),
            load_clients: 2,
            load_gap: Duration::from_millis(2),
            seed: EXPERIMENT_SEED,
            recalibrate: true,
        }
    }
}

impl SoakConfig {
    /// The default campaign with recalibration sabotaged and the
    /// [`NO_RECAL_BUDGET`] per incident (`repro soak --no-recal`).
    pub fn no_recal() -> Self {
        SoakConfig {
            recalibrate: false,
            incident_budget: NO_RECAL_BUDGET,
            ..SoakConfig::default()
        }
    }

    /// The driver plan: [`SoakConfig::load_clients`] closed-loop clients
    /// on [`soak_mix`], running until stopped.
    pub fn plan(&self) -> LoadPlan {
        let client = ClientSpec {
            tenant: None,
            requests: None,
            pacing: Pacing::Closed {
                pause: self.load_gap,
            },
        };
        LoadPlan {
            clients: vec![client; self.load_clients],
            mix: soak_mix,
            seed: self.seed,
        }
    }
}

/// The soak's load mix: `set_delay` on a healthy channel
/// (`0..DRIFT_CHANNEL`) at a point of the 7.5 ps grid.
pub fn soak_mix(rng: &mut SplitMix64, _client: usize, _k: usize) -> Request {
    let channel = (rng.next_u64() % DRIFT_CHANNEL as u64) as usize;
    let ps = 7.5 * (rng.next_u64() % 16) as f64;
    Request::SetDelay { channel, ps }
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
    /// Load responses on the healthy channels, by kind. `overloaded`
    /// is backpressure, not an outage, so availability leaves it out.
    pub tally: Tally,
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
            self.tally.attempts(),
            self.tally.ok,
            self.tally.overloaded,
            self.tally.failures(),
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
            .with("attempts", self.tally.attempts())
            .with("ok", self.tally.ok)
            .with("overloaded", self.tally.overloaded)
            .with("failures", self.tally.failures())
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

/// What the incident driver measured.
#[derive(Default)]
struct Incidents {
    injected: u64,
    unhealed: u64,
    detect_us: Vec<u64>,
    mttr_us: Vec<u64>,
}

/// The incident driver: inject, time detection, time recovery. Warms
/// the drifted channel first so incident 1 measures healing, not
/// first-touch calibration.
fn run_incidents(
    config: &SoakConfig,
    handle: &ServerHandle,
    probe: &mut Client,
) -> std::io::Result<Incidents> {
    let mut out = Incidents::default();
    let (_, warm) = probe.call(&Envelope::new(Request::SetDelay {
        channel: DRIFT_CHANNEL,
        ps: 60.0,
    }))?;
    if !matches!(warm, Response::Delay(_)) {
        return Err(std::io::Error::other(format!(
            "drift channel refused before any incident: {warm:?}"
        )));
    }

    for &delta_k in &config.incidents {
        if !handle.inject_drift("", DRIFT_CHANNEL, delta_k) {
            // Masked (VARDELAY_FAULTS=0): let the load soak for a
            // moment anyway so the quiet run's availability is a
            // measurement, not two warm-up requests.
            std::thread::sleep(Duration::from_millis(500));
            break;
        }
        out.injected += 1;
        let t0 = Instant::now();
        let budget = t0 + config.incident_budget;

        // Detection: the sentinel marks the channel unhealthy.
        let mut detected = false;
        while Instant::now() < budget {
            if probe.stats()?.unhealthy >= 1 {
                detected = true;
                out.detect_us.push(t0.elapsed().as_micros() as u64);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if !detected {
            out.unhealed += 1;
            continue;
        }

        // Healing: recalibrated, re-admitted, nothing unhealthy left.
        let mut healed = false;
        while Instant::now() < budget {
            if probe.stats()?.unhealthy == 0
                && handle.channel_state("", DRIFT_CHANNEL) == ChannelState::Healthy
            {
                healed = true;
                out.mttr_us.push(t0.elapsed().as_micros() as u64);
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        if !healed {
            out.unhealed += 1;
        }
    }
    Ok(out)
}

/// Runs the campaign and gathers the report.
///
/// Uses its own in-process server (workers=2, one shard, the
/// configured sentinel period and [`SoakConfig::recalibrate`]).
///
/// # Errors
///
/// Returns an I/O error when the server cannot bind, a load client
/// cannot connect, or the probe client's connection dies; load-client
/// failures mid-run are counted in the report instead.
pub fn run_soak(config: &SoakConfig) -> std::io::Result<SoakReport> {
    vardelay_obs::set_enabled(true);
    let faults_enabled = vardelay_faults::enabled();

    let mut serve_config = ServeConfig::in_process();
    serve_config.workers = 2;
    serve_config.shards = 1;
    serve_config.health_period = Some(config.health_period);
    serve_config.recalibrate = config.recalibrate;
    let handle = serve(serve_config)?;
    let addr = handle.addr();
    let mut probe = Client::connect(addr)?;

    let stop = AtomicBool::new(false);
    let strikes = AtomicU64::new(0);
    let plan = config.plan();
    let started = Instant::now();
    let (load, incidents) = std::thread::scope(|scope| {
        // Seeded closed-loop load on the healthy channels.
        let load = scope.spawn(|| load::drive(addr, &plan, &stop));

        // The misbehaving-client striker (masked along with drift).
        if faults_enabled {
            let (stop, strikes) = (&stop, &strikes);
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

        // Stop the load and the striker however the incidents end, so
        // a failed probe cannot leave the scope waiting on them.
        let incidents = run_incidents(config, &handle, &mut probe);
        stop.store(true, Ordering::Relaxed);
        (load.join().expect("soak load thread panicked"), incidents)
    });
    let tally = load?.tally;
    let mut incidents = incidents?;

    handle.shutdown();
    let drained = handle.join();

    let completed = tally.ok + tally.failures();
    Ok(SoakReport {
        faults_enabled,
        incidents: incidents.injected,
        unhealed: incidents.unhealed,
        detect_p50_us: quantile_us(&mut incidents.detect_us, 0.50),
        detect_p99_us: quantile_us(&mut incidents.detect_us, 0.99),
        mttr_p50_us: quantile_us(&mut incidents.mttr_us, 0.50),
        mttr_p99_us: quantile_us(&mut incidents.mttr_us, 0.99),
        tally,
        availability: if completed == 0 {
            1.0
        } else {
            tally.ok as f64 / completed as f64
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
            tally: Tally {
                ok: 3_990,
                overloaded: 10,
                ..Tally::default()
            },
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
