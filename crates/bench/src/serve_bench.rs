//! `repro serve-bench`: the in-process load generator and SLO record.
//!
//! Drives a `vardelay-serve` instance with `N` client threads on an
//! **open-loop** arrival schedule: each client's send times are fixed
//! up front from seeded exponential gaps ([`vardelay_runner::task_seed`]
//! per client) and never react to server speed — a client that falls
//! behind its schedule (because responses are slow) stops sleeping and
//! fires back-to-back until it catches up, so a slow server faces
//! *more* concurrent pressure, not politely reduced load. Latency is
//! measured send→response per request; backlog the server accumulates
//! under that pressure lands in the tail quantiles.
//!
//! Latencies land in a local obs log₂ [`Histogram`]; the resulting
//! p50/p95/p99 plus throughput and per-kind response counts become a
//! `serve-bench` journal record, gated by `repro compare` via
//! the `serve-bench` row of [`vardelay_obs::journal::GATES`].

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use vardelay_obs::json::Value;
use vardelay_obs::Histogram;
use vardelay_runner::task_seed;
use vardelay_serve::{Client, Envelope, ErrorKind, Request, Response};
use vardelay_siggen::SplitMix64;

use crate::EXPERIMENT_SEED;

/// Load shape. [`Default`] is the smoke load CI runs: 4 clients × 100
/// requests at a 10 ms mean gap (~400 offered req/s), sized so even a
/// single-core single-worker server absorbs it without shedding — the
/// smoke gate asserts zero `overloaded`.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends.
    pub requests_per_client: usize,
    /// Mean of the exponential inter-arrival gap per client.
    pub mean_gap: Duration,
    /// Root seed for arrival schedules and request mixes.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            requests_per_client: 100,
            mean_gap: Duration::from_millis(10),
            seed: EXPERIMENT_SEED,
        }
    }
}

/// What the load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent (and responses received — strict request/response).
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// `parse_error` responses (must be 0 — the generator sends only
    /// well-formed lines).
    pub parse_errors: u64,
    /// `bad_request` responses (must be 0 likewise).
    pub bad_requests: u64,
    /// `overloaded` responses.
    pub overloaded: u64,
    /// `deadline_exceeded` responses.
    pub deadline_exceeded: u64,
    /// `internal` responses.
    pub internal_errors: u64,
    /// `unavailable` responses (a quarantined channel refusing
    /// `set_delay` while the health loop rebuilds its table).
    pub unavailable: u64,
    /// Responses answered as part of a multi-request batch.
    pub batched: u64,
    /// Transport-level failures (connection refused/reset mid-run).
    pub transport_errors: u64,
    /// Wall clock of the whole run.
    pub wall: Duration,
    /// Completed responses per second.
    pub throughput_rps: f64,
    /// Median send→response latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// The server's worker count (from its `stats` reply) — the
    /// comparability key for the regression gate.
    pub workers: u64,
}

impl LoadReport {
    /// One greppable summary line (the CI smoke job asserts on the
    /// `parse_error=` / `overloaded=` fields).
    pub fn summary(&self) -> String {
        format!(
            "serve-bench: requests={} ok={} parse_error={} bad_request={} overloaded={} \
             deadline_exceeded={} internal={} unavailable={} batched={} transport={} \
             throughput={:.0} req/s p50={} us p95={} us p99={} us workers={}",
            self.requests,
            self.ok,
            self.parse_errors,
            self.bad_requests,
            self.overloaded,
            self.deadline_exceeded,
            self.internal_errors,
            self.unavailable,
            self.batched,
            self.transport_errors,
            self.throughput_rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.workers
        )
    }

    /// The journal record `repro compare` gates on. `git` and `unix_ms`
    /// are the caller's (the repro binary stamps them like its runtime
    /// records).
    pub fn record(&self, git: &str, unix_ms: u64) -> Value {
        Value::obj()
            .with("schema", vardelay_obs::journal::SCHEMA_VERSION)
            .with("experiments", "serve-bench")
            .with("threads", self.workers)
            .with("git", git)
            .with("unix_ms", unix_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with("requests", self.requests)
            .with("ok", self.ok)
            .with("parse_errors", self.parse_errors)
            .with("bad_requests", self.bad_requests)
            .with("overloaded", self.overloaded)
            .with("deadline_exceeded", self.deadline_exceeded)
            .with("internal_errors", self.internal_errors)
            .with("unavailable", self.unavailable)
            .with("batched", self.batched)
            .with("transport_errors", self.transport_errors)
            .with("throughput_rps", self.throughput_rps)
            .with("p50_us", self.p50_us)
            .with("p95_us", self.p95_us)
            .with("p99_us", self.p99_us)
    }
}

/// The deterministic request mix, by client and position. Mostly
/// `set_delay` on a quantized ps grid (so same-channel requests can
/// coalesce), salted with `inject_jitter` and `stats`.
fn request_for(rng: &mut SplitMix64, client: usize, k: usize) -> Request {
    match k % 25 {
        7 => Request::Stats,
        15 => Request::InjectJitter {
            vpp_mv: 40.0 + 10.0 * (client % 4) as f64,
            rate_gbps: 3.2,
            bits: 64,
            seed: rng.next_u64() % 1024 + 1,
        },
        _ => {
            // 8 channels × 16 grid points: plenty of collisions for the
            // batching path. The grid tops out at 112.5 ps, inside the
            // >120 ps combined range the circuit tests pin, so no mix
            // request can draw an out-of-range rejection.
            let channel = (rng.next_u64() % 8) as usize;
            let step = rng.next_u64() % 16;
            Request::SetDelay {
                channel,
                ps: 7.5 * step as f64,
            }
        }
    }
}

/// Runs the load against a server at `addr` and gathers the report.
///
/// Latency histograms require obs to be recording, so this forces
/// [`vardelay_obs::set_enabled`]`(true)` for the duration — the load
/// run *is* the measurement, there is nothing to opt out of.
///
/// # Errors
///
/// Returns an I/O error only when the initial connections fail;
/// failures mid-run are counted as `transport_errors` instead.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> std::io::Result<LoadReport> {
    vardelay_obs::set_enabled(true);
    let latency = Histogram::new();
    let counts = ResponseCounts::default();

    // Connect everything up front so a dead server is a clean error,
    // not a pile of per-thread failures.
    let mut clients: Vec<Client> = Vec::with_capacity(config.clients);
    for _ in 0..config.clients {
        clients.push(Client::connect(addr)?);
    }

    let started = Instant::now();
    std::thread::scope(|scope| {
        for (client_index, mut client) in clients.drain(..).enumerate() {
            let latency = &latency;
            let counts = &counts;
            let config = &config;
            scope.spawn(move || {
                let mut rng = SplitMix64::new(task_seed(config.seed, client_index as u64));
                let mean_us = config.mean_gap.as_micros() as f64;
                let mut scheduled_us = 0.0f64;
                for k in 0..config.requests_per_client {
                    // Exponential inter-arrival gap, fixed by seed: the
                    // schedule does not react to server speed.
                    scheduled_us += -mean_us * (1.0 - rng.next_f64()).ln();
                    let scheduled = started + Duration::from_micros(scheduled_us as u64);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let envelope = Envelope {
                        id: Some((client_index * 1_000_000 + k) as u64),
                        deadline_ms: None,
                        tenant: None,
                        req_id: None,
                        backend: None,
                        request: request_for(&mut rng, client_index, k),
                    };
                    let sent = Instant::now();
                    match client.call(&envelope) {
                        Ok((_, response)) => {
                            latency.record(sent.elapsed().as_micros() as u64);
                            counts.count(&response);
                        }
                        Err(_) => {
                            counts.transport.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall = started.elapsed();

    // One authoritative stats call for the server's worker count (the
    // gate's comparability key).
    let workers = Client::connect(addr)
        .and_then(|mut c| c.call(&Envelope::new(Request::Stats)))
        .ok()
        .and_then(|(_, response)| match response {
            Response::Stats(stats) => Some(stats.workers),
            _ => None,
        })
        .unwrap_or(0);

    let requests = (config.clients * config.requests_per_client) as u64;
    let completed = requests - counts.transport.load(Ordering::Relaxed);
    Ok(LoadReport {
        requests,
        ok: counts.ok.load(Ordering::Relaxed),
        parse_errors: counts.parse_errors.load(Ordering::Relaxed),
        bad_requests: counts.bad_requests.load(Ordering::Relaxed),
        overloaded: counts.overloaded.load(Ordering::Relaxed),
        unavailable: counts.unavailable.load(Ordering::Relaxed),
        deadline_exceeded: counts.deadline_exceeded.load(Ordering::Relaxed),
        internal_errors: counts.internal_errors.load(Ordering::Relaxed),
        batched: counts.batched.load(Ordering::Relaxed),
        transport_errors: counts.transport.load(Ordering::Relaxed),
        wall,
        throughput_rps: completed as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: latency.quantile(0.50),
        p95_us: latency.quantile(0.95),
        p99_us: latency.quantile(0.99),
        workers,
    })
}

/// How much harder a hot tenant pushes than its balanced peers: 10×
/// the requests at one tenth the mean gap. Used by the CI
/// starved-tenant injection (`VARDELAY_BENCH_HOT_TENANT`) to drive the
/// fairness ratio far past the gate.
pub const HOT_TENANT_FACTOR: usize = 10;

/// Multi-tenant load shape. [`Default`] is the seeded campaign CI runs:
/// 16 tenants × 2 clients × 40 requests at a 50 ms mean gap — 32
/// concurrent connections offering ~640 req/s in aggregate, balanced so
/// the max/min per-tenant throughput ratio sits near 1.0 on an honest
/// scheduler.
#[derive(Debug, Clone)]
pub struct MtLoadConfig {
    /// Distinct tenants, labeled `t00..`.
    pub tenants: usize,
    /// Concurrent client connections per tenant.
    pub clients_per_tenant: usize,
    /// Requests each balanced client sends.
    pub requests_per_client: usize,
    /// Mean exponential inter-arrival gap per balanced client.
    pub mean_gap: Duration,
    /// When set, that tenant's clients offer [`HOT_TENANT_FACTOR`]×
    /// the volume at 1/[`HOT_TENANT_FACTOR`] the gap — the
    /// starved-tenant injection the fairness gate must catch.
    pub hot_tenant: Option<usize>,
    /// Root seed for arrival schedules and request mixes.
    pub seed: u64,
}

impl Default for MtLoadConfig {
    fn default() -> Self {
        MtLoadConfig {
            tenants: 16,
            clients_per_tenant: 2,
            requests_per_client: 40,
            mean_gap: Duration::from_millis(50),
            hot_tenant: None,
            seed: EXPERIMENT_SEED,
        }
    }
}

impl MtLoadConfig {
    /// The default campaign, with the hot-tenant injection taken from
    /// `VARDELAY_BENCH_HOT_TENANT` (a tenant index; out-of-range or
    /// non-numeric values are ignored).
    pub fn from_env() -> Self {
        let mut config = MtLoadConfig::default();
        config.hot_tenant = std::env::var("VARDELAY_BENCH_HOT_TENANT")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&t| t < config.tenants);
        config
    }
}

/// The wire label for tenant `index` (`t00`, `t01`, …) — the same
/// labels the sharding e2e tests use.
pub fn tenant_label(index: usize) -> String {
    format!("t{index:02}")
}

/// The sentinel fairness ratio reported when at least one tenant
/// completed zero requests. Large and finite (the journal's JSON
/// renderer has no encoding for ∞) and far past any plausible gate
/// threshold.
pub const STARVED_FAIRNESS: f64 = 1e9;

/// What the multi-tenant campaign measured.
#[derive(Debug, Clone)]
pub struct MtLoadReport {
    /// Tenants driven.
    pub tenants: usize,
    /// Total client connections.
    pub clients: u64,
    /// Requests sent across all tenants.
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// `overloaded` responses (queue overflow **and** quota sheds).
    pub overloaded: u64,
    /// Other error responses (parse/bad-request/deadline/internal).
    pub other_errors: u64,
    /// Transport-level failures mid-run.
    pub transport_errors: u64,
    /// Completed (`ok`) responses per tenant, in tenant order.
    pub per_tenant_ok: Vec<u64>,
    /// Max/min of `per_tenant_ok` ([`STARVED_FAIRNESS`] when a tenant
    /// finished with zero).
    pub fairness_ratio: f64,
    /// Wall clock of the whole campaign.
    pub wall: Duration,
    /// Completed responses per second, all tenants.
    pub throughput_rps: f64,
    /// Median send→response latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds — the SLO the fairness
    /// gate tracks run-over-run.
    pub p999_us: u64,
    /// The server's worker count (the gate's comparability key).
    pub workers: u64,
    /// The server's shard count.
    pub shards: u64,
    /// Quota sheds the server counted during the campaign.
    pub quota_rejections: u64,
    /// The injected hot tenant, if any.
    pub hot_tenant: Option<usize>,
}

impl MtLoadReport {
    /// One greppable summary line (the CI smoke job asserts on
    /// `fairness=` and the error fields).
    pub fn summary(&self) -> String {
        format!(
            "serve-bench-mt: tenants={} clients={} requests={} ok={} overloaded={} \
             other_errors={} transport={} quota_rejected={} fairness={:.2} \
             throughput={:.0} req/s p50={} us p99={} us p999={} us workers={} shards={}{}",
            self.tenants,
            self.clients,
            self.requests,
            self.ok,
            self.overloaded,
            self.other_errors,
            self.transport_errors,
            self.quota_rejections,
            self.fairness_ratio,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.workers,
            self.shards,
            match self.hot_tenant {
                Some(t) => format!(" hot_tenant={t}"),
                None => String::new(),
            }
        )
    }

    /// The journal record `repro compare fairness` gates on via
    /// the `fairness` row of [`vardelay_obs::journal::GATES`].
    pub fn record(&self, git: &str, unix_ms: u64) -> Value {
        let wall_s = self.wall.as_secs_f64().max(1e-9);
        let mut per_tenant = Value::obj();
        for (tenant, &ok) in self.per_tenant_ok.iter().enumerate() {
            per_tenant = per_tenant.with(&tenant_label(tenant), ok as f64 / wall_s);
        }
        let mut record = Value::obj()
            .with("schema", vardelay_obs::journal::SCHEMA_VERSION)
            .with("experiments", "serve-bench-mt")
            .with("threads", self.workers)
            .with("git", git)
            .with("unix_ms", unix_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with("tenants", self.tenants as u64)
            .with("clients", self.clients)
            .with("requests", self.requests)
            .with("ok", self.ok)
            .with("overloaded", self.overloaded)
            .with("other_errors", self.other_errors)
            .with("transport_errors", self.transport_errors)
            .with("quota_rejections", self.quota_rejections)
            .with("shards", self.shards)
            .with("fairness_ratio", self.fairness_ratio)
            .with("per_tenant_rps", per_tenant)
            .with("throughput_rps", self.throughput_rps)
            .with("p50_us", self.p50_us)
            .with("p99_us", self.p99_us)
            .with("p999_us", self.p999_us);
        if let Some(hot) = self.hot_tenant {
            record = record.with("hot_tenant", hot as u64);
        }
        record
    }
}

/// Runs the seeded multi-tenant campaign against a server at `addr`.
///
/// Every client runs the same open-loop exponential schedule as
/// [`run_load`], tagged with its tenant's label; the hot tenant (if
/// injected) runs [`HOT_TENANT_FACTOR`]× requests at
/// 1/[`HOT_TENANT_FACTOR`] the gap. Per-tenant completions feed the
/// max/min fairness ratio; all latencies share one histogram for the
/// campaign-wide p99.9.
///
/// # Errors
///
/// Returns an I/O error only when the initial connections fail;
/// failures mid-run are counted as `transport_errors` instead.
pub fn run_mt_load(addr: SocketAddr, config: &MtLoadConfig) -> std::io::Result<MtLoadReport> {
    vardelay_obs::set_enabled(true);
    let latency = Histogram::new();
    let counts = ResponseCounts::default();
    let per_tenant_ok: Vec<AtomicU64> = (0..config.tenants).map(|_| AtomicU64::new(0)).collect();
    let total_clients = config.tenants * config.clients_per_tenant;

    let mut clients: Vec<Client> = Vec::with_capacity(total_clients);
    for _ in 0..total_clients {
        clients.push(Client::connect(addr)?);
    }

    let requests_for = |tenant: usize| {
        if config.hot_tenant == Some(tenant) {
            config.requests_per_client * HOT_TENANT_FACTOR
        } else {
            config.requests_per_client
        }
    };

    let started = Instant::now();
    std::thread::scope(|scope| {
        for (client_index, mut client) in clients.drain(..).enumerate() {
            let latency = &latency;
            let counts = &counts;
            let config = &config;
            let per_tenant_ok = &per_tenant_ok;
            scope.spawn(move || {
                let tenant = client_index / config.clients_per_tenant;
                let label = tenant_label(tenant);
                let hot = config.hot_tenant == Some(tenant);
                let requests = requests_for(tenant);
                let mut rng = SplitMix64::new(task_seed(config.seed, client_index as u64));
                let mean_us = config.mean_gap.as_micros() as f64
                    / if hot { HOT_TENANT_FACTOR as f64 } else { 1.0 };
                let mut scheduled_us = 0.0f64;
                for k in 0..requests {
                    scheduled_us += -mean_us * (1.0 - rng.next_f64()).ln();
                    let scheduled = started + Duration::from_micros(scheduled_us as u64);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let envelope = Envelope {
                        id: Some((client_index * 1_000_000 + k) as u64),
                        deadline_ms: None,
                        tenant: Some(label.clone()),
                        req_id: None,
                        backend: None,
                        request: request_for(&mut rng, client_index, k),
                    };
                    let sent = Instant::now();
                    match client.call(&envelope) {
                        Ok((_, response)) => {
                            latency.record(sent.elapsed().as_micros() as u64);
                            counts.count(&response);
                            if response.error_kind().is_none() {
                                per_tenant_ok[tenant].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(_) => {
                            counts.transport.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let wall = started.elapsed();

    // One authoritative stats call for the server-side shape (worker
    // count is the gate's comparability key).
    let (workers, shards, quota_rejections) = Client::connect(addr)
        .and_then(|mut c| c.call(&Envelope::new(Request::Stats)))
        .ok()
        .and_then(|(_, response)| match response {
            Response::Stats(stats) => Some((stats.workers, stats.shards, stats.quota_rejections)),
            _ => None,
        })
        .unwrap_or((0, 0, 0));

    let per_tenant_ok: Vec<u64> = per_tenant_ok
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let requests: u64 = (0..config.tenants)
        .map(|t| (requests_for(t) * config.clients_per_tenant) as u64)
        .sum();
    let ok = counts.ok.load(Ordering::Relaxed);
    let overloaded = counts.overloaded.load(Ordering::Relaxed);
    let transport_errors = counts.transport.load(Ordering::Relaxed);
    let completed = requests - transport_errors;
    Ok(MtLoadReport {
        tenants: config.tenants,
        clients: total_clients as u64,
        requests,
        ok,
        overloaded,
        other_errors: completed - ok - overloaded,
        transport_errors,
        fairness_ratio: fairness_ratio(&per_tenant_ok),
        per_tenant_ok,
        wall,
        throughput_rps: ok as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: latency.quantile(0.50),
        p99_us: latency.quantile(0.99),
        p999_us: latency.quantile(0.999),
        workers,
        shards,
        quota_rejections,
        hot_tenant: config.hot_tenant,
    })
}

/// Max/min of per-tenant completion counts; [`STARVED_FAIRNESS`] when
/// any tenant finished with zero, `1.0` for the empty/degenerate case.
fn fairness_ratio(per_tenant_ok: &[u64]) -> f64 {
    let (Some(&max), Some(&min)) = (per_tenant_ok.iter().max(), per_tenant_ok.iter().min()) else {
        return 1.0;
    };
    if min == 0 {
        if max == 0 {
            1.0
        } else {
            STARVED_FAIRNESS
        }
    } else {
        max as f64 / min as f64
    }
}

#[derive(Debug, Default)]
struct ResponseCounts {
    ok: AtomicU64,
    parse_errors: AtomicU64,
    bad_requests: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    internal_errors: AtomicU64,
    unavailable: AtomicU64,
    batched: AtomicU64,
    transport: AtomicU64,
}

impl ResponseCounts {
    fn count(&self, response: &Response) {
        match response.error_kind() {
            None => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                if let Response::Delay(reply) = response {
                    if reply.batched > 1 {
                        self.batched.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Some(ErrorKind::ParseError) => {
                self.parse_errors.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::BadRequest) => {
                self.bad_requests.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::Overloaded) => {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::DeadlineExceeded) => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::Internal) => {
                self.internal_errors.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::Unavailable) => {
                self.unavailable.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_obs::journal;

    #[test]
    fn the_mix_is_deterministic_and_mostly_set_delay() {
        let gen = |client: usize| -> Vec<Request> {
            let mut rng = SplitMix64::new(task_seed(EXPERIMENT_SEED, client as u64));
            (0..100).map(|k| request_for(&mut rng, client, k)).collect()
        };
        assert_eq!(gen(0), gen(0));
        assert_ne!(gen(0), gen(1));
        let mix = gen(0);
        let set_delays = mix
            .iter()
            .filter(|r| matches!(r, Request::SetDelay { .. }))
            .count();
        assert!(set_delays >= 90, "{set_delays}");
        for request in &mix {
            if let Request::SetDelay { channel, ps } = request {
                assert!(*channel < 8);
                assert!((0.0..=120.0).contains(ps));
            }
        }
    }

    #[test]
    fn the_record_round_trips_through_the_serve_gate() {
        let report = LoadReport {
            requests: 600,
            ok: 600,
            parse_errors: 0,
            bad_requests: 0,
            overloaded: 0,
            deadline_exceeded: 0,
            internal_errors: 0,
            unavailable: 0,
            batched: 12,
            transport_errors: 0,
            wall: Duration::from_millis(400),
            throughput_rps: 1500.0,
            p50_us: 511,
            p95_us: 1023,
            p99_us: 2047,
            workers: 4,
        };
        let record = report.record("deadbeef", 1_700_000_000_000);
        let reparsed = Value::parse(&record.render()).expect("record renders valid JSON");
        assert_eq!(
            reparsed.get("experiments").and_then(Value::as_str),
            Some("serve-bench")
        );
        let records = vec![record.clone(), record];
        let cmp = journal::evaluate(journal::gate("serve-bench").unwrap(), &records)
            .expect("two identical records compare");
        assert!(!cmp.regressed, "{cmp}");
    }

    #[test]
    fn the_fairness_ratio_is_max_over_min_with_a_starvation_sentinel() {
        assert_eq!(fairness_ratio(&[]), 1.0);
        assert_eq!(fairness_ratio(&[0, 0, 0]), 1.0);
        assert_eq!(fairness_ratio(&[40, 40, 40]), 1.0);
        assert_eq!(fairness_ratio(&[80, 40]), 2.0);
        assert_eq!(fairness_ratio(&[40, 0, 40]), STARVED_FAIRNESS);
    }

    fn mt_report(fairness: f64, hot: Option<usize>) -> MtLoadReport {
        MtLoadReport {
            tenants: 16,
            clients: 32,
            requests: 1280,
            ok: 1280,
            overloaded: 0,
            other_errors: 0,
            transport_errors: 0,
            per_tenant_ok: vec![80; 16],
            fairness_ratio: fairness,
            wall: Duration::from_secs(2),
            throughput_rps: 640.0,
            p50_us: 511,
            p99_us: 2047,
            p999_us: 4095,
            workers: 4,
            shards: 4,
            quota_rejections: 0,
            hot_tenant: hot,
        }
    }

    #[test]
    fn the_mt_record_round_trips_through_the_fairness_gate() {
        let record = mt_report(1.12, None).record("deadbeef", 1_700_000_000_000);
        let reparsed = Value::parse(&record.render()).expect("record renders valid JSON");
        assert_eq!(
            reparsed.get("experiments").and_then(Value::as_str),
            Some("serve-bench-mt")
        );
        assert!(
            reparsed
                .get("per_tenant_rps")
                .and_then(|v| v.get("t15"))
                .is_some(),
            "per-tenant throughput must be in the record"
        );
        let records = vec![record.clone(), record];
        let cmp = journal::evaluate(journal::gate("fairness").unwrap(), &records)
            .expect("two identical records compare");
        assert!(!cmp.regressed, "{cmp}");
    }

    #[test]
    fn a_hot_tenant_injection_trips_the_fairness_gate() {
        let baseline = mt_report(1.08, None).record("deadbeef", 1_700_000_000_000);
        let mut starved = mt_report(9.7, Some(0));
        starved.per_tenant_ok[0] = 800;
        let injected = starved.record("deadbeef", 1_700_000_100_000);
        assert_eq!(injected.get("hot_tenant").and_then(Value::as_u64), Some(0));
        let records = vec![baseline, injected];
        let cmp = journal::evaluate(journal::gate("fairness").unwrap(), &records)
            .expect("records compare");
        assert!(cmp.regressed, "fairness 9.7 must trip the 2.0 gate: {cmp}");
        assert!(cmp.to_string().contains("REGRESSED"), "{cmp}");
    }
}
