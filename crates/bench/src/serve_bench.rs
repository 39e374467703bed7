//! `repro serve-bench`: the serving SLO records.
//!
//! Both campaigns are cases of the one [`load`](crate::load) driver on
//! an **open-loop** arrival schedule: `serve-bench` is `N` untagged
//! clients, `serve-bench mt` is 16 tenants of 2 clients each. Latency is
//! measured send→response per request; backlog the server accumulates
//! under open-loop pressure lands in the tail quantiles.
//!
//! Latencies land in a local obs log₂ histogram; the resulting
//! quantiles plus throughput and per-kind response counts become a
//! `serve-bench` (or `serve-bench-mt`) journal record, gated by
//! `repro compare` via the `serve-bench` and `fairness` rows of
//! [`vardelay_obs::journal::GATES`].

use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::time::Duration;

use vardelay_obs::json::Value;
use vardelay_serve::{Client, Request, StatsReply};
use vardelay_siggen::SplitMix64;

use crate::load::{self, tenant_label, ClientSpec, LoadPlan, Pacing, Tally};
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

/// What the load run measured: the driver's response counts plus the
/// latency quantiles and the server's worker count.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Responses by kind. `parse_errors` and `bad_requests` must be 0:
    /// the generator sends only well-formed, in-range lines.
    pub tally: Tally,
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
        let t = &self.tally;
        format!(
            "serve-bench: requests={} ok={} parse_error={} bad_request={} overloaded={} \
             deadline_exceeded={} internal={} unavailable={} batched={} transport={} \
             throughput={:.0} req/s p50={} us p95={} us p99={} us workers={}",
            t.attempts(),
            t.ok,
            t.parse_errors,
            t.bad_requests,
            t.overloaded,
            t.deadline_exceeded,
            t.internal_errors,
            t.unavailable,
            t.batched,
            t.transport_errors,
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
        let t = &self.tally;
        Value::obj()
            .with("schema", vardelay_obs::journal::SCHEMA_VERSION)
            .with("experiments", "serve-bench")
            .with("threads", self.workers)
            .with("git", git)
            .with("unix_ms", unix_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with("requests", t.attempts())
            .with("ok", t.ok)
            .with("parse_errors", t.parse_errors)
            .with("bad_requests", t.bad_requests)
            .with("overloaded", t.overloaded)
            .with("deadline_exceeded", t.deadline_exceeded)
            .with("internal_errors", t.internal_errors)
            .with("unavailable", t.unavailable)
            .with("batched", t.batched)
            .with("transport_errors", t.transport_errors)
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

impl LoadConfig {
    /// The driver plan: `clients` untagged open-loop clients on the
    /// [`request_for`] mix.
    pub fn plan(&self) -> LoadPlan {
        let client = ClientSpec {
            tenant: None,
            requests: Some(self.requests_per_client),
            pacing: Pacing::Open {
                mean_gap: self.mean_gap,
            },
        };
        LoadPlan {
            clients: vec![client; self.clients],
            mix: request_for,
            seed: self.seed,
        }
    }
}

/// One authoritative `stats` call for the server-side shape (its
/// worker count is the gates' comparability key).
fn server_stats(addr: SocketAddr) -> Option<StatsReply> {
    Client::connect(addr).and_then(|mut c| c.stats()).ok()
}

/// Runs the load against a server at `addr` and gathers the report.
///
/// # Errors
///
/// Returns an I/O error only when the initial connections fail;
/// failures mid-run are counted as `transport_errors` instead.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> std::io::Result<LoadReport> {
    let run = load::drive(addr, &config.plan(), &AtomicBool::new(false))?;
    let t = run.tally;
    Ok(LoadReport {
        tally: t,
        wall: run.wall,
        throughput_rps: (t.attempts() - t.transport_errors) as f64
            / run.wall.as_secs_f64().max(1e-9),
        p50_us: run.latency.quantile(0.50),
        p95_us: run.latency.quantile(0.95),
        p99_us: run.latency.quantile(0.99),
        workers: server_stats(addr).map_or(0, |stats| stats.workers),
    })
}

/// How much harder a hot tenant pushes than its balanced peers: 10×
/// the requests at one tenth the mean gap. Used by the CI
/// starved-tenant injection (`repro serve-bench mt --hot-tenant N`) to
/// drive the fairness ratio far past the gate.
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
    /// The driver plan: `clients_per_tenant` open-loop clients per
    /// tenant, in tenant order, the hot tenant's scaled by
    /// [`HOT_TENANT_FACTOR`].
    pub fn plan(&self) -> LoadPlan {
        let client = |tenant: usize| {
            let factor = if self.hot_tenant == Some(tenant) {
                HOT_TENANT_FACTOR
            } else {
                1
            };
            ClientSpec {
                tenant: Some(tenant),
                requests: Some(self.requests_per_client * factor),
                pacing: Pacing::Open {
                    mean_gap: self.mean_gap / factor as u32,
                },
            }
        };
        LoadPlan {
            clients: (0..self.tenants)
                .flat_map(|tenant| std::iter::repeat_n(client(tenant), self.clients_per_tenant))
                .collect(),
            mix: request_for,
            seed: self.seed,
        }
    }
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
    /// Responses by kind across all tenants (`overloaded` counts queue
    /// overflow **and** quota sheds).
    pub tally: Tally,
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
            self.tally.attempts(),
            self.tally.ok,
            self.tally.overloaded,
            self.tally.other_errors(),
            self.tally.transport_errors,
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
            .with("requests", self.tally.attempts())
            .with("ok", self.tally.ok)
            .with("overloaded", self.tally.overloaded)
            .with("other_errors", self.tally.other_errors())
            .with("transport_errors", self.tally.transport_errors)
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
/// Per-tenant completions feed the max/min fairness ratio; all
/// latencies share one histogram for the campaign-wide p99.9.
///
/// # Errors
///
/// Returns an I/O error only when the initial connections fail;
/// failures mid-run are counted as `transport_errors` instead.
pub fn run_mt_load(addr: SocketAddr, config: &MtLoadConfig) -> std::io::Result<MtLoadReport> {
    let plan = config.plan();
    let run = load::drive(addr, &plan, &AtomicBool::new(false))?;
    let (workers, shards, quota_rejections) =
        server_stats(addr).map_or((0, 0, 0), |s| (s.workers, s.shards, s.quota_rejections));
    let t = run.tally;
    let mut per_tenant_ok = run.per_tenant_ok;
    per_tenant_ok.resize(config.tenants, 0);
    Ok(MtLoadReport {
        tenants: config.tenants,
        clients: plan.clients.len() as u64,
        tally: t,
        fairness_ratio: fairness_ratio(&per_tenant_ok),
        per_tenant_ok,
        wall: run.wall,
        throughput_rps: t.ok as f64 / run.wall.as_secs_f64().max(1e-9),
        p50_us: run.latency.quantile(0.50),
        p99_us: run.latency.quantile(0.99),
        p999_us: run.latency.quantile(0.999),
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

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_obs::journal;
    use vardelay_runner::task_seed;

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
            tally: Tally {
                ok: 600,
                batched: 12,
                ..Tally::default()
            },
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
            tally: Tally {
                ok: 1280,
                ..Tally::default()
            },
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
