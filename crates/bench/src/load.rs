//! The one serving load driver (DESIGN.md §12): `repro serve-bench` is
//! four untagged open-loop clients, `serve-bench mt` sixteen tenants of
//! two clients, and the soak two closed-loop clients on the healthy
//! channels — one testbench swept over parameters.
//!
//! [`LoadPlan::script`] generates each client's requests and open-loop
//! send offsets as a pure function of `(seed, client, k)`, apart from
//! the socket loop: each client draws from its own [`task_seed`]
//! stream, the pacing first, then the mix. [`drive`] runs the scripts
//! over one connection per client.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use vardelay_obs::Histogram;
use vardelay_runner::task_seed;
use vardelay_serve::{Client, Envelope, ErrorKind, Request, Response};
use vardelay_siggen::SplitMix64;

/// When a client sends its next request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// Open loop: send times are fixed up front from seeded exponential
    /// gaps with this mean and never react to server speed. A client
    /// that falls behind its schedule stops sleeping and fires
    /// back-to-back until it catches up, so a slow server faces *more*
    /// concurrent pressure, not politely reduced load.
    Open {
        /// Mean of the exponential inter-arrival gap.
        mean_gap: Duration,
    },
    /// Closed loop: the next request leaves this long after the
    /// previous reply (or transport error).
    Closed {
        /// Pause after each reply.
        pause: Duration,
    },
}

/// One load client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// Tenant index, sent on the wire as [`tenant_label`]; `None` sends
    /// no `tenant` field (the default tenant).
    pub tenant: Option<usize>,
    /// Requests to send; `None` sends until the stop flag is raised.
    pub requests: Option<usize>,
    /// When each request leaves.
    pub pacing: Pacing,
}

/// The request mix: the `k`-th request of client `client`, drawing
/// whatever randomness it needs from the client's seeded stream.
pub type Mix = fn(&mut SplitMix64, usize, usize) -> Request;

/// Everything [`drive`] needs to know.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The clients, in index order (the index seeds each one's stream).
    pub clients: Vec<ClientSpec>,
    /// The request mix shared by every client.
    pub mix: Mix,
    /// Root seed for arrival schedules and request mixes.
    pub seed: u64,
}

/// One scripted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// The envelope as sent: `id` is `client × 1_000_000 + k`.
    pub envelope: Envelope,
    /// Open-loop send time, counted from the start of the run; `None`
    /// for a closed-loop client.
    pub offset: Option<Duration>,
}

/// The wire label for tenant `index` (`t00`, `t01`, …) — the same
/// labels the sharding e2e tests use.
pub fn tenant_label(index: usize) -> String {
    format!("t{index:02}")
}

impl LoadPlan {
    /// Client `client`'s request script. Finite for a counted client,
    /// endless for one that runs until stopped.
    ///
    /// # Panics
    ///
    /// Panics if `client` is not an index into [`LoadPlan::clients`].
    pub fn script(&self, client: usize) -> impl Iterator<Item = Step> + '_ {
        let spec = &self.clients[client];
        let mut rng = SplitMix64::new(task_seed(self.seed, client as u64));
        let mut scheduled_us = 0.0f64;
        (0..spec.requests.unwrap_or(usize::MAX)).map(move |k| {
            let offset = match spec.pacing {
                Pacing::Open { mean_gap } => {
                    let mean_us = mean_gap.as_nanos() as f64 / 1e3;
                    scheduled_us += -mean_us * (1.0 - rng.next_f64()).ln();
                    Some(Duration::from_micros(scheduled_us as u64))
                }
                Pacing::Closed { .. } => None,
            };
            let envelope = Envelope {
                id: Some((client * 1_000_000 + k) as u64),
                deadline_ms: None,
                tenant: spec.tenant.map(tenant_label),
                req_id: None,
                backend: None,
                request: (self.mix)(&mut rng, client, k),
            };
            Step { envelope, offset }
        })
    }
}

/// Response counts by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Successful responses.
    pub ok: u64,
    /// `parse_error` responses.
    pub parse_errors: u64,
    /// `bad_request` responses.
    pub bad_requests: u64,
    /// `overloaded` responses (queue overflow and quota sheds).
    pub overloaded: u64,
    /// `deadline_exceeded` responses.
    pub deadline_exceeded: u64,
    /// `internal` responses.
    pub internal_errors: u64,
    /// `unavailable` responses (a quarantined channel).
    pub unavailable: u64,
    /// Successful responses answered as part of a multi-request batch
    /// (a subset of `ok`).
    pub batched: u64,
    /// Calls that failed at the transport (connection refused/reset).
    pub transport_errors: u64,
}

impl Tally {
    fn count(&mut self, response: &Response) {
        let slot = match response.error_kind() {
            None => {
                if matches!(response, Response::Delay(reply) if reply.batched > 1) {
                    self.batched += 1;
                }
                &mut self.ok
            }
            Some(ErrorKind::ParseError) => &mut self.parse_errors,
            Some(ErrorKind::BadRequest) => &mut self.bad_requests,
            Some(ErrorKind::Overloaded) => &mut self.overloaded,
            Some(ErrorKind::DeadlineExceeded) => &mut self.deadline_exceeded,
            Some(ErrorKind::Internal) => &mut self.internal_errors,
            Some(ErrorKind::Unavailable) => &mut self.unavailable,
        };
        *slot += 1;
    }

    fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.parse_errors += other.parse_errors;
        self.bad_requests += other.bad_requests;
        self.overloaded += other.overloaded;
        self.deadline_exceeded += other.deadline_exceeded;
        self.internal_errors += other.internal_errors;
        self.unavailable += other.unavailable;
        self.batched += other.batched;
        self.transport_errors += other.transport_errors;
    }

    /// Error responses other than `overloaded`.
    pub fn other_errors(&self) -> u64 {
        self.parse_errors
            + self.bad_requests
            + self.deadline_exceeded
            + self.internal_errors
            + self.unavailable
    }

    /// Hard failures: every call answered neither `ok` nor
    /// `overloaded`, transport errors included.
    pub fn failures(&self) -> u64 {
        self.other_errors() + self.transport_errors
    }

    /// Calls made: every response plus every transport failure.
    pub fn attempts(&self) -> u64 {
        self.ok + self.overloaded + self.failures()
    }
}

/// What a [`drive`] run measured.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Response counts over every client.
    pub tally: Tally,
    /// `ok` responses per tenant index (length: highest tenant + 1;
    /// untagged clients are not counted here).
    pub per_tenant_ok: Vec<u64>,
    /// Send→response latency of every answered call, microseconds.
    pub latency: Histogram,
    /// Wall clock from the first send to the last client's exit.
    pub wall: Duration,
}

/// Runs `plan` against a server at `addr` until every counted client is
/// done and, for clients that run until stopped, `stop` is raised.
///
/// Latency histograms require obs to be recording, so this forces
/// [`vardelay_obs::set_enabled`]`(true)` — the load run *is* the
/// measurement, there is nothing to opt out of.
///
/// # Errors
///
/// Returns an I/O error only when the initial connections fail;
/// failures mid-run are counted as `transport_errors` instead.
pub fn drive(addr: SocketAddr, plan: &LoadPlan, stop: &AtomicBool) -> std::io::Result<LoadOutcome> {
    vardelay_obs::set_enabled(true);
    let latency = Histogram::new();
    let connections = plan
        .clients
        .iter()
        .map(|_| Client::connect(addr))
        .collect::<std::io::Result<Vec<Client>>>()?;

    let started = Instant::now();
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let workers: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(index, mut client)| {
                let latency = &latency;
                let pause = match plan.clients[index].pacing {
                    Pacing::Closed { pause } => Some(pause),
                    Pacing::Open { .. } => None,
                };
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    for step in plan.script(index) {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        if let Some(wait) = step.offset.and_then(|offset| {
                            (started + offset).checked_duration_since(Instant::now())
                        }) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        match client.call(&step.envelope) {
                            Ok((_, response)) => {
                                latency.record(sent.elapsed().as_micros() as u64);
                                tally.count(&response);
                            }
                            Err(_) => {
                                // A dead socket fails this call and every
                                // later one unless the client reconnects.
                                tally.transport_errors += 1;
                                if let Ok(fresh) = Client::connect(addr) {
                                    client = fresh;
                                }
                            }
                        }
                        if let Some(pause) = pause {
                            std::thread::sleep(pause);
                        }
                    }
                    tally
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|worker| worker.join().expect("load client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();

    let tenants = plan
        .clients
        .iter()
        .filter_map(|c| c.tenant)
        .max()
        .map_or(0, |t| t + 1);
    let mut per_tenant_ok = vec![0u64; tenants];
    let mut tally = Tally::default();
    for (spec, client) in plan.clients.iter().zip(&tallies) {
        if let Some(tenant) = spec.tenant {
            per_tenant_ok[tenant] += client.ok;
        }
        tally.merge(client);
    }
    Ok(LoadOutcome {
        tally,
        per_tenant_ok,
        latency,
        wall,
    })
}
