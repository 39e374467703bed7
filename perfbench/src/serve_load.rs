//! The two serving workloads.
//!
//! * `serve_hot` — closed loop: 2 connections, each keeping 8 pipelined
//!   `set_delay` requests in flight, one tenant, 8 channels × a 16-point
//!   ps grid, in-memory server with a warm bank.
//! * `serve_churn` — open loop at [`CHURN_RATE`] requests/s on one
//!   connection (a sender and a receiver thread), durable server with a
//!   fresh state directory, 16 tenants of skewed popularity over the
//!   default 8-bank LRU, three backends, a `req_id` on every request,
//!   a few percent retries, ~5 % `deskew` and ~5 % `inject_jitter`.
//!
//! Both servers are built field by field from an explicit
//! [`ServeConfig`], never from the environment. Every reply is checked:
//! an error reply, a transport failure or a failed check is a failed op.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vardelay_backend::{make_backend, BackendKind};
use vardelay_core::ModelConfig;
use vardelay_obs::json::Value;
use vardelay_runner::task_seed;
use vardelay_serve::{serve, DrainReport, Response, ServeConfig, ServerHandle, SERVE_SEED};
use vardelay_siggen::{BitPattern, EdgeStream, SplitMix64};
use vardelay_units::BitRate;

use crate::stats::{self, Passes};
use crate::{alloc, campaign, trace, Report, THREADS};

/// Channels per tenant bank.
pub const CHANNELS: usize = 8;
/// `serve_hot` connections.
pub const HOT_CONNECTIONS: usize = 2;
/// Requests each `serve_hot` connection keeps in flight.
pub const HOT_PIPELINE: usize = 8;
/// Completed requests per `serve_hot` script pass (`campaign_s`): ~50 ms
/// of work, short enough that most passes miss a host stall, so their
/// median p99 stays put; 1024 samples still leave 10 beyond the p99.
pub const HOT_PASS_OPS: usize = 1024;
/// `serve_churn` offered rate, requests/s.
pub const CHURN_RATE: f64 = 60.0;
/// Completed requests per `serve_churn` script pass (`campaign_s`).
pub const CHURN_PASS_OPS: usize = 300;
/// `serve_churn` tenants.
pub const CHURN_TENANTS: usize = 16;
/// Server boots per run for `setup_s`.
const BOOTS: usize = 4;
/// How long before each due time the open-loop sender stops sleeping.
const SEND_SPIN: Duration = Duration::from_micros(300);

/// The 16-point `set_delay` grid, ps: inside every backend's range.
pub fn ps_grid() -> [f64; 16] {
    std::array::from_fn(|k| 4.0 + 7.5 * k as f64)
}

/// The in-memory server `serve_hot` measures.
pub fn hot_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_depth: 64,
        batch_window: Duration::from_micros(100),
        workers: THREADS,
        shards: 1,
        channels: CHANNELS,
        max_banks: 8,
        quota_rps: None,
        quota_burst: None,
        default_deadline: Duration::from_secs(2),
        chaos: None,
        health_period: None,
        io_timeout: Duration::from_secs(10),
        recalibrate: true,
        state_dir: None,
        wal_compact: 512,
        backend: BackendKind::Circuit,
    }
}

/// The durable server `serve_churn` measures: [`hot_config`] plus a
/// state directory.
pub fn churn_config(state_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        state_dir: Some(state_dir),
        ..hot_config()
    }
}

/// Where durable state goes, relative to the working directory.
const STATE_ROOT: &str = ".perfbench_state";

fn process_state_root() -> PathBuf {
    PathBuf::from(STATE_ROOT).join(std::process::id().to_string())
}

/// A fresh, empty state directory of this process.
pub fn fresh_state_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = process_state_root().join(format!("{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Removes every state directory this process made.
pub fn remove_state() {
    let _ = std::fs::remove_dir_all(process_state_root());
    let _ = std::fs::remove_dir(STATE_ROOT);
}

/// One advertised LSB of `kind`, ps: the bound on `|predicted_error|`.
pub fn lsb_ps(kind: BackendKind) -> f64 {
    make_backend(kind, &ModelConfig::paper_prototype(), SERVE_SEED)
        .caps()
        .resolution
        .as_ps()
}

/// A raw line-protocol connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a 10 s read timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(10)))?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { writer, reader })
    }

    /// Writes one request line.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Reads one response line (without the newline).
    pub fn recv(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }
}

/// A `set_delay` request line, formatted directly rather than through
/// `Envelope::to_value`: the in-process client shares the two cores with
/// the server, so its own JSON work is kept small.
pub fn set_delay_line(id: u64, channel: usize, ps: f64) -> String {
    format!("{{\"op\":\"set_delay\",\"id\":{id},\"channel\":{channel},\"ps\":{ps}}}")
}

/// Boots a server, with both memo caches cleared first, and waits for
/// its first `ok`. Returns the handle and the seconds from `serve()` to
/// that reply.
pub fn boot(config: ServeConfig) -> std::io::Result<(ServerHandle, f64)> {
    campaign::clear_caches();
    let started = Instant::now();
    let handle = serve(config)?;
    let mut conn = Conn::connect(handle.addr())?;
    conn.send(&set_delay_line(0, 0, 40.0))?;
    let line = conn.recv()?;
    let elapsed = started.elapsed().as_secs_f64();
    drop(conn);
    match Response::parse(&line) {
        Ok((_, Response::Delay(_))) => Ok((handle, elapsed)),
        _ => {
            stop(handle);
            Err(std::io::Error::other(format!(
                "first request was not answered ok: {line}"
            )))
        }
    }
}

/// Drains a server and returns its final counters.
pub fn stop(handle: ServerHandle) -> DrainReport {
    handle.shutdown();
    handle.join()
}

/// Boots [`BOOTS`] servers in a row from `config()`, recording each boot
/// as a set-up sample and stopping each before the next. Returns the
/// last one, still running, or `None` (with a failed op) if a boot
/// failed.
fn boot_series(
    report: &mut Report,
    mut config: impl FnMut() -> ServeConfig,
) -> Option<ServerHandle> {
    let mut server = None;
    for _ in 0..BOOTS {
        if let Some(old) = server.take() {
            stop(old);
        }
        match boot(config()) {
            Ok((handle, s)) => {
                report.setup_s.push(s);
                server = Some(handle);
            }
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("boot: {e}"));
                return None;
            }
        }
    }
    server
}

/// Checks one `set_delay` reply: the requested target is echoed, and the
/// solved target is within one LSB — of the request itself when the
/// reply was not batched, of some grid point when it was (a batch
/// answers every waiter with its last target's solve).
pub fn check_delay(response: &Response, channel: usize, ps: f64, lsb: f64) -> Result<(), String> {
    let reply = match response {
        Response::Delay(reply) => reply,
        Response::Error(e) => return Err(format!("{}: {}", e.kind.as_str(), e.detail)),
        other => return Err(format!("unexpected reply {other:?}")),
    };
    if reply.channel != channel || reply.requested_ps != ps {
        return Err(format!(
            "reply for channel {} / {} ps answers channel {channel} / {ps} ps",
            reply.channel, reply.requested_ps
        ));
    }
    let solved_error = if reply.batched <= 1 {
        reply.error_ps.abs()
    } else {
        ps_grid()
            .iter()
            .map(|g| (reply.predicted_ps - g).abs())
            .fold(f64::INFINITY, f64::min)
    };
    if solved_error > lsb {
        return Err(format!(
            "set_delay error {solved_error:.4} ps exceeds one LSB ({lsb:.4} ps)"
        ));
    }
    Ok(())
}

fn check_drain(report: &mut Report, drain: &DrainReport) {
    let s = &drain.stats;
    report.notes.push(format!(
        "server: requests={} ok={} parse_errors={} bad_requests={} overloaded={} batched={} dedup_hits={} banks_resident={}",
        s.requests, s.ok, s.parse_errors, s.bad_requests, s.overloaded, s.batched, s.dedup_hits, s.banks
    ));
    if s.parse_errors + s.bad_requests > 0 {
        report.fail(format!(
            "server counted {} parse_error and {} bad_request replies",
            s.parse_errors, s.bad_requests
        ));
    }
}

// ---------------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------------

/// What one `serve_hot` connection saw.
#[derive(Default)]
struct HotConn {
    ok: u64,
    attempted: u64,
    failures: Vec<String>,
}

fn hot_connection(
    addr: SocketAddr,
    seed: u64,
    until: Instant,
    lsb: f64,
    passes: &Mutex<Passes>,
) -> HotConn {
    alloc::exclude_this_thread();
    let mut out = HotConn::default();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(format!("connect: {e}"));
            return out;
        }
    };
    let grid = ps_grid();
    let mut rng = SplitMix64::new(seed);
    // In-flight requests: id → (sent at, channel, ps). Replies may come
    // back out of order (batching, two workers).
    let mut in_flight: HashMap<u64, (Instant, usize, f64)> = HashMap::with_capacity(HOT_PIPELINE);
    let mut next_id = 0u64;
    loop {
        while in_flight.len() < HOT_PIPELINE && Instant::now() < until {
            let channel = (rng.next_u64() % CHANNELS as u64) as usize;
            let ps = grid[(rng.next_u64() % grid.len() as u64) as usize];
            let id = next_id;
            next_id += 1;
            out.attempted += 1;
            in_flight.insert(id, (Instant::now(), channel, ps));
            if let Err(e) = conn.send(&set_delay_line(id, channel, ps)) {
                out.failures.push(format!("send: {e}"));
                return out;
            }
        }
        if in_flight.is_empty() {
            return out;
        }
        let line = match conn.recv() {
            Ok(line) => line,
            Err(e) => {
                out.failures
                    .push(format!("recv: {e} ({} in flight)", in_flight.len()));
                return out;
            }
        };
        let now = Instant::now();
        let (id, response) = match Response::parse(&line) {
            Ok(parsed) => parsed,
            Err(e) => {
                out.failures.push(format!("unparsable reply {line:?}: {e}"));
                continue;
            }
        };
        let Some((id, (at, channel, ps))) =
            id.and_then(|id| in_flight.remove(&id).map(|sent| (id, sent)))
        else {
            out.failures.push(format!("reply with unknown id: {line}"));
            return out;
        };
        let _span = trace::span("bench.check", id);
        match check_delay(&response, channel, ps, lsb) {
            Ok(()) => {
                out.ok += 1;
                passes
                    .lock()
                    .expect("pass log lock")
                    .record(now.duration_since(at).as_secs_f64() * 1e6, now);
            }
            Err(why) => out.failures.push(why),
        }
    }
}

/// Drives the closed loop against a running server for `seconds`.
pub fn hot_load(addr: SocketAddr, seed: u64, seconds: f64, report: &mut Report) {
    let lsb = lsb_ps(BackendKind::Circuit);
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let passes = Mutex::new(Passes::new(HOT_PASS_OPS, started));
    let conns: Vec<HotConn> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..HOT_CONNECTIONS)
            .map(|c| {
                let passes = &passes;
                s.spawn(move || hot_connection(addr, task_seed(seed, c as u64), until, lsb, passes))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    report.measured_s = started.elapsed().as_secs_f64();
    for conn in conns {
        report.attempted += conn.attempted;
        report.ok += conn.ok;
        for why in conn.failures {
            report.fail(why);
        }
    }
    report.failed = report.attempted - report.ok;
    report.set_passes(passes.into_inner().expect("pass log lock"));
}

/// The `serve_hot` workload.
pub fn run_hot(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let Some(server) = boot_series(&mut report, hot_config) else {
        return report;
    };
    report.notes.push(format!(
        "closed loop: {HOT_CONNECTIONS} connections x {HOT_PIPELINE} pipelined, 1 tenant, {CHANNELS} channels x 16-point grid"
    ));
    hot_load(server.addr(), seed, seconds, &mut report);
    let drain = stop(server);
    check_drain(&mut report, &drain);
    report
}

// ---------------------------------------------------------------------------
// serve_churn
// ---------------------------------------------------------------------------

/// One planned `serve_churn` request.
#[derive(Debug, Clone)]
pub struct Planned {
    /// The request line, without `id` (added at send time).
    pub body: String,
    /// The check the reply must pass.
    pub expect: Expect,
    /// Index of the request this one retries (same tenant and `req_id`).
    pub retry_of: Option<usize>,
}

/// What a planned request's reply must show.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A `set_delay` within one LSB of `backend`.
    Delay {
        /// Channel.
        channel: usize,
        /// Target, ps.
        ps: f64,
        /// Backend answering it.
        backend: BackendKind,
    },
    /// A bus-4 deskew with residual skew ≤ 5 ps.
    Deskew,
    /// An injection that streamed exactly `edges` edges.
    Jitter {
        /// Edge count of the PRBS-7 stimulus.
        edges: usize,
    },
}

/// Requests per stratified block of the churn script.
const BLOCK: usize = 40;
/// Per block: `deskew` and `inject_jitter` requests (5 % each) and
/// retries (2.5 %); the rest are `set_delay`.
const BLOCK_DESKEW: usize = 2;
const BLOCK_INJECT: usize = 2;
const BLOCK_RETRY: usize = 1;

/// The backend a tenant's `set_delay` requests use: tenants rotate over
/// circuit, vernier and dll, so 16 tenant banks compete for 8 slots.
pub fn tenant_backend(tenant: usize) -> BackendKind {
    BackendKind::ALL[tenant % BackendKind::ALL.len()]
}

/// The seeded `serve_churn` request script: `n` requests.
///
/// The script is built in blocks of [`BLOCK`] requests with fixed
/// proportions: every block holds the same op mix, and its tenants are a
/// systematic sample of the Zipf popularity `1/(k+1)^1.1` (t00 is the
/// most popular). The seed picks each block's sampling offset, targets,
/// channels and op order, so seeds differ in sequence, not in mix. A
/// retry repeats a request from the previous block (≥ 0.5 s earlier at
/// the offered rate), long after its reply is due.
pub fn churn_plan(seed: u64, n: usize) -> Vec<Planned> {
    let mut rng = SplitMix64::new(task_seed(seed, 0xc4_u64));
    let mut total = 0.0;
    let cumulative: Vec<f64> = (0..CHURN_TENANTS)
        .map(|k| {
            total += 1.0 / ((k + 1) as f64).powf(1.1);
            total
        })
        .collect();
    let grid = ps_grid();
    let mut plan: Vec<Planned> = Vec::with_capacity(n + BLOCK);
    while plan.len() < n {
        let base = plan.len();
        let mut block: Vec<Planned> = Vec::with_capacity(BLOCK);
        let offset = rng.next_f64();
        let mut slots: Vec<(u64, usize)> = (0..BLOCK)
            .map(|j| {
                let u = (j as f64 + offset) / BLOCK as f64 * total;
                let tenant = cumulative
                    .iter()
                    .position(|&c| u < c)
                    .unwrap_or(CHURN_TENANTS - 1);
                (rng.next_u64(), tenant)
            })
            .collect();
        slots.sort_unstable();
        for (j, &(_, tenant)) in slots.iter().enumerate() {
            let i = base + j;
            if j < BLOCK_RETRY && base >= BLOCK {
                let pick = base - BLOCK + (rng.next_u64() % BLOCK as u64) as usize;
                let original = plan[pick].retry_of.unwrap_or(pick);
                let mut again = plan[original].clone();
                again.retry_of = Some(original);
                block.push(again);
                continue;
            }
            let head = format!("\"tenant\":\"t{tenant:02}\",\"req_id\":\"r{i}\"");
            let planned = if j < BLOCK_RETRY + BLOCK_DESKEW {
                let bus_seed = rng.next_u64() >> 12;
                Planned {
                    body: format!("{{\"op\":\"deskew\",{head},\"bus\":4,\"seed\":{bus_seed}}}"),
                    expect: Expect::Deskew,
                    retry_of: None,
                }
            } else if j < BLOCK_RETRY + BLOCK_DESKEW + BLOCK_INJECT {
                let vpp_mv = [100.0, 300.0, 600.0, 900.0][(rng.next_u64() % 4) as usize];
                let bits = 512;
                let prbs_seed = rng.next_u64() >> 12;
                let edges =
                    EdgeStream::nrz(&BitPattern::prbs7(prbs_seed, bits), BitRate::from_gbps(3.2))
                        .len();
                Planned {
                    body: format!(
                        "{{\"op\":\"inject_jitter\",{head},\"vpp_mv\":{vpp_mv},\"rate_gbps\":3.2,\"bits\":{bits},\"seed\":{prbs_seed}}}"
                    ),
                    expect: Expect::Jitter { edges },
                    retry_of: None,
                }
            } else {
                let backend = tenant_backend(tenant);
                let channel = (rng.next_u64() % CHANNELS as u64) as usize;
                let ps = grid[(rng.next_u64() % grid.len() as u64) as usize];
                Planned {
                    body: format!(
                        "{{\"op\":\"set_delay\",{head},\"backend\":\"{}\",\"channel\":{channel},\"ps\":{ps}}}",
                        backend.name()
                    ),
                    expect: Expect::Delay {
                        channel,
                        ps,
                        backend,
                    },
                    retry_of: None,
                }
            };
            block.push(planned);
        }
        // Op kinds sit at fixed slots; shuffle so they land at seeded
        // positions.
        for k in (1..block.len()).rev() {
            block.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
        }
        plan.extend(block);
    }
    plan.truncate(n);
    plan
}

/// The reply with its `id` removed, re-rendered: what a retry must
/// reproduce byte for byte.
fn body_without_id(line: &str) -> Option<String> {
    match Value::parse(line).ok()? {
        Value::Obj(fields) => {
            Some(Value::Obj(fields.into_iter().filter(|(k, _)| k != "id").collect()).render())
        }
        _ => None,
    }
}

fn check_churn_reply(
    response: &Response,
    expect: &Expect,
    lsbs: &HashMap<BackendKind, f64>,
) -> Result<(), String> {
    match (expect, response) {
        (
            Expect::Delay {
                channel,
                ps,
                backend,
            },
            r,
        ) => check_delay(r, *channel, *ps, lsbs[backend]),
        (Expect::Deskew, Response::Deskew(d)) if d.after_ps <= 5.0 && d.meets_target => Ok(()),
        (Expect::Deskew, Response::Deskew(d)) => {
            Err(format!("deskew residual {:.3} ps above 5 ps", d.after_ps))
        }
        (Expect::Jitter { edges }, Response::Jitter(j)) if j.edges == *edges => Ok(()),
        (Expect::Jitter { edges }, Response::Jitter(j)) => Err(format!(
            "inject_jitter streamed {} edges, expected {edges}",
            j.edges
        )),
        (_, Response::Error(e)) => Err(format!("{}: {}", e.kind.as_str(), e.detail)),
        (_, other) => Err(format!("unexpected reply {other:?}")),
    }
}

/// What the open-loop churn measured.
pub struct ChurnOutcome {
    /// Latency of every passing reply from its scheduled send, µs, in
    /// passes of [`CHURN_PASS_OPS`].
    pub passes: Passes,
    /// How late each send ran behind its schedule, µs.
    pub sched_lag_us: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Failure reasons.
    pub failures: Vec<String>,
    /// Retries whose reply matched the original byte for byte.
    pub retries_matched: u64,
    /// Measured wall seconds.
    pub measured_s: f64,
}

/// Drives the open loop at [`CHURN_RATE`] for `seconds`.
pub fn churn_load(addr: SocketAddr, seed: u64, seconds: f64) -> ChurnOutcome {
    let n = (CHURN_RATE * seconds).ceil() as usize;
    let plan = churn_plan(seed, n);
    let lsbs: HashMap<BackendKind, f64> = BackendKind::ALL
        .into_iter()
        .map(|k| (k, lsb_ps(k)))
        .collect();
    let interval = Duration::from_secs_f64(1.0 / CHURN_RATE);
    let start = Instant::now() + Duration::from_millis(5);
    let mut out = ChurnOutcome {
        passes: Passes::new(CHURN_PASS_OPS, start),
        sched_lag_us: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        retries_matched: 0,
        measured_s: 0.0,
    };
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(format!("connect: {e}"));
            return out;
        }
    };
    let mut writer = match conn.writer.try_clone() {
        Ok(w) => w,
        Err(e) => {
            out.attempted = 1;
            out.failures.push(format!("clone socket: {e}"));
            return out;
        }
    };
    let sent = AtomicU64::new(0);
    std::thread::scope(|s| {
        let sender = s.spawn(|| {
            alloc::exclude_this_thread();
            let mut lags = Vec::with_capacity(n);
            let mut error = None;
            for (i, planned) in plan.iter().enumerate() {
                // Sleep to just short of the due time, then yield until
                // it: a plain sleep wakes ~0.1 ms late, and that lateness
                // would count into every request's latency.
                let due = start + interval * i as u32;
                let now = Instant::now();
                if due > now + SEND_SPIN {
                    std::thread::sleep(due - now - SEND_SPIN);
                }
                while Instant::now() < due {
                    std::thread::yield_now();
                }
                lags.push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                let line = format!("{{\"id\":{i},{}", &planned.body[1..]);
                if let Err(e) = writer
                    .write_all(line.as_bytes())
                    .and_then(|()| writer.write_all(b"\n"))
                {
                    error = Some(format!("send: {e}"));
                    // Unblocks the receiver, which waits for every reply.
                    let _ = writer.shutdown(std::net::Shutdown::Both);
                    break;
                }
                sent.fetch_add(1, Ordering::SeqCst);
            }
            (lags, error)
        });
        alloc::exclude_this_thread();
        let mut received = 0u64;
        let mut bodies: HashMap<usize, String> = HashMap::new();
        let retried: std::collections::HashSet<usize> =
            plan.iter().filter_map(|p| p.retry_of).collect();
        while received < n as u64 {
            let line = match conn.recv() {
                Ok(line) => line,
                Err(e) => {
                    out.failures.push(format!("recv: {e}"));
                    break;
                }
            };
            let now = Instant::now();
            received += 1;
            let Ok((Some(id), response)) = Response::parse(&line) else {
                out.failures
                    .push(format!("unparsable or unidentified reply {line:?}"));
                continue;
            };
            let i = id as usize;
            let Some(planned) = plan.get(i) else {
                out.failures.push(format!("reply with unknown id {id}"));
                continue;
            };
            let _span = trace::span("bench.check", id);
            if let Err(why) = check_churn_reply(&response, &planned.expect, &lsbs) {
                out.failures.push(format!("request {i}: {why}"));
                continue;
            }
            let key = planned.retry_of.unwrap_or(i);
            if planned.retry_of.is_some() || retried.contains(&i) {
                let body = body_without_id(&line).unwrap_or_default();
                match bodies.get(&key) {
                    Some(first) if *first != body => {
                        out.failures
                            .push(format!("retry of request {key} differs: {first} vs {body}"));
                        continue;
                    }
                    Some(_) => out.retries_matched += 1,
                    None => {
                        bodies.insert(key, body);
                    }
                }
            }
            let due = start + interval * i as u32;
            out.passes
                .record(now.duration_since(due).as_secs_f64() * 1e6, now);
        }
        let (lags, error) = sender.join().expect("sender thread panicked");
        out.sched_lag_us = lags;
        out.failures.extend(error);
    });
    out.attempted = sent.load(Ordering::SeqCst);
    out.measured_s = start.elapsed().as_secs_f64();
    out
}

/// The `serve_churn` workload.
pub fn run_churn(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let Some(server) = boot_series(&mut report, || churn_config(fresh_state_dir("churn"))) else {
        remove_state();
        return report;
    };
    let out = churn_load(server.addr(), seed, seconds);
    report.measured_s = out.measured_s;
    report.attempted = out.attempted;
    report.ok = out.passes.count() as u64;
    report.set_passes(out.passes);
    for why in out.failures {
        report.fail(why);
    }
    report.failed = report
        .attempted
        .saturating_sub(report.ok)
        .max(report.failed);
    let mut lags = out.sched_lag_us;
    let lag = stats::percentiles(&mut lags);
    report.notes.push(format!(
        "open loop: {CHURN_RATE} req/s offered on 1 connection, {CHURN_TENANTS} tenants over 8 banks, durable; retries matched = {}; sender lag p50 = {:.1} us, p99 = {:.1} us",
        out.retries_matched, lag.p50, lag.p99
    ));
    let drain = stop(server);
    check_drain(&mut report, &drain);
    remove_state();
    report
}
