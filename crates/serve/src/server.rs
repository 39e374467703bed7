//! The server: accept thread → consistent-hash routing → per-shard
//! fair queues → per-shard worker pools.
//!
//! Life of a request (DESIGN.md §12 and §14):
//!
//! 1. the accept thread hands each connection to a reader thread;
//! 2. the reader extracts newline-delimited lines (oversized lines are
//!    answered `parse_error` and discarded to the next newline),
//!    parses them, charges the tenant's token bucket (an over-quota
//!    tenant draws `overloaded` before touching any queue), stamps an
//!    admission index and a [`Deadline`](vardelay_runner::Deadline),
//!    routes `(tenant, channel)` through the consistent-hash ring, and
//!    `try_push`es a job into the shard's [`FairQueue`] — a full tenant
//!    lane answers `overloaded` with a retry hint instead of blocking
//!    the socket or crowding out other tenants;
//! 3. a shard worker pops the job (lanes drain deficit-round-robin). A
//!    `set_delay` lead waits out what is left of its batch window,
//!    which counts from admission (a lead that queued a whole window
//!    waits not at all), drains every queued same-tenant same-channel
//!    `set_delay` from its own lane, and answers the whole batch from
//!    one solve on the tenant's cache-calibrated bank (last write
//!    wins). Handlers run under
//!    `catch_unwind`: a cooperative [`DeadlineBail`] becomes a
//!    `deadline_exceeded` response, any other panic (including injected
//!    [`RequestChaos`] kills) becomes an `internal` response, and the
//!    worker survives either way;
//! 4. shutdown (wire request or [`ServerHandle::shutdown`]) stops the
//!    accept loop, readers finish their buffers and exit, every shard
//!    queue is closed, workers drain what was admitted, and
//!    [`ServerHandle::join`] returns the final counters.
//!
//! Tenant banks are instantiated lazily with LRU eviction past
//! `VARDELAY_SERVE_MAX_BANKS` — all banks share one model fingerprint,
//! so lazy calibration and re-admission after eviction answer from the
//! fast-solve cache instead of re-sweeping.
//!
//! Two background loops keep the server honest over months, not
//! milliseconds (DESIGN.md §15): a per-shard **health supervisor**
//! (period `VARDELAY_SERVE_HEALTH_MS`) runs drift sentinels over the
//! resident banks, rebuilds stale tables on a private copy and swaps
//! them in atomically, and quarantines grossly-drifted channels; and a
//! **partial-line reaper** (deadline `VARDELAY_SERVE_IO_TIMEOUT_MS`)
//! cuts connections whose half-sent request has been pending past the
//! IO deadline — the slow-loris case an idle check cannot see, because
//! a byte-dripping client never looks idle.
//!
//! With `VARDELAY_SERVE_STATE_DIR` set the server is also *durable*
//! (DESIGN.md §16): calibration tables and health states persist to a
//! [`SnapshotStore`], state-mutating commits append to a digest-checked
//! [`Wal`] before the response leaves the socket, and a restart
//! warm-starts by restoring snapshots (sentinel-verified per channel),
//! replaying the WAL, and bumping a monotonic `server_epoch` stamped
//! into every response. `req_id`-tagged requests deduplicate through a
//! [`DedupTable`] window that survives the restart via the WAL.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vardelay_ate::{DegradedPolicy, DeskewEngine, ParallelBus};
use vardelay_backend::{BackendKind, BackendSentinel};
use vardelay_core::config::ModelConfig;
use vardelay_core::{
    check_calibration, test_dac, CalibrationTable, CircuitHealth, HealthVerdict, JitterInjector,
    SentinelConfig,
};
use vardelay_faults::RequestChaos;
use vardelay_runner::{
    panic_message, task_seed, worker_threads_from_env, Deadline, DeadlineBail, Runner,
};
use vardelay_siggen::{BitPattern, EdgeStream, SplitMix64};
use vardelay_units::{BitRate, Time, Voltage};

use crate::dedup::DedupTable;
use crate::health::{HealthAction, HealthTable};
use crate::persist::{SnapshotError, SnapshotStore};
use crate::protocol::{
    DelayReply, DeskewReply, Envelope, ErrorKind, ErrorReply, JitterReply, Request, Response,
    SelftestReply, StatsReply, MAX_LINE_BYTES,
};
use crate::queue::FairQueue;
use crate::shard::{
    tenant_lane, BankHooks, BankId, BankRegistry, HashRing, QuotaTable, TenantBank,
};
use crate::wal::{Wal, WalRecord};

/// Seed for the service's model instances (shared by every bank so the
/// characterization and fast-solve caches single-flight calibration).
/// Public so out-of-process checks (the soak e2e) can rebuild the exact
/// circuit a bank channel holds and compare answers byte for byte.
pub const SERVE_SEED: u64 = 0x5e7e;

/// Consecutive healthy sentinel rounds a quarantined channel must post
/// before re-admission (the K of DESIGN.md §15).
const RECOVERY_ROUNDS: u32 = 3;

/// Responses cached per tenant for `req_id` retry deduplication
/// (DESIGN.md §16).
const DEDUP_WINDOW: usize = 64;

/// How it all runs. Build with [`from_env`](Self::from_env) for the
/// standalone server or [`in_process`](Self::in_process) for tests and
/// the load generator.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`VARDELAY_SERVE_ADDR`).
    pub addr: String,
    /// Per-tenant lane depth in each shard's fair queue
    /// (`VARDELAY_SERVE_QUEUE`); a full lane answers `overloaded`.
    pub queue_depth: usize,
    /// Batch coalescing window (`VARDELAY_SERVE_BATCH_US`): the longest
    /// a `set_delay` is held for same-channel followers, counted from
    /// its admission. A lead that already queued this long is solved
    /// without waiting.
    pub batch_window: Duration,
    /// Worker threads (`VARDELAY_THREADS` via
    /// [`worker_threads_from_env`]), distributed round-robin across the
    /// shards with at least one each.
    pub workers: usize,
    /// Independent bank shards (`VARDELAY_SERVE_SHARDS`); requests are
    /// routed by consistent hashing over `(tenant, channel)`.
    pub shards: usize,
    /// Delay channels the service exposes per tenant bank.
    pub channels: usize,
    /// Resident tenant banks before LRU eviction
    /// (`VARDELAY_SERVE_MAX_BANKS`).
    pub max_banks: usize,
    /// Per-tenant token-bucket refill rate in requests/second
    /// (`VARDELAY_SERVE_QUOTA_RPS`); `None` disables quotas.
    pub quota_rps: Option<f64>,
    /// Token-bucket burst cap (`VARDELAY_SERVE_QUOTA_BURST`); `None`
    /// derives `max(2 × rate, 8)`.
    pub quota_burst: Option<f64>,
    /// Default per-request budget when the envelope has no
    /// `deadline_ms`.
    pub default_deadline: Duration,
    /// Seeded worker-kill chaos; set by tests, never from the
    /// environment.
    pub chaos: Option<RequestChaos>,
    /// Health-supervisor period (`VARDELAY_SERVE_HEALTH_MS`; 0 or
    /// `None` disables the supervisor — the in-process default, so
    /// existing tests see no background probing).
    pub health_period: Option<Duration>,
    /// Per-connection IO deadline (`VARDELAY_SERVE_IO_TIMEOUT_MS`):
    /// bounds response writes and how long a partial request line may
    /// sit before the reaper cuts the connection.
    pub io_timeout: Duration,
    /// Whether the supervisor rebuilds stale tables; `repro soak
    /// --no-recal` disables it to sabotage self-healing — the soak
    /// gate's red lever.
    pub recalibrate: bool,
    /// Durable state directory (`VARDELAY_SERVE_STATE_DIR`). `None`
    /// disables the snapshot store, the WAL, and warm restart — the
    /// server is purely in-memory, exactly as before PR 9.
    pub state_dir: Option<PathBuf>,
    /// Pending WAL records before a snapshot-then-truncate compaction
    /// (`VARDELAY_SERVE_WAL_COMPACT`; default 512). Ignored without a
    /// state directory.
    pub wal_compact: u64,
    /// Default delay backend (`VARDELAY_SERVE_BACKEND`): the hardware
    /// family serving requests whose envelope carries no `backend`
    /// field (DESIGN.md §17). Folded into the snapshot fingerprint, so
    /// flipping it forces a recalibration instead of ever reusing
    /// another family's tables.
    pub backend: BackendKind,
}

/// `key` from the environment, trimmed and parsed; `None` when unset
/// or unparsable.
fn env<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.trim().parse().ok()
}

fn env_usize(key: &str, default: usize) -> usize {
    env(key).filter(|&n| n > 0).unwrap_or(default)
}

fn env_f64(key: &str) -> Option<f64> {
    env(key).filter(|&v: &f64| v.is_finite() && v > 0.0)
}

impl ServeConfig {
    /// The standalone configuration: every knob from the environment,
    /// defaults matching the README table.
    pub fn from_env() -> ServeConfig {
        ServeConfig {
            addr: env("VARDELAY_SERVE_ADDR")
                .filter(|a: &String| !a.is_empty())
                .unwrap_or_else(|| "127.0.0.1:4848".to_owned()),
            queue_depth: env_usize("VARDELAY_SERVE_QUEUE", 64),
            batch_window: Duration::from_micros(env("VARDELAY_SERVE_BATCH_US").unwrap_or(100)),
            workers: worker_threads_from_env(),
            shards: env_usize("VARDELAY_SERVE_SHARDS", 4),
            channels: 8,
            max_banks: env_usize("VARDELAY_SERVE_MAX_BANKS", 8),
            quota_rps: env_f64("VARDELAY_SERVE_QUOTA_RPS"),
            quota_burst: env_f64("VARDELAY_SERVE_QUOTA_BURST"),
            default_deadline: Duration::from_secs(2),
            chaos: None,
            health_period: Some(env("VARDELAY_SERVE_HEALTH_MS").unwrap_or(1000))
                .filter(|&ms| ms > 0)
                .map(Duration::from_millis),
            io_timeout: Duration::from_millis(
                env_usize("VARDELAY_SERVE_IO_TIMEOUT_MS", 10_000) as u64
            ),
            recalibrate: true,
            state_dir: env("VARDELAY_SERVE_STATE_DIR")
                .filter(|dir: &PathBuf| !dir.as_os_str().is_empty()),
            wal_compact: env_usize("VARDELAY_SERVE_WAL_COMPACT", 512) as u64,
            backend: {
                // An unknown name falls back to the circuit reference
                // loudly: silently serving the wrong hardware family
                // would be worse than a startup warning.
                if let Ok(raw) = std::env::var("VARDELAY_SERVE_BACKEND") {
                    let raw = raw.trim();
                    if !raw.is_empty() && BackendKind::from_name(raw).is_none() {
                        eprintln!(
                            "VARDELAY_SERVE_BACKEND={raw:?} is not a known backend \
                             (valid: {}); using circuit",
                            BackendKind::valid_names()
                        );
                    }
                }
                BackendKind::from_env()
            },
        }
    }

    /// An ephemeral-port configuration for in-process use (tests, the
    /// `serve-bench` load generator). Environment-independent apart
    /// from the worker count; single-shard, unlimited quota — the
    /// serial baseline the sharded equivalence test compares against.
    pub fn in_process() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_depth: 64,
            batch_window: Duration::from_micros(100),
            workers: worker_threads_from_env(),
            shards: 1,
            channels: 8,
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
}

/// Response counters, mirrored into the `stats` reply and the final
/// [`DrainReport`].
#[derive(Debug, Default)]
struct Stats {
    requests: AtomicU64,
    ok: AtomicU64,
    parse_errors: AtomicU64,
    bad_requests: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    internal_errors: AtomicU64,
    batched: AtomicU64,
    quota_rejections: AtomicU64,
    unavailable: AtomicU64,
    io_timeouts: AtomicU64,
    reaped: AtomicU64,
}

impl Stats {
    fn count_response(&self, response: &Response) {
        let counter = match response.error_kind() {
            None => &self.ok,
            Some(ErrorKind::ParseError) => &self.parse_errors,
            Some(ErrorKind::BadRequest) => &self.bad_requests,
            Some(ErrorKind::Overloaded) => &self.overloaded,
            Some(ErrorKind::DeadlineExceeded) => &self.deadline_exceeded,
            Some(ErrorKind::Internal) => &self.internal_errors,
            Some(ErrorKind::Unavailable) => &self.unavailable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[allow(clippy::too_many_arguments)]
    fn snapshot(
        &self,
        queue_depth: u64,
        workers: u64,
        shards: u64,
        banks: u64,
        health: &HealthTable,
        epoch: u64,
        recovery: &RecoveryLedger,
        dedup_hits: u64,
    ) -> StatsReply {
        StatsReply {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            bad_requests: self.bad_requests.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            internal_errors: self.internal_errors.load(Ordering::Relaxed),
            batched: self.batched.load(Ordering::Relaxed),
            quota_rejections: self.quota_rejections.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
            io_timeouts: self.io_timeouts.load(Ordering::Relaxed),
            reaped: self.reaped.load(Ordering::Relaxed),
            quarantined: health.quarantined_now(),
            unhealthy: health.unhealthy_now(),
            recalibrations: health.recalibrations(),
            quarantines: health.quarantines(),
            server_epoch: epoch,
            banks_restored: recovery.banks_restored.load(Ordering::Relaxed),
            banks_recalibrated: recovery.banks_recalibrated.load(Ordering::Relaxed),
            wal_records_replayed: recovery.wal_records_replayed.load(Ordering::Relaxed),
            restore_us: recovery.restore_us.load(Ordering::Relaxed),
            dedup_hits,
            queue_depth,
            workers,
            shards,
            banks,
        }
    }
}

/// What the last warm restart accomplished, mirrored into `stats`.
#[derive(Debug, Default)]
struct RecoveryLedger {
    /// Banks whose build restored ≥ 1 channel table from a snapshot.
    banks_restored: AtomicU64,
    /// Banks with persisted state that nonetheless recalibrated ≥ 1
    /// channel (corrupt snapshot, fingerprint mismatch, or a
    /// sentinel-rejected table).
    banks_recalibrated: AtomicU64,
    /// WAL records applied during recovery.
    wal_records_replayed: AtomicU64,
    /// Wall time of the recovery pass, microseconds.
    restore_us: AtomicU64,
}

/// The durable half of a state-dir-configured server.
struct Durability {
    store: Arc<SnapshotStore>,
    wal: Mutex<Wal>,
    /// Pending records that trigger a snapshot-then-truncate pass.
    compact_every: u64,
}

/// The [`BankHooks`] implementation that makes the registry durable:
/// builds restore from (and re-verify) snapshots, finished builds and
/// evictions persist the bank — so quarantine state survives LRU
/// eviction, not just restarts.
struct DurabilityHooks {
    store: Arc<SnapshotStore>,
    health: Arc<HealthTable>,
    recovery: Arc<RecoveryLedger>,
    /// The server's default backend. Only its banks persist: the
    /// snapshot fingerprint describes exactly one hardware family, so a
    /// wire-selected non-default bank is ephemeral — rebuilt from the
    /// fast-solve cache on demand, never written where a different
    /// family's restart might find it.
    default: BackendKind,
}

impl BankHooks for DurabilityHooks {
    fn restore(&self, id: &BankId, channel: usize) -> Option<CalibrationTable> {
        if id.kind() != self.default {
            return None;
        }
        match self.store.load_channel(id.tenant(), channel) {
            Ok(snap) => {
                // The health state rides the snapshot: a quarantined
                // channel stays quarantined across restart and eviction
                // instead of silently re-entering service.
                self.health.restore(id.tenant(), channel, snap.state);
                Some(snap.table)
            }
            Err(SnapshotError::Missing) => None,
            Err(why) => {
                vardelay_obs::counter("recovery.snapshots_refused").add(1);
                let _ = why; // counted; the store logged specifics
                None
            }
        }
    }

    fn built(&self, id: &BankId, bank: &TenantBank, restored: &[bool]) {
        if id.kind() != self.default {
            return;
        }
        let persisted = self.store.channels_of(id.tenant());
        if restored.iter().any(|&r| r) {
            self.recovery.banks_restored.fetch_add(1, Ordering::Relaxed);
        }
        if persisted
            .iter()
            .any(|&ch| restored.get(ch).is_some_and(|&r| !r))
        {
            self.recovery
                .banks_recalibrated
                .fetch_add(1, Ordering::Relaxed);
        }
        // Persist on install: the freshly-built (or freshly-verified)
        // tables are the durable truth from this moment.
        persist_bank(&self.store, &self.health, id.tenant(), bank);
    }

    fn evicted(&self, id: &BankId, bank: &TenantBank) {
        if id.kind() != self.default {
            return;
        }
        persist_bank(&self.store, &self.health, id.tenant(), bank);
    }
}

/// Persists every calibrated channel of `bank` (table + health state).
/// Returns `false` when any save failed to publish — the caller must
/// then keep the WAL, because the snapshots no longer cover it.
fn persist_bank(
    store: &SnapshotStore,
    health: &HealthTable,
    tenant: &str,
    bank: &TenantBank,
) -> bool {
    let mut all_saved = true;
    for (channel, slot) in bank.channels.iter().enumerate() {
        let table = {
            let circuit = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
            circuit.calibration().cloned()
        };
        let Some(table) = table else {
            continue;
        };
        let state = health.state(tenant, channel);
        if store.save_channel(tenant, channel, state, &table).is_err() {
            vardelay_obs::counter("persist.save_failures").add(1);
            all_saved = false;
        }
    }
    all_saved
}

/// Snapshot-then-truncate compaction (DESIGN.md §16): persist every
/// resident bank, then empty the log its records described. A crash
/// between the two steps (the `wal-compact` kill point) is harmless —
/// the next boot replays the idempotent records over the fresh
/// snapshots and converges to the same state. If any snapshot failed to
/// publish, the WAL is kept: replaying it over a stale snapshot is
/// correct, dropping it would not be.
fn compact_wal(
    registry: &BankRegistry,
    store: &SnapshotStore,
    health: &HealthTable,
    wal: &mut Wal,
    default: BackendKind,
) {
    let mut all_saved = true;
    for (id, bank) in registry.snapshot() {
        // Non-default banks are ephemeral (see [`DurabilityHooks`]);
        // their WAL-free existence never blocks a truncation.
        if id.kind() != default {
            continue;
        }
        all_saved &= persist_bank(store, health, id.tenant(), &bank);
    }
    vardelay_faults::kill_point("wal-compact");
    if all_saved && wal.truncate().is_ok() {
        vardelay_obs::counter("wal.compactions").add(1);
    }
}

/// The circuit identity stamped into snapshots: quiet-model fingerprint
/// folded with the shared bank seed, the channel count, and the default
/// backend's name. Any config, topology, or backend change mints a new
/// fingerprint, and old snapshots refuse to load rather than ever
/// serving a wrong table — in particular, flipping
/// `VARDELAY_SERVE_BACKEND` across a restart forces a recalibration
/// instead of installing another hardware family's tables.
fn bank_fingerprint(model: &ModelConfig, channels: usize, backend: BackendKind) -> u64 {
    vardelay_obs::artifact::digest(&format!(
        "{:016x}/{SERVE_SEED:016x}/{channels}/{}",
        model.quiet().fingerprint(),
        backend.name()
    ))
}

/// Applies recovered WAL records in append order. `apply` records
/// re-execute the solve (idempotent: the same picosecond target lands
/// on the same tap and DAC codes), `dedup` records re-seed the
/// idempotency window without re-executing, `health` records overwrite
/// the health table so the last logged transition wins. Returns how
/// many records took effect.
fn replay_wal(
    records: &[WalRecord],
    registry: &BankRegistry,
    health: &HealthTable,
    dedup: &DedupTable,
    channels: usize,
    default: BackendKind,
) -> u64 {
    let mut replayed = 0u64;
    for record in records {
        match record {
            WalRecord::Apply {
                tenant,
                channel,
                ps,
            } => {
                if *channel >= channels || !ps.is_finite() {
                    continue;
                }
                // Only default-backend solves are ever logged, so
                // replay re-targets the default bank.
                let bank = registry.get(&BankId::new(tenant.as_str(), default), Runner::serial());
                let Some(slot) = bank.channels.get(*channel) else {
                    continue;
                };
                let mut backend = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                if backend.set_delay(Time::from_ps(*ps)).is_ok() {
                    replayed += 1;
                }
            }
            WalRecord::Dedup {
                tenant,
                req_id,
                response,
            } => {
                if let Ok((_, response)) = Response::parse(response) {
                    dedup.record(tenant, req_id, &response);
                    replayed += 1;
                }
            }
            WalRecord::Health {
                tenant,
                channel,
                state,
            } => {
                health.restore(tenant, *channel, *state);
                replayed += 1;
            }
        }
    }
    replayed
}

/// The health-table key for a bank: the bare tenant label for the
/// server's default backend (so persisted health states, WAL records,
/// and every pre-backend deployment read unchanged), or a composite
/// with an unprintable separator for a wire-selected non-default bank.
/// The composite is in-memory only — never parsed back, never
/// persisted — so a tenant label containing the separator cannot
/// collide with a real `(tenant, backend)` pair's durable state.
fn health_key(id: &BankId, default: BackendKind) -> String {
    if id.kind() == default {
        id.tenant().to_owned()
    } else {
        format!("{}\u{1f}{}", id.tenant(), id.kind().name())
    }
}

/// One admitted request waiting for a shard worker.
struct Job {
    envelope: Envelope,
    /// Normalized tenant label (empty = default tenant).
    tenant: String,
    /// The delay backend answering this request (the envelope's
    /// selector, or the server default).
    backend: BackendKind,
    /// The tenant's fair-queue lane key.
    lane: u64,
    /// The shard the ring routed this job to.
    shard: usize,
    deadline: Deadline,
    reply: Arc<Mutex<TcpStream>>,
    index: u64,
}

/// One shard: its fair queue. Workers are plain threads indexed into
/// [`Shared::shards`], so the struct stays data-only.
struct ShardState {
    queue: FairQueue<Job>,
}

/// What the reaper knows about one live connection: a handle it can cut
/// and the wall-clock moment (milliseconds since server start, 0 =
/// none) at which the connection's current partial line began.
struct ConnEntry {
    stream: TcpStream,
    pending_since_ms: Arc<AtomicU64>,
}

struct Shared {
    shards: Vec<ShardState>,
    ring: HashRing,
    registry: BankRegistry,
    quota: QuotaTable,
    model: ModelConfig,
    /// Channels each tenant bank exposes.
    channels: usize,
    /// The default delay backend (requests without a `backend` field).
    backend: BackendKind,
    stats: Stats,
    shutdown: AtomicBool,
    next_index: AtomicU64,
    next_conn: AtomicU64,
    /// Worker threads actually running (spawn failures shrink the pool
    /// instead of aborting the server).
    workers: AtomicU64,
    batch_window: Duration,
    default_deadline: Duration,
    chaos: Option<RequestChaos>,
    /// Channel health ledger fed by the supervisors (shared across
    /// shards; each supervisor only probes the channels its shard owns).
    health: Arc<HealthTable>,
    health_period: Option<Duration>,
    io_timeout: Duration,
    recalibrate: bool,
    /// Reaper's view of live connections, keyed by connection id.
    conns: Mutex<HashMap<u64, ConnEntry>>,
    /// Server start, the epoch for `pending_since_ms`.
    started: Instant,
    /// Snapshot store + WAL, present only with a state directory.
    durability: Option<Durability>,
    /// The `req_id` idempotency window (active with or without a state
    /// dir; only its *persistence* needs the WAL).
    dedup: DedupTable,
    /// Monotonic restart counter stamped into every response (1 when no
    /// state dir is configured).
    epoch: u64,
    /// What the warm restart restored, for `stats`.
    recovery: Arc<RecoveryLedger>,
}

impl Shared {
    fn queue_depth(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.len() as u64).sum()
    }

    fn stats_reply(&self) -> StatsReply {
        self.stats.snapshot(
            self.queue_depth(),
            self.workers.load(Ordering::Relaxed),
            self.shards.len() as u64,
            self.registry.resident() as u64,
            &self.health,
            self.epoch,
            &self.recovery,
            self.dedup.hits(),
        )
    }

    /// Milliseconds since the server started (the reaper clock).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Appends one record to the WAL (no-op without a state dir),
    /// compacting once the pending count crosses the threshold. Append
    /// failures are counted, never fatal: durability degrades, serving
    /// does not.
    fn wal_append(&self, record: &WalRecord) {
        let Some(durability) = &self.durability else {
            return;
        };
        let mut wal = durability.wal.lock().unwrap_or_else(|e| e.into_inner());
        if wal.append(record).is_err() {
            vardelay_obs::counter("wal.append_failures").add(1);
            return;
        }
        if wal.pending() >= durability.compact_every {
            compact_wal(
                &self.registry,
                &durability.store,
                &self.health,
                &mut wal,
                self.backend,
            );
        }
    }
}

/// The final counters a drained server reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DrainReport {
    /// Every counter at the moment the last worker exited.
    pub stats: StatsReply,
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = &self.stats;
        write!(
            f,
            "drained: requests={} ok={} parse_error={} bad_request={} overloaded={} \
             deadline_exceeded={} internal={} batched={} quota_rejected={} shards={} \
             unavailable={} io_timeouts={} reaped={} recalibrations={} quarantines={}",
            s.requests,
            s.ok,
            s.parse_errors,
            s.bad_requests,
            s.overloaded,
            s.deadline_exceeded,
            s.internal_errors,
            s.batched,
            s.quota_rejections,
            s.shards,
            s.unavailable,
            s.io_timeouts,
            s.reaped,
            s.recalibrations,
            s.quarantines
        )
    }
}

/// A running server. Dropping the handle without
/// [`join`](Self::join)ing detaches the threads; prefer joining.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Health supervisors + the connection reaper.
    background: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts a graceful drain programmatically (same effect as a wire
    /// `shutdown` request).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::Relaxed)
    }

    /// Blocks until the server has fully drained: accept loop stopped,
    /// readers gone, every admitted job answered, workers exited.
    pub fn join(mut self) -> DrainReport {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // No producers remain; close every shard queue so workers drain
        // their backlog and exit.
        for shard in &self.shared.shards {
            shard.queue.close();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Supervisors and the reaper poll the shutdown flag; they exit
        // within one slice.
        for thread in self.background.drain(..) {
            let _ = thread.join();
        }
        // Parting persistence: a cleanly-drained durable server leaves
        // fresh snapshots and an empty WAL, so the next boot restores
        // without replaying anything.
        if let Some(durability) = &self.shared.durability {
            let mut wal = durability.wal.lock().unwrap_or_else(|e| e.into_inner());
            compact_wal(
                &self.shared.registry,
                &durability.store,
                &self.shared.health,
                &mut wal,
                self.shared.backend,
            );
        }
        DrainReport {
            stats: self.shared.stats_reply(),
        }
    }

    /// The state directory's monotonic restart counter (1 when no state
    /// dir is configured — an in-memory server is its own first epoch).
    pub fn server_epoch(&self) -> u64 {
        self.shared.epoch
    }

    /// Fault hook for soak/e2e drivers: steps `tenant`'s `channel` on
    /// the default backend to a physically drifted instance (`delta_k`
    /// kelvin through the backend's temperature model) while keeping
    /// its now-stale calibration table installed — exactly what a
    /// temperature excursion does to a long-running installation. The
    /// replacement is rebuilt from the backend's own pristine config
    /// and seed, so once the health loop recalibrates, answers must be
    /// byte-identical to a freshly calibrated drifted bank. Masked
    /// (returns `false`) by `VARDELAY_FAULTS=0` and when the tenant's
    /// bank is not resident.
    pub fn inject_drift(&self, tenant: &str, channel: usize, delta_k: f64) -> bool {
        if !vardelay_faults::enabled() {
            return false;
        }
        let id = BankId::new(tenant, self.shared.backend);
        let Some(bank) = self.shared.registry.peek(&id) else {
            return false;
        };
        let Some(slot) = bank.channels.get(channel) else {
            return false;
        };
        let mut backend = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        backend.inject_drift(delta_k);
        true
    }

    /// The current health state of `tenant`'s `channel` (for drivers
    /// that want to watch probation/quarantine without wire stats).
    pub fn channel_state(&self, tenant: &str, channel: usize) -> crate::health::ChannelState {
        self.shared.health.state(tenant, channel)
    }

    /// The server's default delay backend.
    pub fn backend(&self) -> BackendKind {
        self.shared.backend
    }
}

/// Binds, recovers durable state when a state directory is configured
/// (snapshot restore → WAL replay → compaction), eagerly calibrates the
/// default tenant's bank (one full sweep through the solve cache; every
/// later bank rides the fast path), and spawns the accept thread and
/// the per-shard worker pools.
pub fn serve(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let model = ModelConfig::paper_prototype();
    let channels = config.channels.max(1);
    let default_backend = config.backend;
    let shard_count = config.shards.max(1);
    let registry = BankRegistry::new(model.clone(), channels, SERVE_SEED, config.max_banks.max(1));
    let health = Arc::new(HealthTable::new(RECOVERY_ROUNDS));
    let recovery = Arc::new(RecoveryLedger::default());
    let dedup = DedupTable::new(DEDUP_WINDOW);
    let mut epoch = 1u64;
    // Warm restart happens before the listener answers anything: hooks
    // first (so every bank build consults the store), then persisted
    // tenants rebuild through the sentinel-verified restore path, then
    // the WAL replays over them, then a compaction folds the replayed
    // state into fresh snapshots and empties the log.
    let durability = match &config.state_dir {
        None => None,
        Some(dir) => {
            let fingerprint = bank_fingerprint(&model, channels, default_backend);
            let store = Arc::new(SnapshotStore::open(dir.clone(), fingerprint)?);
            epoch = store.bump_epoch()?;
            registry.set_hooks(Arc::new(DurabilityHooks {
                store: Arc::clone(&store),
                health: Arc::clone(&health),
                recovery: Arc::clone(&recovery),
                default: default_backend,
            }));
            let restore_started = Instant::now();
            let (mut wal, records, _torn) = Wal::open(&store.wal_path())?;
            // Persisted banks rebuild through the parallel runner: the
            // per-channel restore fans out, so a warm boot's sentinel
            // sweeps cost one channel's probes of wall clock, not
            // eight.
            for tenant in store.tenants() {
                registry.get(&BankId::new(tenant, default_backend), Runner::from_env());
            }
            let replayed = replay_wal(
                &records,
                &registry,
                &health,
                &dedup,
                channels,
                default_backend,
            );
            recovery
                .wal_records_replayed
                .store(replayed, Ordering::Relaxed);
            compact_wal(&registry, &store, &health, &mut wal, default_backend);
            recovery.restore_us.store(
                restore_started.elapsed().as_micros() as u64,
                Ordering::Relaxed,
            );
            Some(Durability {
                store,
                wal: Mutex::new(wal),
                compact_every: config.wal_compact.max(1),
            })
        }
    };
    // The default tenant is warmed eagerly with the parallel runner so
    // the very first sweep (the only one that misses the fast-solve
    // cache) uses every core; lazy tenant banks built on worker threads
    // calibrate serially through the cache instead. After a warm
    // restart this is a no-op LRU refresh.
    registry.get(&BankId::new("", default_backend), Runner::from_env());

    let quota_rate = config.quota_rps.filter(|r| r.is_finite() && *r > 0.0);
    let quota_burst = config
        .quota_burst
        .or(quota_rate.map(|r| (2.0 * r).max(8.0)))
        .unwrap_or(8.0);

    let shared = Arc::new(Shared {
        shards: (0..shard_count)
            .map(|_| ShardState {
                queue: FairQueue::new(config.queue_depth),
            })
            .collect(),
        ring: HashRing::new(shard_count),
        registry,
        quota: QuotaTable::new(quota_rate, quota_burst),
        model,
        channels,
        backend: default_backend,
        stats: Stats::default(),
        shutdown: AtomicBool::new(false),
        next_index: AtomicU64::new(0),
        next_conn: AtomicU64::new(0),
        workers: AtomicU64::new(0),
        batch_window: config.batch_window,
        default_deadline: config.default_deadline,
        chaos: config.chaos,
        health,
        health_period: config.health_period,
        io_timeout: config.io_timeout.max(Duration::from_millis(1)),
        recalibrate: config.recalibrate,
        conns: Mutex::new(HashMap::new()),
        started: Instant::now(),
        durability,
        dedup,
        epoch,
        recovery,
    });

    // Round-robin the worker budget across shards, at least one each.
    // A failed spawn shrinks the pool (counted) instead of panicking
    // mid-startup; only a shard left with *zero* workers is fatal,
    // because its queue would never drain.
    let total_workers = config.workers.max(shard_count);
    let mut workers = Vec::with_capacity(total_workers);
    let mut per_shard = vec![0usize; shard_count];
    for i in 0..total_workers {
        let shard = i % shard_count;
        let worker_shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name(format!("serve-worker-{shard}-{i}"))
            .spawn(move || worker_loop(&worker_shared, shard))
        {
            Ok(handle) => {
                workers.push(handle);
                per_shard[shard] += 1;
                shared.workers.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                vardelay_obs::counter("serve.spawn_failures").add(1);
            }
        }
    }
    if per_shard.contains(&0) {
        for shard in &shared.shards {
            shard.queue.close();
        }
        for worker in workers {
            let _ = worker.join();
        }
        return Err(std::io::Error::other(
            "could not spawn at least one worker per shard",
        ));
    }

    let accept = {
        let accept_shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name("serve-accept".to_owned())
            .spawn(move || accept_loop(&accept_shared, listener))
        {
            Ok(handle) => handle,
            Err(e) => {
                vardelay_obs::counter("serve.spawn_failures").add(1);
                for shard in &shared.shards {
                    shard.queue.close();
                }
                for worker in workers {
                    let _ = worker.join();
                }
                return Err(e);
            }
        }
    };

    // Background loops are best-effort: a failed spawn costs the
    // feature (counted), never the server.
    let mut background = Vec::new();
    if let Some(period) = shared.health_period {
        for shard in 0..shard_count {
            let health_shared = Arc::clone(&shared);
            match std::thread::Builder::new()
                .name(format!("serve-health-{shard}"))
                .spawn(move || health_loop(&health_shared, shard, period))
            {
                Ok(handle) => background.push(handle),
                Err(_) => vardelay_obs::counter("serve.spawn_failures").add(1),
            }
        }
    }
    {
        let reaper_shared = Arc::clone(&shared);
        match std::thread::Builder::new()
            .name("serve-reaper".to_owned())
            .spawn(move || reaper_loop(&reaper_shared))
        {
            Ok(handle) => background.push(handle),
            Err(_) => vardelay_obs::counter("serve.spawn_failures").add(1),
        }
    }

    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
        workers,
        background,
    })
}

// ---------------------------------------------------------------------------
// Accept + connection readers
// ---------------------------------------------------------------------------

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(shared);
                match std::thread::Builder::new()
                    .name("serve-conn".to_owned())
                    .spawn(move || connection_loop(&conn_shared, stream))
                {
                    Ok(handle) => connections.push(handle),
                    Err(_) => {
                        // Thread exhaustion: reject this connection with
                        // a best-effort `overloaded` line instead of
                        // taking the whole server down mid-drain.
                        vardelay_obs::counter("serve.conn_spawn_failures").add(1);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(listener);
    for conn in connections {
        let _ = conn.join();
    }
}

fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = stream.set_nodelay(true);
    let reply = match stream.try_clone() {
        Ok(clone) => {
            // Response writes are bounded by the IO deadline so a
            // stalled reader cannot pin a worker in `write_all`.
            let _ = clone.set_write_timeout(Some(shared.io_timeout));
            Arc::new(Mutex::new(clone))
        }
        Err(_) => return,
    };
    // Deterministic per-connection backoff jitter: seeded from the
    // connection's admission order, so two clients that overflow the
    // queue together receive *different* retry hints (no lockstep
    // re-stampede) while any given run of the server is reproducible.
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
    // Register with the reaper: a clone it can cut, plus the moment the
    // current partial request line began (0 = framing is clean). Failing
    // to clone just leaves this connection unreaped.
    let pending = Arc::new(AtomicU64::new(0));
    if let Ok(clone) = stream.try_clone() {
        let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        conns.insert(
            conn_id,
            ConnEntry {
                stream: clone,
                pending_since_ms: Arc::clone(&pending),
            },
        );
    }
    let mut retry_rng = SplitMix64::new(0x7e72 ^ conn_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // After an oversized line is rejected, bytes are discarded up to
    // the next newline so the framing recovers.
    let mut discarding = false;
    'conn: loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                loop {
                    if discarding {
                        match buf.iter().position(|&b| b == b'\n') {
                            Some(pos) => {
                                buf.drain(..=pos);
                                discarding = false;
                            }
                            None => {
                                buf.clear();
                                break;
                            }
                        }
                    } else if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                        let line: Vec<u8> = buf.drain(..=pos).collect();
                        let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
                        if handle_line(shared, &reply, text.trim(), &mut retry_rng) {
                            break 'conn;
                        }
                    } else if buf.len() > MAX_LINE_BYTES {
                        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                        let response = Response::error(
                            ErrorKind::ParseError,
                            format!(
                                "request line exceeds the {MAX_LINE_BYTES}-byte limit; \
                                 discarding to the next newline"
                            ),
                        );
                        finish(shared, &reply, None, response, None);
                        buf.clear();
                        discarding = true;
                    } else {
                        break;
                    }
                }
                // Clean framing clears the reaper stamp; the stamp
                // itself is only ever *set* below, when the read loop
                // goes idle with bytes owed. A busy connection (lines
                // still being parsed and answered, however slowly the
                // stalled peer lets us write) is the write deadline's
                // problem, not the reaper's.
                if buf.is_empty() {
                    pending.store(0, Ordering::Relaxed);
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shared.shutdown.load(Ordering::Relaxed) {
                    break;
                }
                // Waiting for input with half a line in hand: start the
                // reaper clock, once per partial line, so the deadline
                // measures from (within one read timeout of) the line's
                // first byte. A slow-loris drip trips this between
                // bytes and never clears it — only a completed line
                // does.
                if !buf.is_empty() && pending.load(Ordering::Relaxed) == 0 {
                    // +1 so a stamp taken in the first millisecond is
                    // distinguishable from "no partial line".
                    pending.store(shared.now_ms() + 1, Ordering::Relaxed);
                }
            }
            Err(_) => break,
        }
    }
    let mut conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
    conns.remove(&conn_id);
}

/// The retry-hint window: a deterministic base plus the jitter spread
/// the per-connection RNG draws from.
fn retry_window(shared: &Shared) -> (u64, u64) {
    let base = 1
        + shared.batch_window.as_millis() as u64
        + shared.default_deadline.as_millis() as u64 / 100;
    (base, base / 2)
}

/// Jitters a retry hint over `[base, base + spread)`. A zero-width
/// window (tiny deadline, no batch window) pins the hint at `base`
/// instead of taking `rng % 0`.
fn retry_hint_ms(rng: &mut SplitMix64, base: u64, spread: u64) -> u64 {
    if spread == 0 {
        base
    } else {
        base + rng.next_u64() % spread
    }
}

/// Parses and admits one request line. Returns `true` when the line was
/// a shutdown request (the reader should close the connection).
fn handle_line(
    shared: &Arc<Shared>,
    reply: &Arc<Mutex<TcpStream>>,
    line: &str,
    retry_rng: &mut SplitMix64,
) -> bool {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    vardelay_obs::counter("serve.lines").add(1);
    let envelope = match Envelope::parse(line) {
        Ok(envelope) => envelope,
        Err(error) => {
            finish(shared, reply, None, Response::Error(error), None);
            return false;
        }
    };
    if matches!(envelope.request, Request::Shutdown) {
        shared.shutdown.store(true, Ordering::Relaxed);
        finish(shared, reply, envelope.id, Response::Draining, None);
        return true;
    }
    let tenant = envelope.tenant.clone().unwrap_or_default();
    // Idempotent retries replay the cached response *before* quota or
    // queue admission: work that already happened (possibly on another
    // connection, possibly before a restart) must not be re-executed,
    // and must not be shed by a momentarily full queue either.
    if let Some(req_id) = &envelope.req_id {
        if let Some(cached) = shared.dedup.lookup(&tenant, req_id) {
            finish(shared, reply, envelope.id, cached, None);
            return false;
        }
    }
    if !shared.quota.admit(&tenant) {
        shared
            .stats
            .quota_rejections
            .fetch_add(1, Ordering::Relaxed);
        vardelay_obs::counter("serve.quota_rejections").add(1);
        let (base, spread) = retry_window(shared);
        let response = Response::Error(ErrorReply {
            kind: ErrorKind::Overloaded,
            detail: format!("tenant {tenant:?} is over its request quota"),
            retry_after_ms: Some(retry_hint_ms(retry_rng, base, spread)),
        });
        finish(shared, reply, envelope.id, response, None);
        return false;
    }
    // Channel bounds are checked at admission so an out-of-range
    // `set_delay` never occupies queue space or joins a batch.
    if let Request::SetDelay { channel, .. } = envelope.request {
        if channel >= shared.channels {
            let response = Response::error(
                ErrorKind::BadRequest,
                format!(
                    "channel {channel} out of range (service exposes {})",
                    shared.channels
                ),
            );
            finish(shared, reply, envelope.id, response, None);
            return false;
        }
    }
    let route_channel = match envelope.request {
        Request::SetDelay { channel, .. } => channel,
        _ => 0,
    };
    let budget = envelope
        .deadline_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.default_deadline);
    // Routing, lanes, quotas, and dedup all stay tenant-keyed: the
    // backend selector picks which of the tenant's banks answers, not
    // where the request queues.
    let backend = envelope.backend.unwrap_or(shared.backend);
    let shard = shared.ring.route(&tenant, route_channel);
    let lane = tenant_lane(&tenant);
    let job = Job {
        deadline: Deadline::after(budget),
        reply: Arc::clone(reply),
        index: shared.next_index.fetch_add(1, Ordering::Relaxed),
        tenant,
        backend,
        lane,
        shard,
        envelope,
    };
    if let Err(job) = shared.shards[shard].queue.try_push(lane, job) {
        // Base backoff plus per-connection jitter: a constant hint makes
        // seeded clients retry in lockstep and re-stampede the queue, so
        // each connection's hint is spread over [base, base + base/2)
        // by its own deterministic stream.
        let (base, spread) = retry_window(shared);
        let response = Response::Error(ErrorReply {
            kind: ErrorKind::Overloaded,
            detail: format!(
                "queue of {} is full; retry after the hinted backoff",
                shared.shards[shard].queue.lane_capacity()
            ),
            retry_after_ms: Some(retry_hint_ms(retry_rng, base, spread)),
        });
        finish(shared, &job.reply, job.envelope.id, response, None);
    }
    false
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Arc<Shared>, shard: usize) {
    while let Some(job) = shared.shards[shard].queue.pop() {
        process_job(shared, job);
    }
}

fn process_job(shared: &Arc<Shared>, job: Job) {
    if job.deadline.expired() {
        let response = Response::error(
            ErrorKind::DeadlineExceeded,
            format!(
                "budget of {} ms elapsed before a worker picked the request up",
                job.deadline.budget().as_millis()
            ),
        );
        finish(
            shared,
            &job.reply,
            job.envelope.id,
            response,
            Some(&job.deadline),
        );
        return;
    }
    if let Request::SetDelay { channel, .. } = job.envelope.request {
        if channel < shared.channels {
            process_set_delay_batch(shared, job, channel);
            return;
        }
    }
    let response = supervise(shared, &job, |job| handle_one(shared, job));
    commit(shared, &job, response);
}

/// Commits one executed response: caches it for `req_id` retries
/// (never `overloaded` or `deadline_exceeded` — those mean "not
/// executed" or "gave up", and a retry *should* re-execute), logs the
/// cache entry to the WAL before the line leaves the socket so the
/// window survives restart, then writes the line.
fn commit(shared: &Arc<Shared>, job: &Job, response: Response) {
    if let Some(req_id) = &job.envelope.req_id {
        if !matches!(
            response.error_kind(),
            Some(ErrorKind::Overloaded | ErrorKind::DeadlineExceeded)
        ) {
            shared.dedup.record(&job.tenant, req_id, &response);
            shared.wal_append(&WalRecord::Dedup {
                tenant: job.tenant.clone(),
                req_id: req_id.clone(),
                response: response.to_value(None).render(),
            });
        }
    }
    finish(
        shared,
        &job.reply,
        job.envelope.id,
        response,
        Some(&job.deadline),
    );
}

/// Runs a handler under `catch_unwind`, classifying the three ways it
/// can come back: a value, a cooperative [`DeadlineBail`], or a real
/// panic (possibly an injected chaos kill). The worker thread survives
/// all three.
fn supervise(shared: &Arc<Shared>, job: &Job, f: impl FnOnce(&Job) -> Response) -> Response {
    let doomed = shared.chaos.is_some_and(|chaos| chaos.kills(job.index));
    let result = catch_unwind(AssertUnwindSafe(|| {
        if doomed {
            panic!(
                "chaos: request {} doomed by the request-chaos plan",
                job.index
            );
        }
        job.deadline.check();
        f(job)
    }));
    match result {
        Ok(response) => response,
        Err(payload) if payload.is::<DeadlineBail>() => Response::error(
            ErrorKind::DeadlineExceeded,
            format!(
                "budget of {} ms exhausted mid-request",
                job.deadline.budget().as_millis()
            ),
        ),
        Err(payload) => {
            vardelay_obs::counter("serve.worker_panics").add(1);
            Response::error(
                ErrorKind::Internal,
                format!("worker panicked: {}", panic_message(payload.as_ref())),
            )
        }
    }
}

/// Lead worker for a `set_delay`: holds the lead until one batch window
/// after its admission, coalesces every queued same-tenant same-channel
/// `set_delay` from the lead's own lane, performs one solve (last write
/// wins), and answers every waiter.
fn process_set_delay_batch(shared: &Arc<Shared>, lead: Job, channel: usize) {
    // The window counts from admission, not from the pop: a lead that
    // already sat in the queue for a whole window has given its
    // followers their chance and is solved at once, so a saturated
    // worker does not idle. Only a lead popped inside its window waits,
    // and only for the rest of it. That rest still yield-spins rather
    // than sleeps: it is at most one window (100 µs by default), and
    // `thread::sleep` rounds up to timer granularity (whole milliseconds on some kernels), which
    // would throttle a lone worker far below the offered load. Yielding
    // also lets the reader threads run and enqueue the followers this
    // wait exists for.
    let wait = shared.batch_window.saturating_sub(lead.deadline.elapsed());
    if !wait.is_zero() {
        let window_ends = Instant::now() + wait;
        while Instant::now() < window_ends {
            std::thread::yield_now();
        }
    }
    let (shard, lane) = (lead.shard, lead.lane);
    let tenant = lead.tenant.clone();
    let backend = lead.backend;
    let mut batch = vec![lead];
    // Lane-local drain: batching never steals another tenant's queued
    // work even if two tenant labels collide on the lane hash, and
    // never mixes backends — one solve answers one bank.
    batch.extend(shared.shards[shard].queue.drain_matching(lane, |queued| {
        queued.tenant == tenant
            && queued.backend == backend
            && matches!(
                queued.envelope.request,
                Request::SetDelay { channel: c, .. } if c == channel
            )
    }));
    let target_ps = batch
        .iter()
        .rev()
        .find_map(|job| match job.envelope.request {
            Request::SetDelay { ps, .. } => Some(ps),
            _ => None,
        })
        .expect("batch holds only set_delay requests");
    let size = batch.len();
    if size > 1 {
        shared
            .stats
            .batched
            .fetch_add(size as u64 - 1, Ordering::Relaxed);
        vardelay_obs::histogram("serve.batch_size").record(size as u64);
    }
    let outcome = supervise(shared, &batch[0], |_| {
        solve_delay(
            shared,
            &BankId::new(tenant.as_str(), backend),
            channel,
            target_ps,
        )
    });
    // WAL-before-ack: one `apply` record per successful batch solve,
    // carrying the batch's last-write-wins target — never one per
    // waiter, or replay would re-program intermediate targets in an
    // order the batch itself collapsed. Only the default backend's
    // solves are durable; a non-default bank is ephemeral by design.
    if matches!(outcome, Response::Delay(_)) && backend == shared.backend {
        shared.wal_append(&WalRecord::Apply {
            tenant: tenant.clone(),
            channel,
            ps: target_ps,
        });
    }
    for job in &batch {
        let response = match (&outcome, job.deadline.expired()) {
            // The solve finished but this waiter's own budget elapsed.
            (Response::Delay(_), true) => Response::error(
                ErrorKind::DeadlineExceeded,
                format!(
                    "budget of {} ms elapsed while the batch was being solved",
                    job.deadline.budget().as_millis()
                ),
            ),
            (Response::Delay(reply), false) => {
                let ps = match job.envelope.request {
                    Request::SetDelay { ps, .. } => ps,
                    _ => unreachable!("batch holds only set_delay requests"),
                };
                Response::Delay(DelayReply {
                    requested_ps: ps,
                    error_ps: reply.predicted_ps - ps,
                    batched: size,
                    ..reply.clone()
                })
            }
            // Errors (bad range, chaos kill, deadline) share the
            // batch's fate: every waiter learns what happened.
            (other, _) => other.clone(),
        };
        commit(shared, job, response);
    }
}

fn solve_delay(shared: &Arc<Shared>, id: &BankId, channel: usize, target_ps: f64) -> Response {
    if !target_ps.is_finite() {
        return Response::error(ErrorKind::BadRequest, "ps must be finite");
    }
    // Quarantined channels refuse to answer from a table known to be
    // grossly wrong; the hint covers recalibration plus the re-admission
    // rounds. (A whole same-channel batch rightly shares this fate.)
    let key = health_key(id, shared.backend);
    if !shared.health.admits(&key, channel) {
        let period_ms = shared
            .health_period
            .map(|p| p.as_millis() as u64)
            .unwrap_or(25)
            .max(1);
        return Response::Error(ErrorReply {
            kind: ErrorKind::Unavailable,
            detail: format!("channel {channel} is quarantined pending recalibration"),
            retry_after_ms: Some(period_ms * (RECOVERY_ROUNDS as u64 + 1)),
        });
    }
    // Lazy tenants calibrate here, on the worker thread, serially — the
    // fast-solve cache answers the sweep, so this is a table copy, not
    // a re-simulation.
    let bank = shared.registry.get(id, Runner::serial());
    let Some(slot) = bank.channels.get(channel) else {
        return Response::error(
            ErrorKind::BadRequest,
            format!(
                "channel {channel} out of range (service exposes {})",
                shared.channels
            ),
        );
    };
    let mut backend = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    match backend.set_delay(Time::from_ps(target_ps)) {
        Ok(setting) => Response::Delay(DelayReply {
            channel,
            requested_ps: target_ps,
            tap: setting.tap,
            dac_code: setting.dac_code,
            vctrl_mv: setting.vctrl.as_mv(),
            predicted_ps: setting.predicted_delay.as_ps(),
            error_ps: setting.predicted_error.as_ps(),
            batched: 1,
        }),
        Err(e) => Response::error(ErrorKind::BadRequest, format!("set_delay: {e}")),
    }
}

fn handle_one(shared: &Arc<Shared>, job: &Job) -> Response {
    match &job.envelope.request {
        Request::SetDelay { channel, .. } => Response::error(
            ErrorKind::BadRequest,
            format!(
                "channel {channel} out of range (service exposes {})",
                shared.channels
            ),
        ),
        Request::Deskew { bus, seed } => handle_deskew(shared, *bus, *seed, &job.deadline),
        Request::InjectJitter {
            vpp_mv,
            rate_gbps,
            bits,
            seed,
        } => handle_inject(shared, *vpp_mv, *rate_gbps, *bits, *seed),
        Request::Selftest => handle_selftest(
            shared,
            &BankId::new(job.tenant.as_str(), job.backend),
            &job.deadline,
        ),
        Request::Stats => Response::Stats(shared.stats_reply()),
        Request::Shutdown => unreachable!("shutdown is handled at admission"),
    }
}

fn handle_deskew(shared: &Arc<Shared>, bus: usize, seed: u64, deadline: &Deadline) -> Response {
    if !(2..=32).contains(&bus) {
        return Response::error(ErrorKind::BadRequest, "bus width must be in 2..=32");
    }
    // Serial runner: the worker thread *is* the parallelism here, and a
    // nested pool per request would oversubscribe under load.
    let engine = DeskewEngine::new(&shared.model, seed).with_runner(Runner::serial());
    let mut lanes =
        ParallelBus::with_random_skew(bus, BitRate::from_gbps(3.2), Time::from_ps(120.0), seed);
    deadline.check();
    match engine.run_degraded(&mut lanes, DegradedPolicy::default()) {
        Ok(outcome) => Response::Deskew(DeskewReply {
            bus,
            before_ps: outcome.before_peak_to_peak.as_ps(),
            after_ps: outcome.after_peak_to_peak.as_ps(),
            healthy: outcome.healthy_count(),
            quarantined: outcome.quarantined_channels(),
            reference: outcome.reference_channel,
            meets_target: outcome.meets_5ps_target(),
        }),
        Err(e) => Response::error(ErrorKind::Internal, format!("deskew: {e}")),
    }
}

fn handle_inject(
    shared: &Arc<Shared>,
    vpp_mv: f64,
    rate_gbps: f64,
    bits: usize,
    seed: u64,
) -> Response {
    if !(1..=4096).contains(&bits) {
        return Response::error(ErrorKind::BadRequest, "bits must be in 1..=4096");
    }
    if !rate_gbps.is_finite() || rate_gbps <= 0.0 || rate_gbps > 100.0 {
        return Response::error(ErrorKind::BadRequest, "rate_gbps must be in (0, 100]");
    }
    if !vpp_mv.is_finite() || !(0.0..=2000.0).contains(&vpp_mv) {
        return Response::error(ErrorKind::BadRequest, "vpp_mv must be in [0, 2000]");
    }
    let mut injector = JitterInjector::new(&shared.model, seed);
    injector.set_noise_peak_to_peak(Voltage::from_mv(vpp_mv));
    let pattern = BitPattern::prbs7(seed, bits);
    let clean = EdgeStream::nrz(&pattern, BitRate::from_gbps(rate_gbps));
    let jittered = injector.inject(&clean);
    Response::Jitter(JitterReply {
        edges: jittered.len(),
        slope_s_per_v: injector.injection_slope_s_per_v(),
    })
}

/// Runs the channel-0 self-test without pinning the lane: the channel
/// lock is held only long enough to copy the DAC and the table, the
/// expensive walking-bit sweep runs on the copies, and the whole thing
/// is metered in a `serve.selftest_us` span under the request's own
/// deadline budget — if the budget runs out after the (cheap)
/// calibration check, the reply is flagged `partial` instead of
/// blocking the worker through the sweep.
fn handle_selftest(shared: &Arc<Shared>, id: &BankId, deadline: &Deadline) -> Response {
    let _span = vardelay_obs::span("serve.selftest_us");
    let bank = shared.registry.get(id, Runner::serial());
    let (mut dac, table) = {
        let backend = bank.channels[0]
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        (backend.control_dac(), backend.calibration().cloned())
    };
    let Some(table) = table else {
        // Banks calibrate at build, so this is an invariant breach, not
        // a client error.
        return Response::error(
            ErrorKind::Internal,
            "channel 0 has no calibration installed",
        );
    };
    let calibration = check_calibration(&table, Time::from_ps(15.0));
    if deadline.expired() {
        // Enough budget for the table inspection but not the DAC sweep:
        // report what was measured instead of blowing the deadline.
        return Response::Selftest(SelftestReply {
            verdict: if calibration.is_healthy() {
                "healthy"
            } else {
                "faulty"
            }
            .to_owned(),
            summary: format!(
                "calibration range {} ({} / {} points flat); dac sweep skipped (deadline)",
                calibration.range, calibration.flat_points, calibration.points
            ),
            partial: true,
        });
    }
    let health = CircuitHealth {
        dac: test_dac(&mut dac),
        calibration,
    };
    Response::Selftest(SelftestReply {
        verdict: match health.verdict() {
            HealthVerdict::Healthy => "healthy",
            HealthVerdict::Degraded => "degraded",
            HealthVerdict::Faulty => "faulty",
        }
        .to_owned(),
        summary: health.to_string(),
        partial: false,
    })
}

// ---------------------------------------------------------------------------
// Replies
// ---------------------------------------------------------------------------

/// Counts, records, and writes one response line.
///
/// A vanished client must not take the worker down, so write errors
/// never propagate — but they are no longer *ignored* either: an
/// expired write deadline (a stalled reader backing the socket buffer
/// up — surfaced as `WouldBlock` or `TimedOut` depending on platform,
/// and `write_all` may also leave a short write behind) counts an
/// `io_timeout` and cuts the connection so no later response blocks on
/// the same dead socket.
fn finish(
    shared: &Arc<Shared>,
    reply: &Arc<Mutex<TcpStream>>,
    id: Option<u64>,
    response: Response,
    deadline: Option<&Deadline>,
) {
    shared.stats.count_response(&response);
    if let Some(deadline) = deadline {
        vardelay_obs::histogram("serve.latency_us").record(deadline.elapsed().as_micros() as u64);
    }
    // Every response carries the restart epoch so a reconnecting client
    // can tell "same server" from "restarted server". Stats replies
    // already render it from their own snapshot; injecting again would
    // duplicate the key.
    let mut value = response.to_value(id);
    if value.get("server_epoch").is_none() {
        value = value.with("server_epoch", shared.epoch);
    }
    let mut line = value.render();
    line.push('\n');
    let mut stream = reply
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let outcome = stream
        .write_all(line.as_bytes())
        .and_then(|_| stream.flush());
    if let Err(e) = outcome {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            shared.stats.io_timeouts.fetch_add(1, Ordering::Relaxed);
            vardelay_obs::counter("serve.io_timeouts").add(1);
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Anything else (connection reset, broken pipe) means the
        // client is gone; the reader loop will see it and clean up.
    }
}

// ---------------------------------------------------------------------------
// Background loops: health supervisor + connection reaper
// ---------------------------------------------------------------------------

/// Sleeps up to `period` in short slices, returning early (false) when
/// a drain begins.
fn sleep_unless_draining(shared: &Shared, period: Duration) -> bool {
    let until = Instant::now() + period;
    while Instant::now() < until {
        if shared.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5).min(period));
    }
    !shared.shutdown.load(Ordering::Relaxed)
}

/// One shard's health supervisor: every `period`, sentinel-probe the
/// resident channels this shard owns and heal what the verdicts demand
/// (DESIGN.md §15).
fn health_loop(shared: &Arc<Shared>, shard: usize, period: Duration) {
    let mut round: u64 = 0;
    while sleep_unless_draining(shared, period) {
        health_round(shared, shard, round);
        round = round.wrapping_add(1);
    }
}

/// One pass over the resident banks. Per channel: clone the fine line
/// and table under a brief lock, probe outside the lock, feed the
/// verdict to the state machine, and — when asked and allowed —
/// rebuild the table on a private copy and swap it in. In-flight
/// requests keep answering from the old table for the whole rebuild;
/// the swap itself is one `install_calibration` under the channel lock.
fn health_round(shared: &Arc<Shared>, shard: usize, round: u64) {
    for (id, bank) in shared.registry.snapshot() {
        let key = health_key(&id, shared.backend);
        let durable = id.kind() == shared.backend;
        for (channel, slot) in bank.channels.iter().enumerate() {
            // Shards probe disjoint channel sets — the same ownership
            // split the request router uses (which routes by the bare
            // tenant label, whatever backend answers).
            if shared.ring.route(id.tenant(), channel) != shard {
                continue;
            }
            let sentinel = {
                let backend = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                BackendSentinel::from_backend(backend.as_ref(), SentinelConfig::default())
            };
            let Ok(sentinel) = sentinel else {
                continue;
            };
            let report = sentinel.run(task_seed(SERVE_SEED, round));
            let was = shared.health.state(&key, channel);
            let action = shared.health.observe(&key, channel, report.verdict());
            let now_state = shared.health.state(&key, channel);
            if now_state != was && durable {
                // State transitions are durable: a quarantine seen at
                // round N must still reject at the next boot even if no
                // snapshot pass ran in between. (Non-default banks are
                // ephemeral; their states live and die in memory.)
                shared.wal_append(&WalRecord::Health {
                    tenant: id.tenant().to_owned(),
                    channel,
                    state: now_state,
                });
            }
            if action == HealthAction::Recalibrate && shared.recalibrate {
                // The expensive part happens on this thread's private
                // copy; workers never wait on it.
                let mut copy = {
                    let backend = slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                    backend.clone_backend()
                };
                copy.calibrate_with(Runner::serial());
                if let Some(table) = copy.calibration().cloned() {
                    {
                        let mut backend =
                            slot.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
                        backend.install_calibration(table.clone());
                    }
                    // The swapped-in table is the durable one now; the
                    // stale snapshot must not outlive it.
                    if durable {
                        if let Some(durability) = &shared.durability {
                            let state = shared.health.state(&key, channel);
                            if durability
                                .store
                                .save_channel(id.tenant(), channel, state, &table)
                                .is_err()
                            {
                                vardelay_obs::counter("persist.save_failures").add(1);
                            }
                        }
                    }
                }
                shared.health.note_recalibration();
            }
        }
    }
}

/// Cuts connections whose partial request line has been pending past
/// twice the IO deadline. Purely idle connections (clean framing, no
/// bytes owed) are left alone — only a half-sent line pins parser
/// state. The grace is double the write deadline on purpose: a
/// connection that is both half-framed *and* write-blocked should
/// surface as an `io_timeout` (the more specific diagnosis) before the
/// reaper gets to it.
fn reaper_loop(shared: &Arc<Shared>) {
    let timeout_ms = 2 * shared.io_timeout.as_millis() as u64;
    let tick = (shared.io_timeout / 4).clamp(Duration::from_millis(5), Duration::from_millis(50));
    while sleep_unless_draining(shared, tick) {
        let now = shared.now_ms();
        let conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        for entry in conns.values() {
            let since = entry.pending_since_ms.load(Ordering::Relaxed);
            if since != 0 && now.saturating_sub(since - 1) > timeout_ms {
                let _ = entry.stream.shutdown(Shutdown::Both);
                // Clear the stamp so one bad socket is counted once;
                // the reader loop will error out and deregister.
                entry.pending_since_ms.store(0, Ordering::Relaxed);
                shared.stats.reaped.fetch_add(1, Ordering::Relaxed);
                vardelay_obs::counter("serve.conns_reaped").add(1);
            }
        }
    }
}
