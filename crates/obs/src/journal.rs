//! The append-only benchmark journal and its regression gate.
//!
//! `BENCH_repro.json` is a JSONL file: **one JSON object per line, one
//! line per `repro` run**, appended — never overwritten — so the
//! repository's performance trajectory is a real time series. A
//! `fig9`-only run can no longer clobber the record of a full `all` run;
//! it just adds a line keyed by its own `experiments` field.
//!
//! Record schema (`schema: 1`), all fields flat except
//! `per_experiment_s`:
//!
//! ```json
//! {"schema":1,"experiments":"all","threads":4,"git":"d813bb2",
//!  "unix_ms":1754550000000,"wall_s":6.5,"csv_files":12,
//!  "csv_points":1934,"points_per_s":297.5,"cache_hits":20,
//!  "cache_misses":7,"single_flight_waits":0,
//!  "per_experiment_s":{"fig7":0.9}}
//! ```
//!
//! [`load`] also accepts the legacy format (one pretty-printed object
//! spanning the whole file) so a pre-journal `BENCH_repro.json` reads as
//! a one-record journal.
//!
//! The gates: [`GATES`] is a table with one row per `repro compare`
//! target — the record kind it reads, a pairing rule (latest two records
//! at equal thread counts, or the newest alone) and a list of checks
//! (growth, shrink, at-most, at-least, below, is-false). One [`evaluate`]
//! runs any row, and one [`Verdict`] renders every result.

use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Value;

/// Version stamped into every record's `schema` field.
pub const SCHEMA_VERSION: u64 = 1;

/// Default regression-gate threshold: newer wall clock more than 10 %
/// above the older one fails.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// How long [`JournalLock::acquire`] spins before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(2);

/// A lock file whose holder cannot be proven alive after this age is
/// considered abandoned (fallback for lock files without a readable pid,
/// e.g. written by a foreign tool).
const LOCK_STALE_AGE: Duration = Duration::from_secs(30);

/// An advisory inter-process lock guarding journal mutations.
///
/// The lock is a sibling `<journal>.lock` file created with
/// `O_CREAT | O_EXCL` and holding the owner's pid; it is removed on
/// [`Drop`]. Two concurrent `repro` processes therefore serialize their
/// appends (and the legacy-migration / torn-tail-repair rewrites, which
/// are *not* atomic on their own). A lock whose recorded pid is no
/// longer alive — the holder crashed between create and remove — is
/// broken automatically, so a killed campaign never wedges the journal.
#[derive(Debug)]
pub struct JournalLock {
    lock_path: PathBuf,
}

impl JournalLock {
    /// Acquires the advisory lock for `journal`, spinning (5 ms steps)
    /// up to [`LOCK_TIMEOUT`] and breaking stale locks left by dead
    /// holders.
    ///
    /// # Errors
    ///
    /// `TimedOut` when a live holder keeps the lock past the timeout, or
    /// the underlying I/O error from creating the lock file.
    pub fn acquire(journal: &Path) -> io::Result<JournalLock> {
        let lock_path = lock_path_for(journal);
        let deadline = Instant::now() + LOCK_TIMEOUT;
        loop {
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock_path)
            {
                Ok(mut file) => {
                    // Best-effort pid tag: staleness detection reads it.
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(JournalLock { lock_path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&lock_path) {
                        crate::metrics::counter("journal.stale_locks_broken").incr();
                        let _ = std::fs::remove_file(&lock_path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "journal lock {} held past {:?} by a live process",
                                lock_path.display(),
                                LOCK_TIMEOUT
                            ),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// The sibling lock-file path for a journal (`BENCH_repro.json` →
/// `BENCH_repro.json.lock`).
pub fn lock_path_for(journal: &Path) -> PathBuf {
    let mut name = journal
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "journal".to_owned());
    name.push_str(".lock");
    journal.with_file_name(name)
}

/// Whether a lock file was abandoned by a dead holder: its recorded pid
/// no longer exists (checked via `/proc` where available), or — when no
/// pid can be read — the file is older than [`LOCK_STALE_AGE`].
fn lock_is_stale(lock_path: &Path) -> bool {
    if let Some(pid) = std::fs::read_to_string(lock_path)
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
    {
        if cfg!(target_os = "linux") {
            return !Path::new(&format!("/proc/{pid}")).exists();
        }
    }
    std::fs::metadata(lock_path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| mtime.elapsed().ok())
        .is_some_and(|age| age > LOCK_STALE_AGE)
}

/// Appends one record as a single JSONL line, creating the file if
/// missing. The write is a single `write_all` of `line + "\n"` through
/// `O_APPEND`, so concurrent appenders interleave whole lines; on top of
/// that the whole operation holds the [`JournalLock`], because the two
/// in-place repairs below are read-modify-write:
///
/// * a legacy pre-journal file (one pretty-printed object spanning the
///   whole file) is migrated to a one-line JSONL record, so appending to
///   it never produces an unparseable hybrid;
/// * a **torn final line** — a crash mid-append leaves a prefix with no
///   trailing newline — is truncated away (counted in the
///   `journal.torn_lines` counter) so the new record starts on its own
///   line instead of concatenating onto the wreckage.
///
/// # Errors
///
/// Returns the underlying I/O error (callers report and continue; a
/// benchmark run must not die on a read-only checkout).
pub fn append(path: &Path, record: &Value) -> io::Result<()> {
    let _lock = JournalLock::acquire(path)?;
    migrate_legacy(path)?;
    repair_torn_tail(path)?;
    let mut line = record.render();
    line.push('\n');
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}

/// Truncates a torn final line (content after the last `\n`) so appends
/// land on a line boundary. A healthy journal (newline-terminated or
/// empty/missing) is untouched.
fn repair_torn_tail(path: &Path) -> io::Result<()> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if content.is_empty() || content.ends_with('\n') {
        return Ok(());
    }
    let keep = content.rfind('\n').map_or(0, |i| i + 1);
    crate::metrics::counter("journal.torn_lines").incr();
    std::fs::write(path, &content[..keep])
}

/// Rewrites a legacy whole-file JSON object as one compact JSONL line.
/// JSONL files (first line parses on its own), missing files and
/// unparseable files are left untouched.
fn migrate_legacy(path: &Path) -> io::Result<()> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if content.trim().is_empty() {
        return Ok(());
    }
    let first_line_is_record = content
        .lines()
        .next()
        .is_some_and(|l| Value::parse(l).is_ok());
    if first_line_is_record {
        return Ok(());
    }
    if let Ok(legacy) = Value::parse(&content) {
        std::fs::write(path, legacy.render() + "\n")?;
    }
    Ok(())
}

/// A journal that could not be read or parsed.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read (missing file is **not** an error —
    /// [`load`] returns an empty journal).
    Io(io::Error),
    /// A line (1-based; 0 for whole-file legacy parse) failed to parse.
    Parse {
        /// 1-based line number, 0 when the whole file failed as one
        /// document.
        line: usize,
        /// The parser's diagnosis.
        error: crate::json::ParseError,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Parse { line, error } => {
                write!(f, "journal line {line}: {error}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Loads every record in the journal, oldest first. A missing file is an
/// empty journal. A file that parses as one JSON document (the legacy
/// pre-journal format, or a one-line journal) yields one record.
///
/// **Torn-tail recovery:** a crash mid-append leaves a final line that
/// is a prefix of a record with no trailing newline. Such a line — the
/// file does not end in `\n` *and* its last line fails to parse — is
/// dropped (counted in the `journal.torn_lines` counter) instead of
/// failing the whole load: the torn record's run died before reporting,
/// so there is nothing to preserve. A malformed line anywhere *else*
/// (newline-terminated garbage) is still a hard [`JournalError::Parse`]
/// — that is corruption, not tearing.
///
/// # Errors
///
/// [`JournalError::Io`] on unreadable files, [`JournalError::Parse`]
/// with the offending line number on malformed records.
pub fn load(path: &Path) -> Result<Vec<Value>, JournalError> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    if content.trim().is_empty() {
        return Ok(Vec::new());
    }
    // Legacy tolerance: the whole file as one document (also covers a
    // one-line journal — identical result either way).
    if let Ok(single) = Value::parse(&content) {
        return Ok(vec![single]);
    }
    let torn_tail_possible = !content.ends_with('\n');
    let lines: Vec<(usize, &str)> = content
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut records = Vec::with_capacity(lines.len());
    for (pos, (i, l)) in lines.iter().enumerate() {
        match Value::parse(l) {
            Ok(v) => records.push(v),
            Err(_) if torn_tail_possible && pos == lines.len() - 1 => {
                crate::metrics::counter("journal.torn_lines").incr();
            }
            Err(error) => return Err(JournalError::Parse { line: i + 1, error }),
        }
    }
    Ok(records)
}

/// Why a gate could not judge the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompareError {
    /// Fewer eligible records than the gate's pairing needs.
    TooFewRecords {
        /// Eligible records found.
        found: usize,
        /// The `experiments` kind looked for.
        experiments: String,
    },
    /// The paired records ran at different thread counts.
    ThreadMismatch {
        /// Older record's thread count.
        older: u64,
        /// Newer record's thread count.
        newer: u64,
    },
    /// A judged record lacks a required field (or has the wrong type).
    MissingField(&'static str),
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::TooFewRecords { found, experiments } => {
                let gate = GATES.iter().find(|g| g.kind == experiments);
                let run = gate.map_or(experiments.as_str(), |g| g.run);
                let newest = gate.is_some_and(|g| g.pairing == Newest);
                let (need, times) = if newest {
                    ("one", "once")
                } else {
                    ("two", "twice")
                };
                write!(
                    f,
                    "need {need} valid {experiments:?} journal record(s) to compare, found \
                     {found} after ignoring zero-point and resumed records (run `repro {run}` {times})"
                )
            }
            CompareError::ThreadMismatch { older, newer } => write!(
                f,
                "latest runs used different thread counts ({older} vs {newer}); \
                 wall clocks are not comparable"
            ),
            CompareError::MissingField(field) => {
                write!(f, "journal record is missing numeric field {field:?}")
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// Whether a record measured nothing (`csv_points: 0` — a skipped
/// campaign or a fully-checkpointed `--resume` run): its near-zero wall
/// clock must never become a baseline. Legacy records without
/// `csv_points` are kept.
pub fn is_zero_point(record: &Value) -> bool {
    record.get("csv_points").and_then(Value::as_u64) == Some(0)
}

/// Whether a record came from a `--resume` run (`resumed: true`), whose
/// wall clock covers only the re-run remainder of the campaign.
pub fn is_resumed(record: &Value) -> bool {
    record.get("resumed").and_then(Value::as_bool) == Some(true)
}

// The latency thresholds are fractional growth bounds, deliberately loose
// (`3.0` trips only past 4×): the p99s come from log₂-bucketed histograms
// whose adjacent values differ by 2×, so tight bounds would flap.

/// Serving p99 / fairness p99.9 growth and throughput-collapse bound.
pub const SERVE_THRESHOLD: f64 = 3.0;
/// Max/min per-tenant throughput ratio (a 10× hot tenant lands near 10).
pub const FAIRNESS_THRESHOLD: f64 = 2.0;
/// Healthy-channel availability floor for the chaos-soak gate.
pub const SOAK_AVAILABILITY_FLOOR: f64 = 0.99;
/// Soak p99 MTTR growth bound.
pub const SOAK_MTTR_THRESHOLD: f64 = 3.0;
/// Hot-path p99 solve-time growth bound.
pub const SOLVE_THRESHOLD: f64 = 3.0;
/// Restart warm-start growth bound.
pub const RESTART_THRESHOLD: f64 = 3.0;

/// How a gate picks the records it judges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// The latest two eligible records, which must share a thread count.
    LatestTwo,
    /// The newest eligible record alone (an absolute gate).
    Newest,
}

/// What a bounded [`Rule`] compares the newest record's field against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A constant.
    Const(f64),
    /// Another field of the newest record, read like the checked one.
    Field(&'static str),
}

/// What a [`Check`] demands of its field; all but `Growth` and `Shrink`
/// (which need [`Pairing::LatestTwo`]) read the newest record only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Fails when `newer / older > 1 + t` (an older 0: ∞ if newer > 0).
    Growth(f64),
    /// Fails when `older > 0 && newer < older / (1 + t)`.
    Shrink(f64),
    /// Fails when `newer > bound`.
    AtMost(Bound),
    /// Fails when `newer < bound`.
    AtLeast(Bound),
    /// Fails when `newer >= bound`.
    Below(Bound),
    /// A boolean field; fails when `true`.
    IsFalse,
    /// A required field, shown in the verdict; never fails.
    Report,
}

use Bound::{Const, Field};
use Pairing::{LatestTwo, Newest};
use Rule::{AtLeast, AtMost, Below, Growth, IsFalse, Report, Shrink};

/// One journal field and the rule it must meet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check {
    /// The record field read.
    pub field: &'static str,
    /// Read as a non-negative integer (a fraction is a missing field).
    pub int: bool,
    /// What the field must satisfy.
    pub rule: Rule,
}

/// One regression gate: the records it reads, how it pairs them, and
/// the checks the newest must pass.
#[derive(Debug, PartialEq)]
pub struct Gate {
    /// The `repro compare <target>` name.
    pub target: &'static str,
    /// The `experiments` value of the records it reads.
    pub kind: &'static str,
    /// The `repro` subcommand appending those records (the too-few hint).
    pub run: &'static str,
    /// Latest two, or newest only.
    pub pairing: Pairing,
    /// Numeric fields a record needs to be eligible (else it is skipped).
    pub requires: &'static [&'static str],
    /// The checks, in field-read order (the first missing one reports).
    pub checks: &'static [Check],
}

/// Every gate `repro compare` knows, in the order bare `compare` runs
/// them. Bare `compare` requires only `all`; the rest arm themselves
/// once their records exist.
#[rustfmt::skip]
pub const GATES: &[Gate] = {
    const fn num(field: &'static str, rule: Rule) -> Check { Check { field, int: false, rule } }
    const fn int(field: &'static str, rule: Rule) -> Check { Check { field, int: true, rule } }
    &[
        // The paper campaign's wall clock.
        Gate { target: "all", kind: "all", run: "all", pairing: LatestTwo, requires: &[],
            checks: &[num("wall_s", Growth(DEFAULT_THRESHOLD))] },
        // Serving SLO: p99 growth or throughput collapse.
        Gate { target: "serve-bench", kind: "serve-bench", run: "serve-bench",
            pairing: LatestTwo, requires: &[], checks: &[
                num("p99_us", Growth(SERVE_THRESHOLD)),
                num("throughput_rps", Shrink(SERVE_THRESHOLD)),
            ] },
        // Multi-tenant serving: p99.9 growth, and the newest run's fairness —
        // absolute, so a starved tenant trips at once instead of poisoning
        // the next baseline.
        Gate { target: "fairness", kind: "serve-bench-mt", run: "serve-bench mt",
            pairing: LatestTwo, requires: &[], checks: &[
                num("p999_us", Growth(SERVE_THRESHOLD)),
                num("fairness_ratio", AtMost(Const(FAIRNESS_THRESHOLD))),
                int("tenants", Report),
            ] },
        // The calibration hot path, on instrumented `all` records only
        // (pre-fast-path and `VARDELAY_OBS=0` records lack the fields).
        Gate { target: "hotpath", kind: "all", run: "all", pairing: LatestTwo,
            requires: &["solve_p99_us", "pool_allocs"], checks: &[
                num("solve_p99_us", Growth(SOLVE_THRESHOLD)),
                num("pool_allocs", Growth(DEFAULT_THRESHOLD)),
            ] },
        // Chaos soak: MTTR growth, the newest run's availability, and every
        // incident healed.
        Gate { target: "soak", kind: "soak", run: "soak", pairing: LatestTwo, requires: &[],
            checks: &[
                num("mttr_p99_us", Growth(SOAK_MTTR_THRESHOLD)),
                num("availability", AtLeast(Const(SOAK_AVAILABILITY_FLOOR))),
                int("incidents", Report),
                int("unhealed", AtMost(Const(0.0))),
            ] },
        // Durable restart: warm-start growth, plus the newest run's recovery —
        // warm beats cold, a bank restored, none recalibrated, no divergence.
        Gate { target: "restart", kind: "restart", run: "restart", pairing: LatestTwo,
            requires: &[], checks: &[
                num("warm_start_us", Growth(RESTART_THRESHOLD)),
                num("warm_start_us", Below(Field("cold_start_us"))),
                int("banks_restored", AtLeast(Const(1.0))),
                int("banks_recalibrated", AtMost(Const(0.0))),
                int("wal_records_replayed", Report),
                int("replay_mismatches", AtMost(Const(0.0))),
            ] },
        // Backend contracts, absolute on the newest record: every contract
        // met, no reference drift, every injected fault caught.
        Gate { target: "backends", kind: "backends", run: "backends", pairing: Newest,
            requires: &[], checks: &[
                int("contract_violations", AtMost(Const(0.0))),
                num("reference_drift", IsFalse),
                int("faults_detected", AtLeast(Field("faults_expected"))),
            ] },
    ]
};

/// The [`GATES`] row for a `repro compare` target.
pub fn gate(target: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.target == target)
}

/// One evaluated [`Check`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The check evaluated.
    pub check: &'static Check,
    /// The older record's value (`Growth`/`Shrink` only).
    pub older: Option<f64>,
    /// The newest record's value (a boolean reads as 0 or 1).
    pub newer: f64,
    /// The limit: on the ratio for `Growth`, on `newer` otherwise.
    pub bound: Option<f64>,
    /// Whether the check passed.
    pub ok: bool,
}

/// A gate's judgement of the records it paired.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The gate evaluated.
    pub gate: &'static Gate,
    /// Thread (worker) count of the judged records.
    pub threads: u64,
    /// One row per check, in table order.
    pub rows: Vec<Row>,
    /// Whether any check failed.
    pub regressed: bool,
}

impl Verdict {
    /// The first row reading `field`.
    pub fn row(&self, field: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.check.field == field)
    }
}

/// `newer / older`: ∞ when only the older is 0, 1 when both are.
fn growth_ratio(older: f64, newer: f64) -> f64 {
    if older > 0.0 {
        newer / older
    } else if newer > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// Reads `field` as `check` reads: a bool as 0/1, an integer, or a number.
fn read(record: &Value, field: &'static str, check: &Check) -> Result<f64, CompareError> {
    let value = record.get(field);
    let n = match check.rule {
        IsFalse => value.and_then(Value::as_bool).map(f64::from),
        _ if check.int => value.and_then(Value::as_u64).map(|n| n as f64),
        _ => value.and_then(Value::as_f64),
    };
    n.ok_or(CompareError::MissingField(field))
}

/// Runs one gate over a journal (oldest record first) on its eligible
/// records: the gate's kind, not zero-point or resumed, carrying every
/// [`Gate::requires`] field.
///
/// # Errors
///
/// Too few eligible records, a pair's thread counts differing, or the
/// first field (`threads`, then check order) a judged record lacks.
pub fn evaluate(gate: &'static Gate, records: &[Value]) -> Result<Verdict, CompareError> {
    let has = |r: &Value, field| r.get(field).and_then(Value::as_f64).is_some();
    let eligible: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("experiments").and_then(Value::as_str) == Some(gate.kind))
        .filter(|r| !is_zero_point(r) && !is_resumed(r))
        .filter(|r| gate.requires.iter().all(|&field| has(r, field)))
        .collect();
    // The judged records: the previous one (paired gates only) and the last.
    let (prev, last) = match (gate.pairing, eligible.as_slice()) {
        (LatestTwo, [.., prev, last]) => (Some(*prev), *last),
        (Newest, [.., last]) => (None, *last),
        _ => {
            let (found, experiments) = (eligible.len(), gate.kind.to_owned());
            return Err(CompareError::TooFewRecords { found, experiments });
        }
    };
    let threads = |r: &Value| r.get("threads").and_then(Value::as_u64);
    let missing = || CompareError::MissingField("threads");
    let older = prev.map(|r| threads(r).ok_or_else(missing)).transpose()?;
    let newer = threads(last).ok_or_else(missing)?;
    if let Some(older) = older.filter(|&t| t != newer) {
        return Err(CompareError::ThreadMismatch { older, newer });
    }
    let mut rows = Vec::with_capacity(gate.checks.len());
    for check in gate.checks {
        // Only growth and shrink read the previous record.
        let prev = prev.filter(|_| matches!(check.rule, Growth(_) | Shrink(_)));
        let older = prev.map(|r| read(r, check.field, check)).transpose()?;
        let newer = read(last, check.field, check)?;
        let (bound, failed) = match (check.rule, older) {
            (Growth(t), Some(o)) => (Some(1.0 + t), growth_ratio(o, newer) > 1.0 + t),
            (Shrink(t), Some(o)) => (Some(o / (1.0 + t)), o > 0.0 && newer < o / (1.0 + t)),
            (AtMost(b) | AtLeast(b) | Below(b), _) => {
                let b = match b {
                    Const(c) => c,
                    Field(field) => read(last, field, check)?,
                };
                let failed = match check.rule {
                    AtMost(_) => newer > b,
                    AtLeast(_) => newer < b,
                    _ => newer >= b,
                };
                (Some(b), failed)
            }
            (IsFalse, _) => (None, newer != 0.0),
            _ => (None, false),
        };
        let ok = !failed;
        rows.push(Row {
            check,
            older,
            newer,
            bound,
            ok,
        });
    }
    let regressed = rows.iter().any(|r| !r.ok);
    Ok(Verdict {
        gate,
        threads: newer,
        rows,
        regressed,
    })
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (field, n, bound) = (self.check.field, self.newer, self.bound.unwrap_or(f64::NAN));
        match (self.check.rule, self.older) {
            (Growth(t), Some(o)) => {
                let (pct, t) = ((growth_ratio(o, n) - 1.0) * 100.0, t * 100.0);
                write!(f, "{field} {o} -> {n} ({pct:+.1} %, gate +{t:.0} %)")
            }
            (Shrink(_), Some(o)) => write!(f, "{field} {o} -> {n} (gate \u{2265} {bound})"),
            (rule @ (AtMost(b) | AtLeast(b) | Below(b)), _) => {
                let op = match rule {
                    AtMost(_) => "\u{2264}",
                    AtLeast(_) => "\u{2265}",
                    _ => "<",
                };
                match b {
                    Field(other) => write!(f, "{field} {n} (gate {op} {other} {bound})"),
                    Const(_) => write!(f, "{field} {n} (gate {op} {bound})"),
                }
            }
            (IsFalse, _) => write!(f, "{field} {} (gate false)", n != 0.0),
            _ => write!(f, "{field} {n}"),
        }?;
        f.write_str(if self.ok { "" } else { " FAIL" })
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rows: Vec<String> = self.rows.iter().map(Row::to_string).collect();
        let (target, rows, threads) = (self.gate.target, rows.join(", "), self.threads);
        let verdict = if self.regressed { "REGRESSED" } else { "ok" };
        write!(f, "{target}: {rows} ({threads} thread(s)): {verdict}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(experiments: &str, threads: u64, wall_s: f64) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", experiments)
            .with("threads", threads)
            .with("wall_s", wall_s)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "vardelay_obs_journal_{name}_{}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn append_accumulates_lines() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        append(&path, &record("all", 1, 6.5)).unwrap();
        append(&path, &record("fig9", 1, 0.01)).unwrap();
        append(&path, &record("all", 1, 6.4)).unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[1].get("experiments").unwrap().as_str(),
            Some("fig9")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty_journal() {
        assert!(load(Path::new("/nonexistent/vardelay.jsonl"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn legacy_single_object_loads_as_one_record() {
        let path = temp_path("legacy");
        std::fs::write(
            &path,
            "{\n  \"experiments\": \"fig9\",\n  \"threads\": 1,\n  \"wall_s\": 0.011\n}\n",
        )
        .unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("wall_s").unwrap().as_f64(), Some(0.011));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appending_to_a_legacy_file_migrates_it() {
        let path = temp_path("migrate");
        std::fs::write(
            &path,
            "{\n  \"experiments\": \"all\",\n  \"threads\": 1,\n  \"wall_s\": 6.5\n}\n",
        )
        .unwrap();
        append(&path, &record("fig9", 1, 0.01)).unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 2, "legacy record + appended record");
        assert_eq!(records[0].get("experiments").unwrap().as_str(), Some("all"));
        assert_eq!(records[0].get("wall_s").unwrap().as_f64(), Some(6.5));
        assert_eq!(
            records[1].get("experiments").unwrap().as_str(),
            Some("fig9")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let path = temp_path("malformed");
        std::fs::write(&path, "{\"experiments\":\"all\"}\nnot json\n").unwrap();
        match load(&path) {
            Err(JournalError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_and_counted() {
        crate::set_enabled(true);
        let path = temp_path("torn");
        // A healthy record, then a crash mid-append: the second line is
        // truncated mid-byte with no trailing newline.
        let healthy = record("all", 1, 6.5).render();
        let torn = &record("all", 1, 6.6).render()[..20];
        std::fs::write(&path, format!("{healthy}\n{torn}")).unwrap();

        let before = crate::metrics::counter("journal.torn_lines").get();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 1, "exactly the torn line is dropped");
        assert_eq!(records[0].get("wall_s").and_then(Value::as_f64), Some(6.5));
        assert_eq!(
            crate::metrics::counter("journal.torn_lines").get(),
            before + 1,
            "torn line increments journal.torn_lines"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn newline_terminated_garbage_is_still_a_parse_error() {
        // Tearing can only truncate the trailing newline away; a garbage
        // line *with* its newline is corruption and must stay loud.
        let path = temp_path("garbage");
        std::fs::write(&path, "{\"experiments\":\"all\"}\nnot json\n").unwrap();
        match load(&path) {
            Err(JournalError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_repairs_a_torn_tail_before_writing() {
        let path = temp_path("repair");
        let healthy = record("all", 1, 6.5).render();
        std::fs::write(&path, format!("{healthy}\n{{\"experiments\":\"al")).unwrap();

        append(&path, &record("all", 1, 6.4)).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(
            !content.contains("{\"experiments\":\"al{"),
            "new record must not concatenate onto the torn tail: {content:?}"
        );
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 2, "healthy + appended; torn tail gone");
        assert_eq!(records[1].get("wall_s").and_then(Value::as_f64), Some(6.4));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_lock_from_a_dead_pid_is_broken() {
        let path = temp_path("stale_lock");
        let _ = std::fs::remove_file(&path);
        // Plant a lock whose holder pid cannot exist.
        std::fs::write(lock_path_for(&path), "4294967294").unwrap();
        append(&path, &record("all", 1, 6.5)).unwrap();
        assert_eq!(load(&path).unwrap().len(), 1);
        assert!(!lock_path_for(&path).exists(), "lock released after append");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_appends_serialize_into_whole_lines() {
        let path = temp_path("concurrent");
        let _ = std::fs::remove_file(&path);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let path = &path;
                scope.spawn(move || {
                    for k in 0..4 {
                        append(path, &record("all", 1, (t * 10 + k) as f64)).unwrap();
                    }
                });
            }
        });
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 32, "every append landed as its own line");
        assert!(!lock_path_for(&path).exists(), "no lock file left behind");
        std::fs::remove_file(&path).unwrap();
    }

    /// Evaluates the [`GATES`] row for `target`.
    fn run(target: &str, records: &[Value]) -> Result<Verdict, CompareError> {
        evaluate(gate(target).expect("a GATES target"), records)
    }

    fn older(v: &Verdict, field: &str) -> f64 {
        v.row(field).and_then(|r| r.older).expect("a paired row")
    }

    fn newer(v: &Verdict, field: &str) -> f64 {
        v.row(field).expect("a row").newer
    }

    fn ratio(v: &Verdict, field: &str) -> f64 {
        newer(v, field) / older(v, field)
    }

    #[test]
    fn compare_ignores_zero_point_records() {
        let zero = record("all", 1, 0.0).with("csv_points", 0u64);
        assert!(is_zero_point(&zero));
        // A skipped-campaign record must be invisible to the gate: the
        // real baseline is the latest two records with actual points.
        let records = vec![
            record("all", 1, 6.0).with("csv_points", 172u64),
            record("all", 1, 6.2).with("csv_points", 172u64),
            zero.clone(),
        ];
        let c = run("all", &records).unwrap();
        assert_eq!(older(&c, "wall_s"), 6.0);
        assert_eq!(newer(&c, "wall_s"), 6.2);
        assert!(!c.regressed, "{c}");
        // With only one valid record left, the error is the clear
        // one-liner, not a bogus comparison against the zero record.
        let records = vec![record("all", 1, 6.0).with("csv_points", 172u64), zero];
        let err = run("all", &records).unwrap_err();
        assert_eq!(
            err,
            CompareError::TooFewRecords {
                found: 1,
                experiments: "all".to_owned()
            }
        );
        assert!(err.to_string().contains("zero-point"), "{err}");
        // Legacy records without csv_points stay comparable.
        assert!(!is_zero_point(&record("all", 1, 6.0)));
    }

    #[test]
    fn compare_ignores_partially_resumed_records() {
        // A --resume run only re-ran part of the campaign: its wall
        // clock would make every honest full run look regressed.
        let records = vec![
            record("all", 1, 6.0).with("csv_points", 172u64),
            record("all", 1, 1.8)
                .with("csv_points", 40u64)
                .with("resumed", true),
            record("all", 1, 6.2).with("csv_points", 172u64),
        ];
        let c = run("all", &records).unwrap();
        assert_eq!(older(&c, "wall_s"), 6.0);
        assert_eq!(newer(&c, "wall_s"), 6.2);
        assert!(!c.regressed, "{c}");
    }

    #[test]
    fn compare_picks_latest_two_matching() {
        let records = vec![
            record("all", 1, 10.0),
            record("fig9", 1, 0.01), // interleaved single-figure run: ignored
            record("all", 1, 6.0),
            record("all", 1, 6.3),
        ];
        let c = run("all", &records).unwrap();
        assert_eq!(older(&c, "wall_s"), 6.0);
        assert_eq!(newer(&c, "wall_s"), 6.3);
        assert!(!c.regressed, "{c}");
    }

    #[test]
    fn compare_flags_regression_over_threshold() {
        let records = vec![record("all", 1, 6.0), record("all", 1, 6.61)];
        let c = run("all", &records).unwrap();
        assert!(c.regressed, "{c}");
        // And just inside the gate passes.
        let records = vec![record("all", 1, 6.0), record("all", 1, 6.59)];
        assert!(!run("all", &records).unwrap().regressed);
    }

    #[test]
    fn compare_requires_two_records_and_equal_threads() {
        assert_eq!(
            run("all", &[record("all", 1, 6.0)]),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "all".to_owned()
            })
        );
        assert_eq!(
            run("all", &[record("all", 1, 6.0), record("all", 4, 2.0)]),
            Err(CompareError::ThreadMismatch { older: 1, newer: 4 })
        );
    }

    fn hotpath_record(threads: u64, solve_p99_us: f64, allocs: f64) -> Value {
        record("all", threads, 6.0)
            .with("csv_points", 172u64)
            .with("solve_p99_us", solve_p99_us)
            .with("pool_allocs", allocs)
    }

    #[test]
    fn hotpath_compare_gates_solve_p99_and_allocations() {
        // A 2× p99 bucket step with flat allocations passes the loose
        // latency leg.
        let records = vec![
            hotpath_record(4, 4000.0, 9.5),
            hotpath_record(4, 8000.0, 9.5),
        ];
        let c = run("hotpath", &records).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(ratio(&c, "solve_p99_us"), 2.0);
        // A >4× p99 blowup trips it.
        let records = vec![
            hotpath_record(4, 4000.0, 9.5),
            hotpath_record(4, 17000.0, 9.5),
        ];
        assert!(run("hotpath", &records).unwrap().regressed);
        // Pool allocations are a count, not a timing, so their gate is
        // the tight default: +11 % fails even with a flat p99.
        let records = vec![
            hotpath_record(4, 4000.0, 9.5),
            hotpath_record(4, 4000.0, 10.6),
        ];
        assert!(run("hotpath", &records).unwrap().regressed);
    }

    #[test]
    fn hotpath_compare_skips_uninstrumented_and_invalid_records() {
        // Pre-fast-path records (no hot-path fields) and zero-point or
        // resumed records never become baselines: the gate arms itself
        // only once two instrumented full runs exist.
        let legacy = record("all", 4, 6.0).with("csv_points", 172u64);
        let zero = record("all", 4, 0.1)
            .with("csv_points", 0u64)
            .with("solve_p99_us", 4000.0)
            .with("pool_allocs", 9.5);
        let resumed = hotpath_record(4, 900.0, 2.0).with("resumed", true);
        let records = vec![
            legacy.clone(),
            zero,
            resumed,
            hotpath_record(4, 4000.0, 9.5),
        ];
        assert_eq!(
            run("hotpath", &records),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "all".to_owned()
            })
        );
        // Two instrumented records compare even across interleaved
        // legacy ones.
        let records = vec![
            hotpath_record(4, 4000.0, 9.5),
            legacy,
            hotpath_record(4, 4100.0, 9.5),
        ];
        let c = run("hotpath", &records).unwrap();
        assert_eq!(older(&c, "solve_p99_us"), 4000.0);
        assert_eq!(newer(&c, "solve_p99_us"), 4100.0);
        assert!(!c.regressed, "{c}");
        // Different widths are not comparable.
        let records = vec![
            hotpath_record(2, 4000.0, 9.5),
            hotpath_record(4, 4000.0, 9.5),
        ];
        assert_eq!(
            run("hotpath", &records),
            Err(CompareError::ThreadMismatch { older: 2, newer: 4 })
        );
    }

    fn serve_record(threads: u64, p99_us: f64, rps: f64) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", "serve-bench")
            .with("threads", threads)
            .with("p99_us", p99_us)
            .with("throughput_rps", rps)
    }

    #[test]
    fn serve_compare_gates_p99_and_throughput() {
        // Within the loose gate: a 2× p99 bucket step passes.
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            serve_record(4, 800.0, 4800.0),
        ];
        let c = run("serve-bench", &records).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(ratio(&c, "p99_us"), 2.0);
        // A >4× p99 blowup trips it.
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            serve_record(4, 1700.0, 4800.0),
        ];
        assert!(run("serve-bench", &records).unwrap().regressed);
        // So does a throughput collapse, even with a flat p99.
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            serve_record(4, 400.0, 1000.0),
        ];
        assert!(run("serve-bench", &records).unwrap().regressed);
    }

    #[test]
    fn serve_compare_needs_two_records_and_equal_workers() {
        // Wall-clock records in the same journal are not serve records.
        let records = vec![record("all", 1, 6.0), serve_record(4, 400.0, 5000.0)];
        assert_eq!(
            run("serve-bench", &records),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "serve-bench".to_owned()
            })
        );
        let records = vec![
            serve_record(2, 400.0, 5000.0),
            serve_record(4, 400.0, 5000.0),
        ];
        assert_eq!(
            run("serve-bench", &records),
            Err(CompareError::ThreadMismatch { older: 2, newer: 4 })
        );
        let bad = vec![
            serve_record(4, 400.0, 5000.0),
            Value::obj()
                .with("experiments", "serve-bench")
                .with("threads", 4u64),
        ];
        assert_eq!(
            run("serve-bench", &bad),
            Err(CompareError::MissingField("p99_us"))
        );
    }

    fn mt_record(threads: u64, p999_us: f64, fairness: f64) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", "serve-bench-mt")
            .with("threads", threads)
            .with("tenants", 16u64)
            .with("p999_us", p999_us)
            .with("fairness_ratio", fairness)
    }

    #[test]
    fn fairness_compare_gates_p999_growth_and_the_newest_ratio() {
        // Balanced and flat: ok.
        let records = vec![mt_record(4, 2000.0, 1.1), mt_record(4, 4000.0, 1.3)];
        let c = run("fairness", &records).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(ratio(&c, "p999_us"), 2.0);
        assert_eq!(newer(&c, "tenants"), 16.0);
        // A >4× p99.9 blowup trips the latency side.
        let records = vec![mt_record(4, 2000.0, 1.1), mt_record(4, 9000.0, 1.1)];
        assert!(run("fairness", &records).unwrap().regressed);
        // A starved tenant trips the fairness side even with flat
        // latency — the ratio is absolute, judged on the newest run
        // alone, so an injection cannot hide behind a calm older run.
        let records = vec![mt_record(4, 2000.0, 1.1), mt_record(4, 2000.0, 9.7)];
        let c = run("fairness", &records).unwrap();
        assert!(c.regressed, "{c}");
        assert!(c.to_string().contains("REGRESSED"), "{c}");
    }

    #[test]
    fn fairness_compare_needs_two_mt_records_with_full_fields() {
        // Single-tenant serve records do not feed the mt gate.
        let records = vec![serve_record(4, 400.0, 5000.0), mt_record(4, 2000.0, 1.1)];
        assert_eq!(
            run("fairness", &records),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "serve-bench-mt".to_owned()
            })
        );
        let records = vec![mt_record(2, 2000.0, 1.1), mt_record(4, 2000.0, 1.1)];
        assert_eq!(
            run("fairness", &records),
            Err(CompareError::ThreadMismatch { older: 2, newer: 4 })
        );
        let bad = vec![
            mt_record(4, 2000.0, 1.1),
            Value::obj()
                .with("experiments", "serve-bench-mt")
                .with("threads", 4u64),
        ];
        assert_eq!(
            run("fairness", &bad),
            Err(CompareError::MissingField("p999_us"))
        );
    }

    fn soak_record(
        threads: u64,
        mttr_p99_us: f64,
        availability: f64,
        incidents: u64,
        unhealed: u64,
    ) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", "soak")
            .with("threads", threads)
            .with("incidents", incidents)
            .with("unhealed", unhealed)
            .with("mttr_p99_us", mttr_p99_us)
            .with("availability", availability)
    }

    #[test]
    fn soak_compare_gates_mttr_growth_and_the_newest_health() {
        // MTTR doubled but everything healed and availability held: ok.
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            soak_record(2, 200_000.0, 0.995, 4, 0),
        ];
        let c = run("soak", &records).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(ratio(&c, "mttr_p99_us"), 2.0);
        assert_eq!(newer(&c, "incidents"), 4.0);
        // A >4× recovery blowup trips the MTTR side.
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            soak_record(2, 500_000.0, 1.0, 4, 0),
        ];
        assert!(run("soak", &records).unwrap().regressed);
        // An availability dip trips the floor even with flat MTTR —
        // absolute on the newest run, so an outage cannot hide behind a
        // calm older baseline.
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            soak_record(2, 100_000.0, 0.97, 4, 0),
        ];
        let c = run("soak", &records).unwrap();
        assert!(c.regressed, "{c}");
        assert!(c.to_string().contains("REGRESSED"), "{c}");
        // A single unhealed incident trips it outright — this is the
        // deterministic red leg: recalibration sabotaged, nothing heals.
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            soak_record(2, 100_000.0, 1.0, 4, 1),
        ];
        assert!(run("soak", &records).unwrap().regressed);
    }

    #[test]
    fn soak_compare_needs_two_soak_records_with_full_fields() {
        // Other serve-side records in the journal do not feed the gate.
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            soak_record(2, 100_000.0, 1.0, 4, 0),
        ];
        assert_eq!(
            run("soak", &records),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "soak".to_owned()
            })
        );
        let records = vec![
            soak_record(1, 100_000.0, 1.0, 4, 0),
            soak_record(2, 100_000.0, 1.0, 4, 0),
        ];
        assert_eq!(
            run("soak", &records),
            Err(CompareError::ThreadMismatch { older: 1, newer: 2 })
        );
        let bad = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            Value::obj()
                .with("experiments", "soak")
                .with("threads", 2u64),
        ];
        assert_eq!(
            run("soak", &bad),
            Err(CompareError::MissingField("mttr_p99_us"))
        );
    }

    fn restart_record(
        threads: u64,
        cold_start_us: f64,
        warm_start_us: f64,
        banks_restored: u64,
        banks_recalibrated: u64,
        replay_mismatches: u64,
    ) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", "restart")
            .with("threads", threads)
            .with("cold_start_us", cold_start_us)
            .with("warm_start_us", warm_start_us)
            .with("banks_restored", banks_restored)
            .with("banks_recalibrated", banks_recalibrated)
            .with("wal_records_replayed", 12u64)
            .with("replay_mismatches", replay_mismatches)
    }

    #[test]
    fn restart_compare_gates_warm_growth_and_the_newest_recovery() {
        // Warm start half the cold start, a bank restored, no
        // divergence: ok even when the warm time doubled run-over-run.
        let records = vec![
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 0),
            restart_record(2, 900_000.0, 200_000.0, 1, 0, 0),
        ];
        let c = run("restart", &records).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(ratio(&c, "warm_start_us"), 2.0);
        assert_eq!(newer(&c, "banks_restored"), 1.0);
        // A >4× warm-start blowup trips the growth side.
        let records = vec![
            restart_record(2, 9_000_000.0, 100_000.0, 1, 0, 0),
            restart_record(2, 9_000_000.0, 500_000.0, 1, 0, 0),
        ];
        assert!(run("restart", &records).unwrap().regressed);
        // The correctness legs are absolute on the newest run: zero
        // banks restored, any replay divergence, any forced
        // recalibration, or warm slower than cold each trip alone.
        for newest in [
            restart_record(2, 900_000.0, 100_000.0, 0, 0, 0),
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 3),
            restart_record(2, 900_000.0, 100_000.0, 1, 1, 0),
            restart_record(2, 900_000.0, 950_000.0, 1, 0, 0),
        ] {
            let records = vec![restart_record(2, 900_000.0, 100_000.0, 1, 0, 0), newest];
            let c = run("restart", &records).unwrap();
            assert!(c.regressed, "{c}");
            assert!(c.to_string().contains("REGRESSED"), "{c}");
        }
    }

    #[test]
    fn restart_compare_needs_two_restart_records_with_full_fields() {
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 0),
        ];
        assert_eq!(
            run("restart", &records),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "restart".to_owned()
            })
        );
        let records = vec![
            restart_record(1, 900_000.0, 100_000.0, 1, 0, 0),
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 0),
        ];
        assert_eq!(
            run("restart", &records),
            Err(CompareError::ThreadMismatch { older: 1, newer: 2 })
        );
        let bad = vec![
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 0),
            Value::obj()
                .with("experiments", "restart")
                .with("threads", 2u64),
        ];
        assert_eq!(
            run("restart", &bad),
            Err(CompareError::MissingField("warm_start_us"))
        );
    }

    fn backends_record(violations: u64, drift: bool, detected: u64, expected: u64) -> Value {
        Value::obj()
            .with("experiments", "backends")
            .with("threads", 2u64)
            .with("contract_violations", violations)
            .with("reference_drift", drift)
            .with("faults_detected", detected)
            .with("faults_expected", expected)
    }

    #[test]
    fn backends_compare_is_absolute_on_the_newest_record() {
        // A single clean record passes — the gate needs no baseline.
        let c = run("backends", &[backends_record(0, false, 3, 3)]).unwrap();
        assert!(!c.regressed, "{c}");
        // Only the newest record is gated: an old violation is history.
        let records = vec![
            backends_record(2, true, 0, 3),
            backends_record(0, false, 3, 3),
        ];
        assert!(!run("backends", &records).unwrap().regressed);
        // Each leg trips alone.
        for red in [
            backends_record(1, false, 3, 3),
            backends_record(0, true, 3, 3),
            backends_record(0, false, 2, 3),
        ] {
            let c = run("backends", &[red]).unwrap();
            assert!(c.regressed, "{c}");
            assert!(c.to_string().contains("REGRESSED"), "{c}");
        }
        // Masked injection (0/0 faults) is not a failure.
        assert!(
            !run("backends", &[backends_record(0, false, 0, 0)])
                .unwrap()
                .regressed
        );
    }

    #[test]
    fn backends_compare_needs_a_record_with_full_fields() {
        let records = vec![soak_record(2, 100_000.0, 1.0, 4, 0)];
        assert_eq!(
            run("backends", &records),
            Err(CompareError::TooFewRecords {
                found: 0,
                experiments: "backends".to_owned()
            })
        );
        let bad = vec![Value::obj()
            .with("experiments", "backends")
            .with("threads", 2u64)];
        assert_eq!(
            run("backends", &bad),
            Err(CompareError::MissingField("contract_violations"))
        );
    }

    #[test]
    fn too_few_records_names_the_command_that_writes_them() {
        // The fairness records come from `repro serve-bench mt`; there is
        // no `serve-bench-mt` subcommand.
        let err = run("fairness", &[mt_record(4, 2000.0, 1.1)]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("run `repro serve-bench mt` twice"), "{msg}");
        assert!(msg.contains("need two valid"), "{msg}");
        // The absolute gate needs a single record.
        let msg = run("backends", &[]).unwrap_err().to_string();
        assert!(msg.contains("need one valid"), "{msg}");
        assert!(msg.contains("run `repro backends` once"), "{msg}");
    }

    #[test]
    fn every_gate_ignores_zero_point_and_resumed_records() {
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            serve_record(4, 400.0, 5000.0),
            serve_record(4, 9000.0, 10.0).with("csv_points", 0u64),
            serve_record(4, 9000.0, 10.0).with("resumed", true),
        ];
        let c = run("serve-bench", &records).unwrap();
        assert!(!c.regressed, "{c}");
        let err = run(
            "backends",
            &[backends_record(1, true, 0, 3).with("resumed", true)],
        );
        assert_eq!(
            err,
            Err(CompareError::TooFewRecords {
                found: 0,
                experiments: "backends".to_owned()
            })
        );
    }

    #[test]
    fn boundaries_sit_exactly_at_the_thresholds() {
        // Growth: newer/older == 1 + t passes, anything above fails; an
        // older 0 is ∞ growth unless the newer is 0 too.
        let ok = run(
            "hotpath",
            &[hotpath_record(1, 4.0, 9.5), hotpath_record(1, 16.0, 9.5)],
        );
        assert!(!ok.unwrap().regressed);
        let red = run(
            "hotpath",
            &[hotpath_record(1, 4.0, 9.5), hotpath_record(1, 16.5, 9.5)],
        );
        assert!(red.unwrap().regressed);
        let zero = run(
            "hotpath",
            &[hotpath_record(1, 0.0, 9.5), hotpath_record(1, 0.0, 9.5)],
        );
        assert!(!zero.unwrap().regressed);
        let inf = run(
            "hotpath",
            &[hotpath_record(1, 0.0, 9.5), hotpath_record(1, 1.0, 9.5)],
        );
        assert!(inf.unwrap().regressed);
        // Throughput collapses only strictly below older / (1 + t), and
        // never from a zero baseline.
        let at = run(
            "serve-bench",
            &[serve_record(1, 1.0, 4000.0), serve_record(1, 1.0, 1000.0)],
        );
        assert!(!at.unwrap().regressed);
        let below = run(
            "serve-bench",
            &[serve_record(1, 1.0, 4000.0), serve_record(1, 1.0, 999.0)],
        );
        assert!(below.unwrap().regressed);
        let from_zero = run(
            "serve-bench",
            &[serve_record(1, 1.0, 0.0), serve_record(1, 1.0, 0.0)],
        );
        assert!(!from_zero.unwrap().regressed);
        // Availability regresses only below the floor.
        let floor = soak_record(2, 1.0, SOAK_AVAILABILITY_FLOOR, 4, 0);
        let base = soak_record(2, 1.0, 1.0, 4, 0);
        assert!(!run("soak", &[base.clone(), floor]).unwrap().regressed);
        let dip = soak_record(2, 1.0, 0.9899, 4, 0);
        assert!(run("soak", &[base, dip]).unwrap().regressed);
        // Warm start regresses at warm == cold.
        let base = restart_record(2, 900.0, 300.0, 1, 0, 0);
        let equal = restart_record(2, 900.0, 900.0, 1, 0, 0);
        let c = run("restart", &[base, equal]).unwrap();
        assert!(c.regressed, "{c}");
        // Detected == expected passes.
        assert!(
            !run("backends", &[backends_record(0, false, 3, 3)])
                .unwrap()
                .regressed
        );
        // Integer fields stay integers: a fractional count is missing.
        let frac = soak_record(2, 1.0, 1.0, 4, 0).with("unhealed", 0.5);
        let frac = Value::Obj(match frac {
            Value::Obj(pairs) => pairs.into_iter().rev().collect(),
            other => panic!("{other:?}"),
        });
        assert_eq!(
            run("soak", &[soak_record(2, 1.0, 1.0, 4, 0), frac]),
            Err(CompareError::MissingField("unhealed"))
        );
    }

    #[test]
    fn the_verdict_marks_the_failing_check() {
        let records = vec![record("all", 2, 2.432), record("all", 2, 2.695)];
        let line = run("all", &records).unwrap().to_string();
        assert_eq!(
            line,
            "all: wall_s 2.432 -> 2.695 (+10.8 %, gate +10 %) FAIL (2 thread(s)): REGRESSED"
        );
        let c = run("backends", &[backends_record(0, true, 2, 3)]).unwrap();
        assert_eq!(
            c.to_string(),
            "backends: contract_violations 0 (gate \u{2264} 0), reference_drift true \
             (gate false) FAIL, faults_detected 2 (gate \u{2265} faults_expected 3) FAIL \
             (2 thread(s)): REGRESSED"
        );
    }

    #[test]
    fn the_table_is_well_formed() {
        for (i, g) in GATES.iter().enumerate() {
            assert!(
                GATES[..i].iter().all(|other| other.target != g.target),
                "duplicate target {}",
                g.target
            );
            // Records of one kind share one hint and one pairing, since
            // the too-few-records message looks them up by kind.
            let first = GATES.iter().find(|other| other.kind == g.kind).unwrap();
            assert_eq!(
                (first.run, first.pairing),
                (g.run, g.pairing),
                "{}",
                g.target
            );
            for check in g.checks {
                if let Rule::Growth(_) | Rule::Shrink(_) = check.rule {
                    assert_eq!(g.pairing, Pairing::LatestTwo, "{}", g.target);
                }
            }
        }
    }
}
