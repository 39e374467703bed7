//! Deterministic, seeded fault injection for the vardelay models.
//!
//! The paper's circuit is meant to live under a DIB for months — DAC bits
//! stick, mux select lines short, transmission lines come out the wrong
//! length (the prototype's own taps measure 0/33/70/95 ps against a
//! 0/33/66/99 ps design), drivers die, and the thermal environment moves
//! under a stale calibration. This crate models those failure modes as
//! plain value types that wrap or perturb the healthy models in
//! `vardelay-core`, so the self-test ([`vardelay_core::selftest`]) and the
//! degraded-mode deskew loop can be exercised against *known* injected
//! faults and scored on what they detect.
//!
//! # Determinism
//!
//! Fault injection obeys the workspace's reproducibility contract
//! (DESIGN.md §8/§10): every stochastic choice derives from
//! [`vardelay_runner::task_seed`] applied to a caller-provided root seed
//! and a stable lane index — never from wall-clock, thread identity, or
//! global state. A [`FaultPlan`] replayed at any thread count injects the
//! exact same faults at the exact same conversions.
//!
//! # Kill switch
//!
//! `VARDELAY_FAULTS=0` (or `off`/`false`) in the environment disables
//! every plan — [`FaultPlan::active`] returns no faults, so a production
//! run can carry the campaign wiring with zero injected behavior.
//! [`set_enabled`] overrides the environment either way (used by tests).

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU8, Ordering};
use std::time::Duration;

use vardelay_core::config::ModelConfig;
use vardelay_core::drift::TempCo;
use vardelay_core::selftest::DacUnderTest;
use vardelay_core::{CalibrationTable, VctrlDac};
use vardelay_runner::task_seed;
use vardelay_siggen::SplitMix64;
use vardelay_units::{Time, Voltage};

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

/// 0 = unresolved, 1 = on, 2 = off (same tri-state idiom as `vardelay-obs`).
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether fault plans inject anything. Defaults to **on**;
/// `VARDELAY_FAULTS=0` (or `off`/`false`) in the environment disables
/// injection, and [`set_enabled`] overrides either way at runtime.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("VARDELAY_FAULTS").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces fault injection on or off, overriding the environment.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Crash injection
// ---------------------------------------------------------------------------

/// A named crash-injection point for the kill-and-resume chaos gate
/// (DESIGN.md §11).
///
/// `repro` calls `kill_point(name)` immediately after experiment
/// `name`'s checkpoint is written. When the environment carries
/// `VARDELAY_KILL_AFTER=<name>`, the matching call **aborts the
/// process** — no unwinding, no destructors, no flushes — which is the
/// closest simulation of a mid-campaign `kill -9` that a portable test
/// can arrange. The chaos CI job launches `repro all` with a kill point
/// set, then proves that `repro all --resume` completes the campaign
/// with byte-identical CSVs.
///
/// The point is deterministic by construction: it is named, not timed,
/// so the same environment kills the same campaign at the same place on
/// every machine. Unset (the default), this is a no-op on every call.
///
/// The durable serving layer (DESIGN.md §16) adds three points of its
/// own, each sitting inside a torn-state window the recovery path must
/// survive: `snapshot-rename` (snapshot staged but not yet published),
/// `wal-append` (record written, response not yet acked) and
/// `wal-compact` (fresh snapshots written, log not yet truncated).
/// Note that in-process test servers must never set
/// `VARDELAY_KILL_AFTER` — the abort takes the whole test process with
/// it; the CI restart job kills real server processes instead.
pub fn kill_point(name: &str) {
    if std::env::var("VARDELAY_KILL_AFTER").as_deref() == Ok(name) {
        eprintln!("faults: VARDELAY_KILL_AFTER={name} reached — simulating a crash");
        std::process::abort();
    }
}

/// Seeded worker-kill chaos for the `vardelay-serve` request path
/// (DESIGN.md §12).
///
/// Each request carries a monotone index assigned at admission; the
/// worker that picks it up asks [`RequestChaos::kills`] whether this is
/// a doomed request. A kill is a plain `panic!` *inside* the worker's
/// `catch_unwind` — the client gets a structured `internal` error
/// response and the worker thread survives to take the next job, which
/// is exactly the fault-isolation property the serve chaos gate scores.
///
/// Determinism follows the workspace contract: the verdict is
/// `task_seed(seed, index) % one_in == 0`, so the same seed dooms the
/// same request indices regardless of worker count or timing. The
/// global [`enabled`] kill switch (`VARDELAY_FAULTS=0`) masks it like
/// every other fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestChaos {
    seed: u64,
    one_in: u64,
}

impl RequestChaos {
    /// A chaos plan that dooms roughly one request in `one_in`,
    /// deterministically by request index. `one_in == 0` never kills.
    pub fn new(seed: u64, one_in: u64) -> Self {
        RequestChaos { seed, one_in }
    }

    /// Whether the request with this admission index is doomed.
    pub fn kills(&self, request_index: u64) -> bool {
        enabled()
            && self.one_in != 0
            && task_seed(self.seed, request_index).is_multiple_of(self.one_in)
    }
}

// ---------------------------------------------------------------------------
// Fault taxonomy
// ---------------------------------------------------------------------------

/// One injectable hardware fault (DESIGN.md §10 taxonomy).
///
/// Each variant corresponds to a physical failure of the paper's circuit;
/// the campaign in `vardelay-bench` injects each kind and scores whether
/// the self-test or the degraded deskew loop catches it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// DAC data bit `bit` reads back 0 regardless of the requested code.
    DacStuckLow { bit: u8 },
    /// DAC data bit `bit` reads back 1 regardless of the requested code.
    DacStuckHigh { bit: u8 },
    /// DAC data bit `bit` flips on a fraction `probability` of
    /// conversions (marginal solder joint / metastable latch).
    DacFlakyBit { bit: u8, probability: f64 },
    /// The calibration measurement at grid point `point` comes back
    /// spiked by `spike` (a mis-triggered sampling scope shot).
    CalibrationSpike { point: usize, spike: Time },
    /// Coarse-mux select line `line` (0 or 1) is shorted to `level`.
    MuxSelectStuck { line: u8, level: bool },
    /// Coarse tap `tap` is `extra` longer than its design (etch error).
    TapDeviation { tap: usize, extra: Time },
    /// Channel `channel` produces no signal at all.
    DeadDriver { channel: usize },
    /// Channel `channel` fails its first `fail_attempts` measurement
    /// attempts, then recovers (marginal contact; retry succeeds).
    WeakDriver { channel: usize, fail_attempts: u32 },
    /// The operating temperature steps `delta_k` kelvin away from the
    /// calibration point mid-run.
    TempStep { delta_k: f64 },
    /// Carry-chain bin `bin` of a Vernier backend collapses (a routing
    /// "bubble"): every delay downstream of the bin shifts by roughly
    /// one step while the stale calibration table still predicts the
    /// healthy chain. Only meaningful for the Vernier backend
    /// (`vardelay-backend`).
    VernierChainBubble { bin: usize },
    /// A DLL backend's loop loses lock: answers are grossly wrong until
    /// a recalibration re-locks the loop. Only meaningful for the DLL
    /// backend (`vardelay-backend`).
    DllLockLoss,
}

impl FaultKind {
    /// Short stable identifier for CSV/journal rows.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::DacStuckLow { .. } => "dac_stuck_low",
            FaultKind::DacStuckHigh { .. } => "dac_stuck_high",
            FaultKind::DacFlakyBit { .. } => "dac_flaky_bit",
            FaultKind::CalibrationSpike { .. } => "calibration_spike",
            FaultKind::MuxSelectStuck { .. } => "mux_select_stuck",
            FaultKind::TapDeviation { .. } => "tap_deviation",
            FaultKind::DeadDriver { .. } => "dead_driver",
            FaultKind::WeakDriver { .. } => "weak_driver",
            FaultKind::TempStep { .. } => "temp_step",
            FaultKind::VernierChainBubble { .. } => "vernier_chain_bubble",
            FaultKind::DllLockLoss => "dll_lock_loss",
        }
    }

    /// The fault's scalar parameter, rendered stably for CSV rows.
    pub fn param(&self) -> String {
        match self {
            FaultKind::DacStuckLow { bit } | FaultKind::DacStuckHigh { bit } => {
                format!("bit={bit}")
            }
            FaultKind::DacFlakyBit { bit, probability } => format!("bit={bit};p={probability}"),
            FaultKind::CalibrationSpike { point, spike } => {
                format!("point={point};spike_ps={}", spike.as_ps())
            }
            FaultKind::MuxSelectStuck { line, level } => {
                format!("line={line};level={}", u8::from(*level))
            }
            FaultKind::TapDeviation { tap, extra } => {
                format!("tap={tap};extra_ps={}", extra.as_ps())
            }
            FaultKind::DeadDriver { channel } => format!("channel={channel}"),
            FaultKind::WeakDriver {
                channel,
                fail_attempts,
            } => format!("channel={channel};fails={fail_attempts}"),
            FaultKind::TempStep { delta_k } => format!("delta_k={delta_k}"),
            FaultKind::VernierChainBubble { bin } => format!("bin={bin}"),
            FaultKind::DllLockLoss => "relock=required".to_owned(),
        }
    }

    /// Applies the configuration-level faults ([`FaultKind::TapDeviation`],
    /// [`FaultKind::TempStep`]) to a model configuration; every other
    /// variant leaves it untouched (those act on the DAC, calibration, or
    /// driver layers instead).
    ///
    /// # Panics
    ///
    /// Panics if a tap deviation targets a tap ≥ 4 or drives its total
    /// delay negative (`ModelConfig` validation), or if a temperature step
    /// is unphysical (see [`ModelConfig::at_temperature_offset`]).
    pub fn apply_to_config(&self, config: &ModelConfig) -> ModelConfig {
        match *self {
            FaultKind::TapDeviation { tap, extra } => {
                assert!(tap < 4, "coarse section has 4 taps, got {tap}");
                let mut cfg = config.clone();
                cfg.coarse_tap_deviations[tap] += extra;
                cfg
            }
            FaultKind::TempStep { delta_k } => {
                config.at_temperature_offset(delta_k, &TempCo::default())
            }
            _ => config.clone(),
        }
    }
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}({})", self.label(), self.param())
    }
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// A seeded collection of faults to inject into one experiment.
///
/// The plan owns the root seed from which every per-lane fault seed is
/// derived ([`FaultPlan::seed_for`]), so an experiment that records its
/// plan is replayable bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    root_seed: u64,
    faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// An empty plan rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            root_seed: seed,
            faults: Vec::new(),
        }
    }

    /// Adds a fault to the plan (builder style).
    pub fn with(mut self, fault: FaultKind) -> Self {
        self.faults.push(fault);
        self
    }

    /// The root seed this plan derives lane seeds from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The faults this plan will inject — empty when the
    /// `VARDELAY_FAULTS` kill switch has injection disabled.
    pub fn active(&self) -> &[FaultKind] {
        if enabled() {
            &self.faults
        } else {
            &[]
        }
    }

    /// The planned faults regardless of the kill switch (for reporting).
    pub fn planned(&self) -> &[FaultKind] {
        &self.faults
    }

    /// Deterministic seed for injection lane `lane` — the same
    /// [`task_seed`] derivation the runner uses for its tasks, so fault
    /// randomness is independent of experiment randomness even when both
    /// derive from one root seed.
    pub fn seed_for(&self, lane: u64) -> u64 {
        task_seed(self.root_seed, lane)
    }
}

// ---------------------------------------------------------------------------
// DAC faults
// ---------------------------------------------------------------------------

/// A [`VctrlDac`] wrapped with stuck and flaky data bits.
///
/// Stuck bits force the converted code's bit high or low; flaky bits flip
/// on a seeded, conversion-indexed fraction of conversions, so a repeated
/// conversion of the same code can disagree with itself — exactly the
/// signature [`vardelay_core::selftest::test_dac`] hunts for. The flip
/// decision for conversion `n` of bit `b` derives from
/// `task_seed(seed, n * 64 + b)`: reproducible, order-independent across
/// threads as long as each lane owns its own `FaultyDac`.
#[derive(Debug, Clone)]
pub struct FaultyDac {
    inner: VctrlDac,
    or_mask: u32,
    and_mask: u32,
    flaky: Vec<(u8, f64)>,
    seed: u64,
    conversions: u64,
}

impl FaultyDac {
    /// Wraps `inner`, applying every DAC-level fault in `faults` (other
    /// fault kinds are ignored). `seed` drives flaky-bit randomness.
    pub fn from_plan(inner: VctrlDac, faults: &[FaultKind], seed: u64) -> Self {
        let mut dac = FaultyDac {
            inner,
            or_mask: 0,
            and_mask: u32::MAX,
            flaky: Vec::new(),
            seed,
            conversions: 0,
        };
        for fault in faults {
            match *fault {
                FaultKind::DacStuckHigh { bit } => dac.or_mask |= 1 << bit,
                FaultKind::DacStuckLow { bit } => dac.and_mask &= !(1u32 << bit),
                FaultKind::DacFlakyBit { bit, probability } => {
                    dac.flaky.push((bit, probability));
                }
                _ => {}
            }
        }
        dac
    }

    /// The healthy DAC underneath.
    pub fn inner(&self) -> &VctrlDac {
        &self.inner
    }

    /// Number of conversions performed so far (the flaky-bit lane index).
    pub fn conversions(&self) -> u64 {
        self.conversions
    }
}

impl DacUnderTest for FaultyDac {
    fn bits(&self) -> u8 {
        self.inner.bits()
    }

    fn nominal_span(&self) -> Voltage {
        self.inner.span()
    }

    fn convert(&mut self, code: u32) -> Voltage {
        let mut effective = (code | self.or_mask) & self.and_mask;
        for &(bit, probability) in &self.flaky {
            let lane = self.conversions * 64 + u64::from(bit);
            let mut rng = SplitMix64::new(task_seed(self.seed, lane));
            if rng.next_f64() < probability {
                effective ^= 1 << bit;
            }
        }
        self.conversions += 1;
        self.inner.voltage(effective)
    }
}

// ---------------------------------------------------------------------------
// Calibration faults
// ---------------------------------------------------------------------------

/// Wraps a calibration measurement closure so the shot at grid point
/// `point` comes back spiked by `spike` — feed the result to
/// [`CalibrationTable::from_measurement`] to build a corrupted table.
///
/// Because `from_measurement` monotonizes with a running maximum, the
/// spike flattens every later genuine point onto it, which is the
/// footprint [`vardelay_core::selftest::check_calibration`] detects.
pub fn corrupted_measure<F>(point: usize, spike: Time, mut inner: F) -> impl FnMut(Voltage) -> Time
where
    F: FnMut(Voltage) -> Time,
{
    let mut calls = 0usize;
    move |v| {
        let base = inner(v);
        let out = if calls == point { base + spike } else { base };
        calls += 1;
        out
    }
}

/// Builds a corrupted copy of an already-measured table by replaying its
/// grid through [`corrupted_measure`].
pub fn corrupt_table(table: &CalibrationTable, point: usize, spike: Time) -> CalibrationTable {
    let delays = table.delays().to_vec();
    let mut index = 0usize;
    CalibrationTable::from_measurement(
        table.vctrls(),
        corrupted_measure(point, spike, move |_| {
            let d = delays[index];
            index += 1;
            d
        }),
    )
}

// ---------------------------------------------------------------------------
// Coarse-mux faults
// ---------------------------------------------------------------------------

/// Stuck select lines on the coarse 4:1 mux.
///
/// The mux is addressed by two digital select lines; a line shorted to a
/// rail makes some taps unreachable. [`effective_tap`](Self::effective_tap)
/// maps a requested tap to the tap the broken hardware actually selects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxSelectFault {
    stuck_or: u8,
    stuck_and_not: u8,
}

impl MuxSelectFault {
    /// Collects every [`FaultKind::MuxSelectStuck`] in `faults`.
    ///
    /// # Panics
    ///
    /// Panics if a fault names a select line other than 0 or 1.
    pub fn from_plan(faults: &[FaultKind]) -> Self {
        let mut fault = MuxSelectFault::default();
        for f in faults {
            if let FaultKind::MuxSelectStuck { line, level } = *f {
                assert!(line < 2, "the 4:1 mux has 2 select lines, got {line}");
                if level {
                    fault.stuck_or |= 1 << line;
                } else {
                    fault.stuck_and_not |= 1 << line;
                }
            }
        }
        fault
    }

    /// Whether any select line is stuck.
    pub fn is_faulty(&self) -> bool {
        self.stuck_or != 0 || self.stuck_and_not != 0
    }

    /// The tap the hardware actually selects when `requested` is asked
    /// for (both in 0..4).
    pub fn effective_tap(&self, requested: usize) -> usize {
        let select = (requested as u8) & 0b11;
        usize::from((select | self.stuck_or) & !self.stuck_and_not & 0b11)
    }

    /// The distinct taps reachable through the broken select lines, in
    /// ascending order — fewer than 4 means the fault is observable from
    /// a tap sweep.
    pub fn reachable_taps(&self) -> Vec<usize> {
        let mut taps: Vec<usize> = (0..4).map(|t| self.effective_tap(t)).collect();
        taps.sort_unstable();
        taps.dedup();
        taps
    }
}

// ---------------------------------------------------------------------------
// Driver faults
// ---------------------------------------------------------------------------

/// Deterministic per-channel measurement-failure predicate, built from
/// [`FaultKind::DeadDriver`] and [`FaultKind::WeakDriver`] entries.
///
/// This is the bridge between injected driver faults and the degraded
/// deskew loop: the loop asks [`fails`](Self::fails) before each
/// measurement attempt, so a dead driver never measures and a weak one
/// recovers after its configured number of retries. Being a pure
/// function of `(channel, attempt)`, the predicate is identical at every
/// thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransientFaults {
    /// `(channel, attempts_that_fail)`; `u32::MAX` means dead forever.
    channels: Vec<(usize, u32)>,
}

impl TransientFaults {
    /// Collects the driver faults in `faults`.
    pub fn from_plan(faults: &[FaultKind]) -> Self {
        let mut t = TransientFaults::default();
        for f in faults {
            match *f {
                FaultKind::DeadDriver { channel } => t.channels.push((channel, u32::MAX)),
                FaultKind::WeakDriver {
                    channel,
                    fail_attempts,
                } => t.channels.push((channel, fail_attempts)),
                _ => {}
            }
        }
        t
    }

    /// Whether measurement attempt `attempt` (1-based) on `channel`
    /// fails.
    pub fn fails(&self, channel: usize, attempt: u32) -> bool {
        self.channels
            .iter()
            .filter(|(c, _)| *c == channel)
            .any(|&(_, n)| attempt <= n)
    }

    /// Channels that never recover (dead drivers).
    pub fn dead_channels(&self) -> Vec<usize> {
        let mut dead: Vec<usize> = self
            .channels
            .iter()
            .filter(|&&(_, n)| n == u32::MAX)
            .map(|&(c, _)| c)
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }
}

// ---------------------------------------------------------------------------
// Network chaos
// ---------------------------------------------------------------------------

/// One misbehaving-client pattern for the serve layer's socket front
/// (DESIGN.md §15).
///
/// Each variant is a classic way a real network peer pins a naive
/// line-oriented server; the serve layer's per-connection IO deadlines
/// and partial-line reaper exist to survive all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Drips a request one byte at a time with long gaps and never sends
    /// the newline — the connection always looks "active", so only a
    /// partial-line deadline (not an idle check) catches it.
    SlowLoris,
    /// Sends half a request line, then disconnects mid-line.
    MidLineDisconnect,
    /// Sends a complete request in several short, delayed writes — a
    /// *legal* slow client the server must still answer.
    ShortWrite,
    /// Pipelines many requests and never reads a byte of the responses,
    /// backing the server's writes up against a full socket buffer.
    StalledReader,
}

impl NetFaultKind {
    /// Stable label used in logs and soak reports.
    pub fn label(&self) -> &'static str {
        match self {
            NetFaultKind::SlowLoris => "slow_loris",
            NetFaultKind::MidLineDisconnect => "mid_line_disconnect",
            NetFaultKind::ShortWrite => "short_write",
            NetFaultKind::StalledReader => "stalled_reader",
        }
    }
}

impl core::fmt::Display for NetFaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// A seeded plan of misbehaving network clients aimed at a serve
/// endpoint.
///
/// Like every other plan in this crate, the choice of which fault
/// strikes when is `task_seed(seed, strike_index)` — replaying a soak
/// with the same seed replays the same strike sequence — and the global
/// [`enabled`] kill switch (`VARDELAY_FAULTS=0`) masks the whole plan.
/// The strikes themselves are wall-clock-paced (they exist to tie up
/// real sockets), so *when* a strike lands is not reproducible; *which*
/// strike lands is.
#[derive(Debug, Clone, PartialEq)]
pub struct NetChaos {
    seed: u64,
    /// Pause between dripped bytes / short-write chunks.
    pub gap: Duration,
    /// The request line strikes send (complete or truncated per kind).
    /// Junk is fine — a parse error is still a served response — but a
    /// valid request exercises the full path.
    pub line: String,
}

impl NetChaos {
    /// A plan cycling through every [`NetFaultKind`] in seeded order.
    pub fn new(seed: u64) -> Self {
        NetChaos {
            seed,
            gap: Duration::from_millis(20),
            line: "{\"op\":\"set_delay\",\"channel\":0,\"ps\":25.0,\"id\":9}".to_string(),
        }
    }

    /// Which fault strike number `strike` injects, or `None` when the
    /// kill switch has the plan masked.
    pub fn kind_for(&self, strike: u64) -> Option<NetFaultKind> {
        if !enabled() {
            return None;
        }
        const KINDS: [NetFaultKind; 4] = [
            NetFaultKind::SlowLoris,
            NetFaultKind::MidLineDisconnect,
            NetFaultKind::ShortWrite,
            NetFaultKind::StalledReader,
        ];
        Some(KINDS[(task_seed(self.seed, strike) % KINDS.len() as u64) as usize])
    }

    /// Executes strike number `strike` against `addr` (blocking for the
    /// strike's duration) and reports which fault it was. `Ok(None)`
    /// means the plan is masked. Connection errors *during* a strike are
    /// success, not failure — the server reaping the misbehaving socket
    /// is the defended behavior — so only the initial connect can fail.
    pub fn strike(&self, addr: SocketAddr, strike: u64) -> std::io::Result<Option<NetFaultKind>> {
        let Some(kind) = self.kind_for(strike) else {
            return Ok(None);
        };
        match kind {
            NetFaultKind::SlowLoris => slow_loris(addr, &self.line, self.gap)?,
            NetFaultKind::MidLineDisconnect => mid_line_disconnect(addr, &self.line)?,
            NetFaultKind::ShortWrite => short_write(addr, &self.line, self.gap)?,
            NetFaultKind::StalledReader => stalled_reader(addr, &self.line, 64, self.gap)?,
        }
        Ok(Some(kind))
    }
}

/// Drips `line` (without its terminating newline) one byte at a time,
/// sleeping `gap` between bytes, then drops the connection. Returns as
/// soon as the server cuts the socket — that early exit is the behavior
/// under test, so a mid-drip write error is success.
pub fn slow_loris(addr: SocketAddr, line: &str, gap: Duration) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    for &byte in line.trim_end_matches('\n').as_bytes() {
        if stream.write_all(&[byte]).is_err() || stream.flush().is_err() {
            return Ok(()); // reaped — exactly what the server should do
        }
        std::thread::sleep(gap);
    }
    Ok(())
}

/// Sends the first half of `line` (never the newline) and disconnects
/// mid-line without warning.
pub fn mid_line_disconnect(addr: SocketAddr, line: &str) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    let bytes = line.trim_end_matches('\n').as_bytes();
    let _ = stream.write_all(&bytes[..bytes.len() / 2]);
    let _ = stream.shutdown(Shutdown::Both);
    Ok(())
}

/// Sends `line` as three short, delayed writes — newline last — then
/// waits for the response the server still owes this legal-but-slow
/// client. Returns `Ok` whether or not a response arrived in time; the
/// caller's test asserts on server stats, not on this socket.
pub fn short_write(addr: SocketAddr, line: &str, gap: Duration) -> std::io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    let mut framed = line.trim_end_matches('\n').as_bytes().to_vec();
    framed.push(b'\n');
    let third = framed.len().div_ceil(3);
    for chunk in framed.chunks(third) {
        if stream.write_all(chunk).is_err() || stream.flush().is_err() {
            return Ok(());
        }
        std::thread::sleep(gap);
    }
    let _ = stream.set_read_timeout(Some(gap * 10));
    let mut sink = [0u8; 512];
    let _ = stream.read(&mut sink);
    Ok(())
}

/// Pipelines `lines` complete copies of `line`, never reads a byte of
/// the responses, holds the stalled socket open for `hold`, then drops
/// it. With enough lines the server's reply writes back up against the
/// socket buffer and its write deadline must fire.
pub fn stalled_reader(
    addr: SocketAddr,
    line: &str,
    lines: usize,
    hold: Duration,
) -> std::io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    let mut framed = line.trim_end_matches('\n').as_bytes().to_vec();
    framed.push(b'\n');
    let mut writer = &stream;
    for _ in 0..lines {
        if writer.write_all(&framed).is_err() {
            break;
        }
    }
    let _ = writer.flush();
    std::thread::sleep(hold);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_core::selftest::test_dac;

    #[test]
    fn plan_seeds_are_deterministic_and_distinct() {
        let plan = FaultPlan::new(42).with(FaultKind::DeadDriver { channel: 3 });
        assert_eq!(plan.seed_for(0), plan.seed_for(0));
        assert_ne!(plan.seed_for(0), plan.seed_for(1));
        assert_eq!(plan.seed_for(7), task_seed(42, 7));
        assert_eq!(plan.root_seed(), 42);
    }

    #[test]
    fn kill_switch_empties_active_but_not_planned() {
        let plan = FaultPlan::new(1).with(FaultKind::DacStuckLow { bit: 5 });
        set_enabled(true);
        assert_eq!(plan.active().len(), 1);
        set_enabled(false);
        assert!(plan.active().is_empty());
        assert_eq!(plan.planned().len(), 1);
        set_enabled(true);
    }

    #[test]
    fn request_chaos_is_deterministic_and_sparse() {
        set_enabled(true);
        let chaos = RequestChaos::new(7, 25);
        let doomed: Vec<u64> = (0..500).filter(|&i| chaos.kills(i)).collect();
        // Same seed → same doomed set; rate lands near 1-in-25.
        assert_eq!(
            doomed,
            (0..500).filter(|&i| chaos.kills(i)).collect::<Vec<_>>()
        );
        assert!(doomed.len() >= 5 && doomed.len() <= 60, "{doomed:?}");
        // one_in == 0 is inert, and the global kill switch masks it.
        assert!(!(0..500).any(|i| RequestChaos::new(7, 0).kills(i)));
        set_enabled(false);
        assert!(!doomed.iter().any(|&i| chaos.kills(i)));
        set_enabled(true);
    }

    #[test]
    fn stuck_bits_are_detected_by_the_self_test() {
        let faults = [
            FaultKind::DacStuckLow { bit: 9 },
            FaultKind::DacStuckHigh { bit: 1 },
        ];
        let mut dac = FaultyDac::from_plan(VctrlDac::twelve_bit(), &faults, 7);
        let health = test_dac(&mut dac);
        assert_eq!(health.stuck_low, 1 << 9, "{health:?}");
        assert_eq!(health.stuck_high, 1 << 1, "{health:?}");
        assert!(!health.is_healthy());
    }

    #[test]
    fn flaky_bit_is_detected_and_reproducible() {
        let faults = [FaultKind::DacFlakyBit {
            bit: 6,
            probability: 0.25,
        }];
        let mut a = FaultyDac::from_plan(VctrlDac::twelve_bit(), &faults, 1234);
        let ha = test_dac(&mut a);
        // The flaky bit shows up directly, and (because the shared
        // all-zeros/all-ones probes also flicker) may smear across the
        // report — detection is the contract, not isolation.
        assert_ne!(ha.flaky & (1 << 6), 0, "{ha:?}");
        assert!(!ha.is_healthy());
        // Same seed → identical health report; different seed may differ
        // in *which* conversions flip but still detects the bit.
        let mut b = FaultyDac::from_plan(VctrlDac::twelve_bit(), &faults, 1234);
        assert_eq!(ha, test_dac(&mut b));
        let mut c = FaultyDac::from_plan(VctrlDac::twelve_bit(), &faults, 99);
        assert_ne!(test_dac(&mut c).flaky, 0);
    }

    #[test]
    fn healthy_plan_wraps_transparently() {
        let mut dac = FaultyDac::from_plan(VctrlDac::twelve_bit(), &[], 5);
        let ideal = VctrlDac::twelve_bit();
        for code in [0u32, 1, 1000, 4095] {
            assert_eq!(dac.convert(code), ideal.voltage(code));
        }
        assert_eq!(dac.conversions(), 4);
        assert!(test_dac(&mut dac).is_healthy());
    }

    #[test]
    fn corrupted_measure_spikes_exactly_one_point() {
        let mut m = corrupted_measure(2, Time::from_ps(50.0), |v: Voltage| {
            Time::from_ps(10.0 * v.as_v())
        });
        let grid = [0.0, 0.5, 1.0, 1.5].map(Voltage::from_v);
        let out: Vec<f64> = grid.iter().map(|&v| m(v).as_ps()).collect();
        let expect = [0.0, 5.0, 60.0, 15.0];
        for (got, want) in out.iter().zip(expect) {
            assert!((got - want).abs() < 1e-9, "{out:?}");
        }
    }

    #[test]
    fn corrupt_table_is_flagged_by_check_calibration() {
        use vardelay_core::selftest::check_calibration;
        let grid: Vec<Voltage> = (0..17)
            .map(|i| Voltage::from_v(1.5 * i as f64 / 16.0))
            .collect();
        let clean = CalibrationTable::from_measurement(&grid, |v| {
            Time::from_ps(100.0 + 30.0 * v.as_v() / 1.5)
        });
        assert!(check_calibration(&clean, Time::from_ps(15.0)).is_healthy());
        let bad = corrupt_table(&clean, 4, Time::from_ps(80.0));
        let health = check_calibration(&bad, Time::from_ps(15.0));
        assert!(!health.is_healthy(), "{health:?}");
    }

    #[test]
    fn mux_select_stuck_limits_reachable_taps() {
        let fault = MuxSelectFault::from_plan(&[FaultKind::MuxSelectStuck {
            line: 1,
            level: true,
        }]);
        assert!(fault.is_faulty());
        // Select bit 1 stuck high: taps 0/1 alias to 2/3.
        assert_eq!(fault.effective_tap(0), 2);
        assert_eq!(fault.effective_tap(1), 3);
        assert_eq!(fault.effective_tap(2), 2);
        assert_eq!(fault.effective_tap(3), 3);
        assert_eq!(fault.reachable_taps(), vec![2, 3]);
        assert!(!MuxSelectFault::default().is_faulty());
        assert_eq!(MuxSelectFault::default().reachable_taps(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn config_faults_apply_and_others_are_identity() {
        let cfg = ModelConfig::paper_prototype();
        let tapped = FaultKind::TapDeviation {
            tap: 2,
            extra: Time::from_ps(12.0),
        }
        .apply_to_config(&cfg);
        let expected = cfg.coarse_tap_deviations[2] + Time::from_ps(12.0);
        assert_eq!(tapped.coarse_tap_deviations[2], expected);
        let hot = FaultKind::TempStep { delta_k: 30.0 }.apply_to_config(&cfg);
        assert_eq!(hot, cfg.at_temperature_offset(30.0, &TempCo::default()));
        let same = FaultKind::DeadDriver { channel: 0 }.apply_to_config(&cfg);
        assert_eq!(same, cfg);
    }

    #[test]
    fn transient_faults_distinguish_dead_from_weak() {
        let t = TransientFaults::from_plan(&[
            FaultKind::DeadDriver { channel: 2 },
            FaultKind::WeakDriver {
                channel: 5,
                fail_attempts: 2,
            },
        ]);
        assert!(t.fails(2, 1) && t.fails(2, 1_000_000));
        assert!(t.fails(5, 1) && t.fails(5, 2));
        assert!(!t.fails(5, 3));
        assert!(!t.fails(0, 1));
        assert_eq!(t.dead_channels(), vec![2]);
        assert!(!TransientFaults::default().fails(2, 1));
    }

    #[test]
    fn labels_and_params_are_stable() {
        let f = FaultKind::CalibrationSpike {
            point: 4,
            spike: Time::from_ps(80.0),
        };
        assert_eq!(f.label(), "calibration_spike");
        assert_eq!(f.param(), "point=4;spike_ps=80");
        assert_eq!(f.to_string(), "calibration_spike(point=4;spike_ps=80)");
        let w = FaultKind::WeakDriver {
            channel: 5,
            fail_attempts: 2,
        };
        assert_eq!(w.param(), "channel=5;fails=2");
    }

    #[test]
    fn net_chaos_strikes_are_seeded_and_masked_by_the_kill_switch() {
        set_enabled(true);
        let plan = NetChaos::new(11);
        let first: Vec<_> = (0..16).map(|i| plan.kind_for(i)).collect();
        assert_eq!(
            first,
            (0..16).map(|i| plan.kind_for(i)).collect::<Vec<_>>(),
            "same seed must replay the same strike sequence"
        );
        // Every fault kind eventually appears.
        for kind in [
            NetFaultKind::SlowLoris,
            NetFaultKind::MidLineDisconnect,
            NetFaultKind::ShortWrite,
            NetFaultKind::StalledReader,
        ] {
            assert!(
                (0..64).any(|i| plan.kind_for(i) == Some(kind)),
                "{kind} never struck"
            );
        }
        // A different seed reorders the strikes.
        let other = NetChaos::new(12);
        assert!(
            (0..64).any(|i| other.kind_for(i) != plan.kind_for(i)),
            "seed is ignored"
        );
        set_enabled(false);
        assert_eq!(plan.kind_for(0), None, "kill switch must mask the plan");
        set_enabled(true);
    }
}
