//! Observability for the vardelay workspace — dependency-free, like
//! everything else here.
//!
//! Four layers, from hot to cold, plus the shared hash:
//!
//! 1. **Metrics** ([`metrics`]): process-wide named [`Counter`]s,
//!    streaming log₂-bucketed [`Histogram`]s (microsecond-scale by
//!    convention) and [`span`] timers that record into them on drop. All
//!    lock-free on the hot path (atomics only) and gated by
//!    [`enabled`] — instrumentation must never change experiment
//!    results, only describe them (pinned by
//!    `tests/runner_determinism.rs`).
//! 2. **JSON** ([`json`]): a hand-rolled [`json::Value`] with a compact
//!    renderer and a recursive-descent parser. The workspace has no
//!    `serde`; this is the one place JSON is read or written.
//! 3. **Journal** ([`journal`]): an append-only JSONL benchmark journal
//!    (`BENCH_repro.json`) — one record per `repro` run — with a loader
//!    that also accepts the legacy single-object format, and the
//!    regression gates `repro compare` runs in CI: one declarative
//!    [`journal::GATES`] table evaluated by [`journal::evaluate`].
//! 4. **Artifacts** ([`artifact`]): crash-safe stage-fsync-rename file
//!    publication and the content digest shared by repro checkpoints
//!    and the serve layer's calibration snapshots.
//!
//! [`Fingerprint`] ([`fingerprint`]) is the workspace's one FNV-1a
//! hasher: cache keys, artifact digests and serve routing all fold
//! through it.
//!
//! # Examples
//!
//! ```
//! use vardelay_obs as obs;
//!
//! obs::counter("doc.events").incr();
//! {
//!     let _span = obs::span("doc.work_us");
//!     // ... timed work ...
//! }
//! assert!(obs::counter("doc.events").get() >= 1);
//! ```

pub mod artifact;
pub mod fingerprint;
pub mod journal;
pub mod json;
pub mod metrics;

pub use fingerprint::Fingerprint;
pub use metrics::{
    counter, enabled, histogram, registry, set_enabled, snapshot, span, Counter, Histogram,
    HistogramSummary, Registry, Snapshot, Span,
};
