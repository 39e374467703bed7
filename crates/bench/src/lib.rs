//! The reproduction harness: one function per paper figure/table.
//!
//! Every experiment in the paper's evaluation section has a function here
//! that regenerates its data from the behavioral model. The functions are
//! shared by three consumers:
//!
//! * the [`repro`](../repro/index.html) binary, which prints the same
//!   rows/series the paper reports (and writes CSVs under
//!   `target/repro/`);
//! * the criterion benches in `benches/figures.rs`;
//! * the workspace integration tests, which assert the *shape* of each
//!   result (who wins, trends, crossovers) against the paper.
//!
//! See `DESIGN.md` §5 for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured records.

pub mod ablation;
pub mod backends_campaign;
pub mod checkpoint;
pub mod extensions;
pub mod eyes;
pub mod faults_campaign;
pub mod fine_delay;
pub mod injection;
pub mod load;
pub mod restart;
pub mod serve_bench;
pub mod skew;
pub mod soak;

/// Default seed used by every experiment so the published numbers are
/// reproducible run-to-run.
pub const EXPERIMENT_SEED: u64 = 20080310; // DATE'08 week

/// Returns the directory experiment CSVs are written to, creating it (and
/// any missing parents) if needed.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be created —
/// callers report which experiment's output was lost and keep going
/// rather than crashing mid-run.
pub fn try_output_dir() -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::PathBuf::from("target/repro");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Returns the directory experiment CSVs are written to, creating it if
/// needed.
///
/// # Panics
///
/// Panics if the directory cannot be created; fallible callers should use
/// [`try_output_dir`].
pub fn output_dir() -> std::path::PathBuf {
    try_output_dir().expect("create target/repro")
}
