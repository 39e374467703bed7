//! Per-experiment checkpoints for resumable campaigns (DESIGN.md §11).
//!
//! `repro` writes a checkpoint file after each experiment completes:
//! the experiment's name, its **input fingerprint** (the same FNV-1a
//! family the PR 1 characterization cache keys on — everything that can
//! change the experiment's bytes), and the name + content digest of
//! every CSV the experiment produced. `repro all --resume` re-runs only
//! the experiments whose checkpoint is missing or stale:
//! [`Checkpoint::matches`] demands both that the recorded fingerprint
//! equals the current inputs *and* that every recorded CSV still sits on
//! disk with its recorded digest. Because every experiment is a pure
//! function of its fingerprinted inputs, skipping a matched experiment
//! leaves the final CSV set byte-identical to an uninterrupted run —
//! the kill-and-resume chaos gate `cmp`s exactly that.
//!
//! Checkpoints live under `target/repro/checkpoints/<experiment>.json`
//! and are written through [`vardelay_obs::artifact::write_atomic`], so a crash
//! mid-checkpoint leaves no checkpoint (the experiment re-runs — safe)
//! rather than a torn one (which would skip a half-finished experiment —
//! unsafe).

use std::io;
use std::path::{Path, PathBuf};

use vardelay_analog::Fingerprint;
use vardelay_obs::artifact;
use vardelay_obs::json::Value;

/// Version stamped into every checkpoint; bumping it invalidates all
/// existing checkpoints (they simply stop matching).
pub const CHECKPOINT_SCHEMA: u64 = 1;

/// One CSV an experiment produced: file name (relative to the output
/// dir) and FNV-1a content digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvRecord {
    /// File name under `target/repro/` (e.g. `fig09_coarse_taps.csv`).
    pub file: String,
    /// [`artifact::digest`] of the file's contents at write time.
    pub digest: u64,
}

/// A completed experiment's checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Experiment name (`fig7`, `ablation`, …).
    pub experiment: String,
    /// Input fingerprint at completion time (see [`fingerprint`]).
    pub fingerprint: u64,
    /// Every CSV the experiment wrote, in write order.
    pub csvs: Vec<CsvRecord>,
}

/// The checkpoint directory under an output dir.
pub fn checkpoint_dir(output_dir: &Path) -> PathBuf {
    output_dir.join("checkpoints")
}

/// The input fingerprint of an experiment: everything that can change
/// its output bytes. Today that is the experiment's name, the campaign
/// seed, the checkpoint schema, and whether fault injection is live
/// (`repro faults` writes a different CSV set with the kill switch
/// thrown). Thread count is deliberately *not* folded in — outputs are
/// pinned byte-identical at every thread count (DESIGN.md §8).
pub fn fingerprint(experiment: &str) -> u64 {
    let mut f = Fingerprint::new();
    f.push_str(experiment)
        .push_u64(crate::EXPERIMENT_SEED)
        .push_u64(CHECKPOINT_SCHEMA)
        .push_u64(u64::from(vardelay_faults::enabled()));
    f.finish()
}

/// `u64` ⇄ JSON round-trip as a hex string: the journal's JSON numbers
/// are `f64`, which cannot carry a full 64-bit hash exactly.
fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn from_hex(v: &Value) -> Option<u64> {
    let s = v.as_str()?;
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

impl Checkpoint {
    /// The checkpoint's file path under `dir`.
    pub fn path(dir: &Path, experiment: &str) -> PathBuf {
        dir.join(format!("{experiment}.json"))
    }

    fn to_json(&self) -> Value {
        Value::obj()
            .with("schema", CHECKPOINT_SCHEMA)
            .with("experiment", self.experiment.as_str())
            .with("fingerprint", hex(self.fingerprint))
            .with(
                "csvs",
                Value::Arr(
                    self.csvs
                        .iter()
                        .map(|c| {
                            Value::obj()
                                .with("file", c.file.as_str())
                                .with("digest", hex(c.digest))
                        })
                        .collect(),
                ),
            )
    }

    fn from_json(v: &Value) -> Option<Checkpoint> {
        if v.get("schema").and_then(Value::as_u64) != Some(CHECKPOINT_SCHEMA) {
            return None;
        }
        let experiment = v.get("experiment")?.as_str()?.to_owned();
        let fingerprint = from_hex(v.get("fingerprint")?)?;
        let csvs = v
            .get("csvs")?
            .as_arr()?
            .iter()
            .map(|c| {
                Some(CsvRecord {
                    file: c.get("file")?.as_str()?.to_owned(),
                    digest: from_hex(c.get("digest")?)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Checkpoint {
            experiment,
            fingerprint,
            csvs,
        })
    }

    /// Atomically writes this checkpoint under `dir` (created if
    /// missing).
    ///
    /// # Errors
    ///
    /// The underlying I/O error; callers report which experiment lost
    /// its checkpoint and keep going (the experiment will simply re-run
    /// on resume).
    pub fn save(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = Checkpoint::path(dir, &self.experiment);
        artifact::write_atomic(&path, &(self.to_json().render() + "\n"))?;
        Ok(path)
    }

    /// Loads `experiment`'s checkpoint from `dir`. Missing, torn, or
    /// unparseable files (and stale schemas) read as `None` — "no
    /// checkpoint" always degrades to "re-run the experiment".
    pub fn load(dir: &Path, experiment: &str) -> Option<Checkpoint> {
        let content = std::fs::read_to_string(Checkpoint::path(dir, experiment)).ok()?;
        Checkpoint::from_json(&Value::parse(&content).ok()?)
    }

    /// Whether this checkpoint still certifies a completed experiment:
    /// the recorded input fingerprint equals `current_fingerprint` and
    /// every recorded CSV exists under `output_dir` with its recorded
    /// content digest. Any mismatch — edited CSV, deleted file, changed
    /// seed or fault-switch state — demands a re-run.
    pub fn matches(&self, current_fingerprint: u64, output_dir: &Path) -> bool {
        self.fingerprint == current_fingerprint
            && self.csvs.iter().all(|c| {
                std::fs::read_to_string(output_dir.join(&c.file))
                    .is_ok_and(|contents| artifact::digest(&contents) == c.digest)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("vardelay_ckpt_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample(out: &Path) -> Checkpoint {
        let csv = "tap,ps\n0,0.0\n";
        std::fs::write(out.join("fig09.csv"), csv).unwrap();
        Checkpoint {
            experiment: "fig9".to_owned(),
            fingerprint: fingerprint("fig9"),
            csvs: vec![CsvRecord {
                file: "fig09.csv".to_owned(),
                digest: artifact::digest(csv),
            }],
        }
    }

    #[test]
    fn save_load_round_trips() {
        let out = scratch("roundtrip");
        let dir = checkpoint_dir(&out);
        let ck = sample(&out);
        let path = ck.save(&dir).unwrap();
        assert!(path.is_file());
        assert!(!artifact::tmp_path(&path).exists());
        assert_eq!(Checkpoint::load(&dir, "fig9").unwrap(), ck);
        assert!(Checkpoint::load(&dir, "fig7").is_none(), "missing → None");
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn matches_demands_fingerprint_and_on_disk_digests() {
        let out = scratch("matches");
        let ck = sample(&out);
        assert!(ck.matches(fingerprint("fig9"), &out));
        // A different input fingerprint (e.g. new seed) invalidates.
        assert!(!ck.matches(fingerprint("fig9") ^ 1, &out));
        // Tampering with the CSV invalidates.
        std::fs::write(out.join("fig09.csv"), "tap,ps\n0,9.9\n").unwrap();
        assert!(!ck.matches(fingerprint("fig9"), &out));
        // Deleting it invalidates too.
        std::fs::remove_file(out.join("fig09.csv")).unwrap();
        assert!(!ck.matches(fingerprint("fig9"), &out));
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn torn_checkpoint_reads_as_none() {
        let out = scratch("torn");
        let dir = checkpoint_dir(&out);
        let ck = sample(&out);
        let path = ck.save(&dir).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(Checkpoint::load(&dir, "fig9"), None);
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn fingerprint_separates_experiments_and_fault_state() {
        assert_ne!(fingerprint("fig7"), fingerprint("fig9"));
        vardelay_faults::set_enabled(true);
        let on = fingerprint("faults");
        vardelay_faults::set_enabled(false);
        let off = fingerprint("faults");
        vardelay_faults::set_enabled(true);
        assert_ne!(on, off, "kill-switch state is part of the inputs");
    }
}
