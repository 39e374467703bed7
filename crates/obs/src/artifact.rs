//! Crash-safe artifact writes (DESIGN.md §11, §16).
//!
//! A process killed mid-`fs::write` leaves a half-written file that is
//! indistinguishable from a complete one — the worst possible failure
//! for outputs that are byte-compared across runs (repro CSVs) or
//! reloaded as ground truth after a restart (serve calibration
//! snapshots). Every such artifact therefore goes through
//! [`write_atomic`]: the bytes land in a sibling `<file>.tmp` first,
//! are fsynced, and are published with a single `rename`, which POSIX
//! guarantees is atomic within a filesystem. A crash leaves either the
//! old complete file, the new complete file, or a stale `.tmp` that the
//! next run sweeps away ([`sweep_stale_tmp`]) — never a torn artifact
//! under the real name.
//!
//! [`digest`] is the content hash checkpoints and snapshots use to
//! prove a file on disk is exactly the one that was written: a single
//! [`Fingerprint::push_str`] (length-prefixed FNV-1a fold), so digests
//! recorded by older checkpoints stay valid. It lives here, at the
//! bottom of the crate graph, so `vardelay-serve` can use it without
//! dragging in the analog stack.

use std::io;
use std::path::{Path, PathBuf};

use crate::Fingerprint;

/// The sibling temporary path [`write_atomic`] stages into
/// (`fig07.csv` → `fig07.csv.tmp`).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "artifact".to_owned());
    name.push_str(".tmp");
    path.with_file_name(name)
}

/// Writes `contents` to `path` atomically: stage into [`tmp_path`],
/// fsync the staged bytes, then `rename` over the destination. Readers
/// never observe a torn file, and a rename that was observed implies
/// the bytes behind it are durable.
///
/// # Errors
///
/// The underlying I/O error from the staging write, the fsync, or the
/// rename (the staged `.tmp` is cleaned up on a failed rename).
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = tmp_path(path);
    std::fs::write(&tmp, contents)?;
    // Durability ordering (DESIGN.md §16): the data must be on disk
    // *before* the rename publishes it, or a power cut after the rename
    // could expose a complete-looking file with garbage bytes.
    match std::fs::File::open(&tmp).and_then(|f| f.sync_all()) {
        Ok(()) => {}
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
    }
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// FNV-1a digest of an artifact's contents — the proof that a file on
/// disk is byte-identical to the one recorded: the contents folded
/// through [`Fingerprint::push_str`] (the length first, then the raw
/// bytes).
pub fn digest(contents: &str) -> u64 {
    Fingerprint::new().push_str(contents).finish()
}

/// Removes every `*.tmp` file under `dir` (recursively), returning how
/// many were swept. A `.tmp` can only exist if a previous run died
/// between staging and renaming — it is garbage by construction, and the
/// acceptance bar is that an interrupted campaign never leaves one
/// behind after the next run. Counted in `repro.stale_tmp_swept`.
///
/// # Errors
///
/// The underlying I/O error from walking `dir` (a missing `dir` is not
/// an error — there is nothing to sweep).
pub fn sweep_stale_tmp(dir: &Path) -> io::Result<usize> {
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut swept = 0;
    for entry in entries {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            swept += sweep_stale_tmp(&path)?;
        } else if path.extension().is_some_and(|e| e == "tmp") {
            std::fs::remove_file(&path)?;
            crate::counter("repro.stale_tmp_swept").incr();
            swept += 1;
        }
    }
    Ok(swept)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "vardelay_obs_artifact_{name}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_publishes_and_leaves_no_tmp() {
        let dir = scratch("atomic");
        let path = dir.join("out.csv");
        write_atomic(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        assert!(!tmp_path(&path).exists(), "staging file renamed away");
        // Overwrite goes through the same protocol.
        write_atomic(&path, "a,b\n3,4\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n3,4\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_removes_only_tmp_files_recursively() {
        let dir = scratch("sweep");
        std::fs::create_dir_all(dir.join("checkpoints")).unwrap();
        std::fs::write(dir.join("keep.csv"), "data").unwrap();
        std::fs::write(dir.join("dead.csv.tmp"), "torn").unwrap();
        std::fs::write(dir.join("checkpoints/ck.json.tmp"), "torn").unwrap();
        assert_eq!(sweep_stale_tmp(&dir).unwrap(), 2);
        assert!(dir.join("keep.csv").exists());
        assert!(!dir.join("dead.csv.tmp").exists());
        assert!(!dir.join("checkpoints/ck.json.tmp").exists());
        // Missing directory sweeps nothing.
        assert_eq!(sweep_stale_tmp(&dir.join("absent")).unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_is_content_stable_and_sensitive() {
        assert_eq!(digest("x,y\n1,2\n"), digest("x,y\n1,2\n"));
        assert_ne!(digest("x,y\n1,2\n"), digest("x,y\n1,3\n"));
        // Length-prefixed: a string is not confused with its prefix
        // continued by other content of the same total bytes.
        assert_ne!(digest(""), digest("\0"));
    }

    #[test]
    fn digest_matches_the_historical_fingerprint_fold() {
        // Hand-folded FNV-1a of push_usize(len) ++ bytes for "abc":
        // checkpoints on disk hold digests of exactly this fold, and
        // must still verify against this implementation.
        use crate::fingerprint::{FNV_OFFSET, FNV_PRIME};
        let mut h = FNV_OFFSET;
        for b in 3u64.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        for b in b"abc" {
            h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(digest("abc"), h);
    }
}
