//! [`BlobDir`]: the one commit protocol of the crate's on-disk state.
//!
//! Both persistent directories — the [`TraceStore`](crate::TraceStore) and
//! the [`ExperimentJournal`](crate::ExperimentJournal) — hold immutable,
//! content-addressed, self-verifying files ("blobs"): a file's name is
//! derived from what it contains, and its format checksums every byte. A
//! `BlobDir` gives them the four operations they share:
//!
//! * **commit** — write a temp file, fsync it, rename it to its final name
//!   (the commit point), fsync the directory;
//! * **stale-temp sweep** on open — delete the temp files of writers that
//!   died mid-commit;
//! * **verified read** — a missing file is a silent miss; a file that
//!   exists but fails verification is deleted and also a miss, so the
//!   caller recomputes it;
//! * **mtime GC** under a byte budget — least-recently-used files first.
//!
//! Identical names hold identical contents (the computations behind them
//! are deterministic), so concurrent writers of one name race benignly: the
//! last rename wins with the same bytes.

use std::fmt;
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

/// Distinguishes the temp files of concurrent writers in one directory.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Prefix of in-flight temp files: `.tmp-{pid}-{counter}`.
const TEMP_PREFIX: &str = ".tmp-";

/// Age beyond which a temp file is considered abandoned when the owning
/// process cannot be identified (no `/proc`, unparseable name).
const STALE_TEMP_SECS: u64 = 3600;

/// What one [`TraceStore::gc`](crate::TraceStore::gc) pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Files deleted.
    pub deleted: usize,
    /// Bytes those files occupied.
    pub freed_bytes: u64,
    /// Files retained.
    pub retained: usize,
    /// Bytes the retained files occupy.
    pub retained_bytes: u64,
}

/// A directory of immutable, self-verifying files (see the module docs).
#[derive(Debug)]
pub(crate) struct BlobDir {
    dir: PathBuf,
}

impl BlobDir {
    /// Opens (creating if necessary) the directory and sweeps the stale
    /// temp files a crashed writer left behind mid-commit.
    pub(crate) fn open(dir: impl Into<PathBuf>) -> io::Result<BlobDir> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        sweep_stale_temps(&dir);
        Ok(BlobDir { dir })
    }

    /// The directory.
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically creates the file at `path` (inside this directory):
    /// `write` fills a fresh temp file, which is fsync'd, `staged` runs
    /// (the journal's kill-point hook), and the temp is renamed to `path` —
    /// the commit point — before the directory itself is fsync'd so the new
    /// name survives power loss too. A reader never observes a partial
    /// file. On error the temp file is removed.
    pub(crate) fn commit(
        &self,
        path: &Path,
        write: impl FnOnce(&Path) -> io::Result<()>,
        staged: impl FnOnce(),
    ) -> io::Result<()> {
        let temp = self.dir.join(format!(
            "{TEMP_PREFIX}{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let written = write(&temp)
            .and_then(|()| File::open(&temp)?.sync_all())
            .map(|()| staged())
            .and_then(|()| fs::rename(&temp, path));
        if let Err(e) = written {
            let _ = fs::remove_file(&temp);
            return Err(e);
        }
        File::open(&self.dir)?.sync_all()
    }

    /// Reads the file at `path` through `verify`. A missing file is a
    /// silent miss (`None`). A file that exists but fails `verify` — a
    /// truncated copy, a flipped bit, an old format version, contents lost
    /// to a power cut — is deleted with a warning on stderr and is a miss
    /// too, so the caller recomputes and re-commits it.
    pub(crate) fn read_verified<T, E: fmt::Display>(
        &self,
        path: &Path,
        verify: impl FnOnce(&Path) -> Result<T, E>,
    ) -> Option<T> {
        if !path.exists() {
            return None;
        }
        match verify(path) {
            Ok(value) => Some(value),
            Err(e) => {
                eprintln!("msp-bench: discarding unreadable {}: {e}", path.display());
                let _ = fs::remove_file(path);
                None
            }
        }
    }

    /// Deletes least-recently-used `files` — `(path, bytes, modified)`,
    /// oldest modification time first — until the rest fit `budget_bytes`.
    /// The newest file is always retained, so even a zero budget keeps the
    /// file the current run just wrote.
    pub(crate) fn gc(
        &self,
        mut files: Vec<(PathBuf, u64, SystemTime)>,
        budget_bytes: u64,
    ) -> io::Result<GcReport> {
        files.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        let mut total: u64 = files.iter().map(|f| f.1).sum();
        let mut report = GcReport::default();
        let mut survivors = files.len();
        for (path, bytes, _) in &files {
            if total <= budget_bytes || survivors <= 1 {
                break;
            }
            fs::remove_file(path)?;
            total -= bytes;
            survivors -= 1;
            report.deleted += 1;
            report.freed_bytes += bytes;
        }
        report.retained = survivors;
        report.retained_bytes = total;
        Ok(report)
    }
}

/// Deletes orphaned `.tmp-{pid}-{counter}` files: a commit leaks its temp
/// when the writing process dies between the write and the rename. A temp
/// is stale when its owning process is provably gone (`/proc/{pid}`
/// absent) or, without a liveness oracle, when it is over an hour old.
/// Best-effort.
fn sweep_stale_temps(dir: &Path) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for dirent in entries.flatten() {
        let file_name = dirent.file_name();
        let Some(name) = file_name.to_str() else {
            continue;
        };
        if name.starts_with(TEMP_PREFIX) && temp_is_stale(name, &dirent.path()) {
            let _ = fs::remove_file(dirent.path());
        }
    }
}

fn temp_is_stale(name: &str, path: &Path) -> bool {
    let owner = name
        .strip_prefix(TEMP_PREFIX)
        .and_then(|rest| rest.split('-').next())
        .and_then(|pid| pid.parse::<u32>().ok());
    if let Some(pid) = owner {
        if pid == std::process::id() {
            return false;
        }
        if Path::new("/proc").is_dir() {
            return !Path::new(&format!("/proc/{pid}")).exists();
        }
    }
    // No liveness oracle: fall back to age (a live writer finishes its
    // commit in well under an hour).
    fs::metadata(path)
        .and_then(|meta| meta.modified())
        .ok()
        .and_then(|modified| SystemTime::now().duration_since(modified).ok())
        .is_some_and(|age| age.as_secs() > STALE_TEMP_SECS)
}

/// A fresh, not-yet-created directory under the system temp dir, unique
/// per process and call (for unit tests).
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "msp-bench-{tag}-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_replaces_atomically_and_leaves_no_temp() {
        let dir = test_dir("blob-commit");
        let blobs = BlobDir::open(&dir).unwrap();
        let path = dir.join("a.blob");
        blobs
            .commit(&path, |t| fs::write(t, b"one"), || {})
            .unwrap();
        blobs
            .commit(&path, |t| fs::write(t, b"two"), || {})
            .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        let failed = blobs.commit(
            &dir.join("b.blob"),
            |t| {
                fs::write(t, b"partial")?;
                Err(io::Error::other("disk full"))
            },
            || {},
        );
        assert!(failed.is_err());
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["a.blob"], "a failed commit leaves nothing behind");
        fs::remove_dir_all(&dir).unwrap();
    }
}
