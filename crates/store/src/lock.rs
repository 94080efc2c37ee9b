//! Pid-stamped store locking with stale-lock detection.
//!
//! Two concurrent `dtaint batch` runs over one store would interleave
//! journal and cache appends and race the cache/db rewrites. [`StoreLock`]
//! serializes them: a `lock` file in the store root holds the owning
//! pid; acquisition fails while that process is alive and steals the
//! lock (with a report) when it is dead — the survivor of a `kill -9`
//! must not be fenced out by its own corpse.
//!
//! The lock is advisory and release goes through the *real* filesystem
//! (never the fault shim): an injected "kill" drill simulates the data
//! path dying, while the test harness around it is still alive to clean
//! up — exactly like a real crashed process whose next invocation takes
//! the stale-lock path.

use std::io;
use std::path::{Path, PathBuf};

/// Why a lock could not be acquired.
#[derive(Debug)]
pub enum LockError {
    /// Another live process holds the store.
    Held {
        /// The owning pid from the lock file.
        pid: u32,
        /// The lock file path (for error messages).
        path: PathBuf,
    },
    /// Filesystem trouble while acquiring.
    Io(io::Error),
}

impl std::fmt::Display for LockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LockError::Held { pid, path } => {
                write!(f, "store is locked by running process {pid} ({})", path.display())
            }
            LockError::Io(e) => write!(f, "store lock: {e}"),
        }
    }
}

/// Is `pid` a live process? Linux: `/proc/<pid>` exists. Elsewhere we
/// cannot tell and err on the side of staleness (a wrongly-stolen lock
/// degrades to the pre-lock behavior; a wrongly-honored one deadlocks
/// every future run). Public so `dtaint status` can tell a live batch
/// from a crashed one by the same rule the lock uses.
#[must_use]
pub fn pid_alive(pid: u32) -> bool {
    if Path::new("/proc").is_dir() {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        false
    }
}

/// RAII guard over the store's `lock` file; dropping releases it.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    /// Acquires the lock file at `path` for the current process.
    /// Returns the guard plus the stale pid that was evicted, if any.
    ///
    /// # Errors
    ///
    /// [`LockError::Held`] when a live process owns the lock;
    /// [`LockError::Io`] on filesystem failures.
    pub fn acquire(path: &Path) -> Result<(StoreLock, Option<u32>), LockError> {
        let mut stole: Option<u32> = None;
        for _ in 0..2 {
            match std::fs::OpenOptions::new().write(true).create_new(true).open(path) {
                Ok(mut f) => {
                    use std::io::Write;
                    write!(f, "{}", std::process::id()).map_err(LockError::Io)?;
                    f.sync_all().map_err(LockError::Io)?;
                    return Ok((StoreLock { path: path.to_path_buf() }, stole));
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let owner: Option<u32> =
                        std::fs::read_to_string(path).ok().and_then(|s| s.trim().parse().ok());
                    match owner {
                        Some(pid) if pid != std::process::id() && pid_alive(pid) => {
                            return Err(LockError::Held { pid, path: path.to_path_buf() });
                        }
                        // Dead owner, our own earlier self, or an
                        // unreadable file: stale — evict and retry once.
                        other => {
                            stole = other;
                            std::fs::remove_file(path).map_err(LockError::Io)?;
                        }
                    }
                }
                Err(e) => return Err(LockError::Io(e)),
            }
        }
        Err(LockError::Io(io::Error::other("lock file reappeared while stealing")))
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "dtaint-lock-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn acquire_release_reacquire() {
        let dir = tdir("rr");
        let path = dir.join("lock");
        let (guard, stole) = StoreLock::acquire(&path).unwrap();
        assert!(stole.is_none());
        assert!(path.exists());
        drop(guard);
        assert!(!path.exists(), "drop releases");
        let (_g, stole) = StoreLock::acquire(&path).unwrap();
        assert!(stole.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn live_foreign_owner_is_refused() {
        let dir = tdir("held");
        let path = dir.join("lock");
        // Pid 1 (init) is always alive on Linux.
        std::fs::write(&path, "1").unwrap();
        match StoreLock::acquire(&path) {
            Err(LockError::Held { pid: 1, .. }) => {}
            other => panic!("expected Held, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_owner_is_stolen_with_report() {
        let dir = tdir("stale");
        let path = dir.join("lock");
        // Far beyond any real pid_max.
        std::fs::write(&path, "3999999999").unwrap();
        let (_g, stole) = StoreLock::acquire(&path).unwrap();
        assert_eq!(stole, Some(3_999_999_999));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn own_pid_residue_is_treated_as_stale() {
        // A lock left by this same pid (a previous drill-killed batch in
        // this very process) must not fence us out forever.
        let dir = tdir("self");
        let path = dir.join("lock");
        std::fs::write(&path, format!("{}", std::process::id())).unwrap();
        let (_g, stole) = StoreLock::acquire(&path).unwrap();
        assert_eq!(stole, Some(std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_lock_content_is_stale() {
        let dir = tdir("garbage");
        let path = dir.join("lock");
        std::fs::write(&path, "not-a-pid").unwrap();
        let (_g, stole) = StoreLock::acquire(&path).unwrap();
        assert!(stole.is_none(), "unreadable owner reported as none");
        std::fs::remove_dir_all(&dir).ok();
    }
}
