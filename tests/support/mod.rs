//! Shared by the root integration tests (`mod support;`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Removes its path — a store directory or a single segment file — when
/// dropped, so a failing test leaves nothing behind either.
pub struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        if self.0.is_dir() {
            let _ = std::fs::remove_dir_all(&self.0);
        } else {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

/// A path under the system temp directory that nothing else uses: unique
/// per `tag`, process and call. Nothing is created there; the store or
/// segment writer under test does that.
pub fn temp_dir(tag: &str) -> (PathBuf, TempDir) {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "pbc-test-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    (path.clone(), TempDir(path))
}
