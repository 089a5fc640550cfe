//! Scratch space for the CLI tests.

use std::path::PathBuf;

/// A directory of one test's own under the system temp dir, removed when
/// dropped, so a run leaves nothing behind.
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, empty directory for the test named `test`.
    pub fn new(test: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pbppm-cli-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the test's temp dir");
        Self(dir)
    }

    /// The path of `name` inside the directory.
    pub fn join(&self, name: impl AsRef<std::path::Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
