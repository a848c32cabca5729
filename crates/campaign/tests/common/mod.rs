//! Shared integration-test support (not a test target itself: cargo only
//! builds `tests/*.rs` files as test crates, not subdirectories).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

/// A fresh, unique scratch directory under the system temp dir — one
/// definition of the pid+counter uniqueness scheme for every test crate
/// that needs an on-disk store.
pub fn scratch_dir(label: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fnpr_{label}_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    // A directory an earlier process with the same pid left behind would
    // otherwise hand its store to this test.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
