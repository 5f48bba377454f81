//! Names kept only because `perfbench/` spells them.
//!
//! `perfbench/` is the repository's benchmark program, and it changes
//! only together with the benchmark it defines. Where the library drops
//! a feature that program names, the name stays here as an inert,
//! `#[doc(hidden)]` shim, re-exported at its old path, so the program
//! builds and measures unchanged. A change that ports `perfbench/` off
//! these names deletes this module with them; its tests list every
//! shim together with its user there.
//!
//! Sharded TA is gone: `run_many`'s pool is the library's only
//! parallelism, and every request runs its kernel on the caller's
//! thread. What is left of it:
//!
//! * [`SourcePartitioner`] and [`ShardedSource`] have no values, so
//!   [`crate::source::GradedSource::partition`], which takes the first,
//!   can never be called;
//! * [`ExecPolicy::sharded_over`] returns the policy unchanged.

use crate::policy::ExecPolicy;

/// Once the way a sharded query split its universe; has no values.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePartitioner {}

/// Once one shard of a partitioned source; has no values.
#[doc(hidden)]
#[derive(Debug)]
pub enum ShardedSource {}

impl ExecPolicy {
    /// Returns the policy unchanged: there is no intra-query sharding.
    #[doc(hidden)]
    pub fn sharded_over(self, _: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    /// Every shim, and the `perfbench/src` text that uses it.
    const SHIMS: [(&str, &str); 4] = [
        ("source::ShardedSource", "Option<Vec<ShardedSource>>"),
        (
            "source::SourcePartitioner",
            "partitioner: SourcePartitioner",
        ),
        (
            "GradedSource::partition",
            "self.inner.partition(partitioner, shards)",
        ),
        ("ExecPolicy::sharded_over", ".sharded_over(2)"),
    ];

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        let entries = std::fs::read_dir(dir).expect("perfbench/src is readable");
        for entry in entries {
            let path = entry.expect("directory entry").path();
            if path.is_dir() {
                rust_files(&path, out);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                out.push(path);
            }
        }
    }

    /// A shim no `perfbench/` file names is dead: delete it.
    #[test]
    fn every_shim_has_a_user_in_perfbench() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perfbench/src");
        let mut files = Vec::new();
        rust_files(&root, &mut files);
        let text: String = files
            .iter()
            .map(|file| std::fs::read_to_string(file).expect("perfbench source is UTF-8"))
            .collect();
        for (shim, user) in SHIMS {
            assert!(
                text.contains(user),
                "no perfbench file spells `{user}`: delete the `{shim}` shim"
            );
        }
    }
}
