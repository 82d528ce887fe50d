//! End-to-end pin of the batched exact solver: the `sweep-k` workload,
//! whose DM greedy scans every candidate in lanes, must select
//! byte-identical seeds at any pool width — asserted against the digest
//! committed in `BENCH_parallel.json`.
//!
//! Chunks of eight candidates are cut from the candidate order, never
//! from the pool width, and every lane is bit-identical to the single
//! solve of its seed set; widths 1, 2 and 8 therefore reproduce the
//! digest the single-solve greedy committed.
//!
//! The test replays the exact bench configuration (default scale/seed,
//! quick mode), so the digest below must match the `sweep-k` entries of
//! the committed trajectory file; refresh both together when the
//! workload changes.
//!
//! Marked `#[ignore]`: one full sweep-k pass per width is too slow for
//! the debug-mode test sweep. CI runs it explicitly in release
//! (`cargo test -p vom-bench --release --test sweep_k_digest -- --ignored`).

use vom_bench::bench_parallel::sweep_k_selection_digest;
use vom_bench::ExpConfig;

/// The `sweep-k` selection digest committed in `BENCH_parallel.json`.
const COMMITTED_SWEEP_K_DIGEST: &str = "8c41fa6c26e3b30e";

#[test]
#[ignore = "release-mode digest pin; run explicitly with -- --ignored"]
fn sweep_k_digest_is_identical_across_widths() {
    let cfg = ExpConfig::default();
    let entry_override = rayon::thread_override();
    let mut digests: Vec<(usize, String)> = Vec::new();
    for threads in [1, 2, 8] {
        rayon::set_thread_override(Some(threads));
        let digest = sweep_k_selection_digest(&cfg).expect("sweep-k pass runs");
        digests.push((threads, digest));
    }
    rayon::set_thread_override(entry_override);
    for (threads, digest) in &digests {
        assert_eq!(
            digest, COMMITTED_SWEEP_K_DIGEST,
            "threads={threads}: selections diverged from the committed sweep-k digest"
        );
    }
}
