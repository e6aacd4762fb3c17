//! A deterministic fork-join driver for embarrassingly parallel sweeps.
//!
//! Every run of a fuzz sweep or a scale sweep is an independent function of
//! its seed, so wall-clock scales with worker threads — but the *report*
//! must not depend on scheduling. [`run_indexed`] executes `f(0..n)` on a
//! pool of `threads` workers pulling indices from a shared atomic counter
//! and returns the results **in index order**, so aggregation downstream
//! (totals, first-failure selection, tables) is byte-identical to the
//! sequential driver's no matter how the OS scheduled the workers.
//!
//! Each job stays single-threaded and deterministic inside; parallelism
//! never crosses a simulation boundary, which is what keeps fixed-seed
//! replay (`--replay --seed N`) valid for anything a parallel sweep found.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Runs `f(i)` for every `i in 0..n` across `threads` workers and returns
/// the results sorted by index. `threads == 0` or `1` (or `n <= 1`) runs
/// inline on the calling thread with no pool at all, so the sequential
/// path has zero synchronization overhead.
///
/// Work is distributed dynamically (an atomic next-index counter), so a
/// few slow seeds do not idle the other workers.
///
/// # Panics
///
/// Propagates a panic from any job after all workers stop (the scope
/// joins them), so a failing run under `--threads` still fails the sweep.
pub fn run_indexed<T, F>(n: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicU64::new(0);
    let done: Mutex<Vec<(u64, T)>> = Mutex::new(Vec::with_capacity(n as usize));
    let workers = threads.min(n as usize);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Per-worker local buffer: one lock per worker, not per job.
                let mut local: Vec<(u64, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i)));
                }
                done.lock().expect("result buffer poisoned").extend(local);
            });
        }
    });
    let mut results = done.into_inner().expect("result buffer poisoned");
    results.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(results.len(), n as usize);
    results.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let seq = run_indexed(100, 1, |i| i * 3);
        let par = run_indexed(100, 8, |i| i * 3);
        assert_eq!(seq, par);
        assert_eq!(seq[7], 21);
    }

    #[test]
    fn zero_jobs_and_zero_threads() {
        assert!(run_indexed(0, 8, |i| i).is_empty());
        assert_eq!(run_indexed(3, 0, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn dynamic_distribution_covers_every_index() {
        // Uneven job costs must not lose or duplicate indices.
        let out = run_indexed(257, 4, |i| {
            if i % 64 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i
        });
        assert_eq!(out, (0..257).collect::<Vec<_>>());
    }
}
