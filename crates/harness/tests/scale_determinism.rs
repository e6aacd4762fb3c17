//! The scale observability determinism contract: cells derived from
//! simulation runs must be equal however the sweep is scheduled — same
//! seed ⇒ same cell, and the same merged totals whether the cells ran on
//! one worker thread or eight, in either merge order.

use std::time::Duration;
use wamcast_harness::parallel::run_indexed;
use wamcast_harness::scale::{run_cell, ScaleCell, ScaleConfig};
use wamcast_harness::StackRegistry;
use wamcast_metrics::Histogram;

fn cfg(seed: u64) -> ScaleConfig {
    ScaleConfig {
        per_group: 2,
        rate_per_sec: 40.0,
        horizon: Duration::from_millis(400),
        theta: 0.99,
        seed,
        max_steps: 10_000_000,
    }
}

/// A sweep's cells folded into one: the `deliver` and `commit` histograms
/// merged, and `[casts, inter_sends, intra_sends, steps]` summed.
fn merge<'a>(cells: impl Iterator<Item = &'a ScaleCell>) -> (Histogram, Histogram, [u64; 4]) {
    let mut t: (Histogram, Histogram, [u64; 4]) = Default::default();
    for c in cells {
        t.0.merge(&c.deliver);
        t.1.merge(&c.commit);
        let counters = [c.casts, c.inter_sends, c.intra_sends, c.steps];
        for (sum, n) in t.2.iter_mut().zip(counters) {
            *sum += n;
        }
    }
    t
}

/// Runs 8 seeds of the a1 cell at 4 groups across `threads` workers.
fn sweep(threads: usize) -> Vec<ScaleCell> {
    let arm = StackRegistry::standard().by_name("a1").expect("a1 exists");
    run_indexed(8, threads, |i| run_cell(arm, 4, &cfg(0x5CA1E + i)))
}

#[test]
fn registry_dump_is_identical_across_thread_counts() {
    let seq = sweep(1);
    let par = sweep(8);
    assert_eq!(seq, par, "each cell is the same on either thread count");
    let fwd = merge(seq.iter());
    assert_eq!(
        fwd,
        merge(par.iter()),
        "scheduling must never leak into the totals"
    );
    assert_eq!(fwd, merge(par.iter().rev()), "nor the merge order");
    // And the totals are non-trivial: both latency histograms saw samples.
    assert!(fwd.0.count() > 0);
    assert!(fwd.1.count() > 0);
}

#[test]
fn thirty_two_group_cell_converges_with_stable_fingerprint() {
    // The CI scale-smoke shape in miniature: a 32-group open-loop a1 run
    // must converge within budget and re-run to an equal cell.
    let arm = StackRegistry::standard().by_name("a1").expect("a1 exists");
    let a = run_cell(arm, 32, &cfg(7));
    let b = run_cell(arm, 32, &cfg(7));
    assert!(a.dnf.is_none(), "{:?}", a.dnf);
    assert_eq!(a, b);
    assert!(a.commit.count() > 0);
}
