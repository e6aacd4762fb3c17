//! The two CPU clocks the benchmark could use must agree: `/proc/self/stat`
//! (what `cpu_us_per_op` is computed from) against the per-thread
//! `schedstat` sum. Alone in its file so no other test's threads come and
//! go during the comparison (schedstat forgets exited threads).

use std::hint::black_box;
use std::time::{Duration, Instant};
use wamcast_benchmark::procstat::{cpu, schedstat_cpu_s};

#[test]
fn stat_cpu_matches_schedstat_sum() {
    let (stat0, sched0) = (
        cpu().expect("/proc/self/stat"),
        schedstat_cpu_s().expect("schedstat"),
    );
    let start = Instant::now();
    let mut x = 0u64;
    while start.elapsed() < Duration::from_millis(500) {
        x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
    }
    let stat = cpu().expect("/proc/self/stat").since(stat0).total_s();
    let sched = schedstat_cpu_s().expect("schedstat") - sched0;
    assert!(stat > 0.2, "the loop burned CPU: {stat}");
    // Two 10 ms ticks of slack for stat's resolution, plus 10 %.
    assert!(
        (stat - sched).abs() <= 0.02 + 0.1 * sched,
        "stat says {stat} s, schedstat says {sched} s"
    );
}
