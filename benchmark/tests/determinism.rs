//! The simulator workloads are exact: equal seeds give byte-identical
//! virtual latencies, message counts and step counts; different seeds do
//! not; and `sim_a1` is the historical E12 engine probe.

use std::time::Duration;
use wamcast_benchmark::layers::Algo;
use wamcast_benchmark::sim::{rep, Rep, SHAPE};
use wamcast_types::Topology;

const SHORT: Duration = Duration::from_secs(1);

/// Everything a repetition reports that must repeat exactly.
fn exact(r: &Rep) -> (u64, u64, u64, u64, Vec<u64>) {
    let topo = Topology::symmetric(SHAPE.0, SHAPE.1);
    let (lat_ms, failed) = r.commit_latencies_ms(&topo);
    assert_eq!(failed, 0, "every cast commits by quiescence");
    (
        r.fingerprint(),
        r.metrics.steps,
        r.metrics.inter_sends,
        r.metrics.intra_sends,
        lat_ms.iter().map(|l| l.to_bits()).collect(),
    )
}

#[test]
fn equal_seeds_repeat_exactly_and_different_seeds_do_not() {
    for algo in [Algo::A1, Algo::A2] {
        let a = exact(&rep(algo, SHORT, 7));
        assert_eq!(
            a,
            exact(&rep(algo, SHORT, 7)),
            "{algo:?}: same seed, same run"
        );
        let b = exact(&rep(algo, SHORT, 8));
        assert_ne!(a.0, b.0, "{algo:?}: schedules differ across seeds");
        assert_ne!(a.4, b.4, "{algo:?}: latencies differ across seeds");
    }
}

#[test]
fn sim_a1_is_the_e12_probe() {
    // BENCH_engine.json's `probe_steps`, pinned since PR 4.
    assert_eq!(rep(Algo::A1, SHORT, 0xE12).metrics.steps, 69_665);
}
