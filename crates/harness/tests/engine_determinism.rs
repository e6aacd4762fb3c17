//! Engine-swap determinism regression corpus.
//!
//! The event engine was rewritten (PR 4: calendar/bucket queue, `Arc`
//! message fan-out, scratch-buffer reuse) under a hard contract: for any
//! fixed seed, the schedule — every delivery sequence, every logical
//! stamp, every send count, every virtual timestamp — is **byte-identical**
//! to the pre-rewrite `BinaryHeap` engine's. This corpus pins that
//! contract: the golden fingerprints in `golden_engine_fingerprints.txt`
//! were generated by the pre-overhaul engine (commit `9cd5969`) and must
//! never change. A mismatch means the engine reordered something.
//!
//! Each fingerprint is an FNV-1a hash over *every* recorded observable of
//! a run's [`RunMetrics`]: casts (caster, destinations, time, stamp),
//! deliveries (process, time, stamp), per-process delivery sequences,
//! send counters, per-process sent/received flags, adversary counters and
//! end/last-send times.
//!
//! Regenerate (only ever justified for a change that *intends* to alter
//! schedules, e.g. a new tie-break rule — say so loudly in the PR):
//!
//! ```text
//! WAMCAST_BLESS=1 cargo test -p wamcast-harness --test engine_determinism
//! ```

mod common;

use common::fingerprint;
use std::time::Duration;
use wamcast_core::{GenuineMulticast, MulticastConfig};
use wamcast_harness::run_scenario_full;
use wamcast_harness::scenario::{RunSpec, RETRY_INTERVAL};
use wamcast_harness::workload::{all_group_pairs, poisson};
use wamcast_harness::StackRegistry;
use wamcast_sim::{FaultConfig, SimConfig, Simulation};
use wamcast_types::{BatchConfig, Payload, Topology};

/// Golden `seed fingerprint` lines, generated by the pre-overhaul engine.
const GOLDEN: &str = include_str!("golden_engine_fingerprints.txt");

/// Golden lines for the **extended** rotation (`--arms all`): the default
/// paper arms plus every executable Figure 1 baseline, each hosted under
/// its registry fault profile. Blessed when the baselines became
/// fuzz-hostable (this corpus pins *their* schedules the same way the
/// pre-overhaul corpus pins the paper arms').
const GOLDEN_BASELINES: &str = include_str!("golden_baseline_fingerprints.txt");

/// Faulted seeds: 0..24 covers every topology shape × protocol arm of the
/// fuzz rotation twice, with crashes, drops, duplication, partitions and
/// latency spikes all exercised.
const FAULTED_SEEDS: std::ops::Range<u64> = 0..24;
/// Quiet seeds (no fault layer at all): pins the zero-fault fast path.
const QUIET_SEEDS: std::ops::Range<u64> = 0..6;
/// Extended-rotation seeds: 0..36 covers every (topology, arm) pair of
/// the 9-arm rotation exactly once.
const EXTENDED_FAULTED_SEEDS: std::ops::Range<u64> = 0..36;
/// Extended-rotation quiet seeds.
const EXTENDED_QUIET_SEEDS: std::ops::Range<u64> = 0..9;

fn corpus_lines() -> String {
    let faulted = FaultConfig::default();
    let quiet = FaultConfig::quiet();
    let mut out = String::new();
    for seed in FAULTED_SEEDS {
        let spec = RunSpec::derive(seed, &faulted);
        let (_, m) = run_scenario_full(&spec, None);
        out.push_str(&format!("faulted {seed} {:#018x}\n", fingerprint(&m)));
    }
    for seed in QUIET_SEEDS {
        let spec = RunSpec::derive(seed, &quiet);
        let (_, m) = run_scenario_full(&spec, None);
        out.push_str(&format!("quiet {seed} {:#018x}\n", fingerprint(&m)));
    }
    out
}

fn extended_corpus_lines() -> String {
    let all = StackRegistry::standard().all();
    let faulted = FaultConfig::default();
    let quiet = FaultConfig::quiet();
    let mut out = String::new();
    for seed in EXTENDED_FAULTED_SEEDS {
        let spec = RunSpec::derive_with(seed, &faulted, &all);
        let (_, m) = run_scenario_full(&spec, None);
        out.push_str(&format!(
            "faulted {seed} {} {:#018x}\n",
            spec.arm.name(),
            fingerprint(&m)
        ));
    }
    for seed in EXTENDED_QUIET_SEEDS {
        let spec = RunSpec::derive_with(seed, &quiet, &all);
        let (_, m) = run_scenario_full(&spec, None);
        out.push_str(&format!(
            "quiet {seed} {} {:#018x}\n",
            spec.arm.name(),
            fingerprint(&m)
        ));
    }
    out
}

fn check_against_golden(golden: &str, got: &str, path_suffix: &str) {
    if std::env::var_os("WAMCAST_BLESS").is_some() {
        let path = format!("{}/tests/{path_suffix}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, got).expect("write goldens");
        eprintln!("blessed {} corpus lines into {path}", got.lines().count());
        return;
    }
    assert!(
        !golden.trim().is_empty(),
        "golden corpus missing — run with WAMCAST_BLESS=1 once"
    );
    for (g, n) in golden.lines().zip(got.lines()) {
        assert_eq!(
            g, n,
            "engine produced a different schedule for this seed than the \
             corpus was blessed under (fingerprints cover every RunMetrics \
             observable — see file docs)"
        );
    }
    assert_eq!(golden, got, "corpus length changed");
}

#[test]
fn fixed_seed_corpus_is_byte_identical_to_pre_overhaul_engine() {
    check_against_golden(GOLDEN, &corpus_lines(), "golden_engine_fingerprints.txt");
}

/// The extended (`--arms all`) rotation gets its own blessed corpus: the
/// default corpus above must stay byte-identical to the *pre-registry*
/// goldens (proving arm growth did not touch the default rotation), while
/// this one pins the baseline arms' schedules from the moment they became
/// executable.
#[test]
fn extended_rotation_corpus_is_byte_identical_to_blessing() {
    check_against_golden(
        GOLDEN_BASELINES,
        &extended_corpus_lines(),
        "golden_baseline_fingerprints.txt",
    );
}

#[test]
fn fingerprint_is_sensitive_to_delivery_order() {
    // Sanity check on the hash itself: swapping two deliveries in a
    // sequence must change the fingerprint, or the corpus proves nothing.
    let spec = RunSpec::derive(2, &FaultConfig::quiet());
    let (_, mut m) = run_scenario_full(&spec, None);
    let base = fingerprint(&m);
    let seq = m
        .delivered_seq
        .iter_mut()
        .find(|s| s.len() >= 2)
        .expect("some process delivered at least two messages");
    seq.swap(0, 1);
    assert_ne!(base, fingerprint(&m));
}

/// The E12 probe (`sim_a1 --seconds 1 --seed 0xE12` in `benchmark/`): 3×3
/// topology, batched A1 (8 casts / 20 ms) with the fuzz arm's retry,
/// Poisson 2 000 casts/s for one virtual second over every group pair and
/// all groups, no faults, send log off. Returns the steps dispatched and
/// the events the recorder saw (retained + evicted) at `trace_cap`
/// (0 = recorder off).
fn e12_probe(trace_cap: usize) -> (u64, u64) {
    let topo = Topology::symmetric(3, 3);
    let mut dests = all_group_pairs(&topo);
    dests.push(topo.all_groups());
    let casts = poisson(&topo, 2000.0, Duration::from_secs(1), &dests, 0xE12);
    let cfg = SimConfig::default().with_seed(0xE12).with_send_log(false);
    let batch = BatchConfig::new(8).with_max_delay(Duration::from_millis(20));
    let mcfg = MulticastConfig::default()
        .with_batch(batch)
        .with_retry(RETRY_INTERVAL);
    let mut sim = Simulation::new(topo, cfg, |p, t| GenuineMulticast::new(p, t, mcfg));
    if trace_cap > 0 {
        sim.enable_trace(trace_cap);
    }
    for c in &casts {
        sim.cast_at(c.at, c.caster, c.dest, Payload::new());
    }
    sim.run_to_quiescence();
    let recorded = sim.trace().map_or(0, |t| t.len() as u64 + t.evicted());
    (sim.metrics().steps, recorded)
}

/// The step count every E12 number since PR 4 was measured on. One step
/// more or less means the engine or A1 changed the schedule.
#[test]
fn e12_probe_dispatches_69_665_steps() {
    let (steps, _) = e12_probe(0);
    assert_eq!(steps, 69_665, "recorder off");
    let (steps, recorded) = e12_probe(1 << 16);
    assert_eq!(steps, 69_665, "recording must not perturb the schedule");
    assert!(recorded > 0, "a traced probe must actually record");
}
