//! Workload generators for loaded experiments.
//!
//! Figure 1 measures isolated casts; real deployments see streams. These
//! generators produce deterministic, seeded arrival schedules for the
//! loaded-latency experiments and the §5.3 frequency sweeps.

use std::time::Duration;
use wamcast_sim::SplitMix64;
use wamcast_types::{GroupId, GroupSet, ProcessId, SimTime, Topology};

/// One planned cast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlannedCast {
    /// When to cast.
    pub at: SimTime,
    /// Which process casts.
    pub caster: ProcessId,
    /// Destination groups.
    pub dest: GroupSet,
}

/// Poisson arrivals: exponential inter-arrival times with the given mean
/// rate, casters drawn uniformly, destinations drawn from `dest_choices`.
///
/// Deterministic for a given seed.
///
/// # Example
///
/// ```
/// use wamcast_harness::workload::{poisson, PlannedCast};
/// use wamcast_types::{GroupSet, Topology};
/// use std::time::Duration;
///
/// let topo = Topology::symmetric(2, 2);
/// let all = vec![topo.all_groups()];
/// let plan = poisson(&topo, 50.0, Duration::from_secs(1), &all, 7);
/// assert!(!plan.is_empty());
/// assert!(plan.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
/// ```
pub fn poisson(
    topo: &Topology,
    rate_per_sec: f64,
    horizon: Duration,
    dest_choices: &[GroupSet],
    seed: u64,
) -> Vec<PlannedCast> {
    assert!(
        !dest_choices.is_empty(),
        "need at least one destination choice"
    );
    let choices = dest_choices.len() as u64;
    arrivals(topo, rate_per_sec, horizon, seed, |rng| {
        dest_choices[rng.next_below(choices) as usize]
    })
}

/// The Poisson arrival loop both generators share: per cast it draws the
/// exponential gap, then the caster (uniform), then the destination
/// (`dest`), in that order, so a plan is a pure function of its seed.
fn arrivals(
    topo: &Topology,
    rate_per_sec: f64,
    horizon: Duration,
    seed: u64,
    mut dest: impl FnMut(&mut SplitMix64) -> GroupSet,
) -> Vec<PlannedCast> {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    let mut rng = SplitMix64::new(seed);
    let mut plan = Vec::new();
    let mut t_ns = 0f64;
    let horizon_ns = horizon.as_nanos() as f64;
    let mean_gap_ns = 1e9 / rate_per_sec;
    loop {
        // Exponential inter-arrival via inverse transform.
        let u = rng.next_f64().max(1e-12);
        t_ns += -u.ln() * mean_gap_ns;
        if t_ns >= horizon_ns {
            break;
        }
        let caster = ProcessId(rng.next_below(topo.num_processes() as u64) as u32);
        let dest = dest(&mut rng);
        plan.push(PlannedCast {
            at: SimTime::from_nanos(t_ns as u64),
            caster,
            dest,
        });
    }
    plan
}

/// A Zipf(θ) sampler over ranks `0..n`: rank `r` is drawn with weight
/// `1/(r+1)^θ`, so low ranks are "hot" and the tail is long — the standard
/// key-popularity skew of partial-replication workloads (θ ≈ 0.99 is the
/// YCSB default). Sampling is a binary search over the precomputed
/// cumulative weights; construction is O(n), sampling O(log n), and both
/// are fully deterministic for a given RNG state.
///
/// # Example
///
/// ```
/// use wamcast_harness::workload::ZipfSampler;
/// use wamcast_sim::SplitMix64;
///
/// let zipf = ZipfSampler::new(100, 0.99);
/// let mut rng = SplitMix64::new(7);
/// let mut hits = [0u32; 100];
/// for _ in 0..10_000 {
///     hits[zipf.sample(&mut rng)] += 1;
/// }
/// // Rank 0 is much hotter than the mid-tail.
/// assert!(hits[0] > 4 * hits[50]);
/// ```
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// `cum[r]` = Σ_{i≤r} 1/(i+1)^θ.
    cum: Vec<f64>,
}

impl ZipfSampler {
    /// Builds a sampler over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative/non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(theta >= 0.0 && theta.is_finite(), "theta must be finite");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(theta);
            cum.push(total);
        }
        ZipfSampler { cum }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cum.len()
    }

    /// Whether the sampler is empty (never true — `new` rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Draws one rank in `0..len()`.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cum.last().expect("non-empty by construction");
        let u = rng.next_f64() * total;
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }
}

/// Poisson arrivals with Zipf-skewed destination popularity: like
/// [`poisson`], but the destination is `dest_choices[r]` with `r` drawn
/// Zipf(θ) — choice 0 is the hottest. Casters stay uniform. This is the
/// open-loop workload of the scale sweeps: arrivals do not wait for
/// completions, so queueing shows up in the latency tail rather than
/// throttling the offered load.
///
/// Deterministic for a given seed.
///
/// # Example
///
/// ```
/// use wamcast_harness::workload::{all_group_pairs, poisson_zipf};
/// use wamcast_types::Topology;
/// use std::time::Duration;
///
/// let topo = Topology::symmetric(4, 2);
/// let pairs = all_group_pairs(&topo);
/// let plan = poisson_zipf(&topo, 200.0, Duration::from_secs(1), &pairs, 0.99, 11);
/// assert!(!plan.is_empty());
/// // The hottest pair dominates the plan.
/// let hot = plan.iter().filter(|c| c.dest == pairs[0]).count();
/// assert!(hot * 3 > plan.len(), "rank 0 should be hot under theta=0.99");
/// ```
pub fn poisson_zipf(
    topo: &Topology,
    rate_per_sec: f64,
    horizon: Duration,
    dest_choices: &[GroupSet],
    theta: f64,
    seed: u64,
) -> Vec<PlannedCast> {
    let zipf = ZipfSampler::new(dest_choices.len(), theta);
    arrivals(topo, rate_per_sec, horizon, seed, |rng| {
        dest_choices[zipf.sample(rng)]
    })
}

/// All pairs of distinct groups — a uniform partial-replication workload
/// shape (every operation touches two sites).
pub fn all_group_pairs(topo: &Topology) -> Vec<GroupSet> {
    let k = topo.num_groups() as u16;
    let mut out = Vec::new();
    for a in 0..k {
        for b in (a + 1)..k {
            out.push(GroupSet::from_iter([GroupId(a), GroupId(b)]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_deterministic_and_in_horizon() {
        let topo = Topology::symmetric(3, 2);
        let dests = all_group_pairs(&topo);
        let a = poisson(&topo, 100.0, Duration::from_secs(2), &dests, 42);
        let b = poisson(&topo, 100.0, Duration::from_secs(2), &dests, 42);
        assert_eq!(a, b);
        assert!(a.iter().all(|c| c.at < SimTime::from_millis(2_000)));
        // Mean rate ballpark: 100/s over 2 s => ~200 casts.
        assert!((120..320).contains(&a.len()), "{}", a.len());
        // Casters are valid processes; destinations non-empty.
        assert!(a.iter().all(|c| c.caster.index() < 6 && !c.dest.is_empty()));
    }

    #[test]
    fn different_seeds_differ() {
        let topo = Topology::symmetric(2, 1);
        let dests = vec![topo.all_groups()];
        let a = poisson(&topo, 50.0, Duration::from_secs(1), &dests, 1);
        let b = poisson(&topo, 50.0, Duration::from_secs(1), &dests, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_is_skewed_and_deterministic() {
        let zipf = ZipfSampler::new(64, 0.99);
        let mut a = SplitMix64::new(3);
        let mut b = SplitMix64::new(3);
        let xs: Vec<usize> = (0..1000).map(|_| zipf.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..1000).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(xs, ys, "same RNG state, same draws");
        assert!(xs.iter().all(|&r| r < 64), "ranks stay in range");
        let hot = xs.iter().filter(|&&r| r == 0).count();
        let cold = xs.iter().filter(|&&r| r >= 32).count();
        assert!(hot > cold, "rank 0 beats the entire cold half");
        // theta = 0 degenerates to uniform: every rank reachable.
        let uni = ZipfSampler::new(4, 0.0);
        let mut rng = SplitMix64::new(9);
        let seen: std::collections::BTreeSet<usize> =
            (0..200).map(|_| uni.sample(&mut rng)).collect();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn poisson_zipf_plans_are_deterministic() {
        let topo = Topology::symmetric(4, 2);
        let pairs = all_group_pairs(&topo);
        let a = poisson_zipf(&topo, 100.0, Duration::from_secs(1), &pairs, 0.99, 5);
        let b = poisson_zipf(&topo, 100.0, Duration::from_secs(1), &pairs, 0.99, 5);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        assert!(a.iter().all(|c| c.dest.len() == 2));
    }

    #[test]
    fn group_pairs_enumeration() {
        let topo = Topology::symmetric(4, 1);
        let pairs = all_group_pairs(&topo);
        assert_eq!(pairs.len(), 6); // C(4,2)
        assert!(pairs.iter().all(|d| d.len() == 2));
    }
}
