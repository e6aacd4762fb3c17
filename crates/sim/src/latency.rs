//! Link-latency models.
//!
//! The paper's WAN model (§1, §2.1): processes inside a group communicate
//! over cheap, fast local links; inter-group links are orders of magnitude
//! slower. The simulator samples a delay for every message copy from a
//! [`LatencyModel`] chosen by link class.

use crate::SplitMix64;
use std::time::Duration;

/// Distribution of one link's message delay.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(Duration),
    /// Uniformly distributed in `[min, max]`.
    Uniform {
        /// Minimum delay.
        min: Duration,
        /// Maximum delay (inclusive).
        max: Duration,
    },
    /// `base` plus an exponentially distributed tail with the given mean —
    /// a crude but serviceable model of WAN queueing jitter.
    ExponentialTail {
        /// Deterministic floor (propagation delay).
        base: Duration,
        /// Mean of the exponential jitter added on top.
        mean_tail: Duration,
    },
}

impl LatencyModel {
    /// Samples a delay using the run's deterministic generator.
    pub fn sample(&self, rng: &mut SplitMix64) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                let (lo, hi) = (min.as_nanos() as u64, max.as_nanos() as u64);
                if lo >= hi {
                    return min;
                }
                Duration::from_nanos(rng.next_range(lo, hi))
            }
            LatencyModel::ExponentialTail { base, mean_tail } => {
                let u = rng.next_f64().max(1e-12);
                let tail = -(u.ln()) * mean_tail.as_nanos() as f64;
                base + Duration::from_nanos(tail as u64)
            }
        }
    }

    /// A lower bound on sampled delays, used for sanity checks.
    pub fn min_delay(&self) -> Duration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, .. } => min,
            LatencyModel::ExponentialTail { base, .. } => base,
        }
    }
}

/// Network configuration of a run: one model per link class, optionally
/// refined per ordered group pair.
///
/// The defaults mirror the paper's running example (§5.3): ~0.1 ms local
/// links and 100 ms inter-group links ("a large-scale system where the
/// inter-group latency is 100 milliseconds").
///
/// # Example
///
/// ```
/// use wamcast_sim::{NetConfig, LatencyModel};
/// use std::time::Duration;
///
/// let cfg = NetConfig {
///     inter: LatencyModel::Constant(Duration::from_millis(50)),
///     ..NetConfig::default()
/// };
/// assert_eq!(cfg.inter.min_delay(), Duration::from_millis(50));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct NetConfig {
    /// Delay model for intra-group links (including self-sends).
    pub intra: LatencyModel,
    /// Delay model for inter-group links.
    pub inter: LatencyModel,
    /// Optional overrides per *ordered* group pair `(from, to)`; links not
    /// listed fall back to [`inter`](Self::inter). Real WANs are
    /// asymmetric — see [`NetConfig::geo`] for a realistic preset.
    pub pairwise: Vec<((u16, u16), LatencyModel)>,
    /// Delay between a crash and the failure-detector notification at each
    /// surviving process (the simulator's ◇P oracle).
    pub detection_delay: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            intra: LatencyModel::Constant(Duration::from_micros(100)),
            inter: LatencyModel::Constant(Duration::from_millis(100)),
            pairwise: Vec::new(),
            detection_delay: Duration::from_millis(300),
        }
    }
}

impl NetConfig {
    /// WAN profile with the given one-way inter-group delay and 0.1 ms local
    /// links.
    pub fn wan(inter_one_way: Duration) -> Self {
        NetConfig {
            inter: LatencyModel::Constant(inter_one_way),
            ..NetConfig::default()
        }
    }

    /// Overrides the latency of one ordered group pair. Set both directions
    /// for a symmetric link.
    #[must_use]
    pub fn with_pair(mut self, from: u16, to: u16, m: LatencyModel) -> Self {
        self.pairwise
            .retain(|((f, t), _)| !(*f == from && *t == to));
        self.pairwise.push(((from, to), m));
        self
    }

    /// A realistic three-site geography (round-trip halves, symmetric):
    /// g0 ↔ g1 ≈ 40 ms (EU–US east), g0 ↔ g2 ≈ 120 ms (EU–APAC),
    /// g1 ↔ g2 ≈ 90 ms (US–APAC); 0.1 ms local links.
    pub fn geo() -> Self {
        let ms = |v: u64| LatencyModel::Constant(Duration::from_millis(v));
        NetConfig::default()
            .with_pair(0, 1, ms(40))
            .with_pair(1, 0, ms(40))
            .with_pair(0, 2, ms(120))
            .with_pair(2, 0, ms(120))
            .with_pair(1, 2, ms(90))
            .with_pair(2, 1, ms(90))
    }

    /// The model governing a copy from group `from` to group `to`
    /// (`from != to`): the pairwise override if present, else
    /// [`inter`](Self::inter).
    pub fn link(&self, from: u16, to: u16) -> &LatencyModel {
        self.pairwise
            .iter()
            .find(|((f, t), _)| *f == from && *t == to)
            .map(|(_, m)| m)
            .unwrap_or(&self.inter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let mut rng = SplitMix64::new(1);
        let m = LatencyModel::Constant(Duration::from_millis(7));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), Duration::from_millis(7));
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = SplitMix64::new(2);
        let m = LatencyModel::Uniform {
            min: Duration::from_millis(10),
            max: Duration::from_millis(20),
        };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= Duration::from_millis(10) && d <= Duration::from_millis(20));
        }
        assert_eq!(m.min_delay(), Duration::from_millis(10));
    }

    #[test]
    fn degenerate_uniform() {
        let mut rng = SplitMix64::new(3);
        let m = LatencyModel::Uniform {
            min: Duration::from_millis(5),
            max: Duration::from_millis(5),
        };
        assert_eq!(m.sample(&mut rng), Duration::from_millis(5));
    }

    #[test]
    fn exponential_tail_exceeds_base() {
        let mut rng = SplitMix64::new(4);
        let m = LatencyModel::ExponentialTail {
            base: Duration::from_millis(100),
            mean_tail: Duration::from_millis(10),
        };
        let mut total = Duration::ZERO;
        for _ in 0..500 {
            let d = m.sample(&mut rng);
            assert!(d >= Duration::from_millis(100));
            total += d - Duration::from_millis(100);
        }
        let mean = total / 500;
        // Mean of the tail should be in the right ballpark.
        assert!(
            mean > Duration::from_millis(5) && mean < Duration::from_millis(20),
            "sampled tail mean {mean:?}"
        );
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = LatencyModel::Uniform {
            min: Duration::from_millis(1),
            max: Duration::from_millis(9),
        };
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..50 {
            assert_eq!(m.sample(&mut a), m.sample(&mut b));
        }
    }

    #[test]
    fn default_config_matches_paper_example() {
        let cfg = NetConfig::default();
        assert_eq!(cfg.inter.min_delay(), Duration::from_millis(100));
        assert!(cfg.intra.min_delay() < Duration::from_millis(1));
    }

    #[test]
    fn pairwise_overrides_and_fallback() {
        let cfg = NetConfig::default()
            .with_pair(0, 1, LatencyModel::Constant(Duration::from_millis(40)))
            .with_pair(1, 0, LatencyModel::Constant(Duration::from_millis(45)));
        assert_eq!(cfg.link(0, 1).min_delay(), Duration::from_millis(40));
        assert_eq!(cfg.link(1, 0).min_delay(), Duration::from_millis(45));
        // Unlisted pair falls back to the default inter model.
        assert_eq!(cfg.link(0, 2).min_delay(), Duration::from_millis(100));
        // Re-setting a pair replaces, not duplicates.
        let cfg = cfg.with_pair(0, 1, LatencyModel::Constant(Duration::from_millis(50)));
        assert_eq!(cfg.link(0, 1).min_delay(), Duration::from_millis(50));
        assert_eq!(cfg.pairwise.len(), 2);
    }

    #[test]
    fn geo_preset_is_symmetric_triangle() {
        let cfg = NetConfig::geo();
        for (a, b, ms) in [(0u16, 1u16, 40u64), (0, 2, 120), (1, 2, 90)] {
            assert_eq!(cfg.link(a, b).min_delay(), Duration::from_millis(ms));
            assert_eq!(cfg.link(b, a).min_delay(), Duration::from_millis(ms));
        }
    }

    #[test]
    fn builder_methods() {
        let cfg = NetConfig {
            intra: LatencyModel::Constant(Duration::from_micros(10)),
            detection_delay: Duration::from_millis(5),
            ..NetConfig::wan(Duration::from_millis(42))
        };
        assert_eq!(cfg.inter.min_delay(), Duration::from_millis(42));
        assert_eq!(cfg.intra.min_delay(), Duration::from_micros(10));
        assert_eq!(cfg.detection_delay, Duration::from_millis(5));
    }
}
