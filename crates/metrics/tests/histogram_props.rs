//! Property tests for the histogram: merge algebra and quantile accuracy
//! against an exact sorted reference, over seeded random sample sets.

use wamcast_metrics::Histogram;
use wamcast_types::SplitMix64;

/// Draws a sample multiset with a heavy-tailed shape (mixing octaves is
/// what stresses the log-bucket scheme).
fn samples(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| {
            let octave = rng.next_below(40);
            (1u64 << octave) + rng.next_below((1u64 << octave).max(1))
        })
        .collect()
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

#[test]
fn merge_is_associative_and_commutative() {
    let mut rng = SplitMix64::new(0x4157);
    for case in 0..64 {
        let draw = |rng: &mut SplitMix64, lo: u64| {
            let n = (lo + rng.next_below(200)) as usize;
            hist_of(&samples(rng, n))
        };
        let (a, b, c) = (draw(&mut rng, 1), draw(&mut rng, 1), draw(&mut rng, 0));
        // (a ∪ b) ∪ c == a ∪ (b ∪ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "case {case}: associativity");
        // a ∪ b == b ∪ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "case {case}: commutativity");
        // Identity: merging an empty histogram changes nothing.
        let mut id = a.clone();
        id.merge(&Histogram::new());
        assert_eq!(id, a, "case {case}: identity");
    }
}

#[test]
fn merge_equals_direct_recording() {
    let mut rng = SplitMix64::new(0x4158);
    for case in 0..64 {
        let n = 1 + rng.next_below(300) as usize;
        let xs = samples(&mut rng, n);
        let n = 1 + rng.next_below(300) as usize;
        let ys = samples(&mut rng, n);
        let mut merged = hist_of(&xs);
        merged.merge(&hist_of(&ys));
        let mut all = xs.clone();
        all.extend(&ys);
        assert_eq!(merged, hist_of(&all), "case {case}");
    }
}

#[test]
fn quantiles_bound_the_exact_order_statistic() {
    let mut rng = SplitMix64::new(0x9997);
    for case in 0..64 {
        let n = 1 + rng.next_below(500) as usize;
        let mut xs = samples(&mut rng, n);
        let h = hist_of(&xs);
        xs.sort_unstable();
        assert_eq!(h.count(), xs.len() as u64, "case {case}");
        assert_eq!(h.min(), xs[0], "case {case}: exact min");
        assert_eq!(h.max(), *xs.last().unwrap(), "case {case}: exact max");
        assert_eq!(
            h.sum(),
            xs.iter().map(|&v| v as u128).sum::<u128>(),
            "case {case}: exact sum"
        );
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let est = h.value_at_quantile(q);
            let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
            let exact = xs[rank - 1];
            // The estimate is the (clamped) upper bound of the exact
            // sample's bucket: never below it, and within 1/32 above.
            assert!(est >= exact, "case {case} q={q}: {est} < exact {exact}");
            assert!(
                est - exact <= exact / 32 + 1,
                "case {case} q={q}: {est} too far above exact {exact}"
            );
        }
    }
}
