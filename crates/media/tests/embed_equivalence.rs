//! Property suite: the Cholesky-embedded Euclidean kernel is
//! observationally identical to the quadratic-form distance of eq. (1).
//!
//! * [`EmbeddedDistance`] agrees with [`QuadraticFormDistance`] within
//!   1e-9 on random normalized histograms, across grid sizes;
//! * the zone-map-pruned early-abandoning corpus scan returns results
//!   identical to the brute-force oracle — same indices, same
//!   distances, same (distance, index) order, including ties.

use proptest::prelude::*;

use fmdb_media::color::{ColorHistogram, ColorSpace};
use fmdb_media::distance::{HistogramDistance, QuadraticFormDistance};
use fmdb_media::embed::{EmbeddedCorpus, EmbeddedDistance, EmbeddedSpace};

/// A randomly drawn corpus-scan comparison.
#[derive(Debug, Clone)]
struct Scenario {
    bins_per_channel: usize,
    n: usize,
    k_nearest: usize,
    seed: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        2usize..=4,
        5usize..80,
        prop_oneof![Just(1usize), Just(5usize), Just(100usize)],
        0u64..1_000_000,
    )
        .prop_map(|(bins_per_channel, n, k_nearest, seed)| Scenario {
            bins_per_channel,
            n,
            k_nearest,
            seed,
        })
}

/// Deterministic pseudo-random normalized histograms (sparse-ish, like
/// real images: a handful of dominant bins).
fn histograms(space: &ColorSpace, n: usize, mut state: u64) -> Vec<ColorHistogram> {
    state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let k = space.k();
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let mut masses = vec![0.0; k];
            let dominant = (next() * k as f64) as usize % k;
            masses[dominant] = 4.0 + next();
            for _ in 0..4 {
                let b = (next() * k as f64) as usize % k;
                masses[b] += next();
            }
            ColorHistogram::from_masses(masses).expect("positive masses")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `EmbeddedDistance` ≡ `QuadraticFormDistance` within 1e-9.
    #[test]
    fn embedded_distance_matches_quadratic_form(
        bins_per_channel in 2usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let space = ColorSpace::rgb_grid(bins_per_channel).expect("valid grid");
        let qf = QuadraticFormDistance::new(space.similarity_matrix());
        let embedded =
            EmbeddedDistance::new(EmbeddedSpace::for_space(&space).expect("QBIC matrix embeds"));
        let hists = histograms(&space, 12, seed);
        for x in &hists {
            for y in &hists {
                let slow = qf.distance(x, y).expect("same space");
                let fast = embedded.distance(x, y).expect("same space");
                prop_assert!(
                    (slow - fast).abs() < 1e-9,
                    "k={}: {slow} vs {fast}",
                    space.k()
                );
            }
        }
    }

    /// Zone-map pruning is invisible in answers: pruned and unpruned
    /// scans agree bit for bit across block sizes and thresholds,
    /// including degenerate corpora (k ≥ n; every histogram equal).
    #[test]
    fn pruned_equivalence_across_block_sizes_and_thresholds(
        s in scenario(),
        block in prop_oneof![Just(1usize), Just(3), Just(8), Just(64)],
        all_equal in prop_oneof![Just(false), Just(true)],
    ) {
        let space = ColorSpace::rgb_grid(s.bins_per_channel).expect("valid grid");
        let mut hists = histograms(&space, s.n, s.seed);
        if all_equal {
            let first = hists[0].clone();
            hists = vec![first; s.n];
        }
        let query = &histograms(&space, 1, s.seed ^ 0xdead_beef)[0];
        let corpus = EmbeddedCorpus::build(
            EmbeddedSpace::for_space(&space).expect("QBIC matrix embeds"),
            &hists,
        )
        .expect("same space")
        .with_prune_block(block);

        // k ≥ n is in the sweep (k_nearest = 100 > n ≤ 80).
        let (pruned, pstats) = corpus.knn(query, s.k_nearest).expect("same space");
        let (unpruned, ustats) = corpus
            .knn_within(query, s.k_nearest, f64::INFINITY, false)
            .expect("same space");
        prop_assert_eq!(&pruned, &unpruned, "block={}", block);
        prop_assert!(
            pstats.completed <= ustats.completed,
            "pruning may only reduce work: {} vs {} completed",
            pstats.completed,
            ustats.completed
        );

        // Threshold-seeded scans: a live bound (drawn from the true
        // distance spread, plus extremes) never changes the answer; a
        // negative one admits nothing.
        let (oracle, _) = corpus.knn_brute(query, s.n.max(1)).expect("same space");
        let mid = oracle[oracle.len() / 2].1;
        for bound in [-1.0, 0.0, mid, f64::INFINITY] {
            let (p, _) = corpus
                .knn_within(query, s.k_nearest, bound, true)
                .expect("same space");
            let (u, _) = corpus
                .knn_within(query, s.k_nearest, bound, false)
                .expect("same space");
            prop_assert_eq!(&p, &u, "block={} bound={}", block, bound);
            prop_assert!(bound >= 0.0 || p.is_empty(), "within {}: {:?}", bound, p);
        }
    }

    /// The early-abandoning scan equals the brute-force oracle exactly.
    #[test]
    fn knn_variants_match_brute_force_oracle(s in scenario()) {
        let space = ColorSpace::rgb_grid(s.bins_per_channel).expect("valid grid");
        let hists = histograms(&space, s.n, s.seed);
        let query = &histograms(&space, 1, s.seed ^ 0xdead_beef)[0];

        let plain = EmbeddedCorpus::build(
            EmbeddedSpace::for_space(&space).expect("QBIC matrix embeds"),
            &hists,
        )
        .expect("same space");

        let (oracle, _) = plain.knn_brute(query, s.k_nearest).expect("same space");
        let (got, _) = plain.knn(query, s.k_nearest).expect("same space");
        prop_assert_eq!(oracle.len(), got.len(), "length mismatch");
        for (o, g) in oracle.iter().zip(&got) {
            prop_assert_eq!(o.0, g.0, "index order differs");
            prop_assert_eq!(o.1, g.1, "distance differs at {}", o.0);
        }
    }
}
