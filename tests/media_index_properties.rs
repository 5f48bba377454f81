//! Property-based tests across the media and index substrates: the
//! distance-bounding guarantee (zero false dismissals), metric
//! properties of the quadratic form, agreement of the R-tree and the
//! filter-and-refine index with exhaustive search, and the size
//! accounting of the grid file and the quadtree.

use proptest::prelude::*;

use fuzzymm::media::bounding::BoundedDistance;
use fuzzymm::media::color::{ColorHistogram, ColorSpace};
use fuzzymm::prelude::*;

fn space() -> ColorSpace {
    ColorSpace::rgb_grid(3).expect("positive bins")
}

fn histogram(k: usize) -> impl Strategy<Value = ColorHistogram> {
    proptest::collection::vec(1e-6f64..1.0, k..=k)
        .prop_map(|masses| ColorHistogram::from_masses(masses).expect("positive masses"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn distance_bound_never_overshoots(x in histogram(27), y in histogram(27)) {
        let sp = space();
        let bd = BoundedDistance::for_space(&sp).expect("filter derivable");
        let full = bd.full.distance(&x, &y).expect("same space");
        let lower = bd.filter.lower_bound(&x, &y).expect("same space");
        prop_assert!(full + 1e-9 >= lower, "d = {full} < d̂ = {lower}");
    }

    #[test]
    fn quadratic_form_is_a_semimetric(
        x in histogram(27),
        y in histogram(27),
        z in histogram(27),
    ) {
        let sp = space();
        let qf = QuadraticFormDistance::new(sp.similarity_matrix());
        let d = |a: &ColorHistogram, b: &ColorHistogram| qf.distance(a, b).expect("same space");
        prop_assert!(d(&x, &x) < 1e-9);
        prop_assert!((d(&x, &y) - d(&y, &x)).abs() < 1e-12);
        prop_assert!(d(&x, &z) <= d(&x, &y) + d(&y, &z) + 1e-9);
    }

    #[test]
    fn rtree_knn_agrees_with_scan(
        points in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3..=3),
            1..80,
        ),
        k in 1usize..=6,
        query in proptest::collection::vec(0.0f64..1.0, 3..=3),
    ) {
        let mut tree = RTree::new(3).expect("positive dim");
        let mut scan = LinearScan::new(3).expect("positive dim");
        for (i, p) in points.iter().enumerate() {
            tree.insert(p, i as u64).expect("valid point");
            scan.insert(p, i as u64).expect("valid point");
        }
        let (a, _) = tree.knn(&query, k).expect("valid query");
        let (b, _) = scan.knn(&query, k).expect("valid query");
        let a_ids: Vec<u64> = a.iter().map(|n| n.id).collect();
        let b_ids: Vec<u64> = b.iter().map(|n| n.id).collect();
        prop_assert_eq!(a_ids, b_ids);
    }

    /// The size accounting E8 reads: the grid file keeps every point and
    /// never occupies more cells than its dense directory has, and every
    /// quadtree split turns one leaf into 2^d.
    #[test]
    fn gridfile_and_quadtree_accounting_holds(
        dim in 2usize..=3,
        points in proptest::collection::vec(
            proptest::collection::vec(0.0f64..1.0, 3..=3),
            1..80,
        ),
        capacity in 1usize..=4,
    ) {
        let mut grid = GridFile::new(dim, capacity, 1 << 20).expect("positive dim");
        let mut quad = QuadTree::new(dim, capacity, 1 << 20).expect("supported dim");
        for (i, p) in points.iter().enumerate() {
            grid.insert(&p[..dim], i as u64).expect("point in the unit cube");
            quad.insert(&p[..dim], i as u64).expect("point in the unit cube");
        }
        prop_assert_eq!(grid.len(), points.len());
        prop_assert!(grid.occupied_cells() as u128 <= grid.directory_size());
        prop_assert_eq!(quad.len(), points.len());
        prop_assert_eq!(quad.leaf_cells() % ((1u128 << dim) - 1), 1);
    }

    #[test]
    fn filter_refine_matches_brute_force(
        masses in proptest::collection::vec(
            proptest::collection::vec(1e-6f64..1.0, 27..=27),
            2..40,
        ),
        k in 1usize..=5,
    ) {
        let sp = space();
        let hists: Vec<ColorHistogram> = masses
            .into_iter()
            .map(|m| ColorHistogram::from_masses(m).expect("positive masses"))
            .collect();
        let query = hists[0].clone();
        let index = FilterRefineIndex::build(&sp, hists.clone()).expect("filter derivable");
        let (got, stats) = index.knn(&query, k).expect("query runs");

        let qf = QuadraticFormDistance::new(sp.similarity_matrix());
        let mut expect: Vec<(usize, f64)> = hists
            .iter()
            .enumerate()
            .map(|(i, h)| (i, qf.distance(&query, h).expect("same space")))
            .collect();
        expect.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite").then(a.0.cmp(&b.0)));
        expect.truncate(k);
        for ((_, gd), (_, ed)) in got.iter().zip(&expect) {
            prop_assert!((gd - ed).abs() < 1e-9);
        }
        prop_assert!(stats.full_evaluations <= stats.filter_evaluations);
    }

    #[test]
    fn histograms_always_normalize(masses in proptest::collection::vec(0.0f64..10.0, 1..64)) {
        prop_assume!(masses.iter().sum::<f64>() > 0.0);
        let h = ColorHistogram::from_masses(masses).expect("positive total");
        let total: f64 = h.bins().iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
    }
}
