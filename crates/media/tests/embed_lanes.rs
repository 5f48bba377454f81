//! The tiled corpus answers exactly as the row layout it replaced.
//!
//! `EmbeddedCorpus` stores its coordinates in tiles of four objects
//! and computes `distances` a tile at a time. This suite holds every
//! path to the per-object kernel over plain rows:
//!
//! * every colour distance is `to_bits()`-equal to [`euclidean`] on the
//!   object's row, for every dimension 1..=70 (each remainder of the
//!   eight-wide unroll and of the 16-dimension block) and corpus sizes
//!   around the tile width — padded lanes never reach the output;
//! * `knn`, `knn_within`, `knn_brute` and `squared_distance_abandoning`
//!   answer, and count [`ScanStats`], exactly as the row-major scan
//!   below, a copy of the scan before the tiles.
//!
//! The release build vectorises the tile kernel; debug builds also
//! check each lane against the per-object kernel inside `distances`.
//! CI runs this suite in release.

use fmdb_media::color::ColorHistogram;
use fmdb_media::embed::{euclidean, squared_euclidean, EmbeddedCorpus, EmbeddedSpace, ScanStats};
use fmdb_media::linalg::SymMatrix;

/// Corpus sizes around the tile width (4) and the zone-map block (64).
const SIZES: [usize; 8] = [0, 1, 3, 4, 5, 63, 64, 65];

/// Dimensions between early-abandon checks, as the corpus uses.
const STRIDE: usize = 16;

/// A `k`-dimensional embedding: the Laplace kernel `e^{−|i−j|/3}` on
/// points of a line is positive definite at every `k`.
fn space(k: usize) -> EmbeddedSpace {
    let a = SymMatrix::from_fn(k, |i, j| (-(i as f64 - j as f64).abs() / 3.0).exp())
        .expect("a square matrix");
    EmbeddedSpace::for_matrix(&a).expect("the Laplace kernel is positive definite")
}

/// Deterministic histograms with a few dominant bins each, so distances
/// spread and zone maps have something to skip.
fn histograms(k: usize, n: usize, mut state: u64) -> Vec<ColorHistogram> {
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let mut masses: Vec<f64> = (0..k).map(|_| next() * 0.05).collect();
            for _ in 0..3 {
                let b = (next() * k as f64) as usize % k;
                masses[b] += 1.0 + next();
            }
            ColorHistogram::from_masses(masses).expect("positive masses")
        })
        .collect()
}

/// The pre-tile corpus: one row per object and the scan as it ran over
/// rows, built from the public per-pair kernel. A prefix of `e`
/// coordinates through [`squared_euclidean`] is the running sum the
/// scan holds after those blocks, so the early-abandon decisions are
/// the corpus's own.
struct Rows {
    rows: Vec<Vec<f64>>,
    block: usize,
    lo: Vec<Vec<f64>>,
    hi: Vec<Vec<f64>>,
}

impl Rows {
    /// `hists` embedded row by row, zone maps over `block` rows.
    fn of(space: &EmbeddedSpace, hists: &[ColorHistogram], block: usize) -> Rows {
        let k = space.k();
        let rows: Vec<Vec<f64>> = hists
            .iter()
            .map(|h| space.embed(h).expect("same space"))
            .collect();
        let lo = rows
            .chunks(block)
            .map(|members| {
                (0..k)
                    .map(|d| members.iter().map(|r| r[d]).fold(f64::INFINITY, f64::min))
                    .collect()
            })
            .collect();
        let hi = rows
            .chunks(block)
            .map(|members| {
                (0..k)
                    .map(|d| {
                        members
                            .iter()
                            .map(|r| r[d])
                            .fold(f64::NEG_INFINITY, f64::max)
                    })
                    .collect()
            })
            .collect();
        Rows {
            rows,
            block,
            lo,
            hi,
        }
    }

    fn abandoning(&self, q: &[f64], i: usize, threshold_sq: f64) -> Option<f64> {
        let row = &self.rows[i];
        let k = q.len();
        let mut end = 0;
        loop {
            end = (end + STRIDE).min(k);
            let sum = squared_euclidean(&q[..end], &row[..end]);
            if end == k {
                return Some(sum);
            }
            if sum > threshold_sq {
                return None;
            }
        }
    }

    fn block_lower_bound(&self, q: &[f64], b: usize) -> f64 {
        let clamped: Vec<f64> = q
            .iter()
            .zip(&self.lo[b])
            .zip(&self.hi[b])
            .map(|((&x, &lo), &hi)| x.clamp(lo, hi))
            .collect();
        squared_euclidean(q, &clamped)
    }

    fn scan(
        &self,
        q: &[f64],
        k_nearest: usize,
        bound_sq: f64,
        abandon: bool,
        prune: bool,
    ) -> (Vec<(usize, f64)>, ScanStats) {
        let n = self.rows.len();
        let mut stats = ScanStats::default();
        let mut best: Vec<(f64, usize)> = Vec::new();
        if k_nearest == 0 {
            return (Vec::new(), stats);
        }
        let prune = prune && n > 0;
        let mut i = 0;
        while i < n {
            let block = i / self.block;
            let block_end = ((block + 1) * self.block).min(n);
            if prune {
                let kth_sq = match best.last() {
                    Some(&(d, _)) if best.len() == k_nearest => d,
                    _ => bound_sq,
                };
                if self.block_lower_bound(q, block) > kth_sq {
                    stats.blocks_skipped += 1;
                    stats.block_pruned += (block_end - i) as u64;
                    i = block_end;
                    continue;
                }
            }
            for j in i..block_end {
                let (kth_sq, kth_tie) = match best.last() {
                    Some(&(d, tie)) if best.len() == k_nearest => (d, tie),
                    _ => (bound_sq, usize::MAX),
                };
                let threshold_sq = if abandon { kth_sq } else { f64::INFINITY };
                let Some(sum) = self.abandoning(q, j, threshold_sq) else {
                    stats.abandoned += 1;
                    continue;
                };
                stats.completed += 1;
                if (sum, j) < (kth_sq, kth_tie) {
                    best.push((sum, j));
                    best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    best.truncate(k_nearest);
                }
            }
            i = block_end;
        }
        let answers = best.into_iter().map(|(d2, i)| (i, d2.sqrt())).collect();
        (answers, stats)
    }

    fn knn_within(
        &self,
        q: &[f64],
        k_nearest: usize,
        max_distance: f64,
        pruned: bool,
    ) -> (Vec<(usize, f64)>, ScanStats) {
        if max_distance < 0.0 {
            return (Vec::new(), ScanStats::default());
        }
        let bound_sq = if max_distance.is_finite() {
            max_distance * max_distance
        } else {
            f64::INFINITY
        };
        self.scan(q, k_nearest, bound_sq, true, pruned)
    }
}

fn bits(answers: &[(usize, f64)]) -> Vec<(usize, u64)> {
    answers.iter().map(|&(i, d)| (i, d.to_bits())).collect()
}

#[test]
fn every_lane_is_the_row_kernel_at_every_dimension_and_size() {
    for k in 1..=70 {
        let space = space(k);
        let all = histograms(k, 65, k as u64);
        let queries = histograms(k, 2, 1000 + k as u64);
        let full = EmbeddedCorpus::build(space.clone(), &all).expect("same space");
        for n in SIZES {
            let corpus = EmbeddedCorpus::build(space.clone(), &all[..n]).expect("same space");
            let rows = Rows::of(&space, &all[..n], corpus.prune_block());
            for query in &queries {
                let q = space.embed(query).expect("same space");
                let got = corpus.distances(query).expect("same space");
                assert_eq!(got.len(), n, "k={k} n={n}: one distance per object");
                for (i, (d, row)) in got.iter().zip(&rows.rows).enumerate() {
                    assert_eq!(
                        d.to_bits(),
                        euclidean(&q, row).to_bits(),
                        "k={k} n={n} object {i}"
                    );
                }
                // A lane's distance does not depend on what shares its
                // tile: padding or a real object.
                let wider = full.distances(query).expect("same space");
                assert_eq!(
                    got.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    wider[..n].iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                    "k={k} n={n}: padded lanes changed a distance"
                );
            }
            for i in 0..n {
                for j in [0, i / 2, n - 1] {
                    assert_eq!(
                        corpus.distance_between(i, j).to_bits(),
                        euclidean(&rows.rows[i], &rows.rows[j]).to_bits(),
                        "k={k} n={n} pair ({i}, {j})"
                    );
                }
            }
        }
    }
}

#[test]
fn the_coordinates_are_the_embedding() {
    for k in [1, 7, 16, 33, 64] {
        let space = space(k);
        let hists = histograms(k, 9, 7);
        let corpus = EmbeddedCorpus::build(space.clone(), &hists).expect("same space");
        let mut row = vec![0.0; k];
        for (i, h) in hists.iter().enumerate() {
            corpus.embedded_into(i, &mut row);
            let want = space.embed(h).expect("same space");
            assert_eq!(
                row.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|c| c.to_bits()).collect::<Vec<_>>(),
                "k={k} object {i}"
            );
        }
    }
}

#[test]
fn abandoning_decides_as_on_rows() {
    for k in [1, 8, 15, 16, 17, 31, 40, 64, 70] {
        let space = space(k);
        let hists = histograms(k, 65, 31 + k as u64);
        let corpus = EmbeddedCorpus::build(space.clone(), &hists).expect("same space");
        let rows = Rows::of(&space, &hists, corpus.prune_block());
        let q = space.embed(&histograms(k, 1, 5)[0]).expect("same space");
        let mut sums: Vec<f64> = (0..hists.len())
            .map(|i| squared_euclidean(&q, &rows.rows[i]))
            .collect();
        sums.sort_by(f64::total_cmp);
        let mut thresholds = vec![0.0, f64::INFINITY, sums[0], sums[32], sums[64]];
        thresholds.extend(sums.iter().map(|s| s * 0.5));
        for i in 0..hists.len() {
            for &t in &thresholds {
                let got = corpus.squared_distance_abandoning(&q, i, t);
                let want = rows.abandoning(&q, i, t);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "k={k} object {i} threshold {t}"
                );
            }
        }
    }
}

#[test]
fn scans_answer_and_count_as_on_rows() {
    let mut skipped_somewhere = false;
    for k in [1, 7, 16, 17, 33, 64, 70] {
        let space = space(k);
        let all = histograms(k, 65, 77 + k as u64);
        for n in SIZES {
            for block in [1, 3, 4, 5, 16, 64] {
                let corpus = EmbeddedCorpus::build(space.clone(), &all[..n])
                    .expect("same space")
                    .with_prune_block(block);
                let rows = Rows::of(&space, &all[..n], block);
                // A stored object (a self-query: zone maps skip) and an
                // outsider.
                let mut queries = histograms(k, 1, 9 + k as u64);
                if n > 0 {
                    queries.push(all[n / 2].clone());
                }
                for query in &queries {
                    let q = space.embed(query).expect("same space");
                    let (every, _) = rows.scan(&q, n, f64::INFINITY, false, false);
                    let mid = every.get(n / 2).map_or(1.0, |a| a.1);
                    for k_nearest in [0, 1, 7, n, n + 3] {
                        let case = format!("k={k} n={n} block={block} k_nearest={k_nearest}");
                        let (got, got_stats) = corpus.knn(query, k_nearest).expect("same space");
                        let (want, want_stats) =
                            rows.scan(&q, k_nearest, f64::INFINITY, true, true);
                        assert_eq!(bits(&got), bits(&want), "knn {case}");
                        assert_eq!(got_stats, want_stats, "knn {case}");
                        skipped_somewhere |= got_stats.blocks_skipped > 0;

                        let (got, got_stats) =
                            corpus.knn_brute(query, k_nearest).expect("same space");
                        let (want, want_stats) =
                            rows.scan(&q, k_nearest, f64::INFINITY, false, false);
                        assert_eq!(bits(&got), bits(&want), "knn_brute {case}");
                        assert_eq!(got_stats, want_stats, "knn_brute {case}");

                        for bound in [-1.0, 0.0, mid, f64::INFINITY, f64::NAN] {
                            for pruned in [true, false] {
                                let (got, got_stats) = corpus
                                    .knn_within(query, k_nearest, bound, pruned)
                                    .expect("same space");
                                let (want, want_stats) =
                                    rows.knn_within(&q, k_nearest, bound, pruned);
                                let case = format!("{case} bound={bound} pruned={pruned}");
                                assert_eq!(bits(&got), bits(&want), "knn_within {case}");
                                assert_eq!(got_stats, want_stats, "knn_within {case}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        skipped_somewhere,
        "no scan skipped a block: the zone-map path went untested"
    );
}
