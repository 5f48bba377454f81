//! An R-tree with R*-style splits \[BKSS90\] and incremental
//! nearest-neighbour search.
//!
//! §2.1: "Another popular multidimensional indexing method is R-trees
//! \[BKSS90\]. These tend to be more robust for higher dimensions, at
//! least for dimensions up to around 20 \[Ot92\]." Experiment E8 measures
//! precisely that degradation: node accesses per k-NN query as the
//! dimension grows (the "dimensionality curse").
//!
//! Implementation notes: points-only entries (feature vectors), the
//! R*-tree ChooseSubtree (minimum overlap enlargement at leaf level,
//! minimum volume enlargement above), the R*-tree topological split
//! (choose axis by minimum margin sum, then the distribution with
//! minimum overlap), and R*-style **forced reinsertion** at the leaf
//! level, always on (on first overflow, the 30% of entries farthest
//! from the node center are re-inserted from the root instead of
//! splitting). There is one search: [`RTree::nearest_iter`], the
//! Hjaltason–Samet incremental traversal with a priority queue over
//! MINDIST; [`RTree::knn`] is its first `k` items.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::geometry::{dist2, validate_point, GeometryError, Mbr};

/// Maximum entries per node.
const MAX_ENTRIES: usize = 16;
/// Minimum entries per node after a split (R* recommends ~40% of max).
const MIN_ENTRIES: usize = 6;

/// An opaque record id stored with each point.
pub type ItemId = u64;

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        mbr: Mbr,
        entries: Vec<(Vec<f64>, ItemId)>,
    },
    Internal {
        mbr: Mbr,
        children: Vec<Node>,
    },
}

impl Node {
    fn mbr(&self) -> &Mbr {
        match self {
            Node::Leaf { mbr, .. } | Node::Internal { mbr, .. } => mbr,
        }
    }

    fn recompute_mbr(&mut self) {
        match self {
            Node::Leaf { mbr, entries } => {
                let mut m = Mbr::of_point(&entries[0].0);
                for (p, _) in entries.iter().skip(1) {
                    m.expand_point(p);
                }
                *mbr = m;
            }
            Node::Internal { mbr, children } => {
                let mut m = children[0].mbr().clone();
                for c in children.iter().skip(1) {
                    m.expand_mbr(c.mbr());
                }
                *mbr = m;
            }
        }
    }
}

/// Per-query access statistics: the index-side analogue of the paper's
/// database access cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexAccess {
    /// Tree nodes touched (≈ page reads in a disk-resident tree).
    pub nodes_visited: u64,
    /// Exact point-distance computations performed.
    pub distance_computations: u64,
}

/// A k-NN search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Neighbor {
    /// The stored item id.
    pub id: ItemId,
    /// Euclidean distance from the query point.
    pub distance: f64,
}

/// An in-memory R-tree over d-dimensional points.
#[derive(Debug, Clone)]
pub struct RTree {
    dim: usize,
    root: Option<Node>,
    len: usize,
}

impl RTree {
    /// An empty tree for points of dimension `dim`.
    pub fn new(dim: usize) -> Result<RTree, GeometryError> {
        if dim == 0 {
            return Err(GeometryError::EmptyDimension);
        }
        Ok(RTree {
            dim,
            root: None,
            len: 0,
        })
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no point is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Tree height (0 for the empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 0;
        let mut node = self.root.as_ref();
        while let Some(n) = node {
            h += 1;
            node = match n {
                Node::Internal { children, .. } => children.first(),
                Node::Leaf { .. } => None,
            };
        }
        h
    }

    /// Inserts a point with its id.
    pub fn insert(&mut self, point: &[f64], id: ItemId) -> Result<(), GeometryError> {
        validate_point(point)?;
        if point.len() != self.dim {
            return Err(GeometryError::DimensionMismatch {
                expected: self.dim,
                got: point.len(),
            });
        }
        self.len += 1;
        self.insert_entry(point.to_vec(), id, true);
        Ok(())
    }

    /// Core insertion; `allow_reinsert` is dropped for the re-inserted
    /// entries themselves so reinsertion cannot cascade (the R*-tree's
    /// once-per-level rule, restricted to the leaf level here).
    fn insert_entry(&mut self, point: Vec<f64>, id: ItemId, allow_reinsert: bool) {
        match self.root.take() {
            None => {
                self.root = Some(Node::Leaf {
                    mbr: Mbr::of_point(&point),
                    entries: vec![(point, id)],
                });
            }
            Some(mut root) => {
                let is_root_leaf = matches!(root, Node::Leaf { .. });
                match insert_rec(&mut root, &point, id, allow_reinsert && !is_root_leaf) {
                    InsertOutcome::Done => self.root = Some(root),
                    InsertOutcome::Split(sibling) => {
                        // Root split: grow the tree.
                        let mut mbr = root.mbr().clone();
                        mbr.expand_mbr(sibling.mbr());
                        self.root = Some(Node::Internal {
                            mbr,
                            children: vec![root, sibling],
                        });
                    }
                    InsertOutcome::Reinsert(evicted) => {
                        // Ancestor MBRs may now over-cover (correct but
                        // loose); the reinsertions below tighten packing
                        // where it matters — the leaves.
                        self.root = Some(root);
                        for (p, pid) in evicted {
                            self.insert_entry(p, pid, false);
                        }
                    }
                }
            }
        }
    }

    /// The `k` nearest stored points to `query`, nearest first: the
    /// first `k` items of [`RTree::nearest_iter`], with the accesses
    /// the cursor made to produce them.
    pub fn knn(
        &self,
        query: &[f64],
        k: usize,
    ) -> Result<(Vec<Neighbor>, IndexAccess), GeometryError> {
        let mut cursor = self.nearest_iter(query)?;
        let hits = cursor.by_ref().take(k).collect();
        Ok((hits, cursor.access()))
    }

    /// A **streaming** nearest-neighbor iterator (Hjaltason–Samet
    /// incremental search): yields stored points strictly in ascending
    /// distance from `query`, lazily — exactly what a filter-and-refine
    /// consumer needs, since it cannot know in advance how many
    /// candidates the refine step will reject.
    ///
    /// §2.1 anticipates this use: "we could potentially have a
    /// multidimensional index on short color vectors."
    pub fn nearest_iter<'a>(&'a self, query: &[f64]) -> Result<NearestIter<'a>, GeometryError> {
        validate_point(query)?;
        if query.len() != self.dim {
            return Err(GeometryError::DimensionMismatch {
                expected: self.dim,
                got: query.len(),
            });
        }
        let mut heap = BinaryHeap::new();
        if let Some(root) = &self.root {
            heap.push(IterEntry {
                key: root.mbr().min_dist2(query),
                kind: EntryKind::Node(root),
            });
        }
        Ok(NearestIter {
            query: query.to_vec(),
            heap,
            access: IndexAccess::default(),
        })
    }
}

enum EntryKind<'a> {
    Node(&'a Node),
    Point(ItemId),
}

struct IterEntry<'a> {
    /// MINDIST² for nodes, exact distance² for points.
    key: f64,
    kind: EntryKind<'a>,
}

impl PartialEq for IterEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for IterEntry<'_> {}
impl PartialOrd for IterEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for IterEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need the smallest key.
        other
            .key
            .total_cmp(&self.key)
            // Yield points before nodes at equal keys so results are
            // emitted as early as possible.
            .then_with(|| match (&self.kind, &other.kind) {
                (EntryKind::Point(a), EntryKind::Point(b)) => b.cmp(a),
                (EntryKind::Point(_), EntryKind::Node(_)) => Ordering::Greater,
                (EntryKind::Node(_), EntryKind::Point(_)) => Ordering::Less,
                (EntryKind::Node(_), EntryKind::Node(_)) => Ordering::Equal,
            })
    }
}

/// Streaming nearest-neighbor cursor over an [`RTree`]; see
/// [`RTree::nearest_iter`].
pub struct NearestIter<'a> {
    query: Vec<f64>,
    heap: BinaryHeap<IterEntry<'a>>,
    access: IndexAccess,
}

// The frontier heap borrows tree internals with no useful rendering;
// an opaque summary satisfies `missing_debug_implementations`.
impl std::fmt::Debug for NearestIter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NearestIter")
            .field("dims", &self.query.len())
            .field("frontier", &self.heap.len())
            .finish_non_exhaustive()
    }
}

impl NearestIter<'_> {
    /// Accesses performed so far (grows as the cursor advances).
    pub fn access(&self) -> IndexAccess {
        self.access
    }
}

impl Iterator for NearestIter<'_> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        while let Some(IterEntry { key, kind }) = self.heap.pop() {
            match kind {
                EntryKind::Point(id) => {
                    return Some(Neighbor {
                        id,
                        distance: key.sqrt(),
                    });
                }
                EntryKind::Node(node) => {
                    self.access.nodes_visited += 1;
                    let _ = key;
                    match node {
                        Node::Leaf { entries, .. } => {
                            for (p, id) in entries {
                                self.access.distance_computations += 1;
                                self.heap.push(IterEntry {
                                    key: dist2(p, &self.query),
                                    kind: EntryKind::Point(*id),
                                });
                            }
                        }
                        Node::Internal { children, .. } => {
                            for c in children {
                                self.heap.push(IterEntry {
                                    key: c.mbr().min_dist2(&self.query),
                                    kind: EntryKind::Node(c),
                                });
                            }
                        }
                    }
                }
            }
        }
        None
    }
}

/// What an insertion did to a subtree.
enum InsertOutcome {
    /// Absorbed without structural change.
    Done,
    /// The node split; the new sibling must be attached by the parent.
    Split(Node),
    /// Forced reinsertion: these evicted entries must be re-inserted
    /// from the root (R* \[BKSS90\]: on first overflow, evict the
    /// entries farthest from the node center instead of splitting —
    /// they often land in better-fitting neighbors).
    Reinsert(Vec<(Vec<f64>, ItemId)>),
}

/// Fraction of an overflowing leaf evicted by forced reinsertion
/// (R* recommends 30%).
const REINSERT_FRACTION: f64 = 0.3;

/// Recursive insert.
fn insert_rec(node: &mut Node, point: &[f64], id: ItemId, allow_reinsert: bool) -> InsertOutcome {
    match node {
        Node::Leaf { mbr, entries } => {
            entries.push((point.to_vec(), id));
            mbr.expand_point(point);
            if entries.len() <= MAX_ENTRIES {
                return InsertOutcome::Done;
            }
            if allow_reinsert {
                InsertOutcome::Reinsert(evict_farthest(node))
            } else {
                InsertOutcome::Split(split_leaf(node))
            }
        }
        Node::Internal { mbr, children } => {
            mbr.expand_point(point);
            let chosen = choose_subtree(children, point);
            match insert_rec(&mut children[chosen], point, id, allow_reinsert) {
                InsertOutcome::Done => InsertOutcome::Done,
                InsertOutcome::Reinsert(evicted) => InsertOutcome::Reinsert(evicted),
                InsertOutcome::Split(sibling) => {
                    children.push(sibling);
                    if children.len() > MAX_ENTRIES {
                        InsertOutcome::Split(split_internal(node))
                    } else {
                        InsertOutcome::Done
                    }
                }
            }
        }
    }
}

/// Removes the ~30% of a leaf's entries farthest from its MBR center
/// and shrinks the MBR; the caller re-inserts them from the root.
fn evict_farthest(node: &mut Node) -> Vec<(Vec<f64>, ItemId)> {
    let Node::Leaf { entries, .. } = node else {
        unreachable!("evict_farthest on internal node");
    };
    let center: Vec<f64> = {
        let mut mbr = Mbr::of_point(&entries[0].0);
        for (p, _) in entries.iter().skip(1) {
            mbr.expand_point(p);
        }
        mbr.min()
            .iter()
            .zip(mbr.max())
            .map(|(a, b)| (a + b) / 2.0)
            .collect()
    };
    entries.sort_by(|a, b| dist2(&a.0, &center).total_cmp(&dist2(&b.0, &center)));
    let evict_count = (((entries.len() as f64) * REINSERT_FRACTION) as usize).max(1);
    let keep = entries.len() - evict_count;
    let evicted = entries.split_off(keep);
    node.recompute_mbr();
    evicted
}

/// R*-tree ChooseSubtree: into leaves, minimize overlap enlargement;
/// higher up, minimize volume enlargement (ties: smaller volume).
fn choose_subtree(children: &[Node], point: &[f64]) -> usize {
    let point_mbr = Mbr::of_point(point);
    let leaf_level = matches!(children[0], Node::Leaf { .. });
    let mut best = 0;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, c) in children.iter().enumerate() {
        let enlarged = c.mbr().union(&point_mbr);
        let vol_enl = enlarged.volume() - c.mbr().volume();
        let key = if leaf_level {
            // Overlap enlargement against the other children.
            let mut overlap_delta = 0.0;
            for (j, other) in children.iter().enumerate() {
                if i != j {
                    overlap_delta += enlarged.overlap(other.mbr()) - c.mbr().overlap(other.mbr());
                }
            }
            (overlap_delta, vol_enl, c.mbr().volume())
        } else {
            (vol_enl, c.mbr().volume(), 0.0)
        };
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// R*-style split of an overflowing leaf. Returns the new sibling.
fn split_leaf(node: &mut Node) -> Node {
    let Node::Leaf { entries, .. } = node else {
        unreachable!("split_leaf on internal node");
    };
    let items = std::mem::take(entries);
    let (left, right) = rstar_partition(items, |p| &p.0);
    *node = Node::Leaf {
        mbr: Mbr::of_point(&left[0].0),
        entries: left,
    };
    node.recompute_mbr();
    let mut sibling = Node::Leaf {
        mbr: Mbr::of_point(&right[0].0),
        entries: right,
    };
    sibling.recompute_mbr();
    sibling
}

/// R*-style split of an overflowing internal node.
fn split_internal(node: &mut Node) -> Node {
    let Node::Internal { children, .. } = node else {
        unreachable!("split_internal on leaf");
    };
    let items = std::mem::take(children);
    // Partition children by the center of their MBRs.
    let centers: Vec<Vec<f64>> = items
        .iter()
        .map(|c| {
            c.mbr()
                .min()
                .iter()
                .zip(c.mbr().max())
                .map(|(a, b)| (a + b) / 2.0)
                .collect()
        })
        .collect();
    let mut tagged: Vec<(Vec<f64>, Node)> = centers.into_iter().zip(items).collect();
    let dim = tagged[0].0.len();
    let (axis, split_at) = choose_split(&mut tagged, dim, |t| &t.0);
    tagged.sort_by(|a, b| a.0[axis].total_cmp(&b.0[axis]));
    let right_items: Vec<Node> = tagged
        .split_off(split_at)
        .into_iter()
        .map(|t| t.1)
        .collect();
    let left_items: Vec<Node> = tagged.into_iter().map(|t| t.1).collect();

    let rebuild = |items: Vec<Node>| -> Node {
        let mut mbr = items[0].mbr().clone();
        for c in items.iter().skip(1) {
            mbr.expand_mbr(c.mbr());
        }
        Node::Internal {
            mbr,
            children: items,
        }
    };
    let sibling = rebuild(right_items);
    *node = rebuild(left_items);
    sibling
}

/// Shared R* partition for point-keyed items: choose the split axis by
/// minimum margin sum, then the distribution with minimum overlap
/// (ties: minimum total volume); returns the two sides.
fn rstar_partition<T>(mut items: Vec<T>, key: impl Fn(&T) -> &[f64] + Copy) -> (Vec<T>, Vec<T>) {
    let dim = key(&items[0]).len();
    let (axis, split_at) = choose_split(&mut items, dim, key);
    items.sort_by(|a, b| key(a)[axis].total_cmp(&key(b)[axis]));
    let right = items.split_off(split_at);
    (items, right)
}

/// Chooses `(axis, split_index)` for a set of point-keyed items.
fn choose_split<T>(
    items: &mut [T],
    dim: usize,
    key: impl Fn(&T) -> &[f64] + Copy,
) -> (usize, usize) {
    let n = items.len();
    let lo = MIN_ENTRIES.min(n.saturating_sub(1)).max(1);
    let hi = n - lo;
    let mut best_axis = 0;
    let mut best_margin = f64::INFINITY;
    for axis in 0..dim {
        items.sort_by(|a, b| key(a)[axis].total_cmp(&key(b)[axis]));
        let mut margin = 0.0;
        for split in lo..=hi {
            let (ml, mr) = side_mbrs(items, split, key);
            margin += ml.margin() + mr.margin();
        }
        if margin < best_margin {
            best_margin = margin;
            best_axis = axis;
        }
    }
    items.sort_by(|a, b| key(a)[best_axis].total_cmp(&key(b)[best_axis]));
    let mut best_split = lo;
    let mut best_key = (f64::INFINITY, f64::INFINITY);
    for split in lo..=hi {
        let (ml, mr) = side_mbrs(items, split, key);
        let cand = (ml.overlap(&mr), ml.volume() + mr.volume());
        if cand < best_key {
            best_key = cand;
            best_split = split;
        }
    }
    (best_axis, best_split)
}

fn side_mbrs<T>(items: &[T], split: usize, key: impl Fn(&T) -> &[f64]) -> (Mbr, Mbr) {
    let mut ml = Mbr::of_point(key(&items[0]));
    for item in &items[1..split] {
        ml.expand_point(key(item));
    }
    let mut mr = Mbr::of_point(key(&items[split]));
    for item in &items[split + 1..] {
        mr.expand_point(key(item));
    }
    (ml, mr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
            .collect()
    }

    fn brute_knn(points: &[Vec<f64>], query: &[f64], k: usize) -> Vec<Neighbor> {
        let mut all: Vec<Neighbor> = points
            .iter()
            .enumerate()
            .map(|(i, p)| Neighbor {
                id: i as ItemId,
                distance: dist2(p, query).sqrt(),
            })
            .collect();
        all.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .unwrap()
                .then(a.id.cmp(&b.id))
        });
        all.truncate(k);
        all
    }

    #[test]
    fn construction_and_validation() {
        assert!(RTree::new(0).is_err());
        let mut t = RTree::new(2).unwrap();
        assert!(t.is_empty());
        assert!(matches!(
            t.insert(&[1.0], 0),
            Err(GeometryError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        ));
        assert!(t.insert(&[1.0, f64::NAN], 0).is_err());
        t.insert(&[0.5, 0.5], 7).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn knn_matches_brute_force() {
        for dim in [2, 3, 8] {
            let points = random_points(500, dim, 99);
            let mut tree = RTree::new(dim).unwrap();
            for (i, p) in points.iter().enumerate() {
                tree.insert(p, i as ItemId).unwrap();
            }
            let queries = random_points(20, dim, 7);
            for q in &queries {
                for k in [1, 5, 17] {
                    let (got, _) = tree.knn(q, k).unwrap();
                    let expect = brute_knn(&points, q, k);
                    let got_ids: Vec<_> = got.iter().map(|n| n.id).collect();
                    let expect_ids: Vec<_> = expect.iter().map(|n| n.id).collect();
                    assert_eq!(got_ids, expect_ids, "dim={dim} k={k}");
                }
            }
        }
    }

    #[test]
    fn knn_on_empty_and_small_trees() {
        let tree = RTree::new(2).unwrap();
        let (res, _) = tree.knn(&[0.0, 0.0], 3).unwrap();
        assert!(res.is_empty());

        let mut one = RTree::new(2).unwrap();
        one.insert(&[1.0, 1.0], 42).unwrap();
        let (res, _) = one.knn(&[0.0, 0.0], 3).unwrap();
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].id, 42);
        let (res0, _) = one.knn(&[0.0, 0.0], 0).unwrap();
        assert!(res0.is_empty());
    }

    /// Answers and accesses of `knn`, captured when it still ran a
    /// best-first loop of its own: the incremental cursor's first `k`
    /// items must reproduce them exactly. Rows are `(dim, k, ids,
    /// distances, nodes_visited, distance_computations)` over 500
    /// seeded uniform points and one seeded query per dimension.
    #[test]
    fn knn_reproduces_pinned_answers_and_accesses() {
        type Pin = (usize, usize, &'static [ItemId], &'static [f64], u64, u64);
        const PINS: [Pin; 6] = [
            (2, 1, &[40], &[0.03355739155962395], 3, 10),
            (
                2,
                10,
                &[40, 160, 279, 338, 173, 479, 193, 89, 212, 422],
                &[
                    0.03355739155962395,
                    0.05222163013654016,
                    0.06621181343609724,
                    0.06811683202329183,
                    0.07681686241559425,
                    0.08559365750546917,
                    0.09353476656122359,
                    0.0969064429595006,
                    0.09775632718139611,
                    0.09802884739825,
                ],
                5,
                31,
            ),
            (8, 1, &[374], &[0.5045450794633315], 29, 286),
            (
                8,
                10,
                &[374, 397, 27, 283, 2, 10, 425, 227, 421, 32],
                &[
                    0.5045450794633315,
                    0.5457797871123735,
                    0.5467175024026322,
                    0.5614555081497796,
                    0.5797024634541629,
                    0.587436731040395,
                    0.5890760321875472,
                    0.5948400747220812,
                    0.6060416169329552,
                    0.6116196475898331,
                ],
                38,
                384,
            ),
            (20, 1, &[83], &[1.1282356012590238], 48, 500),
            (
                20,
                10,
                &[83, 322, 73, 434, 343, 303, 14, 203, 421, 171],
                &[
                    1.1282356012590238,
                    1.2359996645578246,
                    1.386507229401538,
                    1.3908399578635686,
                    1.4116175791321308,
                    1.4292768147721817,
                    1.4438813413685945,
                    1.44990783775235,
                    1.4587006625956485,
                    1.4606687966957288,
                ],
                48,
                500,
            ),
        ];
        for (dim, k, ids, distances, nodes_visited, distance_computations) in PINS {
            let mut tree = RTree::new(dim).unwrap();
            for (i, p) in random_points(500, dim, 2024).iter().enumerate() {
                tree.insert(p, i as ItemId).unwrap();
            }
            let (hits, access) = tree.knn(&random_points(1, dim, 7)[0], k).unwrap();
            let got_ids: Vec<ItemId> = hits.iter().map(|n| n.id).collect();
            let got_distances: Vec<f64> = hits.iter().map(|n| n.distance).collect();
            assert_eq!(got_ids, ids, "dim={dim} k={k}");
            assert_eq!(got_distances, distances, "dim={dim} k={k}");
            assert_eq!(
                access,
                IndexAccess {
                    nodes_visited,
                    distance_computations
                },
                "dim={dim} k={k}"
            );
        }
    }

    #[test]
    fn knn_prunes_nodes_in_low_dimensions() {
        let points = random_points(2000, 2, 11);
        let mut tree = RTree::new(2).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p, i as ItemId).unwrap();
        }
        let (_, access) = tree.knn(&[0.5, 0.5], 5).unwrap();
        // A full scan would compute 2000 distances; the tree must prune
        // hard in 2-D.
        assert!(access.distance_computations < 500, "no pruning: {access:?}");
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let points = random_points(2000, 2, 13);
        let mut tree = RTree::new(2).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p, i as ItemId).unwrap();
        }
        let h = tree.height();
        assert!((2..=6).contains(&h), "height {h}");
        assert_eq!(tree.len(), 2000);
    }

    #[test]
    fn nearest_iter_streams_in_ascending_distance() {
        let points = random_points(600, 3, 41);
        let mut tree = RTree::new(3).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p, i as ItemId).unwrap();
        }
        let q = [0.4, 0.6, 0.5];
        let collected: Vec<Neighbor> = tree.nearest_iter(&q).unwrap().collect();
        assert_eq!(collected.len(), 600);
        for w in collected.windows(2) {
            assert!(w[0].distance <= w[1].distance + 1e-12);
        }
    }

    #[test]
    fn nearest_iter_is_lazy_about_node_accesses() {
        let points = random_points(4000, 2, 43);
        let mut tree = RTree::new(2).unwrap();
        for (i, p) in points.iter().enumerate() {
            tree.insert(p, i as ItemId).unwrap();
        }
        let mut iter = tree.nearest_iter(&[0.5, 0.5]).unwrap();
        let _ = iter.by_ref().take(3).count();
        let after_three = iter.access();
        let _ = iter.by_ref().take(500).count();
        let after_more = iter.access();
        assert!(
            after_three.nodes_visited < after_more.nodes_visited,
            "laziness: {after_three:?} vs {after_more:?}"
        );
        assert!(after_three.distance_computations < 1000);
    }

    #[test]
    fn nearest_iter_on_empty_tree_is_empty() {
        let tree = RTree::new(2).unwrap();
        assert_eq!(tree.nearest_iter(&[0.1, 0.2]).unwrap().count(), 0);
        assert!(tree.nearest_iter(&[0.1]).is_err());
    }

    #[test]
    fn clustered_data_matches_brute_force() {
        // Clustered data stresses reinsertion; answers must still match
        // brute force exactly.
        let mut rng_points = Vec::new();
        for cluster in 0..8 {
            let cx = (cluster as f64) / 8.0;
            for p in random_points(60, 2, cluster as u64) {
                rng_points.push(vec![cx + p[0] * 0.05, p[1] * 0.05]);
            }
        }
        let mut tree = RTree::new(2).unwrap();
        for (i, p) in rng_points.iter().enumerate() {
            tree.insert(p, i as ItemId).unwrap();
        }
        assert_eq!(tree.len(), rng_points.len());
        for q in random_points(10, 2, 77) {
            let expect = brute_knn(&rng_points, &q, 9);
            let (got, _) = tree.knn(&q, 9).unwrap();
            let got_ids: Vec<_> = got.iter().map(|n| n.id).collect();
            let exp_ids: Vec<_> = expect.iter().map(|n| n.id).collect();
            assert_eq!(got_ids, exp_ids);
        }
    }

    #[test]
    fn duplicate_points_are_allowed() {
        let mut tree = RTree::new(2).unwrap();
        for i in 0..50 {
            tree.insert(&[0.5, 0.5], i).unwrap();
        }
        let (res, _) = tree.knn(&[0.5, 0.5], 10).unwrap();
        assert_eq!(res.len(), 10);
        assert!(res.iter().all(|n| n.distance == 0.0));
    }
}
