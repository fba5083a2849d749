//! A hierarchical CF tree — ClusTree's search structure.
//!
//! ClusTree "organizes micro-clusters as a tree structure for better data
//! summarization and fast record insertion" (paper §II-A): internal nodes
//! hold weighted centroid summaries of their subtrees, and lookups descend
//! greedily toward the child whose summary centroid is closest — an
//! approximate nearest-neighbor search in `O(fanout · depth · d)` instead of
//! a linear scan. Nodes that overflow the fanout split around their two
//! farthest entries, growing the tree upward like an R-tree.

use std::collections::VecDeque;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use diststream_types::Point;

/// One micro-cluster reference stored at a leaf.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct LeafEntry {
    id: u64,
    centroid: Point,
    weight: f64,
}

/// Weighted centroid summary of a subtree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Summary {
    sum: Point,
    weight: f64,
}

impl Summary {
    fn of_leaf(entries: &[LeafEntry]) -> Summary {
        let mut sum = Point::zeros(entries.first().map_or(0, |e| e.centroid.dims()));
        let mut weight = 0.0;
        for e in entries {
            sum.add_scaled_in_place(&e.centroid, e.weight);
            weight += e.weight;
        }
        Summary { sum, weight }
    }

    fn of_children(children: &[(Summary, Box<Node>)]) -> Summary {
        let mut sum = Point::zeros(children.first().map_or(0, |(s, _)| s.sum.dims()));
        let mut weight = 0.0;
        for (s, _) in children {
            sum.add_in_place(&s.sum);
            weight += s.weight;
        }
        Summary { sum, weight }
    }

    /// The factor that turns `sum` into the centroid: `1/weight`, or 1 for a
    /// weightless summary, whose centroid is `sum` itself (`x · 1.0` is `x`
    /// bit for bit, so there is no second code path).
    fn scale(&self) -> f64 {
        if self.weight > 0.0 {
            1.0 / self.weight
        } else {
            1.0
        }
    }

    fn centroid(&self) -> Point {
        self.sum.scaled(self.scale())
    }

    /// Squared distance from this summary's centroid to `point` without
    /// materializing the centroid: one division by the weight, then per
    /// coordinate a multiply, a subtract and an add into one accumulator,
    /// first coordinate to last. Every descent decision — so every golden
    /// digest — is pinned to that *sequential* sum; it is deliberately not
    /// the lane-ordered [`Point::squared_distance`], whose last bits differ
    /// past four coordinates. [`FlatTree`] adds the same terms in this order.
    fn centroid_squared_distance(&self, point: &Point) -> f64 {
        let scale = self.scale();
        let mut acc = 0.0;
        for (&s, &p) in self.sum.iter().zip(point.iter()) {
            let d = s * scale - p;
            acc += d * d;
        }
        acc
    }
}

/// A child of an internal node: its aggregate summary plus the subtree.
type Child = (Summary, Box<Node>);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf(Vec<LeafEntry>),
    Internal(Vec<Child>),
}

/// An insert that overflowed a node returns the two replacement halves.
type Split = Option<(Summary, Node, Summary, Node)>;

/// The CF tree index: id-tagged weighted centroids, greedy-descent nearest
/// lookup, fanout-bounded nodes.
///
/// # Examples
///
/// ```
/// use diststream_algorithms::CfTree;
/// use diststream_types::Point;
///
/// let mut tree = CfTree::new(3);
/// for (id, x) in [(0u64, 0.0), (1, 10.0), (2, 20.0), (3, 30.0), (4, 40.0)] {
///     tree.insert(id, Point::from(vec![x]), 1.0);
/// }
/// let (id, dist) = tree.nearest(&Point::from(vec![11.0])).unwrap();
/// assert_eq!(id, 1);
/// assert_eq!(dist, 1.0);
/// assert!(tree.height() > 1); // five entries at fanout 3 forced a split
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CfTree {
    fanout: usize,
    root: Option<Node>,
    len: usize,
}

impl CfTree {
    /// Creates an empty tree with the given node fanout.
    ///
    /// # Panics
    ///
    /// Panics if `fanout < 2`.
    pub fn new(fanout: usize) -> Self {
        assert!(fanout >= 2, "fanout must be at least 2");
        CfTree {
            fanout,
            root: None,
            len: 0,
        }
    }

    /// Builds a tree by inserting all `entries` in order.
    pub(crate) fn bulk<I: IntoIterator<Item = (u64, Point, f64)>>(
        fanout: usize,
        entries: I,
    ) -> Self {
        let mut tree = CfTree::new(fanout);
        for (id, centroid, weight) in entries {
            tree.insert(id, centroid, weight);
        }
        tree
    }

    /// Number of leaf entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 for empty, 1 for a single leaf).
    pub fn height(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf(_) => 1,
                Node::Internal(children) => 1 + children.first().map_or(0, |(_, c)| depth(c)),
            }
        }
        self.root.as_ref().map_or(0, depth)
    }

    /// Inserts a micro-cluster reference.
    pub fn insert(&mut self, id: u64, centroid: Point, weight: f64) {
        self.len += 1;
        let entry = LeafEntry {
            id,
            centroid,
            weight,
        };
        match self.root.take() {
            None => {
                self.root = Some(Node::Leaf(vec![entry]));
            }
            Some(mut root) => {
                match insert_into(&mut root, entry, self.fanout) {
                    None => self.root = Some(root),
                    Some((s1, n1, s2, n2)) => {
                        // Root split: grow a new root.
                        self.root =
                            Some(Node::Internal(vec![(s1, Box::new(n1)), (s2, Box::new(n2))]));
                    }
                }
            }
        }
    }

    /// Greedy-descent approximate nearest entry: `(id, distance)`.
    ///
    /// Returns `None` on an empty tree. The descent picks the child whose
    /// summary centroid is closest at every level — ClusTree's insertion
    /// semantics — so the result may differ from the exact nearest neighbor
    /// when clusters overlap.
    pub fn nearest(&self, point: &Point) -> Option<(u64, f64)> {
        let mut node = self.root.as_ref()?;
        loop {
            match node {
                Node::Leaf(entries) => {
                    let (at, dist) = first_min(entries.iter().map(|e| e.centroid.distance(point)))?;
                    return entries.get(at).map(|e| (e.id, dist));
                }
                Node::Internal(children) => {
                    // A structurally-valid tree never has an empty internal
                    // node; treat the degenerate case as "no neighbor"
                    // rather than panicking the search path.
                    let (_, child) = children.get(closest_child(children, point)?)?;
                    node = child;
                }
            }
        }
    }

    /// The ids of all leaf entries, in tree order.
    #[cfg(test)]
    fn entry_ids(&self) -> Vec<u64> {
        fn walk(node: &Node, out: &mut Vec<u64>) {
            match node {
                Node::Leaf(entries) => out.extend(entries.iter().map(|e| e.id)),
                Node::Internal(children) => {
                    for (_, c) in children {
                        walk(c, out);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            walk(root, &mut out);
        }
        out
    }
}

/// Position and value of the first minimum of `keys` under `total_cmp` —
/// the element `min_by` keeps — with every key evaluated once.
fn first_min(keys: impl Iterator<Item = f64>) -> Option<(usize, f64)> {
    keys.enumerate().min_by(|a, b| a.1.total_cmp(&b.1))
}

/// The child a greedy descent towards `point` enters.
fn closest_child(children: &[Child], point: &Point) -> Option<usize> {
    let keys = children
        .iter()
        .map(|(s, _)| s.centroid_squared_distance(point));
    first_min(keys).map(|(at, _)| at)
}

fn insert_into(node: &mut Node, entry: LeafEntry, fanout: usize) -> Split {
    // A structurally-valid tree never has an empty internal node (splits
    // always produce two children); collapse the degenerate case to a leaf
    // so the descent below cannot hit an empty child list.
    if matches!(node, Node::Internal(children) if children.is_empty()) {
        *node = Node::Leaf(Vec::new());
    }
    match node {
        Node::Leaf(entries) => {
            entries.push(entry);
            if entries.len() <= fanout {
                None
            } else {
                let (left, right) = split_leaf(std::mem::take(entries));
                let s1 = Summary::of_leaf(&left);
                let s2 = Summary::of_leaf(&right);
                Some((s1, Node::Leaf(left), s2, Node::Leaf(right)))
            }
        }
        Node::Internal(children) => {
            let idx = closest_child(children, &entry.centroid).unwrap_or(0);
            // lint:allow(index-in-hot-path) idx is closest_child's answer over these children, which the guard above left non-empty
            let split = insert_into(&mut children[idx].1, entry, fanout);
            match split {
                None => {
                    // Refresh the child's summary.
                    // lint:allow(index-in-hot-path) the same idx into the same children: nothing was removed since
                    children[idx].0 = summary_of(&children[idx].1);
                    None
                }
                Some((s1, n1, s2, n2)) => {
                    children.remove(idx);
                    children.push((s1, Box::new(n1)));
                    children.push((s2, Box::new(n2)));
                    if children.len() <= fanout {
                        None
                    } else {
                        let (left, right) = split_internal(std::mem::take(children));
                        let s1 = Summary::of_children(&left);
                        let s2 = Summary::of_children(&right);
                        Some((s1, Node::Internal(left), s2, Node::Internal(right)))
                    }
                }
            }
        }
    }
}

fn summary_of(node: &Node) -> Summary {
    match node {
        Node::Leaf(entries) => Summary::of_leaf(entries),
        Node::Internal(children) => Summary::of_children(children),
    }
}

/// Splits entries around the farthest pair (quadratic seeding, R-tree style).
fn split_leaf(entries: Vec<LeafEntry>) -> (Vec<LeafEntry>, Vec<LeafEntry>) {
    let (i, j) = farthest_pair(entries.iter().map(|e| &e.centroid));
    let mut left = Vec::new();
    let mut right = Vec::new();
    // lint:allow(index-in-hot-path) farthest_pair answers i, j < entries.len(); a split leaf holds more than `fanout` entries
    let (seed_l, seed_r) = (entries[i].centroid.clone(), entries[j].centroid.clone());
    for e in entries {
        if e.centroid.squared_distance(&seed_l) <= e.centroid.squared_distance(&seed_r) {
            left.push(e);
        } else {
            right.push(e);
        }
    }
    both_halves(left, right)
}

fn split_internal(children: Vec<Child>) -> (Vec<Child>, Vec<Child>) {
    let centroids: Vec<Point> = children.iter().map(|(s, _)| s.centroid()).collect();
    let (i, j) = farthest_pair(centroids.iter());
    // lint:allow(index-in-hot-path) farthest_pair answers i, j < centroids.len(); a split node holds more than `fanout` children
    let (seed_l, seed_r) = (centroids[i].clone(), centroids[j].clone());
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (child, centroid) in children.into_iter().zip(centroids) {
        if centroid.squared_distance(&seed_l) <= centroid.squared_distance(&seed_r) {
            left.push(child);
        } else {
            right.push(child);
        }
    }
    both_halves(left, right)
}

/// A split must fill both halves (the summary of an empty one has no
/// dimensions, and the refresh above it panics adding it): entries the seeds
/// do not separate — all on one point, or NaN — are cut in the middle.
fn both_halves<T>(mut left: Vec<T>, mut right: Vec<T>) -> (Vec<T>, Vec<T>) {
    if left.is_empty() {
        std::mem::swap(&mut left, &mut right);
    }
    if right.is_empty() {
        right = left.split_off(left.len() / 2);
    }
    (left, right)
}

fn farthest_pair<'a, I: Iterator<Item = &'a Point> + Clone>(points: I) -> (usize, usize) {
    let pts: Vec<&Point> = points.collect();
    let mut best = (0, pts.len().saturating_sub(1), -1.0);
    for (i, a) in pts.iter().enumerate() {
        for (j, b) in pts.iter().enumerate().skip(i + 1) {
            let d = a.squared_distance(b);
            if d > best.2 {
                best = (i, j, d);
            }
        }
    }
    (best.0, best.1)
}

/// Children per block of [`FlatTree::lanes`]: one 4-wide accumulator.
const LANES: usize = 4;

/// A leaf's range: its entries' slots in [`FlatTree::rows`] and `ids`. An
/// internal node's: its children's positions in [`FlatTree::nodes`], then
/// where their blocks of [`FlatTree::lanes`] start.
#[derive(Debug)]
enum FlatNode {
    Leaf(Range<usize>),
    Internal(Range<usize>, usize),
}

/// A [`CfTree`] laid out for answering many [`CfTree::nearest`] queries
/// against one unchanging tree: the nodes in one breadth-first arena (a
/// node's children are neighbours) and nothing left to divide or multiply
/// per query. Each internal node's child centroids are formed once —
/// `sum · scale`, as [`Summary::centroid_squared_distance`] forms them
/// per query — and stored transposed in blocks of [`LANES`] children, so one
/// pass over the query's coordinates advances every child's sum, each lane
/// in that method's sequential order, and [`first_min`] picks the child. A
/// node with one child is left out (`min_by` enters an only child without
/// measuring it): its parent links to where that child sits. Leaf centroids
/// stay in the tree, measured by [`Point::distance`] as the tree does.
/// Answers equal [`CfTree::nearest`]'s bit for bit (property-tested).
#[derive(Debug, Default)]
pub(crate) struct FlatTree<'t> {
    dims: usize,
    /// Breadth-first; the root, if any, is first.
    nodes: Vec<FlatNode>,
    /// Per internal node `⌈children / LANES⌉` blocks of `dims × LANES`
    /// coordinates; lanes past the last child are zeros, never compared.
    lanes: Vec<f64>,
    /// Per leaf slot, the entry's centroid and id.
    rows: Vec<&'t Point>,
    ids: Vec<u64>,
}

impl<'t> FlatTree<'t> {
    pub(crate) fn build(tree: &'t CfTree) -> Self {
        let dims = match &tree.root {
            Some(Node::Leaf(entries)) => entries.first().map_or(0, |e| e.centroid.dims()),
            Some(Node::Internal(children)) => children.first().map_or(0, |(s, _)| s.sum.dims()),
            None => 0,
        };
        let mut flat = FlatTree {
            dims,
            ..FlatTree::default()
        };
        // Room for the blocks a tree of this many entries usually has:
        // growing into it step by step costs half again the build.
        flat.lanes.reserve(2 * dims * tree.len.min(1 << 16));
        let mut queue: VecDeque<&Node> = tree.root.iter().collect();
        // The arena position the next node to join the queue will take.
        let mut next = queue.len();
        while let Some(mut node) = queue.pop_front() {
            while let Node::Internal(children) = node {
                match children.as_slice() {
                    [(_, only)] => node = only,
                    _ => break,
                }
            }
            match node {
                Node::Leaf(entries) => {
                    let first = flat.ids.len();
                    flat.ids.extend(entries.iter().map(|e| e.id));
                    flat.rows.extend(entries.iter().map(|e| &e.centroid));
                    flat.nodes.push(FlatNode::Leaf(first..flat.ids.len()));
                }
                Node::Internal(children) => {
                    let span = next..next + children.len();
                    next = span.end;
                    flat.nodes.push(FlatNode::Internal(span, flat.lanes.len()));
                    for block in children.chunks(LANES) {
                        let at = flat.lanes.len();
                        flat.lanes.resize(at + dims * LANES, 0.0);
                        for (lane, (s, _)) in block.iter().enumerate() {
                            let scale = s.scale();
                            let column = flat.lanes.iter_mut().skip(at + lane).step_by(LANES);
                            for (slot, &sum) in column.zip(s.sum.iter()) {
                                *slot = sum * scale;
                            }
                        }
                    }
                    queue.extend(children.iter().map(|(_, child)| &**child));
                }
            }
        }
        flat
    }

    /// The id of each leaf slot.
    pub(crate) fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// [`CfTree::nearest`] on the flattened tree, as `(leaf slot, distance)`.
    pub(crate) fn nearest(&self, point: &Point) -> Option<(usize, f64)> {
        let mut node = self.nodes.first()?;
        loop {
            match node {
                FlatNode::Leaf(slots) => {
                    let rows = self.rows.get(slots.clone())?.iter();
                    let keys = rows.map(|row| row.distance(point));
                    return first_min(keys).map(|(at, dist)| (slots.start + at, dist));
                }
                FlatNode::Internal(children, lanes_at) => {
                    let stride = self.dims * LANES;
                    let keys = (0..children.len().div_ceil(LANES)).flat_map(|block| {
                        let at = lanes_at + block * stride;
                        let mut acc = [0.0f64; LANES];
                        let block = self.lanes.get(at..at + stride).unwrap_or(&[]);
                        for (centres, &p) in block.chunks_exact(LANES).zip(point.iter()) {
                            for (sum, &c) in acc.iter_mut().zip(centres) {
                                let d = c - p;
                                *sum += d * d;
                            }
                        }
                        acc
                    });
                    let (at, _) = first_min(keys.take(children.len()))?;
                    node = self.nodes.get(children.start + at)?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_tree_has_no_nearest() {
        let tree = CfTree::new(3);
        assert!(tree.is_empty());
        assert_eq!(tree.height(), 0);
        assert!(tree.nearest(&Point::from(vec![0.0])).is_none());
    }

    #[test]
    fn single_entry() {
        let mut tree = CfTree::new(3);
        tree.insert(7, Point::from(vec![1.0]), 2.0);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.nearest(&Point::from(vec![0.0])), Some((7, 1.0)));
    }

    #[test]
    fn splits_grow_height() {
        let mut tree = CfTree::new(2);
        for i in 0..16 {
            tree.insert(i, Point::from(vec![i as f64]), 1.0);
        }
        assert_eq!(tree.len(), 16);
        assert!(tree.height() >= 3);
        // All ids preserved across splits.
        let mut ids = tree.entry_ids();
        ids.sort_unstable();
        assert_eq!(ids, (0..16).collect::<Vec<u64>>());
    }

    #[test]
    fn nearest_finds_well_separated_targets() {
        let tree = CfTree::bulk(
            3,
            (0..10).map(|i| (i, Point::from(vec![i as f64 * 100.0]), 1.0)),
        );
        for i in 0..10 {
            let probe = Point::from(vec![i as f64 * 100.0 + 3.0]);
            let (id, dist) = tree.nearest(&probe).unwrap();
            assert_eq!(id, i);
            assert_eq!(dist, 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn rejects_degenerate_fanout() {
        let _ = CfTree::new(1);
    }

    /// A point on a coarse integer lattice: few distinct values per
    /// coordinate, so equal centroids and equidistant probes are common.
    fn lattice(cell: usize, dims: usize) -> Point {
        Point::from(
            (0..dims)
                .map(|k| ((cell * 7 + k * 3) % 5) as f64 - 2.0)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn flat_tree_of_nothing_and_of_one_leaf() {
        let tree = CfTree::new(3);
        let empty = FlatTree::build(&tree);
        assert!(empty.ids().is_empty());
        assert_eq!(empty.nearest(&Point::from(vec![0.0, 0.0])), None);

        let mut tree = CfTree::new(3);
        tree.insert(7, Point::from(vec![3.0, 4.0]), 2.0);
        tree.insert(5, Point::from(vec![-3.0, -4.0]), 0.0);
        assert_eq!(tree.height(), 1);
        let flat = FlatTree::build(&tree);
        assert_eq!(flat.ids(), [7, 5]);
        assert_eq!(flat.nearest(&Point::from(vec![0.0, 0.0])), Some((0, 5.0))); // a tie: the first slot
        assert_eq!(flat.nearest(&Point::from(vec![-3.0, -3.0])), Some((1, 1.0)));
    }

    /// More coincident entries than a leaf holds: the seeds of the split are
    /// the same point, so nothing separates the entries, and an empty half
    /// used to panic the summary refresh one level up.
    #[test]
    fn coincident_entries_split_into_two_filled_halves() {
        for fanout in 2..6 {
            let mut tree = CfTree::new(fanout);
            for id in 0..40 {
                tree.insert(id, Point::from(vec![1.0, -1.0]), 1.0);
            }
            assert!(tree.height() >= 3, "fanout {fanout}");
            let mut ids = tree.entry_ids();
            ids.sort_unstable();
            assert_eq!(ids, (0..40).collect::<Vec<u64>>());
            let (_, dist) = tree.nearest(&Point::from(vec![1.0, 2.0])).unwrap();
            assert_eq!(dist, 3.0);
        }
    }

    #[test]
    #[should_panic(expected = "point dimension mismatch")]
    fn flat_tree_rejects_a_query_of_another_dimensionality() {
        let tree = CfTree::bulk(2, (0..5).map(|i| (i, lattice(i as usize, 2), 1.0)));
        let _ = FlatTree::build(&tree).nearest(&Point::from(vec![0.0]));
    }

    proptest! {
        /// `centroid_squared_distance` is the sequential sum its doc
        /// describes, bit for bit, at dimensionalities where that differs
        /// from the lane-ordered `Point::squared_distance` (d > 4), and on
        /// the weightless branch.
        #[test]
        fn prop_descent_distance_is_the_sequential_sum(
            values in prop::collection::vec((-1000.0_f64..1000.0, -1000.0_f64..1000.0), 315),
            dims in 0usize..3,
            weight in 0usize..4,
        ) {
            let (dims, weight) = ([2, 54, 315][dims], [0.0, 0.75, 3.0, 41.5][weight]);
            let (sum, probe): (Vec<f64>, Vec<f64>) = values.into_iter().take(dims).unzip();
            let mut sequential = 0.0;
            for (&s, &p) in sum.iter().zip(&probe) {
                let d = if weight > 0.0 { s * (1.0 / weight) - p } else { s - p };
                sequential += d * d;
            }
            let summary = Summary { sum: Point::from(sum), weight };
            let inline = summary.centroid_squared_distance(&Point::from(probe));
            prop_assert_eq!(inline.to_bits(), sequential.to_bits());
        }

    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flattened tree answers exactly like the tree it was built
        /// from — same entry, same distance bits — over every fanout the
        /// tests use, with duplicate centroids and equidistant probes (the
        /// lattice), weightless entries and whole weightless subtrees, and
        /// arbitrary probes.
        #[test]
        fn prop_flat_tree_nearest_matches_tree_bits(
            entries in prop::collection::vec(
                (0usize..12, 0usize..4), 0..70),
            fanout in 2usize..6,
            dims in 0usize..3,
            probes in prop::collection::vec(
                (0usize..12, prop::collection::vec(-3.0_f64..3.0, 54), 0u8..3), 1..24),
        ) {
            let dims = [1, 2, 54][dims];
            let weights = [0.0, 0.0, 1.0, 2.5];
            let tree = CfTree::bulk(
                fanout,
                entries.iter().enumerate().map(|(id, &(cell, w))| {
                    (id as u64, lattice(cell, dims), weights[w])
                }),
            );
            let flat = FlatTree::build(&tree);
            let (mut slots, mut entries) = (flat.ids().to_vec(), tree.entry_ids());
            slots.sort_unstable();
            entries.sort_unstable();
            prop_assert_eq!(slots, entries);
            for (cell, free, kind) in probes {
                let probe = match kind {
                    0 => lattice(cell, dims), // on a centroid
                    1 => &lattice(cell, dims) + &lattice(cell + 1, dims).scaled(0.5), // between two
                    _ => Point::from(free.into_iter().take(dims).collect::<Vec<_>>()),
                };
                let got = flat
                    .nearest(&probe)
                    .map(|(slot, dist)| (flat.ids()[slot], dist.to_bits()));
                let want = tree.nearest(&probe).map(|(id, dist)| (id, dist.to_bits()));
                prop_assert_eq!(got, want);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_all_entries_preserved(
            xs in prop::collection::vec((-1000.0_f64..1000.0, -1000.0_f64..1000.0), 1..80),
            fanout in 2usize..6,
        ) {
            let tree = CfTree::bulk(
                fanout,
                xs.iter().enumerate().map(|(i, &(x, y))| (i as u64, Point::from(vec![x, y]), 1.0)),
            );
            prop_assert_eq!(tree.len(), xs.len());
            let mut ids = tree.entry_ids();
            ids.sort_unstable();
            prop_assert_eq!(ids, (0..xs.len() as u64).collect::<Vec<u64>>());
        }

        #[test]
        fn prop_nearest_is_reasonable(
            xs in prop::collection::vec(-1000.0_f64..1000.0, 2..60),
            probe in -1000.0_f64..1000.0,
        ) {
            // Greedy descent is approximate; assert the returned distance is
            // within a loose factor of the exact nearest distance plus the
            // tree returns a real entry.
            let tree = CfTree::bulk(
                3,
                xs.iter().enumerate().map(|(i, &x)| (i as u64, Point::from(vec![x]), 1.0)),
            );
            let p = Point::from(vec![probe]);
            let (id, dist) = tree.nearest(&p).unwrap();
            prop_assert!((id as usize) < xs.len());
            prop_assert!((dist - (xs[id as usize] - probe).abs()).abs() < 1e-9);
            let exact = xs.iter().map(|&x| (x - probe).abs()).fold(f64::INFINITY, f64::min);
            prop_assert!(dist >= exact - 1e-9);
        }
    }
}
