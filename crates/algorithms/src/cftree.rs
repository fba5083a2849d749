//! A hierarchical CF tree — ClusTree's search structure.
//!
//! ClusTree "organizes micro-clusters as a tree structure for better data
//! summarization and fast record insertion" (paper §II-A): internal nodes
//! hold weighted centroid summaries of their subtrees, and lookups descend
//! greedily toward the child whose summary centroid is closest — an
//! approximate nearest-neighbor search in `O(fanout · depth · d)` instead of
//! a linear scan. Nodes that overflow the fanout split around their two
//! farthest entries, growing the tree upward like an R-tree.

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

    fn centroid(&self) -> Point {
        if self.weight > 0.0 {
            self.sum.scaled(1.0 / self.weight)
        } else {
            self.sum.clone()
        }
    }

    /// Squared distance from this summary's centroid to `point`, computed
    /// without materializing the centroid. Bit-identical to
    /// `self.centroid().squared_distance(point)` (one division by the
    /// weight, then the same per-dimension multiply/subtract/accumulate
    /// order), so descent decisions are unchanged while the former
    /// per-child-per-level `Point` allocation disappears from the lookup
    /// hot path.
    fn centroid_squared_distance(&self, point: &Point) -> f64 {
        let mut acc = 0.0;
        if self.weight > 0.0 {
            let inv = 1.0 / self.weight;
            for (&s, &p) in self.sum.iter().zip(point.iter()) {
                let d = s * inv - p;
                acc += d * d;
            }
        } else {
            for (&s, &p) in self.sum.iter().zip(point.iter()) {
                let d = s - p;
                acc += d * d;
            }
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
                    return entries
                        .iter()
                        .map(|e| (e.id, e.centroid.distance(point)))
                        .min_by(|a, b| a.1.total_cmp(&b.1));
                }
                Node::Internal(children) => {
                    // A structurally-valid tree never has an empty internal
                    // node; treat the degenerate case as "no neighbor"
                    // rather than panicking the search path.
                    let (_, child) = children.iter().min_by(|(a, _), (b, _)| {
                        a.centroid_squared_distance(point)
                            .total_cmp(&b.centroid_squared_distance(point))
                    })?;
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
            let idx = children
                .iter()
                .enumerate()
                .min_by(|(_, (a, _)), (_, (b, _))| {
                    a.centroid_squared_distance(&entry.centroid)
                        .total_cmp(&b.centroid_squared_distance(&entry.centroid))
                })
                .map(|(i, _)| i)
                .unwrap_or(0);
            let split = insert_into(&mut children[idx].1, entry, fanout);
            match split {
                None => {
                    // Refresh the child's summary.
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
    let seed_l = entries[i].centroid.clone();
    let seed_r = entries[j].centroid.clone();
    for e in entries {
        if e.centroid.squared_distance(&seed_l) <= e.centroid.squared_distance(&seed_r) {
            left.push(e);
        } else {
            right.push(e);
        }
    }
    (left, right)
}

fn split_internal(children: Vec<Child>) -> (Vec<Child>, Vec<Child>) {
    let centroids: Vec<Point> = children.iter().map(|(s, _)| s.centroid()).collect();
    let (i, j) = farthest_pair(centroids.iter());
    let seed_l = centroids[i].clone();
    let seed_r = centroids[j].clone();
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (child, centroid) in children.into_iter().zip(centroids) {
        if centroid.squared_distance(&seed_l) <= centroid.squared_distance(&seed_r) {
            left.push(child);
        } else {
            right.push(child);
        }
    }
    (left, right)
}

fn farthest_pair<'a, I: Iterator<Item = &'a Point> + Clone>(points: I) -> (usize, usize) {
    let pts: Vec<&Point> = points.collect();
    let mut best = (0, pts.len().saturating_sub(1), -1.0);
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            let d = pts[i].squared_distance(pts[j]);
            if d > best.2 {
                best = (i, j, d);
            }
        }
    }
    (best.0, best.1)
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

    proptest! {
        /// The inline descent distance equals the materialized-centroid
        /// computation bit for bit, so greedy descent decisions (and with
        /// them the replay gate) are unchanged by the allocation-free path.
        #[test]
        fn prop_inline_descent_distance_matches_centroid_bits(
            sums in prop::collection::vec((-1000.0_f64..1000.0, -1000.0_f64..1000.0), 1..30),
            weight in 0.0_f64..50.0,
            probe in prop::collection::vec(-1000.0_f64..1000.0, 2..3),
        ) {
            let point = Point::from(probe);
            for &(x, y) in &sums {
                let summary = Summary { sum: Point::from(vec![x, y]), weight };
                let naive = summary.centroid().squared_distance(&point);
                let inline = summary.centroid_squared_distance(&point);
                prop_assert_eq!(inline.to_bits(), naive.to_bits());
            }
        }

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
