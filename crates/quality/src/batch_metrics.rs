//! Batch-oriented quality metrics (SSQ, purity) — the metrics CMM is
//! compared against in the paper's methodology discussion.

use std::collections::BTreeMap;

use diststream_types::{ClassId, Point, Record};

/// Assigns each record to the nearest of `centroids` (`None` if there are
/// no centroids) — the standard way to evaluate an online-offline clustering
/// against recent records.
///
/// # Examples
///
/// ```
/// use diststream_quality::nearest_assignment;
/// use diststream_types::{Point, Record, Timestamp};
///
/// let records = vec![Record::new(0, Point::from(vec![1.0]), Timestamp::ZERO)];
/// let centroids = vec![Point::from(vec![0.0]), Point::from(vec![10.0])];
/// assert_eq!(nearest_assignment(&records, &centroids), vec![Some(0)]);
/// ```
pub fn nearest_assignment(records: &[Record], centroids: &[Point]) -> Vec<Option<usize>> {
    records
        .iter()
        .map(|r| {
            centroids
                .iter()
                .enumerate()
                .map(|(i, c)| (i, c.squared_distance(&r.point)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .map(|(i, _)| i)
        })
        .collect()
}

/// Like [`nearest_assignment`], but a record farther than `max_distance`
/// from every centroid is left unclustered (`None`) — it is not *covered*
/// by the clustering, and CMM counts it as missed. This mirrors the paper's
/// missed-record analysis (§VII-B2): a model whose micro-clusters lag the
/// stream's current pattern fails to cover recent records.
///
/// # Examples
///
/// ```
/// use diststream_quality::nearest_assignment_bounded;
/// use diststream_types::{Point, Record, Timestamp};
///
/// let records = vec![
///     Record::new(0, Point::from(vec![1.0]), Timestamp::ZERO),
///     Record::new(1, Point::from(vec![50.0]), Timestamp::ZERO),
/// ];
/// let centroids = vec![Point::from(vec![0.0])];
/// assert_eq!(
///     nearest_assignment_bounded(&records, &centroids, 5.0),
///     vec![Some(0), None]
/// );
/// ```
pub fn nearest_assignment_bounded(
    records: &[Record],
    centroids: &[Point],
    max_distance: f64,
) -> Vec<Option<usize>> {
    let bound2 = max_distance * max_distance;
    records
        .iter()
        .map(|r| {
            centroids
                .iter()
                .enumerate()
                .map(|(i, c)| (i, c.squared_distance(&r.point)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .filter(|(_, d2)| *d2 <= bound2)
                .map(|(i, _)| i)
        })
        .collect()
}

/// Sum of squared distances from each record to its assigned centroid
/// (unassigned records are skipped). Lower is better.
pub fn ssq(records: &[Record], assignment: &[Option<usize>], centroids: &[Point]) -> f64 {
    records
        .iter()
        .zip(assignment.iter())
        .filter_map(|(r, a)| a.map(|c| r.point.squared_distance(&centroids[c])))
        .sum()
}

/// A quality score together with how many records actually contributed to
/// it. Scores over an empty assignment degenerate to a *vacuous* 1.0 — a
/// batch where every record was shed or missed reports "perfect" quality
/// unless the caller checks coverage. Overload reporting uses
/// [`CoverageScore::is_vacuous`] to separate measured batches from vacuous
/// ones instead of averaging the fake 1.0s in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageScore {
    /// The metric value in `[0, 1]` (1.0 when vacuous).
    pub score: f64,
    /// Records that contributed to the score (the clustered ones).
    pub clustered: usize,
    /// Records that were offered to the metric.
    pub total: usize,
}

impl CoverageScore {
    /// True when no record contributed — the score is the degenerate 1.0
    /// and says nothing about clustering quality.
    pub fn is_vacuous(&self) -> bool {
        self.clustered == 0
    }

    /// Fraction of offered records that contributed, 0.0 when none were
    /// offered.
    pub fn coverage(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.clustered as f64 / self.total as f64
        }
    }
}

/// Cluster purity: the fraction of clustered records whose class is their
/// cluster's majority class. In `[0, 1]`, higher is better; 1.0 when every
/// cluster is single-class. Returns 1.0 when nothing is clustered — use
/// [`purity_with_coverage`] to tell that vacuous case apart.
pub fn purity(records: &[Record], assignment: &[Option<usize>]) -> f64 {
    purity_with_coverage(records, assignment).score
}

/// [`purity`] plus clustered-record coverage, so callers can detect the
/// vacuous all-unclustered case instead of treating it as perfect quality.
pub fn purity_with_coverage(records: &[Record], assignment: &[Option<usize>]) -> CoverageScore {
    let mut per_cluster: BTreeMap<usize, BTreeMap<Option<ClassId>, usize>> = BTreeMap::new();
    let mut total = 0usize;
    for (r, a) in records.iter().zip(assignment.iter()) {
        if let Some(c) = a {
            *per_cluster
                .entry(*c)
                .or_default()
                .entry(r.label)
                .or_insert(0) += 1;
            total += 1;
        }
    }
    if total == 0 {
        return CoverageScore {
            score: 1.0,
            clustered: 0,
            total: records.len(),
        };
    }
    let majority_sum: usize = per_cluster
        .values()
        .map(|classes| classes.values().copied().max().unwrap_or(0))
        .sum();
    CoverageScore {
        score: majority_sum as f64 / total as f64,
        clustered: total,
        total: records.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::Timestamp;

    fn rec(id: u64, x: f64, class: u32) -> Record {
        Record::labeled(
            id,
            Point::from(vec![x]),
            Timestamp::from_secs(id as f64),
            ClassId(class),
        )
    }

    fn setup() -> (Vec<Record>, Vec<Option<usize>>) {
        let records = vec![
            rec(0, 0.0, 0),
            rec(1, 0.2, 0),
            rec(2, 10.0, 1),
            rec(3, 10.2, 1),
        ];
        let assignment = vec![Some(0), Some(0), Some(1), Some(1)];
        (records, assignment)
    }

    #[test]
    fn nearest_assignment_picks_closest() {
        let (records, _) = setup();
        let centroids = vec![Point::from(vec![0.1]), Point::from(vec![10.1])];
        assert_eq!(
            nearest_assignment(&records, &centroids),
            vec![Some(0), Some(0), Some(1), Some(1)]
        );
        assert_eq!(nearest_assignment(&records, &[]), vec![None; 4]);
    }

    #[test]
    fn ssq_is_zero_at_centroids() {
        let (records, assignment) = setup();
        let exact = vec![Point::from(vec![0.0]), Point::from(vec![10.0])];
        let s = ssq(&records, &assignment, &exact);
        assert!((s - (0.04 + 0.04)).abs() < 1e-12);
    }

    #[test]
    fn purity_perfect_and_mixed() {
        let (records, assignment) = setup();
        assert_eq!(purity(&records, &assignment), 1.0);
        let mixed = vec![Some(0), Some(0), Some(0), Some(0)];
        assert_eq!(purity(&records, &mixed), 0.5);
        assert_eq!(purity(&records, &[None, None, None, None]), 1.0);
    }

    #[test]
    fn all_shed_batch_is_reported_vacuous_not_perfect() {
        // Regression: with every record shed (no assignments), the plain
        // score still degenerates to its historical value, but the
        // coverage-aware variant exposes that nothing was measured — the
        // overload report must not average these 1.0s into quality curves.
        let (records, _) = setup();
        let none = vec![None; records.len()];
        let p = purity_with_coverage(&records, &none);
        assert_eq!(p.score, 1.0);
        assert_eq!(p.clustered, 0);
        assert_eq!(p.total, 4);
        assert!(p.is_vacuous());
        assert_eq!(p.coverage(), 0.0);

        // A genuinely measured batch is not vacuous and keeps its score.
        let (records, assignment) = setup();
        let p = purity_with_coverage(&records, &assignment);
        assert!(!p.is_vacuous());
        assert_eq!(p.score, 1.0);
        assert_eq!(p.clustered, 4);
        assert_eq!(p.coverage(), 1.0);

        // Partial coverage is reported as such.
        let partial = vec![Some(0), None, Some(1), None];
        let p = purity_with_coverage(&records, &partial);
        assert_eq!(p.clustered, 2);
        assert_eq!(p.coverage(), 0.5);
        assert!(!p.is_vacuous());
    }
}
