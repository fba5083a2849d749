//! Typed metrics registry: counters, gauges, and fixed-bucket histograms.
//!
//! Metrics are identified by name; labels are encoded into the name in
//! Prometheus style (`straggler_culprit_total{task="3"}`). Handles are
//! `Arc`s over atomics, so hot paths register once, cache the handle, and
//! update it lock-free; the registry lock is only taken at registration
//! and exposition time.
//!
//! Floating-point gauges and histogram sums store `f64::to_bits` in an
//! `AtomicU64` — standard lock-free float storage.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing integer counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::SeqCst);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::SeqCst)
    }
}

/// A last-write-wins floating-point gauge that also tracks its maximum.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

impl Gauge {
    /// Sets the gauge, updating the running maximum.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::SeqCst);
        // CAS loop keeps the max correct under concurrent setters.
        let mut current = self.max_bits.load(Ordering::SeqCst);
        while value > f64::from_bits(current) {
            match self.max_bits.compare_exchange(
                current,
                value.to_bits(),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::SeqCst))
    }

    /// Largest value ever set (`None` before the first `set`).
    pub fn max(&self) -> Option<f64> {
        let max = f64::from_bits(self.max_bits.load(Ordering::SeqCst));
        if max == f64::NEG_INFINITY {
            None
        } else {
            Some(max)
        }
    }
}

/// A histogram with caller-fixed upper bucket bounds plus an implicit
/// `+Inf` bucket, tracking count and sum like Prometheus.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets; the last is `+Inf`.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds: bounds.to_vec(),
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::SeqCst);
        self.count.fetch_add(1, Ordering::SeqCst);
        // CAS loop for the float sum.
        let mut current = self.sum_bits.load(Ordering::SeqCst);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self
                .sum_bits
                .compare_exchange(current, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::SeqCst)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::SeqCst))
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() / count as f64
        }
    }

    /// Cumulative counts per bound, Prometheus `le` semantics; the final
    /// entry is the `+Inf` bucket (== total count).
    pub fn cumulative(&self) -> Vec<(f64, u64)> {
        let mut running = 0;
        let mut out = Vec::with_capacity(self.bounds.len() + 1);
        for (i, bucket) in self.buckets.iter().enumerate() {
            running += bucket.load(Ordering::SeqCst);
            let bound = self.bounds.get(i).copied().unwrap_or(f64::INFINITY);
            out.push((bound, running));
        }
        out
    }

    /// Folds a pre-bucketed batch of observations into the histogram:
    /// per-bucket (non-cumulative) counts aligned with this histogram's
    /// bounds plus the `+Inf` bucket, and the batch's observation sum.
    ///
    /// Used by emitters that already bucketed their observations (e.g. the
    /// engine's per-batch record-latency accounting) so one registry call
    /// replaces thousands of `observe` calls. Counts beyond this
    /// histogram's bucket count land in `+Inf` rather than being lost.
    pub fn add_bucketed(&self, bucket_counts: &[u64], sum: f64) {
        let mut total = 0u64;
        let last = self.buckets.len() - 1;
        for (i, &n) in bucket_counts.iter().enumerate() {
            self.buckets[i.min(last)].fetch_add(n, Ordering::SeqCst);
            total += n;
        }
        if total == 0 {
            return;
        }
        self.count.fetch_add(total, Ordering::SeqCst);
        let mut current = self.sum_bits.load(Ordering::SeqCst);
        loop {
            let next = (f64::from_bits(current) + sum).to_bits();
            match self
                .sum_bits
                .compare_exchange(current, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// Interpolated quantile estimate over the current buckets — see
    /// [`interpolate_quantile`].
    pub fn quantile(&self, q: f64) -> f64 {
        interpolate_quantile(&self.cumulative(), q)
    }
}

/// Estimates the `q`-quantile (`q` in `[0, 1]`) from cumulative
/// fixed-bucket counts in [`Histogram::cumulative`] form, assuming
/// observations are uniformly distributed within each bucket — the same
/// linear interpolation Prometheus' `histogram_quantile` applies.
///
/// The target rank `q·count` is located in the first bucket whose
/// cumulative count reaches it, then interpolated between the bucket's
/// edges (the first finite bucket interpolates up from 0, matching this
/// workspace's all-positive bounds). A rank already met by the buckets
/// *below* the located one — `q = 0`, or a rank landing exactly on a
/// bucket boundary under an empty bucket — resolves to the bucket's lower
/// edge, since no observation inside the bucket is needed to reach it. A
/// rank landing in the `+Inf` bucket clamps to the largest finite bound —
/// the histogram cannot resolve beyond it. Returns 0.0 for an empty
/// histogram.
pub fn interpolate_quantile(cumulative: &[(f64, u64)], q: f64) -> f64 {
    let total = match cumulative.last() {
        Some(&(_, total)) if total > 0 => total as f64,
        _ => return 0.0,
    };
    let rank = q.clamp(0.0, 1.0) * total;
    let mut lower_edge = 0.0;
    let mut below = 0u64;
    for &(bound, running) in cumulative {
        if (running as f64) >= rank {
            if rank <= below as f64 {
                // The rank is on this bucket's lower boundary: everything
                // below already covers it, so the estimate is the lower
                // edge — not the upper bound, which the pre-fix code
                // returned for q = 0 landing in an empty leading bucket.
                return lower_edge;
            }
            if bound.is_infinite() {
                // Cannot interpolate to infinity; saturate at the last
                // finite edge.
                return lower_edge;
            }
            // `running >= rank > below`, so this bucket is non-empty.
            let in_bucket = (running - below) as f64;
            return lower_edge + (bound - lower_edge) * (rank - below as f64) / in_bucket;
        }
        lower_edge = if bound.is_finite() { bound } else { lower_edge };
        below = running;
    }
    lower_edge
}

#[derive(Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

static REGISTRY: Mutex<BTreeMap<String, Metric>> = Mutex::new(BTreeMap::new());

fn with_registry<R>(f: impl FnOnce(&mut BTreeMap<String, Metric>) -> R) -> R {
    let mut guard = match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard)
}

/// Records a name/type registration conflict without leaving the registry
/// lock: bumps [`crate::names::METRIC_NAME_CONFLICTS_TOTAL`] directly in
/// `reg`. Telemetry is observation-only, so a conflicting registration must
/// degrade (detached handle + conflict count), never panic the pipeline.
fn record_conflict(reg: &mut BTreeMap<String, Metric>) {
    let conflict = reg
        .entry(crate::names::METRIC_NAME_CONFLICTS_TOTAL.to_string())
        .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
    if let Metric::Counter(c) = conflict {
        c.inc();
    }
}

/// Returns the counter registered under `name`, creating it on first use.
///
/// If `name` is already registered as a different metric type, the conflict
/// is counted in `diststream_telemetry_name_conflicts_total` and a fresh
/// *detached* counter is returned: updates through it keep working but are
/// not exported, and the originally registered metric is untouched.
pub fn counter(name: &str) -> Arc<Counter> {
    with_registry(|reg| {
        let metric = reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())));
        match metric {
            Metric::Counter(c) => Arc::clone(c),
            _ => {
                record_conflict(reg);
                Arc::new(Counter::default())
            }
        }
    })
}

/// Returns the gauge registered under `name`, creating it on first use.
///
/// On a name/type conflict, counts it and returns a fresh detached gauge —
/// see [`counter`] for the degradation contract.
pub fn gauge(name: &str) -> Arc<Gauge> {
    with_registry(|reg| {
        let metric = reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())));
        match metric {
            Metric::Gauge(g) => Arc::clone(g),
            _ => {
                record_conflict(reg);
                Arc::new(Gauge::default())
            }
        }
    })
}

/// Returns the histogram registered under `name`, creating it with the
/// given upper bucket bounds on first use (later calls ignore `bounds`).
///
/// On a name/type conflict, counts it and returns a fresh detached
/// histogram — see [`counter`] for the degradation contract.
pub fn histogram(name: &str, bounds: &[f64]) -> Arc<Histogram> {
    with_registry(|reg| {
        let metric = reg
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))));
        match metric {
            Metric::Histogram(h) => Arc::clone(h),
            _ => {
                record_conflict(reg);
                Arc::new(Histogram::new(bounds))
            }
        }
    })
}

/// Clears the registry. Existing handles keep working but are no longer
/// exported; intended for test isolation and fresh bench sessions.
pub fn reset() {
    with_registry(|reg| reg.clear());
}

/// Splits `name{labels}` into its base name and the full keyed form.
fn base_name(name: &str) -> &str {
    match name.find('{') {
        Some(idx) => &name[..idx],
        None => name,
    }
}

fn fmt_value(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{value}")
    } else {
        // `{:?}` prints the shortest round-trippable form ("0.1", not
        // "0.100000"), matching conventional Prometheus `le` labels.
        format!("{value:?}")
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline must be backslash-escaped.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Re-renders a registered name's `key="value",…` label block with every
/// label value escaped per the exposition format. Registered names store
/// values raw (callers `format!` them in), so escaping happens once here
/// at render time. A value's closing quote is the one followed by `,` or
/// end-of-block, so values containing bare quotes still round-trip.
fn render_labels(labels: &str) -> String {
    let mut out = String::with_capacity(labels.len());
    let bytes = labels.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        // Copy `key="` verbatim.
        match labels[i..].find('"') {
            Some(open) => {
                out.push_str(&labels[i..i + open + 1]);
                i += open + 1;
            }
            None => {
                out.push_str(&labels[i..]);
                break;
            }
        }
        // The value ends at a quote followed by `,` or end-of-block.
        let mut end = i;
        while end < bytes.len() {
            if bytes[end] == b'"' && (end + 1 == bytes.len() || bytes[end + 1] == b',') {
                break;
            }
            end += 1;
        }
        out.push_str(&escape_label_value(&labels[i..end]));
        if end < bytes.len() {
            out.push('"');
        }
        i = end + 1;
    }
    out
}

/// Splits a registered name into its base and raw label block (without
/// braces); the label block is empty for unlabeled names.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(idx) => (&name[..idx], &name[idx + 1..name.len() - 1]),
        None => (name, ""),
    }
}

/// Renders a registered name for exposition, escaping label values.
fn render_name(name: &str) -> String {
    let (base, labels) = split_labels(name);
    if labels.is_empty() {
        base.to_string()
    } else {
        format!("{base}{{{}}}", render_labels(labels))
    }
}

/// Renders every registered metric in Prometheus text exposition format,
/// with `# HELP` (sourced from the [`crate::names`] catalog) and `# TYPE`
/// headers once per base name and label values escaped per the format.
pub fn expose() -> String {
    with_registry(|reg| {
        let mut out = String::new();
        let mut last_base: Option<String> = None;
        for (name, metric) in reg.iter() {
            let base = base_name(name);
            let type_line = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "histogram",
            };
            if last_base.as_deref() != Some(base) {
                if let Some(help) = crate::names::help(base) {
                    out.push_str(&format!("# HELP {base} {help}\n"));
                }
                out.push_str(&format!("# TYPE {base} {type_line}\n"));
                last_base = Some(base.to_string());
            }
            let rendered = render_name(name);
            match metric {
                Metric::Counter(c) => out.push_str(&format!("{rendered} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("{rendered} {}\n", fmt_value(g.get()))),
                Metric::Histogram(h) => {
                    let (base, raw_labels) = split_labels(name);
                    let labels = render_labels(raw_labels);
                    for (bound, cumulative) in h.cumulative() {
                        let le = if bound.is_infinite() {
                            "+Inf".to_string()
                        } else {
                            fmt_value(bound)
                        };
                        let sep = if labels.is_empty() { "" } else { "," };
                        out.push_str(&format!(
                            "{base}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
                        ));
                    }
                    let wrap = if labels.is_empty() {
                        String::new()
                    } else {
                        format!("{{{labels}}}")
                    };
                    out.push_str(&format!("{base}_sum{wrap} {}\n", fmt_value(h.sum())));
                    out.push_str(&format!("{base}_count{wrap} {}\n", h.count()));
                }
            }
        }
        out
    })
}

/// One row of the end-of-run human summary: `(name, kind, value, detail)`.
pub type SummaryRow = (String, &'static str, String, String);

/// Snapshot of every registered metric as human-readable summary rows,
/// sorted by name. Counters report their total, gauges last/max, and
/// histograms count plus mean and interpolated p50/p95/p99 (see
/// [`interpolate_quantile`]).
pub fn summary_rows() -> Vec<SummaryRow> {
    with_registry(|reg| {
        reg.iter()
            .map(|(name, metric)| match metric {
                Metric::Counter(c) => (
                    name.clone(),
                    "counter",
                    format!("{}", c.get()),
                    String::new(),
                ),
                Metric::Gauge(g) => (
                    name.clone(),
                    "gauge",
                    fmt_value(g.get()),
                    match g.max() {
                        Some(max) => format!("max={}", fmt_value(max)),
                        None => String::new(),
                    },
                ),
                Metric::Histogram(h) => (
                    name.clone(),
                    "histogram",
                    format!("n={}", h.count()),
                    format!(
                        "mean={} p50={} p95={} p99={}",
                        fmt_value(h.mean()),
                        fmt_value(h.quantile(0.50)),
                        fmt_value(h.quantile(0.95)),
                        fmt_value(h.quantile(0.99))
                    ),
                ),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_and_is_shared() {
        let _guard = crate::test_lock();
        reset();
        let a = counter("test_events_total");
        let b = counter("test_events_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        reset();
    }

    #[test]
    fn name_type_conflict_degrades_instead_of_panicking() {
        let c = counter("conflict_probe_total");
        c.inc();
        // Same name, different type: must not panic. The handle is fresh
        // and detached; the original registration is untouched.
        let g = gauge("conflict_probe_total");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
        assert_eq!(counter("conflict_probe_total").get(), 1);
        let conflicts = counter(crate::names::METRIC_NAME_CONFLICTS_TOTAL).get();
        assert!(conflicts >= 1, "conflict not counted: {conflicts}");
        // A conflicting histogram degrades the same way.
        let h = histogram("conflict_probe_total", &[1.0]);
        h.observe(0.5);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn gauge_tracks_max() {
        let g = Gauge::default();
        assert_eq!(g.max(), None);
        g.set(2.0);
        g.set(7.5);
        g.set(1.0);
        assert_eq!(g.get(), 1.0);
        assert_eq!(g.max(), Some(7.5));
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let h = Histogram::new(&[1.0, 5.0]);
        h.observe(0.5);
        h.observe(3.0);
        h.observe(10.0);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 13.5).abs() < 1e-12);
        assert!((h.mean() - 4.5).abs() < 1e-12);
        let cumulative = h.cumulative();
        assert_eq!(cumulative[0], (1.0, 1));
        assert_eq!(cumulative[1], (5.0, 2));
        assert_eq!(cumulative[2].1, 3);
        assert!(cumulative[2].0.is_infinite());
    }

    #[test]
    fn expose_renders_prometheus_text() {
        let _guard = crate::test_lock();
        reset();
        counter("expose_total{task=\"1\"}").add(3);
        gauge("expose_depth").set(2.0);
        histogram("expose_lat_secs", &[0.1]).observe(0.05);
        let text = expose();
        assert!(text.contains("# TYPE expose_total counter"));
        assert!(text.contains("expose_total{task=\"1\"} 3"));
        assert!(text.contains("expose_depth 2"));
        assert!(text.contains("expose_lat_secs_bucket{le=\"0.1\"} 1"));
        assert!(text.contains("expose_lat_secs_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("expose_lat_secs_count 1"));
        reset();
    }

    #[test]
    fn expose_emits_help_from_the_names_catalog() {
        let _guard = crate::test_lock();
        reset();
        counter(crate::names::METRIC_BATCHES_TOTAL).add(7);
        histogram(crate::names::METRIC_BATCH_TOTAL_SECS, &[1.0]).observe(0.5);
        // Uncataloged (test-local) names get TYPE but no HELP.
        gauge("expose_help_free").set(1.0);
        let text = expose();
        let help = crate::names::help(crate::names::METRIC_BATCHES_TOTAL).unwrap();
        assert!(text.contains(&format!(
            "# HELP {} {help}\n# TYPE {} counter",
            crate::names::METRIC_BATCHES_TOTAL,
            crate::names::METRIC_BATCHES_TOTAL
        )));
        assert!(text.contains(&format!(
            "# HELP {} ",
            crate::names::METRIC_BATCH_TOTAL_SECS
        )));
        assert!(!text.contains("# HELP expose_help_free"));
        reset();
    }

    #[test]
    fn expose_escapes_label_values() {
        let _guard = crate::test_lock();
        reset();
        counter("expose_esc_total{path=\"a\\b\nc\"}").add(1);
        histogram("expose_esc_secs{src=\"x\ny\"}", &[1.0]).observe(0.5);
        let text = expose();
        assert!(
            text.contains("expose_esc_total{path=\"a\\\\b\\nc\"} 1"),
            "label value not escaped: {text}"
        );
        assert!(text.contains("expose_esc_secs_bucket{src=\"x\\ny\",le=\"1\"} 1"));
        assert!(text.contains("expose_esc_secs_sum{src=\"x\\ny\"} 0.5"));
        reset();
    }

    #[test]
    fn interpolation_matches_hand_computed_values() {
        // Buckets (le, cumulative): 2 obs in (0,1], 4 in (1,2], 2 in
        // (2,4], 2 beyond. Hand-computed on the uniform-within-bucket
        // assumption:
        //   p50: rank 5 lands in (1,2] holding ranks 3..=6
        //        → 1 + (5−2)/4 × (2−1)           = 1.75
        //   p80: rank 8 lands at the top of (2,4] → 4.0
        //   p95: rank 9.5 is in +Inf → clamps to the last finite bound 4.0
        let cumulative = vec![(1.0, 2), (2.0, 6), (4.0, 8), (f64::INFINITY, 10)];
        assert!((interpolate_quantile(&cumulative, 0.50) - 1.75).abs() < 1e-12);
        assert!((interpolate_quantile(&cumulative, 0.80) - 4.0).abs() < 1e-12);
        assert!((interpolate_quantile(&cumulative, 0.95) - 4.0).abs() < 1e-12);
        // First-bucket ranks interpolate up from zero: p10 → rank 1 of 2
        // in (0,1] → 0.5.
        assert!((interpolate_quantile(&cumulative, 0.10) - 0.5).abs() < 1e-12);
        assert_eq!(interpolate_quantile(&[], 0.5), 0.0);
        assert_eq!(
            interpolate_quantile(&[(1.0, 0), (f64::INFINITY, 0)], 0.5),
            0.0
        );
    }

    #[test]
    fn rank_on_boundary_resolves_to_the_lower_edge() {
        // Regression: all observations beyond the first bucket. q = 0 has
        // rank 0, which the empty leading (0,1] bucket "reaches" with a
        // cumulative count of 0 — the pre-fix code divided by the bucket's
        // zero width share and returned the bucket's *upper* bound (1.0),
        // overstating p0 by the full bucket width.
        let leading_empty = vec![(1.0, 0), (2.0, 5), (f64::INFINITY, 5)];
        assert_eq!(interpolate_quantile(&leading_empty, 0.0), 0.0);
        // Rank landing exactly on an interior bucket boundary that is also
        // the lower edge of an empty bucket: interpolation resolves inside
        // the populated (1,2] bucket to exactly 2.0 and never consults the
        // empty (2,4] bucket.
        let interior_empty = vec![(1.0, 1), (2.0, 4), (4.0, 4), (8.0, 8), (f64::INFINITY, 8)];
        assert_eq!(interpolate_quantile(&interior_empty, 0.5), 2.0);
        // q = 0 with a non-empty leading bucket is unchanged: still the
        // histogram's lower edge.
        let populated = vec![(1.0, 2), (f64::INFINITY, 2)];
        assert_eq!(interpolate_quantile(&populated, 0.0), 0.0);
    }

    #[test]
    fn histogram_quantile_and_summary_percentiles_agree() {
        let _guard = crate::test_lock();
        let h = Histogram::new(&[1.0, 2.0, 4.0]);
        for v in [0.5, 0.6, 1.2, 1.4, 1.6, 1.8, 2.5, 3.5, 5.0, 9.0] {
            h.observe(v);
        }
        assert!((h.quantile(0.50) - 1.75).abs() < 1e-12);
        assert!((h.quantile(0.95) - 4.0).abs() < 1e-12);

        reset();
        let registered = histogram("summary_quantiles_secs", &[1.0, 2.0, 4.0]);
        for v in [0.5, 0.6, 1.2, 1.4, 1.6, 1.8, 2.5, 3.5, 5.0, 9.0] {
            registered.observe(v);
        }
        let rows = summary_rows();
        let row = rows
            .iter()
            .find(|(name, ..)| name == "summary_quantiles_secs")
            .expect("histogram row");
        assert!(
            row.3.contains("p50=1.75") && row.3.contains("p95=4") && row.3.contains("p99=4"),
            "percentiles missing from summary detail: {}",
            row.3
        );
        reset();
    }

    #[test]
    fn add_bucketed_merges_pre_bucketed_observations() {
        let h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        // 1 more in (0,1], 2 in (1,2], 3 in +Inf, summing to 10.5.
        h.add_bucketed(&[1, 2, 3], 10.5);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - 11.0).abs() < 1e-12);
        assert_eq!(h.cumulative(), vec![(1.0, 2), (2.0, 4), (f64::INFINITY, 7)]);
        // Overlong count vectors saturate into +Inf instead of dropping.
        h.add_bucketed(&[0, 0, 1, 4], 8.0);
        assert_eq!(h.count(), 12);
        assert_eq!(h.cumulative().last().unwrap().1, 12);
        // Empty batches are a no-op.
        h.add_bucketed(&[0, 0, 0], 99.0);
        assert_eq!(h.count(), 12);
        assert!((h.sum() - 19.0).abs() < 1e-12);
    }

    #[test]
    fn summary_rows_cover_all_kinds() {
        let _guard = crate::test_lock();
        reset();
        counter("summary_a_total").inc();
        gauge("summary_b").set(1.5);
        histogram("summary_c", &[1.0]).observe(0.5);
        let rows = summary_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, "counter");
        assert_eq!(rows[1].1, "gauge");
        assert_eq!(rows[2].1, "histogram");
        reset();
    }
}
