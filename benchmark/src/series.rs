//! The timed phase as per-batch series, and how the children of one run are
//! combined into the run's stream metrics.
//!
//! A run's children do the same fixed work, so batch `k` holds the same
//! records in every one of them and its timings can be compared child to
//! child. On a shared host interference is one-sided — a neighbour only
//! ever slows a batch down, for seconds at a time — except that now and
//! then a core runs above its usual clock for a while. The run's series
//! therefore takes, batch by batch, the *second-fastest* of the children's
//! timings: the luckiest child and the three unluckiest are dropped. What
//! the program itself does on batch `k` — every child pays it — stays in.
//! (Ten-run spreads of `batch_p50_ms` on `clustream-kdd99`, same hundred
//! children, a noisy stretch of the host / a quiet one: median over
//! children 23 % / 1.2 %, fastest 6.5 % / 6.6 %, second-fastest 10 % /
//! 0.9 %.)

use std::fmt::Write as _;

use crate::run::Metric;
use crate::stats::{median, sorted};

/// Prefix of the report lines a child hands its series to its parent on.
const PREFIX: &str = "##series ";

/// Which of the children's timings a run keeps, fastest first: the second.
pub const KEPT_RANK: usize = 1;

/// Batches 1.. of one timed phase, in stream order (batch 0 absorbs
/// `algo.init` and warm-up). `NAN` marks a batch without that sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Records in the batch.
    pub records: Vec<u64>,
    /// Previous callback → this batch's callback, ms.
    pub batch_ms: Vec<f64>,
    /// Last record of the batch emitted/due → the batch published, ms.
    pub publish_ms: Vec<f64>,
    /// Median over the batch's sampled records of emitted/due → integrated
    /// into a published model, ms.
    pub record_ms: Vec<f64>,
    /// Last callback → `run` returned (the overlapped pipeline's flush), ms.
    pub tail_ms: f64,
}

fn finite_median(values: &[f64]) -> f64 {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        f64::NAN
    } else {
        median(&finite)
    }
}

/// The `rank`-th smallest finite value (the largest if there are fewer).
fn ranked(values: impl Iterator<Item = f64>, rank: usize) -> f64 {
    let finite = sorted(values.filter(|v| v.is_finite()).collect());
    match finite.len() {
        0 => f64::NAN,
        n => finite[rank.min(n - 1)],
    }
}

impl Series {
    /// The four stream metrics this series stands for.
    pub fn metrics(&self) -> [Metric; 4] {
        let records: u64 = self.records.iter().sum();
        let wall_ms = self.batch_ms.iter().sum::<f64>() + self.tail_ms;
        [
            ("throughput_rps", records as f64 / (wall_ms / 1e3)),
            ("batch_p50_ms", finite_median(&self.batch_ms)),
            ("publish_latency_p50_ms", finite_median(&self.publish_ms)),
            ("record_latency_p50_ms", finite_median(&self.record_ms)),
        ]
    }

    /// Batch by batch, the `rank`-th fastest of the children's timings.
    ///
    /// # Errors
    ///
    /// Fails when the children did not see the same batches.
    pub fn combine(children: &[Series], rank: usize) -> Result<Series, String> {
        let first = children.first().ok_or("no child reported a series")?;
        if children.iter().any(|c| c.records != first.records) {
            return Err("runs of the same fixed work saw different batches".into());
        }
        let pick = |of: fn(&Series) -> &Vec<f64>| -> Vec<f64> {
            (0..first.records.len())
                .map(|k| ranked(children.iter().map(|c| of(c)[k]), rank))
                .collect()
        };
        Ok(Series {
            records: first.records.clone(),
            batch_ms: pick(|c| &c.batch_ms),
            publish_ms: pick(|c| &c.publish_ms),
            record_ms: pick(|c| &c.record_ms),
            tail_ms: ranked(children.iter().map(|c| c.tail_ms), rank),
        })
    }

    /// The report lines that carry this series to the parent process.
    pub fn to_lines(&self) -> Vec<String> {
        fn line<T: std::fmt::Display>(name: &str, values: &[T]) -> String {
            let mut out = format!("{PREFIX}{name}");
            for v in values {
                let _ = write!(out, " {v}");
            }
            out
        }
        vec![
            line("records", &self.records),
            line("batch_ms", &self.batch_ms),
            line("publish_ms", &self.publish_ms),
            line("record_ms", &self.record_ms),
            line("tail_ms", &[self.tail_ms]),
        ]
    }

    /// Reads the series out of a child's report; `None` if it holds none.
    pub fn parse(report: &str) -> Option<Series> {
        let row = |name: &str| -> Option<Vec<&str>> {
            report
                .lines()
                .find_map(|l| {
                    l.strip_prefix(PREFIX)?
                        .strip_prefix(name)?
                        .strip_prefix(' ')
                })
                .map(|rest| rest.split_whitespace().collect())
        };
        let floats = |name: &str| -> Option<Vec<f64>> {
            row(name)?.iter().map(|v| v.parse().ok()).collect()
        };
        let series = Series {
            records: row("records")?
                .iter()
                .map(|v| v.parse().ok())
                .collect::<Option<_>>()?,
            batch_ms: floats("batch_ms")?,
            publish_ms: floats("publish_ms")?,
            record_ms: floats("record_ms")?,
            tail_ms: *floats("tail_ms")?.first()?,
        };
        let n = series.records.len();
        (series.batch_ms.len() == n && series.publish_ms.len() == n && series.record_ms.len() == n)
            .then_some(series)
    }

    /// Whether a report line belongs to a series (the parent does not echo
    /// those).
    pub fn is_line(line: &str) -> bool {
        line.starts_with(PREFIX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn child(batch_ms: [f64; 3], tail_ms: f64) -> Series {
        Series {
            records: vec![10, 20, 30],
            batch_ms: batch_ms.to_vec(),
            publish_ms: batch_ms.iter().map(|v| v / 2.0).collect(),
            record_ms: vec![f64::NAN, 1.5, 2.5],
            tail_ms,
        }
    }

    #[test]
    fn combine_keeps_the_second_fastest_timing_of_every_batch() {
        // Child 0 is lucky on batch 0, child 2 stalls on batch 1; batch 2
        // is slow in every child: the program's own cost stays in.
        let children = [
            child([1.0, 5.0, 9.0], 0.3),
            child([4.0, 5.5, 9.5], 0.1),
            child([4.5, 50.0, 9.2], 0.2),
        ];
        let run = Series::combine(&children, KEPT_RANK).unwrap();
        assert_eq!(run.batch_ms, [4.0, 5.5, 9.2]);
        assert_eq!(run.publish_ms, [2.0, 2.75, 4.6]);
        assert_eq!(run.tail_ms, 0.2);
        assert!(run.record_ms[0].is_nan());
        assert_eq!(&run.record_ms[1..], [1.5, 2.5]);
        let [throughput, batch, publish, record] = run.metrics().map(|(_, v)| v);
        assert_eq!(throughput, 60.0 / ((4.0 + 5.5 + 9.2 + 0.2) / 1e3));
        assert_eq!((batch, publish, record), (5.5, 2.75, 2.0));
    }

    #[test]
    fn combine_refuses_children_that_saw_different_batches() {
        let mut other = child([1.0, 2.0, 3.0], 0.0);
        other.records[1] += 1;
        assert!(Series::combine(&[child([1.0, 2.0, 3.0], 0.0), other], KEPT_RANK).is_err());
    }

    #[test]
    fn a_series_survives_its_report_lines() {
        let series = child([1.0 / 3.0, 2.5, 1e-9], 0.125);
        let mut report = String::from("# header\n  set-up 0.1s\n");
        for line in series.to_lines() {
            assert!(Series::is_line(&line));
            report.push_str(&line);
            report.push('\n');
        }
        let back = Series::parse(&report).unwrap();
        assert_eq!(back.records, series.records);
        assert_eq!(back.batch_ms, series.batch_ms);
        assert!(back.record_ms[0].is_nan());
        assert_eq!(back.tail_ms, 0.125);
        assert_eq!(Series::parse("# header only"), None);
    }
}
