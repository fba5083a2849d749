//! The result line: the one JSON object a run prints last, and a reader
//! for exactly that shape (a parent process reads its children's lines;
//! no JSON crate resolves offline, and nothing else here needs one).

use std::fmt::Write as _;

/// What one run reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// The line. Values print with every digit (`f64`'s shortest
    /// round-trip form); the caller has checked they are finite.
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }

    /// Reads a line written by [`ResultLine::to_line`]; `None` for
    /// anything else.
    pub fn parse(line: &str) -> Option<ResultLine> {
        let rest = line.trim().strip_prefix("{\"correct\": ")?;
        let (correct, rest) = rest.split_once(", \"attempted\": ")?;
        let (attempted, rest) = rest.split_once(", \"failed\": ")?;
        let (failed, rest) = rest.split_once(", \"metrics\": {")?;
        let body = rest.strip_suffix("}}")?;
        let mut metrics = Vec::new();
        if !body.is_empty() {
            for entry in body.strip_suffix('}')?.split("}, ") {
                let (name, rest) = entry.strip_prefix('"')?.split_once("\": {\"value\": ")?;
                let (value, unit) = rest.split_once(", \"unit\": \"")?;
                metrics.push((
                    name.to_string(),
                    value.parse().ok()?,
                    unit.strip_suffix('"')?.to_string(),
                ));
            }
        }
        Some(ResultLine {
            correct: correct.parse().ok()?,
            attempted: attempted.parse().ok()?,
            failed: failed.parse().ok()?,
            metrics,
        })
    }

    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_written_line_reads_back() {
        let result = ResultLine {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![
                ("latency_ms".into(), 1.2034, "ms".into()),
                ("core.local.busy_s".into(), 2.5e-7, "s".into()),
                ("throughput_rps".into(), 286133.8069790598, "1/s".into()),
            ],
        };
        let line = result.to_line();
        assert!(line.starts_with(
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_ms": {"value": 1.2034, "unit": "ms"}, "#
        ));
        assert_eq!(ResultLine::parse(&line), Some(result));
        let empty = ResultLine {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        };
        assert_eq!(ResultLine::parse(&empty.to_line()), Some(empty));
    }

    #[test]
    fn anything_else_is_refused() {
        assert_eq!(ResultLine::parse(""), None);
        assert_eq!(ResultLine::parse("{\"correct\": true}"), None);
        assert_eq!(ResultLine::parse("  throughput_rps 1.0 1/s"), None);
    }
}
