//! Every workload in `--quick`, end to end and traced: every metric that
//! `BENCHMARK.json` names comes out exactly once, finite, with its unit —
//! and the catalogue in `src/metrics.rs` declares the same names, units
//! and bounds.

use std::path::Path;
use std::process::Command;

use diststream_benchmark::metrics::{END_TO_END, PER_LAYER};
use diststream_benchmark::result::ResultLine;

const BIN: &str = env!("CARGO_BIN_EXE_diststream-benchmark");

/// The entries of `section` in `BENCHMARK.json`, one per line there.
fn section(manifest: &str, section: &str) -> Vec<String> {
    let start = manifest.find(&format!("\"{section}\": [")).unwrap();
    let body = &manifest[start..];
    body[..body.find("\n  ]").unwrap()]
        .lines()
        .skip(1)
        .map(str::to_string)
        .collect()
}

/// Field `key` of a one-line JSON object, quotes stripped.
fn field(entry: &str, key: &str) -> String {
    let rest = entry.split(&format!("\"{key}\": ")).nth(1).unwrap();
    let end = match rest.strip_prefix('"') {
        Some(quoted) => return quoted[..quoted.find('"').unwrap()].to_string(),
        None => rest.find([',', '}']).unwrap(),
    };
    rest[..end].to_string()
}

fn manifest() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root")
}

#[test]
fn manifest_and_catalogue_declare_the_same_metrics() {
    let manifest = manifest();
    let declared: Vec<_> = section(&manifest, "end_to_end")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "bound")))
        .collect();
    let catalogue: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string(), m.bound.to_string()))
        .collect();
    assert_eq!(declared, catalogue);
    let declared: Vec<_> = section(&manifest, "per_layer")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect();
    let catalogue: Vec<_> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(declared, catalogue);
}

#[test]
fn every_workload_prints_every_metric_once() {
    let manifest = manifest();
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in section(&manifest, "workloads") {
        let workload = field(&workload, "name");
        for (trace, metrics) in [("0", "end_to_end"), ("1", "per_layer")] {
            let run = Command::new(BIN)
                .args(["--workload", &workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--quick", "--force", "--out"])
                .arg(&out_dir)
                .output()
                .unwrap();
            let stdout = String::from_utf8_lossy(&run.stdout);
            assert!(
                run.status.success(),
                "{workload} trace={trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let result = ResultLine::parse(stdout.lines().last().unwrap()).unwrap();
            assert!(result.correct);
            assert_eq!(result.failed, 0);
            assert!(result.attempted >= 1);
            let expected: Vec<_> = section(&manifest, metrics)
                .iter()
                .map(|e| (field(e, "name"), field(e, "unit")))
                .collect();
            // Same names in the same order: each exactly once.
            let printed: Vec<_> = result
                .metrics
                .iter()
                .map(|(name, _, unit)| (name.clone(), unit.clone()))
                .collect();
            assert_eq!(printed, expected, "{workload} trace={trace}");
            for (name, value, _) in &result.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
        }
        assert!(out_dir.join(format!("{workload}.trace.jsonl")).exists());
    }
}
