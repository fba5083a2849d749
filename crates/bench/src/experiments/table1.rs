//! **Table I** — characteristics of the three datasets: record count, used
//! features, cluster count, and the record percentages of the three largest
//! real clusters.
//!
//! Pass `--full` to generate at the real datasets' record counts
//! (494,021 / 581,012 / 95,412); the default scale keeps the same shape.

use diststream_types::Result;

use crate::bundle::{Bundle, DatasetKind};
use crate::cli::Cli;
use crate::report::{fmt_f64, print_table, Table};

pub(crate) fn table1(cli: &Cli) -> Result<bool> {
    println!("# Table I — the characteristics of the three datasets");

    let mut table = Table::new([
        "Dataset",
        "#Records",
        "#Used features",
        "#Clusters",
        "top-3 (a%, b%, c%)",
        "instability",
    ]);
    for kind in DatasetKind::ALL {
        let records = cli.records_for(50_000, kind.full_records());
        let bundle = Bundle::new(kind, records, cli.seed);
        let profile = bundle.dataset.profile();
        let top: Vec<String> = profile
            .top_fractions
            .iter()
            .map(|f| format!("{:.1}%", f * 100.0))
            .collect();
        table.row([
            kind.name().to_string(),
            profile.records.to_string(),
            profile.features.to_string(),
            profile.clusters.to_string(),
            format!("({})", top.join(", ")),
            fmt_f64(profile.instability, 3),
        ]);
    }
    print_table(
        "Paper: KDD-99 494,021×54, 23 clusters (57%, 22%, 20%); CoverType 581,012×54, 7 (49%, 36%, 6%); KDD-98 95,412×315, 5 (95%, 1.5%, 1.4%)",
        &table,
    );
    Ok(true)
}
