//! One module per `repro` subcommand: every table and figure of the paper,
//! the ablations and extensions, and the two tools (`digest`,
//! `trace-smoke`). The modeled matrix has its own module, [`crate::matrix`].
//!
//! Experiment scale: by default the experiments run scaled-down streams
//! that preserve the paper's stream *durations* (the arrival rate is scaled
//! with the record count), so per-batch dynamics match the paper at a
//! fraction of the compute. `--records N` or `--full` changes that.

use diststream_core::StreamClustering;
use diststream_engine::ThroughputMeter;
use diststream_types::Result;

use crate::bundle::{Bundle, DatasetKind};
use crate::runner::{run_throughput, throughput_cost, ExecutorKind};

pub(crate) mod ablation_async;
pub(crate) mod ablation_parallelism;
pub(crate) mod ablation_premerge;
pub(crate) mod adaptive_batchsize;
pub(crate) mod batchsize_quality;
pub(crate) mod digest;
pub(crate) mod fig10;
pub(crate) mod fig6;
pub(crate) mod fig7;
pub(crate) mod fig8;
pub(crate) mod fig9;
pub(crate) mod quality_faults;
pub(crate) mod table1;
pub(crate) mod trace_smoke;

/// Replays of the base stream in every throughput experiment: the paper's
/// `large-*` datasets are ten (§VII-A).
const ROUNDS: usize = 10;

/// The scalability sweep of Figures 8 and 10.
const PARALLELISM: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// The paper's largest degree, where Fig. 9 and the extensions run.
const MAX_PARALLELISM: usize = 32;

/// §VII-D1: 10 s batches; 20 s for the slower-rate large-KDD98.
fn batch_secs_for(kind: DatasetKind) -> f64 {
    match kind {
        DatasetKind::Kdd98 => 20.0,
        _ => 10.0,
    }
}

/// One order-aware throughput run per degree of [`PARALLELISM`].
fn scalability_sweep<A: StreamClustering>(
    algo: &A,
    bundle: &Bundle,
) -> Result<Vec<ThroughputMeter>> {
    PARALLELISM
        .iter()
        .map(|&p| {
            run_throughput(
                algo,
                bundle,
                p,
                throughput_cost(bundle),
                ExecutorKind::OrderAware,
                batch_secs_for(bundle.kind),
                ROUNDS,
            )
        })
        .collect()
}
