//! Checkpoint-based fault tolerance — the Spark parallel-recovery role.
//!
//! The paper inherits fault tolerance from its substrate: "DistStream
//! leverages Spark Streaming's parallel recovery mechanism" (§VI). Our
//! substrate is this workspace, so the mechanism lives here: the driver
//! checkpoints the micro-cluster model every `interval` batches (serialized
//! with the engine's binary codec, exactly what would be written to stable
//! storage), and recovery restores the last checkpoint and *replays* the
//! batches after it. Because the executors are deterministic, replaying
//! reproduces the pre-failure model bit for bit — verified by tests.

use serde::de::DeserializeOwned;
use serde::Serialize;

use diststream_engine::{decode, encode, encode_into, MiniBatch};
use diststream_telemetry as telemetry;
use diststream_types::{DistStreamError, Result};

use crate::api::StreamClustering;
use crate::parallel::{BatchOutcome, DistStreamExecutor};
use crate::store::CheckpointStore;

/// A serialized model checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Index of the last batch folded into the checkpointed model.
    pub batch_index: usize,
    /// The codec-encoded model bytes.
    pub bytes: Vec<u8>,
}

impl Checkpoint {
    /// Serialized size in bytes: the `u64` batch-index header a persisted
    /// checkpoint carries plus the encoded model payload. (An earlier
    /// version reported only the payload length, under-counting every
    /// checkpoint by the header size.)
    pub fn len(&self) -> usize {
        std::mem::size_of::<u64>() + self.bytes.len()
    }

    /// Whether the checkpoint holds no model payload.
    ///
    /// The batch-index header is deliberately ignored: a checkpoint with an
    /// empty payload cannot restore a model no matter what its index says,
    /// so it counts as empty even though [`Checkpoint::len`] is never zero.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Validates that the checkpoint is structurally restorable.
    ///
    /// Restore paths call this before decoding so that an empty or
    /// obviously-truncated checkpoint fails with a typed error instead of a
    /// generic decode failure.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::CorruptCheckpoint`] when the payload is
    /// empty.
    pub fn validate(&self) -> Result<()> {
        if self.bytes.is_empty() {
            return Err(DistStreamError::CorruptCheckpoint {
                batch_index: self.batch_index,
                reason: "empty payload".to_string(),
            });
        }
        Ok(())
    }
}

/// Drives a [`DistStreamExecutor`] with periodic model checkpoints and a
/// bounded replay log, supporting crash recovery.
///
/// The write-ahead contract: a batch is appended to the replay log *before*
/// it is processed, and the log is truncated when a newer checkpoint lands.
/// [`CheckpointingDriver::recover`] rebuilds the model from the last
/// checkpoint plus the logged batches — identical to the lost state because
/// every executor step is deterministic.
///
/// # Examples
///
/// ```
/// use diststream_core::reference::NaiveClustering;
/// use diststream_core::{CheckpointingDriver, StreamClustering};
/// use diststream_engine::{ExecutionMode, MiniBatch, StreamingContext};
/// use diststream_types::{Point, Record, Timestamp};
///
/// let algo = NaiveClustering::new(1.0);
/// let ctx = StreamingContext::new(2, ExecutionMode::Simulated)?;
/// let model = algo.init(&[Record::new(0, Point::from(vec![0.0]), Timestamp::ZERO)])?;
/// let mut driver = CheckpointingDriver::new(&algo, &ctx, model, 2)?;
/// let batch = MiniBatch {
///     index: 0,
///     window_start: Timestamp::ZERO,
///     window_end: Timestamp::from_secs(1.0),
///     records: vec![Record::new(1, Point::from(vec![0.3]), Timestamp::from_secs(0.5))],
/// };
/// driver.process_batch(batch)?;
/// let recovered = driver.recover()?; // what a restarted driver would rebuild
/// assert_eq!(&recovered, driver.model());
/// # Ok::<(), diststream_types::DistStreamError>(())
/// ```
#[derive(Debug)]
pub struct CheckpointingDriver<'a, A: StreamClustering> {
    exec: DistStreamExecutor<'a, A>,
    algo: &'a A,
    ctx: &'a diststream_engine::StreamingContext,
    model: A::Model,
    interval: usize,
    since_checkpoint: usize,
    checkpoint: Checkpoint,
    /// Replay cursor of the current checkpoint: index of the first batch
    /// *not* folded into it. Starts at 0 (the initial checkpoint holds the
    /// pre-stream model), becomes `batch_index + 1` on every checkpoint —
    /// this is the key stored checkpoints are filed under, and it keeps the
    /// initial checkpoint distinguishable from one taken after batch 0.
    cursor: usize,
    replay_log: Vec<MiniBatch>,
    store: Option<Box<dyn CheckpointStore>>,
}

/// What happened to a batch handed to
/// [`CheckpointingDriver::process_batch_or_skip`].
#[derive(Debug)]
pub enum BatchDisposition {
    /// The batch folded into the model normally.
    Processed(BatchOutcome),
    /// Every retry of some task failed, so the batch was dropped without
    /// touching the model (task failures happen in the parallel steps,
    /// before the driver's global update mutates anything) and the stream
    /// continues from the last-known-good model.
    Skipped {
        /// Index of the dropped batch.
        batch_index: usize,
        /// The exhausted-retries error that condemned it.
        error: DistStreamError,
    },
}

impl<'a, A> CheckpointingDriver<'a, A>
where
    A: StreamClustering,
    A::Model: Serialize + DeserializeOwned + PartialEq,
{
    /// Creates a driver checkpointing every `interval` batches. The initial
    /// model is checkpointed immediately.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if `interval` is zero.
    pub fn new(
        algo: &'a A,
        ctx: &'a diststream_engine::StreamingContext,
        model: A::Model,
        interval: usize,
    ) -> Result<Self> {
        if interval == 0 {
            return Err(DistStreamError::InvalidConfig(
                "checkpoint interval must be at least 1".into(),
            ));
        }
        let checkpoint = Checkpoint {
            batch_index: 0,
            bytes: encode(&model),
        };
        Ok(CheckpointingDriver {
            exec: DistStreamExecutor::new(algo, ctx),
            algo,
            ctx,
            model,
            interval,
            since_checkpoint: 0,
            checkpoint,
            cursor: 0,
            replay_log: Vec::new(),
            store: None,
        })
    }

    /// Attaches a stable-storage [`CheckpointStore`] and persists the
    /// current checkpoint into it immediately.
    ///
    /// With a store attached, the replay log retains every batch needed to
    /// replay from the *oldest* retained checkpoint (not just the newest),
    /// and [`CheckpointingDriver::recover`] walks the store's manifest
    /// newest-first, falling back past checkpoints that fail CRC/structural
    /// validation.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::Storage`] if the initial persist fails.
    pub fn with_store(mut self, store: Box<dyn CheckpointStore>) -> Result<Self> {
        self.store = Some(store);
        self.persist_checkpoint()?;
        Ok(self)
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&dyn CheckpointStore> {
        self.store.as_deref()
    }

    /// Mutable access to the attached store — intended for harness code
    /// (e.g. fault-injection tests scripting corruption directly).
    pub fn store_mut(&mut self) -> Option<&mut (dyn CheckpointStore + 'static)> {
        self.store.as_deref_mut()
    }

    /// The current (authoritative) model.
    pub fn model(&self) -> &A::Model {
        &self.model
    }

    /// The most recent checkpoint.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// Number of batches currently in the replay log.
    pub fn replay_log_len(&self) -> usize {
        self.replay_log.len()
    }

    /// Processes one batch under the write-ahead contract.
    ///
    /// # Errors
    ///
    /// Propagates engine failures; the failed batch stays in the replay log
    /// so [`CheckpointingDriver::recover`] retries it. Use
    /// [`CheckpointingDriver::process_batch_or_skip`] for the degradation
    /// policy that drops a batch whose retries are exhausted.
    pub fn process_batch(&mut self, batch: MiniBatch) -> Result<BatchOutcome> {
        // Write-ahead: log the batch before touching the model.
        self.replay_log.push(batch.clone());
        let outcome = self.exec.process_batch(&mut self.model, batch)?;
        self.since_checkpoint += 1;
        if self.since_checkpoint >= self.interval {
            self.take_checkpoint(outcome.metrics.batch_index)?;
        }
        Ok(outcome)
    }

    /// [`CheckpointingDriver::process_batch`] with Spark-style graceful
    /// degradation: when a task exhausts its retry budget
    /// ([`DistStreamError::TaskFailed`]), the poisoned batch is dropped —
    /// removed from the replay log, counted in
    /// `diststream_batches_skipped_total` — and the stream continues from
    /// the last-known-good model, which the failure never touched (task
    /// failures surface from the parallel steps, before the driver-side
    /// global update mutates the model).
    ///
    /// # Errors
    ///
    /// Propagates every error other than [`DistStreamError::TaskFailed`]
    /// (those reflect driver-side problems, not a poisoned batch).
    pub fn process_batch_or_skip(&mut self, batch: MiniBatch) -> Result<BatchDisposition> {
        let batch_index = batch.index;
        match self.process_batch(batch) {
            Ok(outcome) => Ok(BatchDisposition::Processed(outcome)),
            Err(error @ DistStreamError::TaskFailed { .. }) => {
                // The batch was write-ahead logged before it failed; drop it
                // so recovery does not replay the poison forever.
                self.replay_log.retain(|b| b.index != batch_index);
                if telemetry::enabled() {
                    telemetry::counter(telemetry::names::METRIC_BATCHES_SKIPPED_TOTAL).inc();
                }
                Ok(BatchDisposition::Skipped { batch_index, error })
            }
            Err(other) => Err(other),
        }
    }

    /// Forces a checkpoint of the current model, persists it to the store
    /// (when one is attached), and prunes the replay log down to what the
    /// retained checkpoints still need.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::Storage`] if persisting to the attached
    /// store fails; the in-memory checkpoint is still updated.
    pub fn take_checkpoint(&mut self, batch_index: usize) -> Result<()> {
        // Recycle the previous checkpoint's buffer: encode_into clears it
        // but keeps its capacity, so steady-state checkpointing stops
        // allocating once the model size stabilizes.
        let mut bytes = std::mem::take(&mut self.checkpoint.bytes);
        encode_into(&self.model, &mut bytes);
        self.checkpoint = Checkpoint { batch_index, bytes };
        self.cursor = batch_index + 1;
        self.since_checkpoint = 0;
        self.persist_checkpoint()?;
        self.prune_replay_log();
        Ok(())
    }

    /// Writes the current checkpoint into the attached store under its
    /// replay cursor, then applies any fault-plan corruption scripted for
    /// this batch (damage lands *after* the durable write, the way real
    /// storage rot would).
    fn persist_checkpoint(&mut self) -> Result<()> {
        let cursor = self.cursor;
        let Some(store) = self.store.as_mut() else {
            return Ok(());
        };
        let _span = telemetry::span!(telemetry::names::SPAN_CHECKPOINT_WRITE);
        let stored = Checkpoint {
            batch_index: cursor,
            bytes: self.checkpoint.bytes.clone(),
        };
        store.persist(&stored)?;
        if cursor > 0 && self.ctx.take_checkpoint_corruption(cursor - 1) {
            store.inject_corruption(cursor)?;
        }
        Ok(())
    }

    /// Drops logged batches no retained checkpoint needs: everything before
    /// the oldest manifest entry's replay cursor (without a store, before
    /// the current checkpoint's cursor — i.e. the whole log).
    fn prune_replay_log(&mut self) {
        let oldest_cursor = self
            .store
            .as_deref()
            .and_then(|store| store.manifest().last().copied())
            .unwrap_or(self.cursor);
        self.replay_log.retain(|b| b.index >= oldest_cursor);
    }

    /// Simulates driver recovery: restores the newest checkpoint that
    /// validates and replays the logged batches after it on a fresh
    /// executor, returning the rebuilt model.
    ///
    /// Without a store this is the classic single-checkpoint path. With a
    /// store, the manifest is walked newest-first and entries that fail CRC
    /// or structural validation are skipped (counted in
    /// `diststream_checkpoint_fallbacks_total`) — the graceful-degradation
    /// leg of Spark's stable-storage checkpointing.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::CorruptCheckpoint`] if every candidate
    /// checkpoint is damaged, and propagates replay failures.
    pub fn recover(&self) -> Result<A::Model> {
        let _span = telemetry::span!(telemetry::names::SPAN_CHECKPOINT_RESTORE);
        let Some(store) = self.store.as_deref() else {
            // The in-memory log holds exactly the post-checkpoint batches.
            return self.replay_from(&self.checkpoint, 0);
        };
        let mut fallbacks = 0u64;
        let mut last_err =
            DistStreamError::Storage("checkpoint store has an empty manifest".into());
        for cursor in store.manifest() {
            let attempt = store
                .load(cursor)
                .and_then(|checkpoint| self.replay_from(&checkpoint, cursor));
            match attempt {
                Ok(model) => {
                    if fallbacks > 0 && telemetry::enabled() {
                        telemetry::counter(telemetry::names::METRIC_CHECKPOINT_FALLBACKS_TOTAL)
                            .add(fallbacks);
                    }
                    return Ok(model);
                }
                Err(e) => {
                    fallbacks += 1;
                    last_err = e;
                }
            }
        }
        Err(last_err)
    }

    /// Decodes `checkpoint` and replays every logged batch with index
    /// `>= from_cursor` on a fresh executor.
    fn replay_from(&self, checkpoint: &Checkpoint, from_cursor: usize) -> Result<A::Model> {
        checkpoint.validate()?;
        let mut model: A::Model =
            decode(&checkpoint.bytes).map_err(|e| DistStreamError::CorruptCheckpoint {
                batch_index: checkpoint.batch_index,
                reason: e.to_string(),
            })?;
        let mut exec = DistStreamExecutor::new(self.algo, self.ctx);
        for batch in self.replay_log.iter().filter(|b| b.index >= from_cursor) {
            exec.process_batch(&mut model, batch.clone())?;
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::NaiveClustering;
    use diststream_engine::{ExecutionMode, StreamingContext};
    use diststream_types::{Point, Record, Timestamp};

    fn rec(id: u64, x: f64, t: f64) -> Record {
        Record::new(id, Point::from(vec![x]), Timestamp::from_secs(t))
    }

    fn batch(index: usize, records: Vec<Record>) -> MiniBatch {
        let window_end = records
            .last()
            .map_or(Timestamp::ZERO, |r| r.timestamp + 0.5);
        MiniBatch {
            index,
            window_start: records.first().map_or(Timestamp::ZERO, |r| r.timestamp),
            window_end,
            records,
        }
    }

    fn driver<'a>(
        algo: &'a NaiveClustering,
        ctx: &'a StreamingContext,
        interval: usize,
    ) -> CheckpointingDriver<'a, NaiveClustering> {
        let model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        CheckpointingDriver::new(algo, ctx, model, interval).unwrap()
    }

    #[test]
    fn recovery_matches_live_model_between_checkpoints() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        let mut d = driver(&algo, &ctx, 3);
        for i in 0..7 {
            let records = (0..10)
                .map(|j| {
                    rec(
                        1 + i * 10 + j,
                        (j % 4) as f64 * 3.0,
                        i as f64 + j as f64 * 0.05,
                    )
                })
                .collect();
            d.process_batch(batch(i as usize, records)).unwrap();
            // Recovery must reproduce the live model at every point.
            assert_eq!(&d.recover().unwrap(), d.model(), "diverged after batch {i}");
        }
    }

    #[test]
    fn checkpoint_truncates_replay_log() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let mut d = driver(&algo, &ctx, 2);
        d.process_batch(batch(0, vec![rec(1, 0.1, 0.5)])).unwrap();
        assert_eq!(d.replay_log_len(), 1);
        d.process_batch(batch(1, vec![rec(2, 0.2, 1.0)])).unwrap();
        // Interval 2 reached: checkpoint taken, log cleared.
        assert_eq!(d.replay_log_len(), 0);
        assert_eq!(d.checkpoint().batch_index, 1);
        assert!(!d.checkpoint().is_empty());
    }

    #[test]
    fn corrupt_checkpoint_is_detected() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let mut d = driver(&algo, &ctx, 10);
        d.checkpoint.bytes.truncate(d.checkpoint.bytes.len() / 2);
        assert!(matches!(
            d.recover(),
            Err(DistStreamError::CorruptCheckpoint { .. })
        ));
    }

    #[test]
    fn empty_checkpoint_fails_validation_and_restore() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let mut d = driver(&algo, &ctx, 10);
        d.checkpoint.bytes.clear();
        assert!(d.checkpoint().is_empty());
        let err = d.checkpoint().validate().unwrap_err();
        assert!(
            matches!(err, DistStreamError::CorruptCheckpoint { batch_index: 0, ref reason } if reason.contains("empty")),
            "unexpected error: {err}"
        );
        assert!(matches!(
            d.recover(),
            Err(DistStreamError::CorruptCheckpoint { .. })
        ));
    }

    #[test]
    fn checkpoint_len_counts_header_and_payload() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let d = driver(&algo, &ctx, 10);
        let cp = d.checkpoint();
        assert!(!cp.is_empty());
        assert!(cp.validate().is_ok());
        assert_eq!(cp.len(), 8 + cp.bytes.len());
        // Even a payload-less checkpoint reports its header bytes.
        let hollow = Checkpoint {
            batch_index: 3,
            bytes: Vec::new(),
        };
        assert!(hollow.is_empty());
        assert_eq!(hollow.len(), 8);
    }

    /// Regression: a zero interval used to `assert!` — a panic on a value
    /// that arrives from configuration.
    #[test]
    fn zero_interval_is_a_typed_error() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let model = algo.init(&[rec(0, 0.0, 0.0)]).unwrap();
        let err = CheckpointingDriver::new(&algo, &ctx, model, 0).unwrap_err();
        assert!(
            matches!(err, DistStreamError::InvalidConfig(_)),
            "got {err}"
        );
    }

    #[test]
    fn forced_checkpoint_round_trips_model() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let mut d = driver(&algo, &ctx, 100);
        d.process_batch(batch(0, vec![rec(1, 5.0, 0.5)])).unwrap();
        d.take_checkpoint(0).unwrap();
        assert_eq!(&d.recover().unwrap(), d.model());
        assert_eq!(d.replay_log_len(), 0);
    }
}
