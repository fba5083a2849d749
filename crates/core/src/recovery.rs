//! Checkpoint-based fault tolerance — the Spark parallel-recovery role.
//!
//! The paper inherits fault tolerance from its substrate: "DistStream
//! leverages Spark Streaming's parallel recovery mechanism" (§VI). Our
//! substrate is this workspace, so the mechanism lives here, as boundary
//! steps of [`JobSession::step`]: with a checkpoint cadence the session logs
//! each batch write-ahead and checkpoints the model every `k` batches
//! (serialized with the engine's binary codec, into the job's store);
//! [`JobSession::recover`] restores the newest checkpoint that validates and
//! *replays* the batches after it. Because the batch step is deterministic,
//! replaying reproduces the pre-failure model bit for bit — verified by
//! tests. An overlapped job's pending update rides beside each checkpoint
//! in driver memory, as the replay log does (DESIGN.md §13).

use std::sync::Arc;

use serde::de::DeserializeOwned;

use diststream_engine::{decode, encode_into};
use diststream_telemetry as telemetry;
use diststream_types::{DistStreamError, Result};

use crate::api::StreamClustering;
use crate::session::{BatchOutcome, JobSession};

/// A serialized model checkpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// The checkpoint's replay cursor: index of the first batch *not*
    /// processed into the checkpointed state (0 for the initial model,
    /// `i + 1` after batch `i`) — the key it is stored under.
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

/// What happened to a batch handed to [`JobSession::step_or_skip`].
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one value per batch, returned once and matched on the spot
pub enum BatchDisposition {
    /// The batch folded into the model normally.
    Processed(BatchOutcome),
    /// Every retry of some task failed, so the batch was dropped and the
    /// stream continues from the last-known-good model.
    Skipped {
        /// Index of the dropped batch.
        batch_index: usize,
        /// The exhausted-retries error that condemned it.
        error: DistStreamError,
    },
}

impl<A: StreamClustering> JobSession<'_, A> {
    /// Checkpoints the current model under replay cursor `cursor` — with the
    /// pending overlapped update beside it — persists it to the job's store,
    /// applies any fault-plan corruption scripted for the batch before the
    /// cursor (damage lands *after* the durable write, the way real storage
    /// rot would), and prunes the replay log down to what the retained
    /// checkpoints still need. Both the cadence and a resize boundary come
    /// through here.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::Storage`] if persisting fails.
    pub(crate) fn take_checkpoint(&mut self, cursor: usize) -> Result<()> {
        let _span = telemetry::span!(telemetry::names::SPAN_CHECKPOINT_WRITE);
        // encode_into clears the previous checkpoint's buffer but keeps its
        // capacity, so steady-state checkpointing stops allocating once the
        // model size stabilizes.
        encode_into(&*self.model, &mut self.checkpoint.bytes);
        self.checkpoint.batch_index = cursor;
        self.since_checkpoint = 0;
        let mut store = self.job.store();
        store.persist(&self.checkpoint)?;
        if cursor > 0 && self.job.ctx.take_checkpoint_corruption(cursor - 1) {
            store.inject_corruption(cursor)?;
        }
        // Everything before the oldest retained cursor is unreachable.
        let oldest = store.manifest().last().copied().unwrap_or(cursor);
        self.log.retain(|b| b.index >= oldest);
        self.pendings.retain(|(c, _)| *c >= oldest && *c != cursor);
        self.pendings.push((cursor, self.pending.clone()));
        Ok(())
    }

    /// Simulates driver recovery: walks the store's manifest newest-first,
    /// restores the first checkpoint that passes CRC and structural
    /// validation (skipped ones are counted in
    /// `diststream_checkpoint_fallbacks_total`) and steps the logged batches
    /// after its cursor through a fresh session of the same job — same
    /// options, no serving handle, no boundaries, no flush — returning the
    /// rebuilt model, which equals [`JobSession::model`].
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] without a checkpoint
    /// cadence, [`DistStreamError::CorruptCheckpoint`] if every candidate
    /// checkpoint is damaged, and propagates replay failures.
    pub fn recover(&self) -> Result<A::Model>
    where
        A::Model: DeserializeOwned,
    {
        let _span = telemetry::span!(telemetry::names::SPAN_CHECKPOINT_RESTORE);
        if self.every.is_none() {
            return Err(DistStreamError::InvalidConfig(
                "recover() needs a checkpoint cadence".into(),
            ));
        }
        let manifest = self.job.store().manifest();
        let mut fallbacks = 0u64;
        let mut last_err =
            DistStreamError::Storage("checkpoint store has an empty manifest".into());
        for cursor in manifest {
            let loaded = self.job.store().load(cursor);
            match loaded.and_then(|checkpoint| self.replay_from(&checkpoint)) {
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

    /// Decodes `checkpoint`, puts the pending update saved beside it back,
    /// and steps every logged batch from its cursor on.
    fn replay_from(&self, checkpoint: &Checkpoint) -> Result<A::Model>
    where
        A::Model: DeserializeOwned,
    {
        checkpoint.validate()?;
        let cursor = checkpoint.batch_index;
        let model = decode(&checkpoint.bytes).map_err(|e| DistStreamError::CorruptCheckpoint {
            batch_index: cursor,
            reason: e.to_string(),
        })?;
        let pending = self.pendings.iter().find(|(c, _)| *c == cursor);
        let pending = pending.and_then(|(_, p)| p.clone());
        let mut replay = self.job.session(model, pending);
        for batch in self.log.iter().filter(|b| b.index >= cursor) {
            replay.step(batch.clone())?;
        }
        Ok(Arc::unwrap_or_clone(replay.model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{DistStreamJob, PipelineOptions};
    use crate::reference::NaiveClustering;
    use crate::serving::serving_handle;
    use diststream_engine::{ExecutionMode, MiniBatch, StreamingContext};
    use diststream_types::{ClusteringConfig, Point, Record, Timestamp};

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

    /// A job checkpointing every `interval` batches into the default
    /// one-frame in-memory store.
    fn job<'a>(
        algo: &'a NaiveClustering,
        ctx: &'a StreamingContext,
        interval: usize,
    ) -> DistStreamJob<'a, NaiveClustering> {
        let mut job = DistStreamJob::new(algo, ctx, ClusteringConfig::default());
        job.checkpoint_every(interval);
        job
    }

    fn init(algo: &NaiveClustering) -> <NaiveClustering as StreamClustering>::Model {
        algo.init(&[rec(0, 0.0, 0.0)]).unwrap()
    }

    /// Under both protocols: an overlapped job checkpoints between a batch's
    /// parallel steps and its global update, and recovery restores the
    /// pending update kept beside the frame. The replay publishes nothing:
    /// the job's serving slot reads the same before and after it.
    #[test]
    fn recovery_matches_live_model_between_checkpoints() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(2, ExecutionMode::Simulated).unwrap();
        for options in [PipelineOptions::sync(), PipelineOptions::all()] {
            let slot = serving_handle();
            let mut job = job(&algo, &ctx, 3);
            job.pipeline(options).serving(slot.clone());
            let mut d = job.start(init(&algo)).unwrap();
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
                d.step(batch(i as usize, records)).unwrap();
                let published = (slot.version(), slot.latest());
                // Recovery must reproduce the live model at every point.
                assert_eq!(&d.recover().unwrap(), d.model(), "diverged after batch {i}");
                assert_eq!(
                    (slot.version(), slot.latest()),
                    published,
                    "recover() published after batch {i}"
                );
            }
            // The live session did publish: one epoch per applied update.
            assert_eq!(slot.version(), if options.overlap { 6 } else { 7 });
        }
    }

    #[test]
    fn checkpoint_truncates_replay_log() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, 2);
        let mut d = job.start(init(&algo)).unwrap();
        d.step(batch(0, vec![rec(1, 0.1, 0.5)])).unwrap();
        assert_eq!(d.replay_log_len(), 1);
        d.step(batch(1, vec![rec(2, 0.2, 1.0)])).unwrap();
        // Interval 2 reached: checkpoint taken (cursor 2 = after batch 1),
        // log cleared.
        assert_eq!(d.replay_log_len(), 0);
        assert_eq!(job.store().manifest(), vec![2]);
        assert!(!job.store().load(2).unwrap().is_empty());
    }

    #[test]
    fn corrupt_checkpoint_is_detected() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, 10);
        let d = job.start(init(&algo)).unwrap();
        job.store().inject_corruption(0).unwrap();
        assert!(matches!(
            d.recover(),
            Err(DistStreamError::CorruptCheckpoint { .. })
        ));
    }

    #[test]
    fn empty_checkpoint_fails_validation_and_restore() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, 10);
        let d = job.start(init(&algo)).unwrap();
        // A frame that passes its CRC but holds no payload.
        let hollow = Checkpoint {
            batch_index: 0,
            bytes: Vec::new(),
        };
        job.store().persist(&hollow).unwrap();
        assert!(hollow.is_empty());
        let err = hollow.validate().unwrap_err();
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
        let job = job(&algo, &ctx, 10);
        let _d = job.start(init(&algo)).unwrap();
        let cp = job.store().load(0).unwrap();
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
        let err = job(&algo, &ctx, 0).start(init(&algo)).unwrap_err();
        assert!(
            matches!(err, DistStreamError::InvalidConfig(_)),
            "got {err}"
        );
    }

    /// Without a cadence there is no write-ahead log to rebuild from.
    #[test]
    fn recover_without_a_cadence_is_a_typed_error() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let plain = DistStreamJob::new(&algo, &ctx, ClusteringConfig::default());
        let err = plain.start(init(&algo)).unwrap().recover().unwrap_err();
        assert!(matches!(err, DistStreamError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn forced_checkpoint_round_trips_model() {
        let algo = NaiveClustering::new(1.0);
        let ctx = StreamingContext::new(1, ExecutionMode::Simulated).unwrap();
        let job = job(&algo, &ctx, 100);
        let mut d = job.start(init(&algo)).unwrap();
        d.step(batch(0, vec![rec(1, 5.0, 0.5)])).unwrap();
        d.take_checkpoint(1).unwrap();
        assert_eq!(&d.recover().unwrap(), d.model());
        assert_eq!(d.replay_log_len(), 0);
    }
}
