//! Damaged bytes at the two doors a model comes back in by: the codec and
//! the checkpoint store.
//!
//! Every truncation and every single-bit flip of each algorithm's encoded
//! model must decode to an error or to some value — never a panic, and a
//! truncation never to a value. Written into a checkpoint store, the same
//! damage to the stored frame must surface as
//! [`DistStreamError::CorruptCheckpoint`], which recovery falls back on.
//! The models come from a seeded stream, so every run damages the same
//! bytes.

use std::fs;
use std::path::PathBuf;

use diststream::algorithms::{
    CluStream, CluStreamParams, ClusTree, ClusTreeParams, DStream, DStreamParams, DenStream,
    DenStreamParams,
};
use diststream::core::{
    Checkpoint, CheckpointStore, DistStreamJob, FileCheckpointStore, StreamClustering,
};
use diststream::engine::{decode, encode, ExecutionMode, StreamingContext, VecSource};
use diststream::types::{ClusteringConfig, DistStreamError, Point, Record, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;

/// 300 two-dimensional records around three centres, 50 a second.
fn stream() -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(0xC0DE_C0DE);
    let centres = [(0.0, 0.0), (6.0, 1.0), (2.0, 7.0)];
    (0..300u64)
        .map(|id| {
            let (x, y) = centres[rng.gen_range(0..centres.len())];
            let point = Point::from(vec![
                x + rng.gen_range(-1.0..1.0),
                y + rng.gen_range(-1.0..1.0),
            ]);
            Record::new(id, point, Timestamp::from_secs(id as f64 / 50.0))
        })
        .collect()
}

/// The encoded model `algo` ends on after [`stream`].
fn encoded_model<A: StreamClustering>(algo: &A) -> Vec<u8> {
    let ctx = StreamingContext::new(2, ExecutionMode::Simulated).expect("context");
    let result = DistStreamJob::new(algo, &ctx, ClusteringConfig::default())
        .init_records(50)
        .run_to_end(VecSource::new(stream()))
        .expect("job");
    encode(&result.model)
}

/// `bytes` with bit `bit` flipped.
fn flipped(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut damaged = bytes.to_vec();
    damaged[bit / 8] ^= 1 << (bit % 8);
    damaged
}

/// Every truncation of `algo`'s model is an error; every bit flip decodes
/// or refuses without panicking.
fn decode_survives_damage<A>(algo: &A)
where
    A: StreamClustering,
    A::Model: DeserializeOwned,
{
    let bytes = encoded_model(algo);
    assert!(decode::<A::Model>(&bytes).is_ok(), "{}", algo.name());
    for len in 0..bytes.len() {
        assert!(
            decode::<A::Model>(&bytes[..len]).is_err(),
            "{}: a {len}-byte truncation decoded",
            algo.name()
        );
    }
    for bit in 0..8 * bytes.len() {
        let _ = decode::<A::Model>(&flipped(&bytes, bit));
    }
}

#[test]
fn damaged_models_decode_or_refuse_never_panic() {
    decode_survives_damage(&CluStream::new(CluStreamParams {
        max_micro_clusters: 12,
        ..Default::default()
    }));
    decode_survives_damage(&DenStream::new(DenStreamParams {
        eps: 1.5,
        ..Default::default()
    }));
    decode_survives_damage(&DStream::new(DStreamParams {
        cell_width: 2.0,
        grid_dims: 2,
        ..Default::default()
    }));
    decode_survives_damage(&ClusTree::new(ClusTreeParams {
        max_micro_clusters: 12,
        singleton_radius: 1.5,
        ..Default::default()
    }));
}

/// A fresh directory for one store.
fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diststream-corrupt-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn damaged_frames_load_as_corrupt_checkpoints() {
    let algo = DStream::new(DStreamParams {
        cell_width: 2.0,
        grid_dims: 2,
        ..Default::default()
    });
    let checkpoint = Checkpoint {
        batch_index: 3,
        bytes: encoded_model(&algo),
    };
    let dir = store_dir("frames");
    let mut store = FileCheckpointStore::open(&dir, 1).expect("store");
    store.persist(&checkpoint).expect("persist");
    assert_eq!(store.load(3).expect("intact frame"), checkpoint);
    let path = dir.join("ckpt-3.bin");
    let frame = fs::read(&path).expect("frame");
    let must_be_corrupt = |damaged: &[u8], what: &str| {
        fs::write(&path, damaged).expect("write damaged frame");
        match store.load(3) {
            Err(DistStreamError::CorruptCheckpoint { batch_index: 3, .. }) => {}
            other => panic!("{what}: {other:?}"),
        }
    };
    for len in 0..frame.len() {
        must_be_corrupt(&frame[..len], &format!("{len}-byte truncation"));
    }
    for bit in 0..8 * frame.len() {
        must_be_corrupt(&flipped(&frame, bit), &format!("bit {bit} flipped"));
    }
    let _ = fs::remove_dir_all(&dir);
}
