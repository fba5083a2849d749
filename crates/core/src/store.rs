//! Stable-storage checkpoint persistence with validation and fallback.
//!
//! A [`CheckpointStore`] is where a checkpointing or resizing
//! [`DistStreamJob`](crate::DistStreamJob) puts its checkpoints — the
//! stable-storage leg Spark Streaming gets from HDFS. Checkpoints are
//! persisted as
//! self-describing frames — magic, format version, replay cursor, payload
//! length, CRC32 — and the store retains the last *k* of them in a manifest,
//! so recovery can fall back to an older checkpoint when the newest one is
//! damaged on disk.
//!
//! Stored checkpoints are keyed by **replay cursor**: the index of the first
//! mini-batch *not* folded into the checkpointed model. Restoring the
//! checkpoint at cursor `c` and replaying all logged batches with index
//! `>= c` reproduces the lost model exactly (every executor step is
//! deterministic). The cursor convention keeps the initial checkpoint
//! (cursor 0, nothing folded) distinguishable from a checkpoint taken after
//! batch 0 (cursor 1).

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use diststream_types::{DistStreamError, Result};

use crate::recovery::Checkpoint;

/// Frame magic: "DistStream ChecKpoint".
const MAGIC: [u8; 4] = *b"DSCK";
/// Current frame format version.
const FRAME_VERSION: u16 = 1;
/// Fixed frame header size: magic + version + reserved + cursor + payload
/// length + CRC32.
const HEADER_LEN: usize = 4 + 2 + 2 + 8 + 8 + 4;

/// Stable storage for model checkpoints.
///
/// Implementations persist encoded checkpoint frames keyed by replay cursor
/// (carried in [`Checkpoint::batch_index`]), retain the newest *k*, and can
/// deliberately damage a stored frame so recovery-fallback paths are
/// testable against real corruption.
pub trait CheckpointStore: std::fmt::Debug + Send {
    /// Persists a checkpoint frame, retiring the oldest beyond the
    /// retention limit. Persisting the same cursor twice overwrites.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::Storage`] on I/O failure.
    fn persist(&mut self, checkpoint: &Checkpoint) -> Result<()>;

    /// Replay cursors of the retained checkpoints, newest first.
    fn manifest(&self) -> Vec<usize>;

    /// Loads and validates the checkpoint stored at `cursor`.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::Storage`] when the frame cannot be read
    /// and [`DistStreamError::CorruptCheckpoint`] when it fails structural
    /// or CRC validation.
    fn load(&self, cursor: usize) -> Result<Checkpoint>;

    /// Damages the stored frame at `cursor` (payload bit-flip), leaving the
    /// manifest intact — the fault-injection hook for recovery tests.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::Storage`] if no frame is stored at
    /// `cursor` or the damage cannot be written.
    fn inject_corruption(&mut self, cursor: usize) -> Result<()>;
}

/// Encodes a checkpoint into a self-describing frame.
fn encode_frame(checkpoint: &Checkpoint) -> Vec<u8> {
    let payload = &checkpoint.bytes;
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&FRAME_VERSION.to_le_bytes());
    frame.extend_from_slice(&0u16.to_le_bytes()); // reserved
    frame.extend_from_slice(&(checkpoint.batch_index as u64).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Decodes and fully validates a frame read back from storage.
fn decode_frame(frame: &[u8], cursor: usize) -> Result<Checkpoint> {
    let corrupt = |reason: String| DistStreamError::CorruptCheckpoint {
        batch_index: cursor,
        reason,
    };
    if frame.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "frame shorter than header ({} < {HEADER_LEN} bytes)",
            frame.len()
        )));
    }
    if frame[0..4] != MAGIC {
        return Err(corrupt("bad magic".to_string()));
    }
    let version = u16::from_le_bytes([frame[4], frame[5]]);
    if version != FRAME_VERSION {
        return Err(corrupt(format!(
            "unsupported frame version {version} (expected {FRAME_VERSION})"
        )));
    }
    // Written as zero; anything else is damage the CRC does not cover.
    if frame[6..8] != [0, 0] {
        return Err(corrupt("reserved header field is set".to_string()));
    }
    let u64_at = |at: usize| -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&frame[at..at + 8]);
        u64::from_le_bytes(raw)
    };
    let stored_cursor = u64_at(8) as usize;
    if stored_cursor != cursor {
        return Err(corrupt(format!(
            "frame is for cursor {stored_cursor}, not {cursor}"
        )));
    }
    let payload_len = u64_at(16) as usize;
    let payload = &frame[HEADER_LEN..];
    if payload.len() != payload_len {
        return Err(corrupt(format!(
            "payload length mismatch: header says {payload_len}, frame holds {}",
            payload.len()
        )));
    }
    let stored_crc = u32::from_le_bytes([frame[24], frame[25], frame[26], frame[27]]);
    let actual_crc = crc32(payload);
    if stored_crc != actual_crc {
        return Err(corrupt(format!(
            "crc mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        )));
    }
    Ok(Checkpoint {
        batch_index: cursor,
        bytes: payload.to_vec(),
    })
}

/// Flips one payload byte in a frame, modelling silent storage corruption.
/// The header (and its CRC field) is left intact so the damage is only
/// detectable by actually verifying the checksum.
fn corrupt_frame(frame: &mut [u8]) {
    // An empty-payload frame is already invalid; damage the CRC field
    // instead so the frame never validates.
    let at = if frame.len() > HEADER_LEN {
        HEADER_LEN
    } else {
        24
    };
    if let Some(byte) = frame.get_mut(at) {
        *byte ^= 0xFF;
    }
}

/// Bitwise CRC32 (IEEE 802.3 polynomial, reflected). Table-free: checkpoint
/// writes are rare enough that ~8 shifts per byte is immaterial, and the
/// workspace stays dependency-free.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// In-memory [`CheckpointStore`]: same frame format and validation as the
/// file-backed store, without the filesystem. The default for tests and for
/// deployments that only want bounded multi-checkpoint fallback.
#[derive(Debug)]
pub struct MemoryCheckpointStore {
    retain: usize,
    /// `(cursor, frame)` pairs, oldest first.
    frames: Vec<(usize, Vec<u8>)>,
}

impl MemoryCheckpointStore {
    /// Creates a store retaining the newest `retain` checkpoints.
    ///
    /// # Panics
    ///
    /// Panics if `retain` is zero.
    pub fn new(retain: usize) -> Self {
        assert!(retain > 0, "retention must keep at least 1 checkpoint");
        MemoryCheckpointStore {
            retain,
            frames: Vec::new(),
        }
    }
}

impl CheckpointStore for MemoryCheckpointStore {
    fn persist(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let frame = encode_frame(checkpoint);
        self.frames.retain(|(c, _)| *c != checkpoint.batch_index);
        self.frames.push((checkpoint.batch_index, frame));
        if self.frames.len() > self.retain {
            let excess = self.frames.len() - self.retain;
            self.frames.drain(..excess);
        }
        Ok(())
    }

    fn manifest(&self) -> Vec<usize> {
        self.frames.iter().rev().map(|(c, _)| *c).collect()
    }

    fn load(&self, cursor: usize) -> Result<Checkpoint> {
        let frame = self
            .frames
            .iter()
            .find(|(c, _)| *c == cursor)
            .map(|(_, f)| f)
            .ok_or_else(|| {
                DistStreamError::Storage(format!("no checkpoint stored at cursor {cursor}"))
            })?;
        decode_frame(frame, cursor)
    }

    fn inject_corruption(&mut self, cursor: usize) -> Result<()> {
        let frame = self
            .frames
            .iter_mut()
            .find(|(c, _)| *c == cursor)
            .map(|(_, f)| f)
            .ok_or_else(|| {
                DistStreamError::Storage(format!("no checkpoint stored at cursor {cursor}"))
            })?;
        corrupt_frame(frame);
        Ok(())
    }
}

/// File-backed [`CheckpointStore`]: one `ckpt-<cursor>.bin` frame per
/// checkpoint plus a `MANIFEST` listing retained cursors newest-first, all
/// written via write-to-temp + atomic rename so a crash mid-write can never
/// leave a torn file under a committed name.
#[derive(Debug)]
pub struct FileCheckpointStore {
    dir: PathBuf,
    retain: usize,
    /// Retained cursors, oldest first (mirrors the on-disk MANIFEST).
    cursors: Vec<usize>,
}

impl FileCheckpointStore {
    /// Opens (creating if needed) a store rooted at `dir`, retaining the
    /// newest `retain` checkpoints. An existing `MANIFEST` is reloaded, so
    /// a restarted driver sees the checkpoints its predecessor wrote.
    ///
    /// # Errors
    ///
    /// Returns [`DistStreamError::InvalidConfig`] if `retain` is zero, and
    /// [`DistStreamError::Storage`] if the directory cannot be created or an
    /// existing manifest cannot be parsed.
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<Self> {
        if retain == 0 {
            return Err(DistStreamError::InvalidConfig(
                "checkpoint retention must keep at least 1 checkpoint".into(),
            ));
        }
        let dir = dir.into();
        fs::create_dir_all(&dir)
            .map_err(|e| DistStreamError::Storage(format!("create {}: {e}", dir.display())))?;
        let manifest_path = dir.join("MANIFEST");
        let mut cursors = Vec::new();
        if manifest_path.exists() {
            let text = fs::read_to_string(&manifest_path).map_err(|e| {
                DistStreamError::Storage(format!("read {}: {e}", manifest_path.display()))
            })?;
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                let cursor: usize = line.trim().parse().map_err(|_| {
                    DistStreamError::Storage(format!(
                        "malformed manifest line {line:?} in {}",
                        manifest_path.display()
                    ))
                })?;
                // MANIFEST is newest-first on disk; keep oldest-first here.
                cursors.insert(0, cursor);
            }
        }
        Ok(FileCheckpointStore {
            dir,
            retain,
            cursors,
        })
    }

    /// The directory holding the frames and manifest.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn frame_path(&self, cursor: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{cursor}.bin"))
    }

    /// Writes `bytes` to `<name>.tmp` and atomically renames it over
    /// `<name>` — the committed name only ever holds complete content.
    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let tmp = self.dir.join(format!("{name}.tmp"));
        let fin = self.dir.join(name);
        let io = |stage: &str, e: std::io::Error| {
            DistStreamError::Storage(format!("{stage} {}: {e}", tmp.display()))
        };
        let mut file = fs::File::create(&tmp).map_err(|e| io("create", e))?;
        file.write_all(bytes).map_err(|e| io("write", e))?;
        file.sync_all().map_err(|e| io("sync", e))?;
        drop(file);
        fs::rename(&tmp, &fin)
            .map_err(|e| DistStreamError::Storage(format!("rename to {}: {e}", fin.display())))
    }

    fn write_manifest(&self) -> Result<()> {
        let mut text = String::new();
        for cursor in self.cursors.iter().rev() {
            // write! to a String cannot fail; ignore the fmt plumbing.
            let _ = writeln!(text, "{cursor}");
        }
        self.write_atomic("MANIFEST", text.as_bytes())
    }
}

impl CheckpointStore for FileCheckpointStore {
    fn persist(&mut self, checkpoint: &Checkpoint) -> Result<()> {
        let cursor = checkpoint.batch_index;
        let frame = encode_frame(checkpoint);
        self.write_atomic(&format!("ckpt-{cursor}.bin"), &frame)?;
        self.cursors.retain(|c| *c != cursor);
        self.cursors.push(cursor);
        while self.cursors.len() > self.retain {
            let retired = self.cursors.remove(0);
            // Best-effort: a frame that outlives its manifest entry wastes
            // space but cannot corrupt recovery, which trusts the manifest.
            let _ = fs::remove_file(self.frame_path(retired));
        }
        self.write_manifest()
    }

    fn manifest(&self) -> Vec<usize> {
        self.cursors.iter().rev().copied().collect()
    }

    fn load(&self, cursor: usize) -> Result<Checkpoint> {
        let path = self.frame_path(cursor);
        let frame = fs::read(&path)
            .map_err(|e| DistStreamError::Storage(format!("read {}: {e}", path.display())))?;
        decode_frame(&frame, cursor)
    }

    fn inject_corruption(&mut self, cursor: usize) -> Result<()> {
        let path = self.frame_path(cursor);
        let mut frame = fs::read(&path)
            .map_err(|e| DistStreamError::Storage(format!("read {}: {e}", path.display())))?;
        corrupt_frame(&mut frame);
        fs::write(&path, &frame)
            .map_err(|e| DistStreamError::Storage(format!("write {}: {e}", path.display())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(cursor: usize, payload: &[u8]) -> Checkpoint {
        Checkpoint {
            batch_index: cursor,
            bytes: payload.to_vec(),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("diststream-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC32 check values (e.g. RFC 3720 appendix / zlib docs).
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frame_round_trips() {
        let original = cp(7, b"model bytes");
        let frame = encode_frame(&original);
        assert_eq!(decode_frame(&frame, 7).unwrap(), original);
    }

    #[test]
    fn frame_rejects_wrong_cursor_magic_and_damage() {
        let frame = encode_frame(&cp(7, b"model bytes"));
        assert!(matches!(
            decode_frame(&frame, 8),
            Err(DistStreamError::CorruptCheckpoint { batch_index: 8, .. })
        ));
        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(decode_frame(&bad_magic, 7).is_err());
        let mut truncated = frame.clone();
        truncated.truncate(frame.len() - 1);
        assert!(decode_frame(&truncated, 7).is_err());
        let mut flipped = frame.clone();
        corrupt_frame(&mut flipped);
        let err = decode_frame(&flipped, 7).unwrap_err();
        assert!(err.to_string().contains("crc"), "got: {err}");
    }

    #[test]
    fn memory_store_retains_last_k_newest_first() {
        let mut store = MemoryCheckpointStore::new(2);
        for cursor in 1..=4 {
            store.persist(&cp(cursor, b"payload")).unwrap();
        }
        assert_eq!(store.manifest(), vec![4, 3]);
        assert!(store.load(4).is_ok());
        assert!(matches!(store.load(1), Err(DistStreamError::Storage(_))));
    }

    #[test]
    fn memory_store_corruption_is_detected_on_load() {
        let mut store = MemoryCheckpointStore::new(3);
        store.persist(&cp(5, b"payload")).unwrap();
        store.inject_corruption(5).unwrap();
        assert!(matches!(
            store.load(5),
            Err(DistStreamError::CorruptCheckpoint { .. })
        ));
    }

    #[test]
    fn file_store_round_trips_and_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let mut store = FileCheckpointStore::open(&dir, 3).unwrap();
            store.persist(&cp(2, b"alpha")).unwrap();
            store.persist(&cp(4, b"beta")).unwrap();
            assert_eq!(store.manifest(), vec![4, 2]);
        }
        let store = FileCheckpointStore::open(&dir, 3).unwrap();
        assert_eq!(store.manifest(), vec![4, 2], "manifest must persist");
        assert_eq!(store.load(2).unwrap().bytes, b"alpha");
        assert_eq!(store.load(4).unwrap().bytes, b"beta");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_refuses_zero_retention_with_a_typed_error() {
        let dir = temp_dir("retain0");
        let err = FileCheckpointStore::open(&dir, 0).unwrap_err();
        assert!(
            matches!(&err, DistStreamError::InvalidConfig(m) if m.contains("retention")),
            "{err}"
        );
        assert!(!dir.exists(), "a refused open creates nothing");
    }

    #[test]
    fn file_store_prunes_beyond_retention() {
        let dir = temp_dir("prune");
        let mut store = FileCheckpointStore::open(&dir, 2).unwrap();
        for cursor in 1..=4 {
            store.persist(&cp(cursor, b"payload")).unwrap();
        }
        assert_eq!(store.manifest(), vec![4, 3]);
        assert!(!store.frame_path(1).exists(), "retired frame not removed");
        assert!(store.frame_path(4).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_corruption_is_detected_on_load() {
        let dir = temp_dir("corrupt");
        let mut store = FileCheckpointStore::open(&dir, 2).unwrap();
        store.persist(&cp(3, b"payload")).unwrap();
        store.inject_corruption(3).unwrap();
        assert!(matches!(
            store.load(3),
            Err(DistStreamError::CorruptCheckpoint { batch_index: 3, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = temp_dir("tmp");
        let mut store = FileCheckpointStore::open(&dir, 2).unwrap();
        store.persist(&cp(1, b"payload")).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files leaked: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
