//! The load generator: the benchmark-side [`RecordSource`] every workload's
//! stream comes from.
//!
//! It replays the workload's base stream ([`RepeatSource`]) and adds what
//! only a generator can know: when each record was handed to the system.
//! Two pacing modes:
//!
//! - **Saturated** (closed loop): a record is emitted the moment the
//!   system asks for it; its emission time is stamped (one record in
//!   [`STAMP_EVERY`]).
//! - **Fixed rate** (open loop): record `i` is *due* at `t0 + i/rate` and
//!   is not released earlier; records leave in quanta of ~1 ms of stream
//!   (sleep, then a short spin). Latency is charged from the due time, so
//!   a stall in the system is charged to every record queued behind it.
//!   Two things are sampled, both on the first record of each quantum —
//!   the only record the generator ever waits on: how late the *generator*
//!   released it (`now − release`, its own lag: an overslept timer, a
//!   descheduled thread; sampled only when it did wait), and how far behind
//!   schedule the *system* came to pull it (`pull − due`, the backlog).
//!
//! Optional bounded disorder scrambles every block of `disorder_block`
//! records (a seeded rotation, then reversal), so no record moves more than
//! `disorder_block − 1` places; a `ReorderBuffer` downstream restores order.
//!
//! The generator sits *innermost*, so that when it stops (its work limit)
//! everything downstream drains and record conservation can be checked
//! exactly.

use std::time::{Duration, Instant};

use diststream_engine::{RecordSource, RepeatSource};
use diststream_types::Record;

/// Saturated: one emission stamp per this many records, which keeps the
/// generator's own clock reads to ~2 ns per record.
pub const STAMP_EVERY: u64 = 16;

/// Open loop at full size: records are released in quanta of this many,
/// when the quantum's last record is due (~1 ms at 60 k rec/s) — a receiver
/// that delivers in small bursts. Between quanta the generator *sleeps*, as
/// a blocking receive would: a generator that spin-waits on the driver's
/// thread keeps a core busy that the system under test needs, and on a
/// 2-core host that alone added 60 % to the measured service time.
pub const RELEASE_QUANTUM: u64 = 64;

/// The last stretch before a release is spun, for precision.
const SPIN_TAIL: Duration = Duration::from_micros(150);

/// How records are released.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Closed loop: release on demand.
    Saturated,
    /// Open loop at `rps` records per second.
    Fixed {
        /// Records per wall second.
        rps: f64,
        /// Records per release quantum (at least 1).
        quantum: u64,
    },
}

/// The generator. See the module docs.
#[derive(Debug)]
pub struct LoadGen {
    inner: RepeatSource,
    pace: Pace,
    disorder_block: usize,
    /// State of the disorder pattern's random stream.
    disorder_state: u64,
    /// Current disorder block; `pop` walks it backwards.
    block: Vec<Record>,
    /// Leading records (model initialization) released without pacing.
    free_records: u64,
    max_records: u64,
    /// Fault injection: every sleep before a release lasts this much longer.
    oversleep: Duration,
    emitted: u64,
    done: bool,
    /// Open loop: when the first paced record was asked for.
    t0: Option<Instant>,
    /// Saturated: `(record id, emission time)` of every
    /// [`STAMP_EVERY`]-th record emitted. A replayed record's id is its
    /// position in timestamp order, whatever the disorder did to it.
    stamps: Vec<(u64, Instant)>,
    /// Open loop: how late each record the generator waited on was
    /// released, seconds.
    lags: Vec<f64>,
    /// Open loop: `pull − due` of every quantum's first record, seconds
    /// (0 when pulled early).
    behind: Vec<f64>,
}

impl LoadGen {
    /// A generator over `inner`, emitting at most `max_records` records.
    /// The first `free_records` are never paced.
    pub fn new(
        inner: RepeatSource,
        pace: Pace,
        disorder_block: usize,
        disorder_seed: u64,
        free_records: usize,
        max_records: u64,
    ) -> Self {
        LoadGen {
            inner,
            pace,
            disorder_block: disorder_block.max(1),
            disorder_state: disorder_seed,
            block: Vec::with_capacity(disorder_block.max(1)),
            free_records: free_records as u64,
            max_records,
            oversleep: Duration::ZERO,
            emitted: 0,
            done: false,
            t0: None,
            stamps: Vec::new(),
            lags: Vec::new(),
            behind: Vec::new(),
        }
    }

    /// Makes every sleep before a release last `extra` longer: a generator
    /// that cannot keep its schedule, for testing the validity guard.
    pub fn inject_oversleep(&mut self, extra: Duration) {
        self.oversleep = extra;
    }

    /// Records emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Emission stamps (saturated mode): `(record id, when)`, one per
    /// [`STAMP_EVERY`] records.
    pub fn stamps(&self) -> &[(u64, Instant)] {
        &self.stamps
    }

    /// Generator lag in seconds (open loop): how late each record the
    /// generator was holding back got released.
    pub fn lags(&self) -> &[f64] {
        &self.lags
    }

    /// `pull − due` in seconds of every quantum's first record (open
    /// loop): how far behind schedule the system asked for records.
    pub fn behind(&self) -> &[f64] {
        &self.behind
    }

    /// Due time of the record emitted `index`-th (0-based, counting the
    /// free records), or `None` before the first paced pull or in
    /// saturated mode.
    pub fn due_time(&self, index: u64) -> Option<Instant> {
        match (self.pace, self.t0) {
            (Pace::Fixed { rps, .. }, Some(t0)) => Some(due(t0, index, self.free_records, rps)),
            _ => None,
        }
    }

    fn refill(&mut self) -> bool {
        if self.emitted >= self.max_records {
            return false;
        }
        let want = (self.disorder_block as u64).min(self.max_records - self.emitted);
        for _ in 0..want {
            match self.inner.next_record() {
                Some(r) => self.block.push(r),
                None => break,
            }
        }
        if self.block.len() > 1 {
            let turn = crate::workloads::splitmix64(&mut self.disorder_state);
            let len = self.block.len();
            self.block.rotate_left((turn % len as u64) as usize);
        }
        !self.block.is_empty()
    }
}

fn due(t0: Instant, index: u64, free: u64, rps: f64) -> Instant {
    t0 + Duration::from_secs_f64(index.saturating_sub(free) as f64 / rps)
}

impl RecordSource for LoadGen {
    fn next_record(&mut self) -> Option<Record> {
        if self.done {
            return None;
        }
        if self.block.is_empty() && !self.refill() {
            self.done = true;
            return None;
        }
        let record = self.block.pop()?;
        let index = self.emitted;
        self.emitted += 1;
        match self.pace {
            Pace::Saturated => {
                if index % STAMP_EVERY == 0 {
                    self.stamps.push((record.id, Instant::now()));
                }
            }
            Pace::Fixed { rps, quantum } => {
                if index >= self.free_records {
                    let pulled = Instant::now();
                    let t0 = *self.t0.get_or_insert(pulled);
                    // Released with the rest of its quantum, when the
                    // quantum's last record is due. Only a quantum's first
                    // record can find that moment still ahead.
                    let quantum = quantum.max(1);
                    let place = (index - self.free_records) % quantum;
                    let release = due(t0, index - place + quantum - 1, self.free_records, rps);
                    let mut now = pulled;
                    if let Some(far) = release
                        .checked_duration_since(now)
                        .and_then(|d| d.checked_sub(SPIN_TAIL))
                    {
                        std::thread::sleep(far + self.oversleep);
                        now = Instant::now();
                    }
                    while now < release {
                        std::hint::spin_loop();
                        now = Instant::now();
                    }
                    if place == 0 {
                        if pulled < release {
                            self.lags
                                .push(now.saturating_duration_since(release).as_secs_f64());
                        }
                        let due_at = due(t0, index, self.free_records, rps);
                        self.behind
                            .push(pulled.saturating_duration_since(due_at).as_secs_f64());
                    }
                }
            }
        }
        Some(record)
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint().map(|n| n + self.block.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diststream_types::{Point, Timestamp};

    fn base(n: u64) -> Vec<Record> {
        (0..n)
            .map(|i| Record::new(i, Point::zeros(1), Timestamp::from_secs(i as f64)))
            .collect()
    }

    #[test]
    fn disorder_is_seeded_and_bounded_by_the_block() {
        let ids = |seed: u64| -> Vec<u64> {
            let mut gen = LoadGen::new(
                RepeatSource::new(base(64), 1),
                Pace::Saturated,
                8,
                seed,
                0,
                u64::MAX,
            );
            std::iter::from_fn(|| gen.next_record())
                .map(|r| r.id)
                .collect()
        };
        let a = ids(1);
        assert_eq!(a, ids(1), "same seed, same arrival order");
        assert_ne!(a, ids(2), "another seed, another arrival order");
        assert!(
            a.windows(2).any(|w| w[0] > w[1]),
            "the stream is disordered"
        );
        for (emitted, id) in a.iter().enumerate() {
            assert_eq!(emitted / 8, *id as usize / 8, "records stay in their block");
        }
    }

    #[test]
    fn work_limit_ends_the_stream() {
        let mut gen = LoadGen::new(
            RepeatSource::new(base(10), 100),
            Pace::Saturated,
            1,
            0,
            0,
            25,
        );
        assert_eq!(std::iter::from_fn(|| gen.next_record()).count(), 25);
        assert_eq!(gen.emitted(), 25);
        assert!(gen.next_record().is_none());
    }
}
