//! The open-loop generator: due times, and latency charged from them.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use diststream_benchmark::harness::open_loop_verdict;
use diststream_benchmark::loadgen::{LoadGen, Pace, RELEASE_QUANTUM};
use diststream_engine::{RecordSource, RepeatSource};
use diststream_types::{Point, Record, Timestamp};

const RPS: f64 = 64_000.0;

/// These tests assert on wall-clock timing; run beside each other on a
/// small host they would preempt one another's spin-waits.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn paced(free: usize, max: u64) -> LoadGen {
    let base: Vec<Record> = (0..1000)
        .map(|i| Record::new(i, Point::zeros(1), Timestamp::from_secs(i as f64)))
        .collect();
    LoadGen::new(
        RepeatSource::new(base, 100),
        Pace::Fixed {
            rps: RPS,
            quantum: RELEASE_QUANTUM,
        },
        1,
        0,
        free,
        max,
    )
}

#[test]
fn due_times_are_monotone_and_on_schedule() {
    let _alone = alone();
    let mut gen = paced(10, 1000);
    let mut released = Vec::new();
    while gen.next_record().is_some() {
        released.push(Instant::now());
    }
    assert_eq!(released.len(), 1000);
    let due: Vec<Instant> = (0..1000).map(|i| gen.due_time(i).unwrap()).collect();
    // The unpaced prefix is due at t0; from there on, one record per 1/RPS.
    for i in 0..10 {
        assert_eq!(due[i], due[10]);
    }
    for i in 11..1000 {
        assert!(due[i] > due[i - 1], "due times must increase");
    }
    let span = due[999] - due[10];
    let expect = Duration::from_secs_f64(989.0 / RPS);
    assert!(
        span.abs_diff(expect) < Duration::from_micros(5),
        "{span:?} vs {expect:?}"
    );
    // Nothing is released before it is due.
    for i in 10..1000 {
        assert!(released[i] >= due[i], "record {i} released early");
    }
}

#[test]
fn a_stall_is_charged_to_every_record_queued_behind_it() {
    let _alone = alone();
    let before = 10 * RELEASE_QUANTUM as usize; // 10 ms of stream
    let stall = Duration::from_millis(50);
    let mut gen = paced(0, 6000);
    let mut pulls = Vec::new(); // (asked, answered) per record
    let mut stall_window = None;
    loop {
        if pulls.len() == before {
            let start = Instant::now();
            std::thread::sleep(stall);
            stall_window = Some((start, Instant::now()));
        }
        let asked = Instant::now();
        if gen.next_record().is_none() {
            break;
        }
        pulls.push((asked, Instant::now()));
    }
    let (stall_start, stall_end) = stall_window.unwrap();
    let mut queued = 0;
    for (i, (asked, answered)) in pulls.iter().enumerate().skip(before) {
        let due = gen.due_time(i as u64).unwrap();
        if due < stall_start || due > stall_end {
            continue;
        }
        queued += 1;
        // Charged from the due time, the record carries the rest of the
        // stall; charged from the pull, the stall would vanish.
        let from_due = *answered - due;
        let from_pull = *answered - *asked;
        assert!(from_due >= stall_end - due, "record {i}: {from_due:?}");
        assert!(
            from_pull < Duration::from_millis(5),
            "record {i}: {from_pull:?}"
        );
    }
    // The stall covered ~50 ms of schedule: ~3200 records queued behind it.
    assert!(
        queued > 2500,
        "only {queued} records were due during the stall"
    );
    // The first of them waited (nearly) the whole stall.
    let first = (pulls[before].1 - gen.due_time(before as u64).unwrap()).as_millis();
    assert!(first >= 45, "first queued record waited {first} ms");
    // The system fell behind schedule by about the stall, and the
    // generator itself was never the late one.
    let worst_behind = gen.behind().iter().copied().fold(0.0, f64::max);
    assert!(worst_behind > 0.040, "backlog {worst_behind}");
    let worst_lag = gen.lags().iter().copied().fold(0.0, f64::max);
    assert!(worst_lag < 0.005, "generator lag {worst_lag}");
}

#[test]
fn lag_is_sampled_on_the_records_that_waited_and_trips_the_guard() {
    let _alone = alone();
    // 2 560 records in 40 quanta of 1 ms; a "window" of 16 quanta.
    let (quanta, per_window, window_ms) = (40, 16, 16.0);
    let run = |oversleep: Duration| {
        let mut gen = paced(7, 7 + quanta * RELEASE_QUANTUM);
        gen.inject_oversleep(oversleep);
        while gen.next_record().is_some() {}
        assert_eq!(
            gen.behind().len() as u64,
            quanta,
            "one pull sample per quantum"
        );
        let verdict = open_loop_verdict(gen.lags(), gen.behind(), window_ms, per_window);
        (gen.lags().len() as u64, verdict)
    };

    // On schedule the consumer here is (almost) never late, so the
    // generator waits on every quantum's first record and samples its lag
    // there — however the unpaced prefix is aligned.
    let (waits, on_time) = run(Duration::ZERO);
    assert!(waits > quanta / 2, "{waits} waits");
    assert!(on_time.lag_p95_ms < 5.0, "{on_time:?}");

    // A generator that oversleeps every wait by 5 ms (limit: 10 % of the
    // window, 1.6 ms) is caught: only real waits are in the sample, so
    // the quanta it releases late without waiting cannot dilute the p95.
    let (waits, late) = run(Duration::from_millis(5));
    assert!(waits >= 5 && waits < quanta, "{waits} waits");
    assert!(late.lag_p95_ms > 4.0, "{late:?}");
    let why = late.invalid.expect("an oversleeping generator is invalid");
    assert!(why.starts_with("INVALID open-loop run: generator lag p95"));
}
