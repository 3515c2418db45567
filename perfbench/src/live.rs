//! The `live` workload's open-loop writer: archive trips are appended on a
//! fixed schedule and epochs are published on a fixed cadence, whatever the
//! readers are doing.

use hris_traj::{ArchiveWriter, Trajectory};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Trips appended per second.
pub const TRIPS_PER_S: f64 = 100.0;

/// Interval between scheduled epochs.
pub const EPOCH_EVERY: Duration = Duration::from_millis(250);

/// What the writer did and how late it did it.
#[derive(Debug, Default, Clone)]
pub struct IngestRun {
    /// Seconds spent in `append` during each epoch interval.
    pub append_s: Vec<f64>,
    /// Seconds each `publish` call took.
    pub publish_s: Vec<f64>,
    /// Seconds each epoch's publish started after it was due.
    pub late_s: Vec<f64>,
    /// Seconds from each epoch's due instant until readers could see it.
    pub freshness_s: Vec<f64>,
    /// Trips appended.
    pub trips_appended: usize,
    /// Trips evicted by the sliding window.
    pub trips_evicted: usize,
    /// Epochs published.
    pub epochs: usize,
    /// Every publish produced the next epoch number.
    pub epochs_monotone: bool,
    /// Every published snapshot held exactly `window` trajectories.
    pub window_held: bool,
}

/// Replays `stream` (cyclically) into `writer` until `stop` is raised,
/// publishing one epoch per [`EPOCH_EVERY`]. Appends and publishes happen at
/// their scheduled instants; a late writer is recorded, not rescheduled.
///
/// # Panics
/// Panics when `stream` is empty.
pub fn run_writer(
    writer: &mut ArchiveWriter,
    stream: &[Trajectory],
    window: usize,
    stop: &AtomicBool,
) -> IngestRun {
    assert!(!stream.is_empty(), "the live writer needs trips to replay");
    let trip_every = Duration::from_secs_f64(1.0 / TRIPS_PER_S);
    let before = writer.report().clone();
    let mut run = IngestRun {
        epochs_monotone: true,
        window_held: true,
        ..IngestRun::default()
    };
    let start = Instant::now();
    let mut trips = 0u32;
    let mut epochs = 1u32;
    let mut append_s = 0.0;
    while !stop.load(Ordering::SeqCst) {
        let trip_due = start + trip_every * trips;
        let epoch_due = start + EPOCH_EVERY * epochs;
        let due = trip_due.min(epoch_due);
        let now = Instant::now();
        if now < due {
            std::thread::sleep((due - now).min(Duration::from_millis(20)));
            continue;
        }
        if epoch_due <= trip_due {
            let t = Instant::now();
            let prev = writer.epoch();
            let snap = writer.publish();
            let done = Instant::now();
            run.late_s.push(t.duration_since(epoch_due).as_secs_f64());
            run.publish_s.push(done.duration_since(t).as_secs_f64());
            run.freshness_s
                .push(done.duration_since(epoch_due).as_secs_f64());
            run.append_s.push(append_s);
            append_s = 0.0;
            run.epochs_monotone &= snap.epoch() == prev + 1;
            run.window_held &= snap.num_trajectories() == window;
            epochs += 1;
        } else {
            let trip = stream[trips as usize % stream.len()].clone();
            let t = Instant::now();
            let _ = writer.append(trip);
            append_s += t.elapsed().as_secs_f64();
            trips += 1;
        }
    }
    let after = writer.report();
    run.trips_appended = after.trajectories_appended - before.trajectories_appended;
    run.trips_evicted = after.trajectories_evicted - before.trajectories_evicted;
    run.epochs = after.epochs_published - before.epochs_published;
    run
}
