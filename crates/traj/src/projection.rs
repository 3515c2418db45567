//! The archive's point → candidate-segment column.
//!
//! Reference search hands whole runs of archived points to local inference,
//! which needs, for every point, the road segments within the candidate
//! radius `eps` (Definition 5). The paper preprocesses the archive once;
//! here each trip is projected once, when an engine is built over the
//! archive (or, for a live archive, when a trip first appears in a served
//! epoch), into a compressed-sparse-row [`TripProjection`].
//!
//! Rows live in one shared cell per trip, so archive clones — published
//! epochs, shard archives — share them instead of projecting again. A cell
//! is filled at most once; the [`ProjectionKey`] it records says for which
//! network and radius, and readers asking for another key fall back to
//! projecting the points themselves.

use crate::types::{GpsPoint, Trajectory};
use hris_roadnet::{RoadNetwork, SegmentId};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// The network and candidate radius a projection was computed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectionKey {
    network: u64,
    eps_bits: u64,
}

impl ProjectionKey {
    /// The key of projections onto `net` with radius `eps` metres.
    #[must_use]
    pub fn new(net: &RoadNetwork, eps: f64) -> Self {
        ProjectionKey {
            network: net.instance_id(),
            eps_bits: eps.to_bits(),
        }
    }
}

/// One trip's rows: for point `k`, the segments of
/// `net.candidate_edges(points[k], eps)` are `row(k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TripProjection {
    key: ProjectionKey,
    /// `offsets[k]..offsets[k + 1]` indexes `segs` for point `k`.
    offsets: Box<[u32]>,
    segs: Box<[SegmentId]>,
}

impl TripProjection {
    /// Projects every point of a trip onto `net` within `eps` metres.
    ///
    /// # Panics
    /// Panics if the trip has 2³² or more candidate segments in total.
    #[must_use]
    pub fn project(net: &RoadNetwork, eps: f64, points: &[GpsPoint]) -> Self {
        let mut offsets = Vec::with_capacity(points.len() + 1);
        let mut segs = Vec::new();
        offsets.push(0);
        for p in points {
            segs.extend(net.candidate_edges(p.pos, eps).iter().map(|c| c.segment));
            offsets.push(u32::try_from(segs.len()).expect("trip candidate count fits u32"));
        }
        TripProjection {
            key: ProjectionKey::new(net, eps),
            offsets: offsets.into_boxed_slice(),
            segs: segs.into_boxed_slice(),
        }
    }

    /// What this projection was computed for.
    #[must_use]
    pub fn key(&self) -> ProjectionKey {
        self.key
    }

    /// Number of projected points.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Candidate segments of point `k`.
    #[must_use]
    pub fn row(&self, k: usize) -> &[SegmentId] {
        self.rows(k..k + 1)
    }

    /// Candidate segments of the points in `points`, concatenated in point
    /// order.
    #[must_use]
    pub fn rows(&self, points: Range<usize>) -> &[SegmentId] {
        &self.segs[self.offsets[points.start] as usize..self.offsets[points.end] as usize]
    }

    /// Heap bytes held (offsets plus segments).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.segs.len() * std::mem::size_of::<SegmentId>()
    }
}

/// A trip's shared projection slot: empty until an engine projects it.
pub(crate) type ProjectionCell = Arc<OnceLock<TripProjection>>;

/// A run of consecutive points of one archived trip together with that
/// trip's projection cell — what reference search hands local inference so
/// it can gather rows instead of projecting points.
#[derive(Debug, Clone)]
pub struct ProjectedRun {
    cell: ProjectionCell,
    points: Range<u32>,
}

impl ProjectedRun {
    pub(crate) fn new(cell: &ProjectionCell, points: Range<usize>) -> Self {
        let bound = |i: usize| u32::try_from(i).expect("trip point index fits u32");
        ProjectedRun {
            cell: Arc::clone(cell),
            points: bound(points.start)..bound(points.end),
        }
    }

    /// Number of points in the run.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` for a run of no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The run's candidate segments, concatenated in point order, when the
    /// trip has been projected for `key`; `None` otherwise.
    #[must_use]
    pub fn segments(&self, key: ProjectionKey) -> Option<&[SegmentId]> {
        let proj = self.cell.get().filter(|p| p.key == key)?;
        Some(proj.rows(self.points.start as usize..self.points.end as usize))
    }
}

/// Size of an archive's projection column.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProjectionStats {
    /// Trips whose rows are filled.
    pub rows: usize,
    /// Points covered by the filled rows.
    pub points: usize,
    /// Heap bytes of the filled rows, per-trip cell overhead included.
    pub bytes: usize,
}

/// Per-trip heap overhead of a cell: the `Arc` allocation (two counters and
/// the `OnceLock`).
pub(crate) const CELL_BYTES: usize =
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<OnceLock<TripProjection>>();

/// Below this many unprojected points, trips are projected on the calling
/// thread: spawning workers would cost more than it saves.
const PARALLEL_MIN_POINTS: usize = 8192;

/// Fills every empty cell of `trips` with its projection for `(net, eps)`,
/// in parallel when there is enough work. Returns the number of points this
/// call projected (cells filled concurrently by another caller, or already
/// filled, do not count).
pub(crate) fn fill(
    trips: &[Trajectory],
    cells: &[ProjectionCell],
    net: &RoadNetwork,
    eps: f64,
) -> usize {
    let fill_range = |trips: &[Trajectory], cells: &[ProjectionCell]| {
        let mut projected = 0;
        for (trip, cell) in trips.iter().zip(cells) {
            cell.get_or_init(|| {
                projected += trip.points.len();
                TripProjection::project(net, eps, &trip.points)
            });
        }
        projected
    };
    let pending: usize = trips
        .iter()
        .zip(cells)
        .filter(|(_, c)| c.get().is_none())
        .map(|(t, _)| t.points.len())
        .sum();
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    if pending < PARALLEL_MIN_POINTS || workers < 2 {
        return fill_range(trips, cells);
    }
    let chunk = trips.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = trips
            .chunks(chunk)
            .zip(cells.chunks(chunk))
            .map(|(t, c)| scope.spawn(move || fill_range(t, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("projection worker panicked"))
            .sum()
    })
}
