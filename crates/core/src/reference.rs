//! Reference-trajectory search (Section III-A, Definitions 6 and 7).
//!
//! For a consecutive query point pair `⟨q_i, q_{i+1}⟩`:
//!
//! - A **simple reference** is a historical trajectory whose nearest points
//!   to `q_i` and `q_{i+1}` both fall within radius `φ`, and whose
//!   in-between sub-trajectory is *speed-feasible*: every point `p` obeys
//!   `d(p, q_i) + d(p, q_{i+1}) ≤ Δt · V_max` (the query object could have
//!   detoured through `p` in the available time).
//! - A **spliced reference** stitches a trajectory coming from `q_i` with a
//!   different one heading into `q_{i+1}`, joined at a *splicing pair* of
//!   points at most `e` apart, and must satisfy the same conditions.
//!
//! Search uses two `φ`-range queries on the archive's R-tree, a hash join by
//! trajectory id for simple references, and a uniform-grid spatial join for
//! splicing pairs. Each reference carries the archive runs its points came
//! from, so local inference reads the points' candidate segments from the
//! archive's projection column instead of projecting them again.

use crate::scratch::{Lease, SparseTable};
use hris_geo::Point;
use hris_roadnet::FxHashMap;
use hris_traj::{GpsPoint, ProjectedRun, TrajId, TrajectoryArchive};
use std::cell::Cell;
use std::ops::Range;

thread_local! {
    /// Per-trajectory `(dist², point index)` argmin slots of
    /// [`search_references`].
    static NEAREST: Cell<SparseTable<(f64, u32)>> = Cell::default();
}

/// How a reference was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefKind {
    /// Natively existing in the archive (Definition 6).
    Simple,
    /// Stitched from two trajectories (Definition 7).
    Spliced,
}

/// One reference trajectory for a query pair.
#[derive(Debug, Clone)]
pub struct RefTrajectory {
    /// Simple or spliced.
    pub kind: RefKind,
    /// The underlying historical trajectory id(s): one for simple
    /// references, two for spliced. Used by the transition-confidence
    /// function, which intersects reference sets *across* query pairs.
    pub sources: Vec<TrajId>,
    /// The reference's points between (approximately) `q_i` and `q_{i+1}`,
    /// in travel order.
    pub points: Vec<GpsPoint>,
    /// The archive runs `points` was copied from, in order (one for a
    /// simple reference, two for a spliced one), each with its trip's
    /// projection. Empty for references not drawn from an archive; their
    /// points are projected directly.
    pub runs: Vec<ProjectedRun>,
}

/// All references of one query pair `⟨q_i, q_{i+1}⟩` (the paper's `C_i`).
#[derive(Debug, Clone, Default)]
pub struct ReferenceSet {
    /// The references; index in this vector is the reference's identity
    /// within the pair.
    pub refs: Vec<RefTrajectory>,
}

impl ReferenceSet {
    /// Number of references.
    #[must_use]
    pub fn len(&self) -> usize {
        self.refs.len()
    }

    /// `true` when no reference was found.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Total number of reference points (the paper's `P_i`).
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.refs.iter().map(|r| r.points.len()).sum()
    }

    /// Reference-point density in points per km² over the minimum bounding
    /// box of `P_i` (the hybrid switch's `ρ`). Returns `f64::INFINITY` for a
    /// degenerate (zero-area) box with points present, 0 when empty.
    #[must_use]
    pub fn density_per_km2(&self) -> f64 {
        let n = self.num_points();
        if n == 0 {
            return 0.0;
        }
        let bbox = hris_geo::BBox::covering(
            self.refs
                .iter()
                .flat_map(|r| r.points.iter().map(|p| p.pos)),
        );
        let km2 = hris_geo::area_km2(&bbox);
        if km2 <= f64::EPSILON {
            f64::INFINITY
        } else {
            n as f64 / km2
        }
    }
}

/// Knobs of the reference search.
#[derive(Debug, Clone, Copy)]
pub struct RefSearchConfig {
    /// Search radius `φ`, metres.
    pub phi: f64,
    /// Splicing distance threshold `e`, metres (0 disables splicing).
    pub splice_eps: f64,
    /// Splicing only runs when fewer simple references than this were found
    /// — the paper introduces spliced references for "an area with sparse
    /// historical data"; cross-joining half-trajectories in dense areas
    /// adds thousands of near-duplicate references for no information gain.
    pub splice_when_simple_below: usize,
    /// Keep at most this many references per pair, preferring the ones
    /// whose nearest points sit closest to `q_i`/`q_{i+1}` (the paper's
    /// Figure 9 observation: beyond a point, extra references are
    /// "irrelevant trajectories which are less useful").
    pub max_refs: usize,
    /// Time-of-day filter `(query_tod_s, tolerance_s)`: only references
    /// observed within `tolerance_s` (circular, over a 24 h day) of the
    /// query's time-of-day qualify. `None` disables it. Implements the
    /// paper's future-work extension "incorporate more information into the
    /// route inference system, such as the time" — rush-hour queries should
    /// be explained by rush-hour traffic.
    pub temporal: Option<(f64, f64)>,
}

impl RefSearchConfig {
    /// Configuration with radius `phi` and splice threshold `splice_eps`,
    /// default gating/caps.
    #[must_use]
    pub fn new(phi: f64, splice_eps: f64) -> Self {
        RefSearchConfig {
            phi,
            splice_eps,
            splice_when_simple_below: 64,
            max_refs: 512,
            temporal: None,
        }
    }
}

/// Circular time-of-day distance in seconds over a 24 h period.
#[must_use]
pub fn tod_distance_s(a: f64, b: f64) -> f64 {
    const DAY: f64 = 86_400.0;
    let d = (a.rem_euclid(DAY) - b.rem_euclid(DAY)).abs();
    d.min(DAY - d)
}

/// Searches the references of one query pair.
///
/// * `dt` — the time available to travel the pair (`q_{i+1}.t − q_i.t`), s.
/// * `v_max` — the network's maximum speed (`V_max`), m/s.
#[must_use]
pub fn search_references(
    archive: &TrajectoryArchive,
    qi: Point,
    qj: Point,
    dt: f64,
    v_max: f64,
    cfg: &RefSearchConfig,
) -> ReferenceSet {
    let phi = cfg.phi;
    let splice_eps = cfg.splice_eps;
    let budget = dt * v_max;
    // Range queries at both endpoints.
    let near_i = archive.points_within(qi, phi);
    let near_j = archive.points_within(qj, phi);

    // Per-trajectory nearest hit to each endpoint, sorted by id. A
    // trajectory's globally nearest point to the endpoint is no farther than
    // any of its φ-hits, hence itself a φ-hit — so the argmin over the hits
    // (ties to the smallest index, as `Trajectory::nearest_point` breaks
    // them) IS the global nearest point, without scanning whole
    // trajectories. Trajectory ids are dense archive indices, so the argmin
    // runs over a per-thread slot table indexed by id — no hashing — and
    // only the trajectories hit are sorted and reset.
    let mut slots = Lease::take(&NEAREST, archive.trajectories().len());
    let nearest_per_traj =
        |slots: &mut SparseTable<(f64, u32)>, hits: &[&hris_traj::ArchivePoint], q: Point| {
            for p in hits {
                let t = p.traj.index();
                let slot = slots.get(t);
                let d2 = p.pos.dist_sq(q);
                if d2 < slot.0 || (d2 == slot.0 && p.point_idx < slot.1) {
                    slots.set(t, (d2, p.point_idx));
                }
            }
            let mut ids = slots.touched().to_vec();
            ids.sort_unstable();
            let rows = ids
                .into_iter()
                .map(|t| (TrajId(t), slots.get(t as usize).1 as usize))
                .collect();
            slots.reset();
            rows
        };
    let rows_i: Vec<(TrajId, usize)> = nearest_per_traj(&mut slots, &near_i, qi);
    let rows_j: Vec<(TrajId, usize)> = nearest_per_traj(&mut slots, &near_j, qj);
    drop(slots);

    // Trajectories present on both sides (merge walk, ascending-id order),
    // carrying their nearest indices.
    let mut both: Vec<(TrajId, usize, usize)> = Vec::new();
    {
        let (mut a, mut b) = (0usize, 0usize);
        while a < rows_i.len() && b < rows_j.len() {
            match rows_i[a].0.cmp(&rows_j[b].0) {
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => b += 1,
                std::cmp::Ordering::Equal => {
                    both.push((rows_i[a].0, rows_i[a].1, rows_j[b].1));
                    a += 1;
                    b += 1;
                }
            }
        }
    }

    // References are recorded as archive runs and copied out only once the
    // per-pair cap has picked the ones kept: a sparse pair can stitch
    // thousands of candidates of which at most `max_refs` survive.
    let mut found: Vec<Found> = Vec::new();
    // Relevance key for the per-pair cap: how close the reference's
    // endpoints come to the query points.
    let mut relevance: Vec<f64> = Vec::new();
    // Ids that qualified as simple references; ascending (pushed while
    // walking `both` in order), so membership is a binary search.
    let mut simple_ids: Vec<TrajId> = Vec::new();

    // --- simple references: merge join on trajectory id ------------------
    for &(id, m, n) in &both {
        let traj = archive.trajectory(id);
        let (pm, pn) = (&traj.points[m], &traj.points[n]);
        // Conditions 1–2: global nearest points within φ (guaranteed by the
        // range query; kept as a guard).
        if pm.pos.dist(qi) > phi || pn.pos.dist(qj) > phi {
            continue;
        }
        // The reference must travel in the query's direction.
        if n < m {
            continue;
        }
        // Optional temporal extension: the reference must be observed at a
        // compatible time of day.
        if let Some((tod, tol)) = cfg.temporal {
            if tod_distance_s(pm.t, tod) > tol {
                continue;
            }
        }
        // Condition 3: speed feasibility of every in-between point.
        if speed_feasible(&traj.points[m..=n], qi, qj, budget) {
            simple_ids.push(id);
            relevance.push(pm.pos.dist(qi) + pn.pos.dist(qj));
            found.push(Found::Simple { id, run: m..n + 1 });
        }
    }

    // --- spliced references (sparse areas only) ---------------------------
    if splice_eps > 0.0 && found.len() < cfg.splice_when_simple_below {
        // Side A: trajectories near q_i that did not qualify as simple.
        // For each, the tail from its nearest point to q_i onwards.
        let mut side_a: Vec<(TrajId, usize, usize)> = Vec::new(); // (id, nn_idx, last_usable)
        for &(id, m) in &rows_i {
            if simple_ids.binary_search(&id).is_ok() {
                continue;
            }
            let traj = archive.trajectory(id);
            if traj.points[m].pos.dist(qi) > phi {
                continue;
            }
            side_a.push((id, m, traj.len() - 1));
        }
        // Side B: trajectories near q_{i+1}, prefix up to the nearest point,
        // as (id, nn_idx, feasible_from): from `feasible_from` on, the
        // prefix is speed-feasible through to the nearest point.
        let mut side_b: Vec<(TrajId, usize, usize)> = Vec::new();
        // Grid join: bucket side-B candidate points by `splice_eps` cells.
        let mut grid: FxHashMap<(i64, i64), Vec<GridPoint>> = FxHashMap::default();
        for &(id, n) in &rows_j {
            if simple_ids.binary_search(&id).is_ok() {
                continue;
            }
            let traj = archive.trajectory(id);
            if traj.points[n].pos.dist(qj) > phi {
                continue;
            }
            let bi = side_b.len();
            let mut feasible_from = 0;
            for k in 0..=n {
                let p = traj.points[k].pos;
                // Feasible as `speed_feasible` has it (`<=`, so NaN is not);
                // the ellipse filter below keeps its `> budget` skip form.
                let to_qj = p.dist(qj);
                let detour = p.dist(qi) + to_qj;
                let feasible = detour <= budget;
                if !feasible {
                    feasible_from = k + 1;
                }
                // Only points inside the speed-feasible ellipse can appear
                // in a valid spliced reference.
                if detour > budget {
                    continue;
                }
                grid.entry(cell(p, splice_eps))
                    .or_default()
                    .push(GridPoint {
                        bi,
                        k,
                        pos: p,
                        to_qj,
                    });
            }
            side_b.push((id, n, feasible_from));
        }

        // For each (T_a, T_b) pair keep the best splicing pair: one dense
        // row over side B per side-A trajectory, drained in ascending `bi`
        // so the spliced refs come out in (ai, bi) order.
        let mut row: Vec<Option<(f64, usize, usize)>> = vec![None; side_b.len()];
        let mut touched: Vec<usize> = Vec::new();
        for &(id_a, nn_a, last) in &side_a {
            let traj_a = archive.trajectory(id_a);
            // A stitch starts at T_a's nearest point, so the time-of-day
            // filter rejects all of T_a's stitches or none.
            if let Some((tod, tol)) = cfg.temporal {
                if tod_distance_s(traj_a.points[nn_a].t, tod) > tol {
                    continue;
                }
            }
            // The stitch's A side `nn_a..=ka` is speed-feasible iff
            // `ka < feasible_to`.
            let mut feasible_to = last + 1;
            for ka in nn_a..=last {
                let pa = traj_a.points[ka].pos;
                let da = pa.dist(qi);
                let detour = da + pa.dist(qj);
                let feasible = detour <= budget;
                if !feasible && feasible_to > last {
                    feasible_to = ka;
                }
                if detour > budget {
                    continue;
                }
                let c = cell(pa, splice_eps);
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        let Some(hits) = grid.get(&(c.0 + dx, c.1 + dy)) else {
                            continue;
                        };
                        for b in hits {
                            if side_b[b.bi].0 == id_a {
                                continue;
                            }
                            if pa.dist(b.pos) > splice_eps {
                                continue;
                            }
                            // Paper: among multiple splicing pairs of the
                            // same (T_a, T_b), keep the one minimising
                            // d(p_a, q_i) + d(p_b, q_{i+1}).
                            let val = da + b.to_qj;
                            let entry = row[b.bi].get_or_insert_with(|| {
                                touched.push(b.bi);
                                (f64::INFINITY, 0, 0)
                            });
                            if val < entry.0 {
                                *entry = (val, ka, b.k);
                            }
                        }
                    }
                }
            }

            touched.sort_unstable();
            for bi in touched.drain(..) {
                let (_, ka, kb) = row[bi].take().expect("touched entries are set");
                let (id_b, nn_b, feasible_from) = side_b[bi];
                // Definition 6's speed condition on the stitched run, from
                // the bounds of its two halves.
                if ka >= feasible_to || kb < feasible_from {
                    continue;
                }
                let last_b = archive.trajectory(id_b).points[nn_b].pos;
                relevance.push(traj_a.points[nn_a].pos.dist(qi) + last_b.dist(qj));
                found.push(Found::Spliced {
                    a: (id_a, nn_a..ka + 1),
                    b: (id_b, kb..nn_b + 1),
                });
            }
        }
    }

    // --- per-pair cap: keep the most relevant references -----------------
    if found.len() > cfg.max_refs {
        let mut order: Vec<usize> = (0..found.len()).collect();
        order.sort_by(|&a, &b| relevance[a].total_cmp(&relevance[b]));
        order.truncate(cfg.max_refs);
        order.sort_unstable(); // preserve original relative order
        found = order.into_iter().map(|i| found[i].clone()).collect();
    }

    ReferenceSet {
        refs: found.into_iter().map(|f| f.copy_out(archive)).collect(),
    }
}

/// A side-B point in the splice grid: its trip's position in side B, its
/// index in the trip, its position and its distance to `q_{i+1}`.
struct GridPoint {
    bi: usize,
    k: usize,
    pos: Point,
    to_qj: f64,
}

/// A reference as the archive runs it is made of, before its points are
/// copied.
#[derive(Clone)]
enum Found {
    Simple {
        id: TrajId,
        run: Range<usize>,
    },
    Spliced {
        a: (TrajId, Range<usize>),
        b: (TrajId, Range<usize>),
    },
}

impl Found {
    fn copy_out(self, archive: &TrajectoryArchive) -> RefTrajectory {
        match self {
            Found::Simple { id, run } => RefTrajectory {
                kind: RefKind::Simple,
                sources: vec![id],
                points: archive.trajectory(id).points[run.clone()].to_vec(),
                runs: vec![archive.projected_run(id, run)],
            },
            Found::Spliced {
                a: (id_a, run_a),
                b: (id_b, run_b),
            } => {
                let mut points = archive.trajectory(id_a).points[run_a.clone()].to_vec();
                points.extend_from_slice(&archive.trajectory(id_b).points[run_b.clone()]);
                RefTrajectory {
                    kind: RefKind::Spliced,
                    sources: vec![id_a, id_b],
                    points,
                    runs: vec![
                        archive.projected_run(id_a, run_a),
                        archive.projected_run(id_b, run_b),
                    ],
                }
            }
        }
    }
}

/// Condition 3 of Definition 6 over a point run.
fn speed_feasible(points: &[GpsPoint], qi: Point, qj: Point, budget: f64) -> bool {
    points
        .iter()
        .all(|p| p.pos.dist(qi) + p.pos.dist(qj) <= budget)
}

fn cell(p: Point, size: f64) -> (i64, i64) {
    ((p.x / size).floor() as i64, (p.y / size).floor() as i64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hris_traj::Trajectory;

    /// Archive with trajectories along the x-axis corridor.
    fn archive() -> TrajectoryArchive {
        let line = |y: f64, xs: &[f64], t0: f64| {
            Trajectory::new(
                TrajId(0),
                xs.iter()
                    .enumerate()
                    .map(|(k, &x)| GpsPoint::new(Point::new(x, y), t0 + k as f64 * 30.0))
                    .collect(),
            )
        };
        TrajectoryArchive::new(vec![
            // T0: full corridor pass, close to the axis → simple reference.
            line(20.0, &[0.0, 500.0, 1000.0, 1500.0, 2000.0], 0.0),
            // T1: only the first half (near q_i, not q_j).
            line(-30.0, &[0.0, 400.0, 900.0], 100.0),
            // T2: only the second half (near q_j, not q_i).
            line(40.0, &[1100.0, 1600.0, 2000.0], 200.0),
            // T3: far away parallel corridor.
            line(5_000.0, &[0.0, 1000.0, 2000.0], 0.0),
            // T4: passes both endpoints but detours wildly in between.
            Trajectory::new(
                TrajId(0),
                vec![
                    GpsPoint::new(Point::new(0.0, 0.0), 0.0),
                    GpsPoint::new(Point::new(1000.0, 9_000.0), 60.0),
                    GpsPoint::new(Point::new(2000.0, 0.0), 120.0),
                ],
            ),
        ])
    }

    const QI: Point = Point::new(0.0, 0.0);
    const QJ: Point = Point::new(2000.0, 0.0);

    #[test]
    fn finds_simple_reference() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert_eq!(refs.len(), 1);
        assert_eq!(refs.refs[0].kind, RefKind::Simple);
        assert_eq!(refs.refs[0].sources, vec![TrajId(0)]);
        assert_eq!(refs.refs[0].points.len(), 5);
    }

    #[test]
    fn speed_infeasible_reference_rejected() {
        // T4 passes both endpoints, but its middle point violates
        // condition 3 for any realistic budget.
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert!(refs.refs.iter().all(|r| r.sources != vec![TrajId(4)]));
        // With an enormous time budget T4 becomes feasible.
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            10_000.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert!(refs.refs.iter().any(|r| r.sources == vec![TrajId(4)]));
    }

    #[test]
    fn faraway_trajectory_ignored() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            7200.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 300.0)
            },
        );
        for r in &refs.refs {
            assert!(!r.sources.contains(&TrajId(3)));
        }
    }

    #[test]
    fn splices_half_trajectories() {
        // T1 ends near x = 900, T2 starts near x = 1100: they splice with
        // e ≥ ~213 m (dy = 70).
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            300.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 250.0)
            },
        );
        let spliced: Vec<_> = refs
            .refs
            .iter()
            .filter(|r| r.kind == RefKind::Spliced)
            .collect();
        assert_eq!(spliced.len(), 1);
        assert_eq!(spliced[0].sources, vec![TrajId(1), TrajId(2)]);
        // Points run from near q_i to near q_j in order.
        let pts = &spliced[0].points;
        assert!(pts.first().unwrap().pos.dist(QI) <= 100.0);
        assert!(pts.last().unwrap().pos.dist(QJ) <= 100.0);
    }

    #[test]
    fn splice_disabled_with_zero_eps() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            300.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert!(refs.refs.iter().all(|r| r.kind == RefKind::Simple));
    }

    #[test]
    fn too_small_splice_eps_finds_nothing() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            300.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 50.0)
            },
        );
        assert!(refs.refs.iter().all(|r| r.kind == RefKind::Simple));
    }

    #[test]
    fn empty_archive_yields_empty_set() {
        let refs = search_references(
            &TrajectoryArchive::empty(),
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig::new(500.0, 150.0),
        );
        assert!(refs.is_empty());
        assert_eq!(refs.density_per_km2(), 0.0);
    }

    #[test]
    fn direction_matters() {
        // A trajectory travelling q_j → q_i must not count.
        let rev = Trajectory::new(
            TrajId(0),
            vec![
                GpsPoint::new(Point::new(2000.0, 10.0), 0.0),
                GpsPoint::new(Point::new(1000.0, 10.0), 60.0),
                GpsPoint::new(Point::new(0.0, 10.0), 120.0),
            ],
        );
        let a = TrajectoryArchive::new(vec![rev]);
        let refs = search_references(
            &a,
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        assert!(refs.is_empty());
    }

    #[test]
    fn density_computation() {
        let refs = search_references(
            &archive(),
            QI,
            QJ,
            180.0,
            25.0,
            &RefSearchConfig {
                splice_when_simple_below: usize::MAX,
                ..RefSearchConfig::new(100.0, 0.0)
            },
        );
        // 5 points over a 2000 × ~0 m box → degenerate in y but positive in
        // practice thanks to GPS spread... here y is constant (20), so the
        // MBB is a line → infinite density.
        assert!(refs.density_per_km2().is_infinite());
    }
}
