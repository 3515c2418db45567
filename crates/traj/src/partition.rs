//! Spatial partitioning of a [`TrajectoryArchive`] into per-shard archives
//! with boundary replication.
//!
//! The sharded engine splits the city into region cells; each shard serves
//! the queries of its cell from a local archive. Reference search (the only
//! archive access of the pipeline) is a φ-radius range query around query
//! points, so a shard can answer **exactly** like the global engine for any
//! query whose φ-inflated bounding box lies inside the shard's replication
//! region, provided the shard archive holds every trajectory that touches
//! that region. The replication rule here guarantees precisely that:
//!
//! * **Ownership** — a trajectory is *owned* by the first region (lowest
//!   shard index) whose core cell contains its first point; a trajectory
//!   outside every core falls to the shard whose core is nearest to its
//!   first point (ties to the lowest index). Ownership is unique and is
//!   what capacity accounting uses.
//! * **Replication** — a trajectory is *stored* on every shard whose
//!   inflated region (`core.inflated(margin_m)`) intersects the
//!   trajectory's bounding box. The owner always stores its trajectory
//!   (its core contains — or is nearest to — the first point).
//!
//! Each shard archive keeps the **relative order** of the parent archive,
//! so shard-local [`TrajId`]s are an order-preserving renumbering of the
//! parent ids; [`ArchivePartition::id_maps`] translates back. Shard
//! archives share the parent's projection cells, so a parent projected
//! before partitioning hands every replica its rows without projecting a
//! point twice.

use crate::archive::TrajectoryArchive;
use crate::types::TrajId;
use hris_geo::BBox;

/// Result of [`partition_archive`]: per-shard archives plus the bookkeeping
/// that ties their trajectories back to the parent archive.
pub struct ArchivePartition {
    /// One archive per region, in region order. Trajectory order inside
    /// each shard preserves the parent archive's order.
    pub shards: Vec<TrajectoryArchive>,
    /// `id_maps[s][local.index()]` is the parent [`TrajId`] of shard `s`'s
    /// local trajectory `local`. Each map is strictly increasing.
    pub id_maps: Vec<Vec<TrajId>>,
    /// `owners[t]` is the owning shard of parent trajectory `t`.
    pub owners: Vec<usize>,
    /// Total stored copies across shards (≥ the parent trajectory count;
    /// `replicas / parent_len` is the replication factor).
    pub replicas: usize,
}

impl ArchivePartition {
    /// Stored-copies-per-trajectory ratio (1.0 = no boundary replication).
    #[must_use]
    pub fn replication_factor(&self) -> f64 {
        self.replicas as f64 / self.owners.len().max(1) as f64
    }
}

/// Partitions `archive` over the region `cores` with a replication margin
/// (see the module docs for the exact ownership and replication rules).
///
/// # Panics
/// Panics when `cores` is empty or `margin_m` is negative/non-finite.
#[must_use]
pub fn partition_archive(
    archive: &TrajectoryArchive,
    cores: &[BBox],
    margin_m: f64,
) -> ArchivePartition {
    assert!(!cores.is_empty(), "partition needs at least one region");
    assert!(
        margin_m.is_finite() && margin_m >= 0.0,
        "replication margin must be a non-negative finite number of metres"
    );
    let regions: Vec<BBox> = cores.iter().map(|c| c.inflated(margin_m)).collect();

    let mut id_maps: Vec<Vec<TrajId>> = vec![Vec::new(); cores.len()];
    let mut owners: Vec<usize> = Vec::with_capacity(archive.num_trajectories());
    let mut replicas = 0usize;

    for traj in archive.trajectories() {
        let owner = match traj.points.first() {
            Some(p) => cores
                .iter()
                .position(|c| c.contains_point(p.pos))
                .unwrap_or_else(|| nearest_core(cores, p.pos)),
            // A pointless trajectory matches no range query anywhere; park
            // it on shard 0 so ownership stays total.
            None => 0,
        };
        owners.push(owner);

        let tb = traj.bbox();
        for (s, region) in regions.iter().enumerate() {
            if s == owner || region.intersects(&tb) {
                id_maps[s].push(traj.id);
                replicas += 1;
            }
        }
    }

    let shards = id_maps.iter().map(|ids| archive.subset(ids)).collect();
    ArchivePartition {
        shards,
        id_maps,
        owners,
        replicas,
    }
}

/// The core nearest to `p` (by box distance), ties to the lowest index.
fn nearest_core(cores: &[BBox], p: hris_geo::Point) -> usize {
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, c) in cores.iter().enumerate() {
        let d = c.min_dist(p);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{GpsPoint, Trajectory};
    use hris_geo::Point;

    fn traj(id: u32, pts: &[(f64, f64)]) -> Trajectory {
        Trajectory::new(
            TrajId(id),
            pts.iter()
                .enumerate()
                .map(|(k, &(x, y))| GpsPoint::new(Point::new(x, y), k as f64 * 30.0))
                .collect(),
        )
    }

    /// Two side-by-side 1 km cells.
    fn cores() -> Vec<BBox> {
        vec![
            BBox::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)),
            BBox::new(Point::new(1000.0, 0.0), Point::new(2000.0, 1000.0)),
        ]
    }

    #[test]
    fn ownership_is_unique_and_replication_respects_margin() {
        let archive = TrajectoryArchive::new(vec![
            traj(0, &[(100.0, 500.0), (300.0, 500.0)]), // deep in shard 0
            traj(0, &[(1900.0, 500.0), (1700.0, 500.0)]), // deep in shard 1
            traj(0, &[(950.0, 500.0), (1050.0, 500.0)]), // straddles the seam
        ]);
        let p = partition_archive(&archive, &cores(), 100.0);
        assert_eq!(p.owners, vec![0, 1, 0]);
        // The deep trajectories live on their shard only; the seam
        // trajectory is replicated to both.
        assert_eq!(p.shards[0].num_trajectories(), 2);
        assert_eq!(p.shards[1].num_trajectories(), 2);
        assert_eq!(p.replicas, 4);
        assert_eq!(p.id_maps[0], vec![TrajId(0), TrajId(2)]);
        assert_eq!(p.id_maps[1], vec![TrajId(1), TrajId(2)]);
        assert!((p.replication_factor() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn margin_widens_replication() {
        let archive = TrajectoryArchive::new(vec![
            // 150 m from the seam on the shard-0 side.
            traj(0, &[(850.0, 500.0), (800.0, 500.0)]),
        ]);
        let narrow = partition_archive(&archive, &cores(), 100.0);
        assert_eq!(narrow.shards[1].num_trajectories(), 0);
        let wide = partition_archive(&archive, &cores(), 200.0);
        assert_eq!(wide.shards[1].num_trajectories(), 1);
    }

    #[test]
    fn out_of_bounds_trajectory_falls_to_nearest_core() {
        let archive = TrajectoryArchive::new(vec![
            traj(0, &[(2500.0, 500.0), (2600.0, 500.0)]), // right of both cells
        ]);
        let p = partition_archive(&archive, &cores(), 0.0);
        assert_eq!(p.owners, vec![1]);
        // The owner stores it even though no region intersects its bbox.
        assert_eq!(p.shards[1].num_trajectories(), 1);
        assert_eq!(p.shards[0].num_trajectories(), 0);
    }

    #[test]
    fn shard_order_preserves_parent_order() {
        let trips: Vec<Trajectory> = (0..20)
            .map(|i| {
                let x = 50.0 + (i as f64 * 97.0) % 1900.0;
                traj(0, &[(x, 100.0), (x + 20.0, 120.0)])
            })
            .collect();
        let archive = TrajectoryArchive::new(trips);
        let p = partition_archive(&archive, &cores(), 250.0);
        for map in &p.id_maps {
            assert!(map.windows(2).all(|w| w[0] < w[1]), "id maps increase");
        }
        let stored: usize = p.id_maps.iter().map(Vec::len).sum();
        assert_eq!(stored, p.replicas);
        assert!(stored >= archive.num_trajectories());
    }
}
