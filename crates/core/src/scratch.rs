//! Per-thread tables indexed by a whole-universe id, reset sparsely.
//!
//! Reference search, the reference→segment index and the traverse graph
//! each need a table indexed by trajectory or segment id, yet a query pair
//! touches only a few of its entries. Allocating and zeroing the whole
//! table for every pair made each pair O(|trajectories|) or O(|E|). Instead
//! each thread keeps one table per use, grown to the largest universe it
//! has seen, and a lease puts back only the entries it wrote — so a pair
//! costs O(its own entries), as `DijkstraScratch`'s epoch stamps do for
//! shortest-path labels.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// A table entry type with a distinguished "never written" value.
pub(crate) trait Slot: Copy + PartialEq + 'static {
    const VACANT: Self;
}

impl Slot for u32 {
    const VACANT: u32 = u32::MAX;
}

impl Slot for u64 {
    const VACANT: u64 = 0;
}

impl Slot for (f64, u32) {
    const VACANT: (f64, u32) = (f64::INFINITY, u32::MAX);
}

/// A dense table that remembers which entries were written since the last
/// reset.
pub(crate) struct SparseTable<T> {
    vals: Vec<T>,
    touched: Vec<u32>,
}

impl<T> Default for SparseTable<T> {
    fn default() -> Self {
        SparseTable {
            vals: Vec::new(),
            touched: Vec::new(),
        }
    }
}

impl<T: Slot> SparseTable<T> {
    /// Entry `i` (`T::VACANT` when unwritten).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> T {
        self.vals[i]
    }

    /// Writes entry `i`; `v` must not be `T::VACANT`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: T) {
        debug_assert!(v != T::VACANT, "a write must leave the entry occupied");
        if self.vals[i] == T::VACANT {
            self.touched.push(i as u32);
        }
        self.vals[i] = v;
    }

    /// Indices written since the last reset, in first-write order.
    pub(crate) fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Returns every written entry to `T::VACANT`.
    pub(crate) fn reset(&mut self) {
        for &i in &self.touched {
            self.vals[i as usize] = T::VACANT;
        }
        self.touched.clear();
    }
}

/// A thread's table on loan: every entry reads `T::VACANT` when the lease
/// starts, and the entries it wrote are reset when it ends — also when a
/// panic unwinds through it, so a failed query leaves no stale entries.
pub(crate) struct Lease<T: Slot> {
    table: SparseTable<T>,
    home: &'static LocalKey<Cell<SparseTable<T>>>,
}

impl<T: Slot> Lease<T> {
    /// Borrows the calling thread's table from `home`, sized to at least
    /// `len` entries. A nested lease of the same table gets a fresh one.
    pub(crate) fn take(home: &'static LocalKey<Cell<SparseTable<T>>>, len: usize) -> Self {
        let mut table = home.take();
        if table.vals.len() < len {
            table.vals.resize(len, T::VACANT);
        }
        Lease { table, home }
    }
}

impl<T: Slot> Deref for Lease<T> {
    type Target = SparseTable<T>;
    fn deref(&self) -> &SparseTable<T> {
        &self.table
    }
}

impl<T: Slot> DerefMut for Lease<T> {
    fn deref_mut(&mut self) -> &mut SparseTable<T> {
        &mut self.table
    }
}

impl<T: Slot> Drop for Lease<T> {
    fn drop(&mut self) {
        self.table.reset();
        let table = std::mem::take(&mut self.table);
        // During thread teardown the slot may be gone; the table is then
        // simply freed.
        let _ = self.home.try_with(|slot| slot.set(table));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static TABLE: Cell<SparseTable<u32>> = Cell::default();
    }

    #[test]
    fn lease_resets_what_it_wrote() {
        {
            let mut t = Lease::take(&TABLE, 10);
            t.set(3, 7);
            t.set(8, 1);
            t.set(3, 9);
            assert_eq!(t.touched(), &[3, 8]);
            assert_eq!(t.get(3), 9);
        }
        let t = Lease::take(&TABLE, 20);
        assert!((0..20).all(|i| t.get(i) == u32::VACANT));
        assert!(t.touched().is_empty());
    }

    #[test]
    fn nested_leases_do_not_share_entries() {
        let mut outer = Lease::take(&TABLE, 4);
        outer.set(1, 5);
        let inner = Lease::take(&TABLE, 4);
        assert_eq!(inner.get(1), u32::VACANT);
        drop(inner);
        assert_eq!(outer.get(1), 5);
    }

    #[test]
    fn a_panicking_lease_still_resets() {
        let result = std::panic::catch_unwind(|| {
            let mut t = Lease::take(&TABLE, 4);
            t.set(2, 1);
            panic!("query failed mid-pair");
        });
        assert!(result.is_err());
        let t = Lease::take(&TABLE, 4);
        assert_eq!(t.get(2), u32::VACANT);
    }
}
