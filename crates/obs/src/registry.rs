//! The metrics registry: named handles over shared atomics.

use crate::export::MetricsSnapshot;
use crate::histogram::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter. Cloning shares the underlying atomic.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A free-standing counter (not yet registered anywhere).
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways. Cloning shares storage.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A free-standing gauge (not yet registered anywhere).
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A hit/miss counter pair packed into one `AtomicU64` (hits in the high
/// 32 bits, misses in the low 32), so one atomic load yields a mutually
/// consistent `(hits, misses)` tuple: `hits + misses` is exactly the number
/// of events recorded before the load, never a torn mix of two instants.
///
/// This is the fix for the classic two-relaxed-loads snapshot race: with
/// independent atomics, a reader between a lookup's "miss" increment and the
/// next lookup's "hit" increment can report totals that never coexisted.
///
/// Capacity: each side is exact up to `2^32 - 1` events (≈4.3 billion); past
/// that an increment carries into the other half. Per-process cache counters
/// stay far below this; a service restarting its registry daily has five
/// orders of magnitude of headroom.
#[derive(Clone, Debug, Default)]
pub struct PairedCounter(Arc<AtomicU64>);

impl PairedCounter {
    /// A fresh pair at `(0, 0)`.
    #[must_use]
    pub fn new() -> Self {
        PairedCounter::default()
    }

    /// Records a hit.
    pub fn hit(&self) {
        self.0.fetch_add(1 << 32, Ordering::Relaxed);
    }

    /// Records a miss.
    pub fn miss(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// One consistent `(hits, misses)` reading.
    #[must_use]
    pub fn get(&self) -> (u64, u64) {
        let v = self.0.load(Ordering::Relaxed);
        (v >> 32, v & 0xFFFF_FFFF)
    }

    /// Hits half of [`PairedCounter::get`].
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.get().0
    }

    /// Misses half of [`PairedCounter::get`].
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.get().1
    }
}

/// One registered metric.
struct Entry {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    kind: Kind,
}

enum Kind {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// Exported as two counters, `{base}_hits_total` / `{base}_misses_total`.
    Paired(PairedCounter),
}

/// A snapshot of one exported metric (paired counters expand to two).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Metric name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label pairs, sorted by label name.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: SnapshotValue,
}

/// The value half of a [`SnapshotEntry`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotValue {
    /// Monotonic counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram state.
    Histogram(HistogramSnapshot),
}

/// A thread-safe registry of named metrics.
///
/// Registration is get-or-create: asking twice for the same `(name, labels)`
/// returns a handle to the same storage. The registry holds one `Mutex`
/// around its *directory* only — metric updates through the returned handles
/// never touch the lock.
///
/// Metric names must match `[a-zA-Z_:][a-zA-Z0-9_:]*` and label names
/// `[a-zA-Z_][a-zA-Z0-9_]*` (the Prometheus exposition grammar); label
/// values may not contain `"`, `\` or newlines. Violations panic at
/// registration, so exporters never need escaping.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// A counter named `name` (get-or-create).
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_with_labels(name, help, &[])
    }

    /// A labelled counter (get-or-create).
    ///
    /// # Panics
    /// Panics on an invalid name/label, or when `(name, labels)` is already
    /// registered as a different metric kind.
    pub fn counter_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        self.get_or_insert(
            name,
            help,
            labels,
            || Kind::Counter(Counter::new()),
            |k| match k {
                Kind::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// A gauge named `name` (get-or-create).
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_with_labels(name, help, &[])
    }

    /// A labelled gauge (get-or-create).
    ///
    /// # Panics
    /// Panics on an invalid name/label or a metric-kind clash.
    pub fn gauge_with_labels(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        self.get_or_insert(
            name,
            help,
            labels,
            || Kind::Gauge(Gauge::new()),
            |k| match k {
                Kind::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// A fixed-bucket histogram (get-or-create; `bounds` must match any
    /// existing registration).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Histogram {
        self.histogram_with_labels(name, help, bounds, &[])
    }

    /// A labelled fixed-bucket histogram (get-or-create).
    ///
    /// # Panics
    /// Panics on an invalid name/label, a metric-kind clash, or when the
    /// same `(name, labels)` was registered with different bounds.
    pub fn histogram_with_labels(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: &[(&str, &str)],
    ) -> Histogram {
        let h = self.get_or_insert(
            name,
            help,
            labels,
            || Kind::Histogram(Histogram::new(bounds)),
            |k| match k {
                Kind::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        );
        assert!(
            h.bounds() == bounds,
            "histogram `{name}` re-registered with different bounds"
        );
        h
    }

    /// Registers an existing [`Counter`] under `name`, so a component that
    /// owns its counter (a memo shared by several engines, say) exports the
    /// live value without copying it. Get-or-create: re-registering `name`
    /// returns the originally registered counter and ignores the argument.
    ///
    /// # Panics
    /// Panics on an invalid name or a metric-kind clash.
    pub fn register_counter(&self, name: &str, help: &str, counter: Counter) -> Counter {
        self.get_or_insert(
            name,
            help,
            &[],
            || Kind::Counter(counter.clone()),
            |k| match k {
                Kind::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Registers an existing [`Gauge`] under `name`; the gauge counterpart
    /// of [`MetricsRegistry::register_counter`].
    ///
    /// # Panics
    /// Panics on an invalid name or a metric-kind clash.
    pub fn register_gauge(&self, name: &str, help: &str, gauge: Gauge) -> Gauge {
        self.get_or_insert(
            name,
            help,
            &[],
            || Kind::Gauge(gauge.clone()),
            |k| match k {
                Kind::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Registers an existing [`PairedCounter`] under `base`: the snapshot
    /// exports it as the two counters `{base}_hits_total` and
    /// `{base}_misses_total`, both read from the same single atomic load so
    /// the exported pair is mutually consistent.
    ///
    /// Returns a clone of the pair (get-or-create: re-registering `base`
    /// returns the originally registered pair and ignores the argument).
    ///
    /// # Panics
    /// Panics on an invalid name or a metric-kind clash.
    pub fn register_paired(&self, base: &str, help: &str, pair: PairedCounter) -> PairedCounter {
        self.get_or_insert(
            base,
            help,
            &[],
            || Kind::Paired(pair.clone()),
            |k| match k {
                Kind::Paired(p) => Some(p.clone()),
                _ => None,
            },
        )
    }

    fn get_or_insert<T>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Kind,
        extract: impl Fn(&Kind) -> Option<T>,
    ) -> T {
        validate_name(name);
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                validate_label(k, v);
                ((*k).to_string(), (*v).to_string())
            })
            .collect();
        labels.sort();
        let mut entries = self.entries.lock().expect("metrics registry directory");
        if let Some(e) = entries
            .iter()
            .find(|e| e.name == name && e.labels == labels)
        {
            return extract(&e.kind)
                .unwrap_or_else(|| panic!("metric `{name}` already registered as another kind"));
        }
        let kind = make();
        let out = extract(&kind).expect("freshly made metric matches its own kind");
        entries.push(Entry {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            kind,
        });
        out
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// `(name, labels)` so exports are deterministic. Paired counters expand
    /// into their two `_hits_total` / `_misses_total` counters, read from
    /// one atomic load each.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let entries = self.entries.lock().expect("metrics registry directory");
        let mut out: Vec<SnapshotEntry> = Vec::with_capacity(entries.len());
        for e in entries.iter() {
            match &e.kind {
                Kind::Counter(c) => out.push(SnapshotEntry {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: SnapshotValue::Counter(c.get()),
                }),
                Kind::Gauge(g) => out.push(SnapshotEntry {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: SnapshotValue::Gauge(g.get()),
                }),
                Kind::Histogram(h) => out.push(SnapshotEntry {
                    name: e.name.clone(),
                    help: e.help.clone(),
                    labels: e.labels.clone(),
                    value: SnapshotValue::Histogram(h.snapshot()),
                }),
                Kind::Paired(p) => {
                    let (hits, misses) = p.get();
                    for (suffix, v) in [("hits", hits), ("misses", misses)] {
                        out.push(SnapshotEntry {
                            name: format!("{}_{suffix}_total", e.name),
                            help: e.help.clone(),
                            labels: e.labels.clone(),
                            value: SnapshotValue::Counter(v),
                        });
                    }
                }
            }
        }
        out.sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        MetricsSnapshot { entries: out }
    }
}

fn validate_name(name: &str) {
    let mut chars = name.chars();
    let ok = match chars.next() {
        Some(c) => {
            (c.is_ascii_alphabetic() || c == '_' || c == ':')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        }
        None => false,
    };
    assert!(ok, "invalid metric name `{name}`");
}

fn validate_label(key: &str, value: &str) {
    let mut chars = key.chars();
    let ok = match chars.next() {
        Some(c) => {
            (c.is_ascii_alphabetic() || c == '_')
                && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
        }
        None => false,
    };
    assert!(ok, "invalid label name `{key}`");
    assert!(
        !value.contains(['"', '\\', '\n']),
        "label value for `{key}` contains a character that would need escaping"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_shares_storage() {
        let r = MetricsRegistry::new();
        let a = r.counter("hits_total", "Hits.");
        let b = r.counter("hits_total", "Hits.");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // Different labels → different storage.
        let c = r.counter_with_labels("hits_total", "Hits.", &[("shard", "0")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn paired_counter_is_consistent_per_load() {
        let p = PairedCounter::new();
        p.hit();
        p.miss();
        p.miss();
        assert_eq!(p.get(), (1, 2));
        assert_eq!(p.hits() + p.misses(), 3);
    }

    #[test]
    fn paired_registration_expands_in_snapshot() {
        let r = MetricsRegistry::new();
        let p = r.register_paired("cache", "Cache lookups.", PairedCounter::new());
        p.hit();
        p.hit();
        p.miss();
        let s = r.snapshot();
        assert_eq!(s.counter("cache_hits_total"), Some(2));
        assert_eq!(s.counter("cache_misses_total"), Some(1));
    }

    #[test]
    fn registered_counter_and_gauge_export_the_owners_values() {
        let r = MetricsRegistry::new();
        let (owned_c, owned_g) = (Counter::new(), Gauge::new());
        r.register_counter("flushes_total", "Flushes.", owned_c.clone());
        r.register_gauge("entries", "Entries.", owned_g.clone());
        owned_c.add(3);
        owned_g.set(7);
        let s = r.snapshot();
        assert_eq!(s.counter("flushes_total"), Some(3));
        assert_eq!(s.gauge("entries"), Some(7));
        // Re-registering keeps the first registration.
        r.register_counter("flushes_total", "Flushes.", Counter::new())
            .inc();
        assert_eq!(owned_c.get(), 4);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let r = MetricsRegistry::new();
        let g = r.gauge("depth", "Queue depth.");
        g.set(5);
        g.dec();
        g.add(-2);
        assert_eq!(g.get(), 2);
    }

    #[test]
    #[should_panic(expected = "another kind")]
    fn kind_clash_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("x", "");
        let _ = r.gauge("x", "");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_name_panics() {
        let r = MetricsRegistry::new();
        let _ = r.counter("1bad", "");
    }

    #[test]
    #[should_panic(expected = "different bounds")]
    fn histogram_bounds_clash_panics() {
        let r = MetricsRegistry::new();
        let _ = r.histogram("h", "", &[1.0]);
        let _ = r.histogram("h", "", &[2.0]);
    }

    #[test]
    fn snapshot_sorted_by_name_then_labels() {
        let r = MetricsRegistry::new();
        let _ = r.counter_with_labels("b", "", &[("x", "2")]);
        let _ = r.counter_with_labels("b", "", &[("x", "1")]);
        let _ = r.counter("a", "");
        let names: Vec<String> = r
            .snapshot()
            .entries
            .iter()
            .map(|e| format!("{}{:?}", e.name, e.labels))
            .collect();
        assert!(names.windows(2).all(|w| w[0] <= w[1]));
    }
}
