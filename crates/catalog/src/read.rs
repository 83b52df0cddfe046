//! The wait-free read front: one immutable `ReadGeneration` per store,
//! swapped atomically at publication, plus the epoch-keyed predicate
//! front cache.
//!
//! This module is the hot half of the consistency contract documented in
//! `docs/READ_PATH.md`. Every commit (and every re-shard) renders the
//! whole store once into an immutable generation — a [`SnapshotSet`]
//! covering every registered column plus a fresh `FrontCache` — and
//! installs it behind a `LeftRightCell`. Readers on the hot path
//! ([`crate::ColumnStore::snapshot`], `snapshot_set`, `estimate_range`,
//! `estimate_eq`, `total_count`) perform a bounded sequence of atomic
//! operations and one pointer chase: no mutex, no read-write lock, no
//! retry loop. The pinned-render machinery in [`crate::txn`] remains as
//! the slow path for the rare reads the front cannot serve.
//!
//! The swap primitive is a hand-rolled *left-right* cell (Correia &
//! Ramalhete's algorithm) rather than an external `ArcSwap` dependency:
//! two instance slots, a version indicator, and two reader-arrival
//! counters give wait-free readers and a writer that can reclaim (drop)
//! the superseded generation without deferred reclamation machinery.

use crate::store::Snapshot;
use crate::store::SnapshotSet;
use crate::txn::lock;
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Counters behind [`ReadStats`], shared by a store's registry, its
/// front generations and their caches. All relaxed: they are telemetry,
/// not synchronization.
#[derive(Debug, Default)]
pub(crate) struct ReadCounters {
    fast_reads: AtomicU64,
    slow_renders: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl ReadCounters {
    pub(crate) fn count_fast(&self) {
        self.fast_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_slow(&self) {
        self.slow_renders.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_invalidation(&self) {
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ReadStats {
        ReadStats {
            fast_reads: self.fast_reads.load(Ordering::Relaxed),
            slow_renders: self.slow_renders.load(Ordering::Relaxed),
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cache_invalidations: self.invalidations.load(Ordering::Relaxed),
            // Single-process stores never probe sites; the multi-site
            // fields are owned by `dh_site`'s GlobalCatalog.
            site_probes: 0,
            site_failures: 0,
            degraded_reads: 0,
        }
    }
}

/// Read-path telemetry of one store, returned by
/// [`ColumnStore::read_stats`](crate::ColumnStore::read_stats).
///
/// `fast_reads` counts hot-path reads served wait-free off the front
/// generation; `slow_renders` counts reads that fell back to the gated
/// pinned-render protocol (see `docs/READ_PATH.md` for exactly when that
/// happens — under steady serving it stays at zero). The `cache_*`
/// fields cover the predicate front cache: `cache_invalidations` counts
/// whole-cache discards, one per installed generation (every commit and
/// every re-shard swap invalidates the entire memo).
///
/// The `site_*` and `degraded_reads` fields are multi-site telemetry:
/// zero for every single-process store, counted by `dh_site`'s
/// `GlobalCatalog` so degraded composition is observable rather than
/// silent (see `docs/GLOBAL.md`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReadStats {
    /// Reads served from the front generation without locking.
    pub fast_reads: u64,
    /// Reads that engaged the slow pinned-render path.
    pub slow_renders: u64,
    /// Predicate estimates answered from the front cache.
    pub cache_hits: u64,
    /// Predicate estimates that had to compute (and then memoize).
    pub cache_misses: u64,
    /// Whole-cache invalidations (= front generation swaps).
    pub cache_invalidations: u64,
    /// Member-site pulls attempted by a multi-site read.
    pub site_probes: u64,
    /// Member-site pulls that failed (unreachable or stale site).
    pub site_failures: u64,
    /// Reads that composed fewer sites than configured.
    pub degraded_reads: u64,
}

/// Number of seqlock slots per generation's front cache. Power of two;
/// ~20 KiB per generation — sized for an optimizer's working set of
/// repeated selectivity probes, not for caching every query ever seen.
const CACHE_SLOTS: usize = 512;

/// Cache key kinds. Non-zero so a zeroed slot can never alias a real
/// key (`ver == 0` additionally marks never-written slots).
const KIND_RANGE: u64 = 1;
const KIND_EQ: u64 = 2;
const KIND_TOTAL: u64 = 3;

/// One seqlock-guarded cache slot: a version word (odd = write in
/// progress, `0` = never written), the full key, and the value bits.
/// Readers validate the version *and* the full key, so a slot collision
/// or an in-flight write reads as a miss, never as a wrong value.
#[derive(Default)]
struct Slot {
    ver: AtomicU64,
    k0: AtomicU64,
    ka: AtomicU64,
    kb: AtomicU64,
    val: AtomicU64,
}

/// The epoch-keyed predicate memo riding on one [`ReadGeneration`]:
/// `(column, kind, operands) -> f64` for range / eq / total estimates.
///
/// Wait-free on both sides: a probe is a bounded number of `SeqCst`
/// atomic loads (a concurrent write or a changed slot is reported as a
/// miss — no retry); an insert is one CAS plus plain stores, abandoned
/// if the CAS loses (the cache is best-effort, correctness comes from
/// recomputing on every miss). Invalidation is structural: the cache
/// lives and dies with its generation, so a commit or re-shard swap
/// discards the whole memo at once — there is no per-entry eviction
/// protocol to race with.
pub(crate) struct FrontCache {
    /// Registered column names, sorted; a column's index is its cache
    /// identity (exact, collision-free key component).
    names: Vec<String>,
    slots: Box<[Slot]>,
    counters: Arc<ReadCounters>,
}

impl FrontCache {
    fn new(names: Vec<String>, counters: Arc<ReadCounters>) -> Self {
        Self {
            names,
            slots: (0..CACHE_SLOTS).map(|_| Slot::default()).collect(),
            counters,
        }
    }

    /// The cache identity of `column`, if it is covered.
    fn index_of(&self, column: &str) -> Option<u64> {
        self.names
            .binary_search_by(|name| name.as_str().cmp(column))
            .ok()
            .map(|i| i as u64)
    }

    fn slot_of(k0: u64, ka: u64, kb: u64) -> usize {
        // FNV-1a over the three key words, with a final avalanche so
        // nearby operands spread across slots.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for k in [k0, ka, kb] {
            h ^= k;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= h >> 33;
        (h as usize) & (CACHE_SLOTS - 1)
    }

    /// Looks up a memoized estimate. Counts a hit or a miss.
    fn get(&self, k0: u64, ka: u64, kb: u64) -> Option<f64> {
        let slot = &self.slots[Self::slot_of(k0, ka, kb)];
        let v1 = slot.ver.load(Ordering::SeqCst);
        if v1 == 0 || v1 & 1 == 1 {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let (s0, sa, sb) = (
            slot.k0.load(Ordering::SeqCst),
            slot.ka.load(Ordering::SeqCst),
            slot.kb.load(Ordering::SeqCst),
        );
        let val = slot.val.load(Ordering::SeqCst);
        if slot.ver.load(Ordering::SeqCst) != v1 || (s0, sa, sb) != (k0, ka, kb) {
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        self.counters.hits.fetch_add(1, Ordering::Relaxed);
        Some(f64::from_bits(val))
    }

    /// Best-effort insert: claims the slot's seqlock with one CAS and
    /// gives up silently if another writer holds it.
    fn put(&self, k0: u64, ka: u64, kb: u64, value: f64) {
        let slot = &self.slots[Self::slot_of(k0, ka, kb)];
        let v1 = slot.ver.load(Ordering::SeqCst);
        if v1 & 1 == 1 {
            return;
        }
        if slot
            .ver
            .compare_exchange(v1, v1 + 1, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        slot.k0.store(k0, Ordering::SeqCst);
        slot.ka.store(ka, Ordering::SeqCst);
        slot.kb.store(kb, Ordering::SeqCst);
        slot.val.store(value.to_bits(), Ordering::SeqCst);
        slot.ver.store(v1 + 2, Ordering::SeqCst);
    }

    /// Probes the memo for `column`, computing (and memoizing) via
    /// `compute` on a miss. `None` if the column is not covered.
    pub(crate) fn probe(&self, column: &str, kind: CacheKind, snap: &Snapshot) -> Option<f64> {
        let idx = self.index_of(column)?;
        let (kind_tag, ka, kb) = kind.key();
        let k0 = (idx << 2) | kind_tag;
        if let Some(value) = self.get(k0, ka, kb) {
            return Some(value);
        }
        let value = kind.compute_on(snap);
        self.put(k0, ka, kb, value);
        Some(value)
    }
}

/// The three memoized estimate shapes.
#[derive(Clone, Copy)]
pub(crate) enum CacheKind {
    /// `estimate_range(a, b)`
    Range(i64, i64),
    /// `estimate_eq(v)`
    Eq(i64),
    /// `total_count()`
    Total,
}

impl CacheKind {
    fn key(self) -> (u64, u64, u64) {
        match self {
            CacheKind::Range(a, b) => (KIND_RANGE, a as u64, b as u64),
            CacheKind::Eq(v) => (KIND_EQ, v as u64, 0),
            CacheKind::Total => (KIND_TOTAL, 0, 0),
        }
    }

    /// The uncached computation this kind memoizes.
    pub(crate) fn compute_on(self, snap: &Snapshot) -> f64 {
        use dh_core::ReadHistogram;
        match self {
            CacheKind::Range(a, b) => snap.estimate_range(a, b),
            CacheKind::Eq(v) => snap.estimate_eq(v),
            CacheKind::Total => snap.total_count(),
        }
    }
}

/// One immutable, whole-store read generation: every registered column
/// rendered at a single published epoch, plus this generation's front
/// cache. Built by the committing writer (or a re-shard, or a
/// registration) and installed behind the registry's [`LeftRightCell`];
/// readers only ever clone out of it.
pub(crate) struct ReadGeneration {
    set: SnapshotSet,
    cache: Arc<FrontCache>,
}

impl ReadGeneration {
    /// The pre-first-commit generation: epoch 0, no columns.
    pub(crate) fn empty(counters: Arc<ReadCounters>) -> Self {
        Self::new(0, BTreeMap::new(), counters)
    }

    pub(crate) fn new(
        epoch: u64,
        snaps: BTreeMap<String, Snapshot>,
        counters: Arc<ReadCounters>,
    ) -> Self {
        let names: Vec<String> = snaps.keys().cloned().collect();
        let cache = Arc::new(FrontCache::new(names, counters));
        Self {
            set: SnapshotSet::with_cache(epoch, snaps, cache.clone()),
            cache,
        }
    }

    /// The epoch every snapshot in this generation is pinned to.
    pub(crate) fn epoch(&self) -> u64 {
        self.set.epoch()
    }

    /// Number of columns this generation covers.
    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// The whole-store [`SnapshotSet`] (cache-wired).
    pub(crate) fn set(&self) -> &SnapshotSet {
        &self.set
    }

    /// This column's snapshot, if covered.
    pub(crate) fn snap(&self, column: &str) -> Option<&Snapshot> {
        self.set.get(column)
    }

    /// A cache-wired subset view pinned at this generation's epoch, or
    /// `None` if any requested column is not covered.
    pub(crate) fn subset(&self, columns: &[&str]) -> Option<SnapshotSet> {
        let mut snaps = BTreeMap::new();
        for &column in columns {
            snaps.insert(column.to_string(), self.set.get(column)?.clone());
        }
        Some(SnapshotSet::with_cache(
            self.set.epoch(),
            snaps,
            self.cache.clone(),
        ))
    }
}

/// A wait-free atomically-swappable `Arc<T>` cell — the left-right
/// algorithm (two instance slots, a version indicator, two reader
/// cohorts), hand-rolled on std atomics.
///
/// **Readers** ([`LeftRightCell::load`]) are wait-free: arrive on the
/// current version cohort, load the front index, clone the `Arc` out of
/// the front slot, depart. A bounded number of atomic operations — no
/// lock, no CAS loop, no retry — regardless of writer activity.
///
/// **Writers** ([`LeftRightCell::store_if`]) serialize on a mutex, write
/// the *back* slot (which the reader protocol guarantees is unobserved),
/// publish it by storing the front index, then toggle the version
/// indicator and wait for both reader cohorts to drain in turn. After
/// that wait, no reader can still hold a reference obtained from the old
/// front slot, so the *next* write may safely overwrite (drop) it —
/// which is how superseded generations are reclaimed promptly without
/// hazard pointers or epoch GC.
///
/// Memory-ordering argument (spelled out in `docs/READ_PATH.md`): all
/// shared words use `SeqCst`. A reader's cohort arrival precedes its
/// front-index load in the total order, so a writer that has completed
/// both cohort waits has seen the departure of every reader whose
/// front-index load could have returned the old index; the value written
/// into the back slot is published to readers by the `SeqCst` store of
/// `front` (their subsequent `SeqCst` load of `front` orders after it).
pub(crate) struct LeftRightCell<T> {
    instances: [UnsafeCell<Arc<T>>; 2],
    /// Index of the slot readers should use (0 or 1).
    front: AtomicUsize,
    /// Which reader cohort new arrivals join (0 or 1).
    version: AtomicUsize,
    /// In-flight readers per cohort.
    readers: [AtomicUsize; 2],
    writer: Mutex<()>,
}

// SAFETY: the cell hands out `Arc<T>` clones across threads (needs
// `T: Send + Sync`, like `Arc` itself); the `UnsafeCell`s are only
// written under the writer mutex and only read per the left-right
// protocol argued on `load`/`store_if`.
unsafe impl<T: Send + Sync> Send for LeftRightCell<T> {}
unsafe impl<T: Send + Sync> Sync for LeftRightCell<T> {}

impl<T> LeftRightCell<T> {
    pub(crate) fn new(value: Arc<T>) -> Self {
        Self {
            instances: [UnsafeCell::new(value.clone()), UnsafeCell::new(value)],
            front: AtomicUsize::new(0),
            version: AtomicUsize::new(0),
            readers: [AtomicUsize::new(0), AtomicUsize::new(0)],
            writer: Mutex::new(()),
        }
    }

    /// The current value. Wait-free: a bounded sequence of atomic
    /// operations and one `Arc` clone, never blocked by writers.
    pub(crate) fn load(&self) -> Arc<T> {
        let cohort = self.version.load(Ordering::SeqCst);
        self.readers[cohort].fetch_add(1, Ordering::SeqCst);
        let front = self.front.load(Ordering::SeqCst);
        // SAFETY: `front` was loaded *after* arriving on a cohort, so
        // the writer's cohort waits cannot both have completed between
        // our arrival and this clone — meaning no writer overwrites
        // `instances[front]` while we read it (a writer only writes the
        // slot it just proved unobserved; see `store_if`).
        let value = unsafe { (*self.instances[front].get()).clone() };
        self.readers[cohort].fetch_sub(1, Ordering::SeqCst);
        value
    }

    /// Atomically replaces the value with `candidate` if `accept(current,
    /// candidate)` says so; returns whether the swap happened. Writers
    /// serialize on an internal mutex; the superseded value (from two
    /// stores ago) is dropped here, after the reader cohorts prove it
    /// unobserved.
    pub(crate) fn store_if(&self, candidate: Arc<T>, accept: impl FnOnce(&T, &T) -> bool) -> bool {
        let _writer = lock(&self.writer);
        let front = self.front.load(Ordering::SeqCst);
        let back = 1 - front;
        {
            // SAFETY: under the writer mutex the front index is stable
            // and `instances[front]` is only read (by us and readers),
            // never written.
            let current = unsafe { &*self.instances[front].get() };
            if !accept(current, &candidate) {
                return false;
            }
        }
        // SAFETY: the previous `store_if` completed both cohort waits
        // after unpublishing this slot, so no reader holds or can obtain
        // a reference into it — writing (and dropping the old Arc) is
        // exclusive.
        unsafe {
            *self.instances[back].get() = candidate;
        }
        self.front.store(back, Ordering::SeqCst);
        // Toggle the version and wait out both cohorts: readers that
        // arrived before the toggle may still be using the old front
        // slot; once both cohorts have drained (new arrivals land on the
        // *new* front index), the old slot is provably unobserved.
        let cohort = self.version.load(Ordering::SeqCst);
        let next = 1 - cohort;
        self.wait_empty(next);
        self.version.store(next, Ordering::SeqCst);
        self.wait_empty(cohort);
        true
    }

    fn wait_empty(&self, cohort: usize) {
        let mut spins = 0u32;
        while self.readers[cohort].load(Ordering::SeqCst) != 0 {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn left_right_load_store_round_trip() {
        let cell = LeftRightCell::new(Arc::new(1u64));
        assert_eq!(*cell.load(), 1);
        assert!(cell.store_if(Arc::new(2), |cur, new| new > cur));
        assert_eq!(*cell.load(), 2);
        // Rejected candidates leave the value untouched.
        assert!(!cell.store_if(Arc::new(1), |cur, new| new > cur));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn left_right_readers_race_writers_and_never_regress() {
        let cell = Arc::new(LeftRightCell::new(Arc::new(0u64)));
        let done = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let cell = cell.clone();
            let done = done.clone();
            handles.push(std::thread::spawn(move || {
                let mut last = 0u64;
                while !done.load(Ordering::Acquire) {
                    let v = *cell.load();
                    assert!(v >= last, "value regressed: {last} -> {v}");
                    last = v;
                }
            }));
        }
        for v in 1..=1000u64 {
            assert!(cell.store_if(Arc::new(v), |cur, new| new > cur));
        }
        done.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*cell.load(), 1000);
    }

    #[test]
    fn front_cache_memoizes_exact_bits_and_reports_collisions_as_misses() {
        let counters = Arc::new(ReadCounters::default());
        let cache = FrontCache::new(vec!["a".into()], counters.clone());
        assert_eq!(cache.index_of("a"), Some(0));
        assert_eq!(cache.index_of("ghost"), None);
        cache.put(1, 2, 3, 0.1 + 0.2);
        assert_eq!(cache.get(1, 2, 3), Some(0.1 + 0.2));
        // Same slot different key would be detected by the full-key
        // compare; an absent key is a miss.
        assert_eq!(cache.get(1, 2, 4), None);
        let stats = counters.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
    }
}
