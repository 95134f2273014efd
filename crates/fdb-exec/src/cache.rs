//! Dependency-aware result caching.
//!
//! A derived function's answers depend only on the base tables named by
//! its derivations — the *support set* ([`fdb_graph::support_set`]) — and
//! on the NC store entries over those tables. [`fdb_storage::Store`]
//! maintains a per-function mutation counter that is bumped by every
//! base insert/delete of that function and by NC creation/dismantling
//! touching a conjunct of that function (null substitution bumps every
//! function, conservatively). A [`SupportSnapshot`] captures those
//! counters for a support set; the cached result stays valid exactly as
//! long as no counter moved.
//!
//! **Soundness.** A chain for a derivation consists only of facts of the
//! derivation's step functions, so every input to §3.2 evaluation — the
//! rows examined and the NCs that can cover a chain (an NC with a
//! conjunct outside the support set can never be a subset of such a
//! chain's facts) — lives in tables whose counters are in the snapshot.
//! Mutations outside the support set therefore cannot change the answer,
//! and the cache correctly survives them.
//!
//! **Identity vs state.** Counters only grow, so within one store
//! lineage equal counter vectors imply identical table+NC state. The
//! undo journal preserves this: a transaction rollback *replays inverse
//! operations*, each of which bumps the counters of the functions it
//! touches, rather than restoring the counters to their pre-transaction
//! values — so a rollback is observed as a fresh version event and
//! entries cached before or inside the rolled-back transaction can never
//! satisfy a post-rollback lookup. Replacing the store wholesale (e.g.
//! `LOAD`) breaks the lineage — counters reset with the snapshot and are
//! no longer comparable — so callers must [`ResultCache::clear`] then.

use std::collections::HashMap;

use fdb_storage::{DerivedPair, Store, Truth};
use fdb_types::{FunctionId, Value};

/// The per-function mutation counters of a support set, captured at
/// compute time, plus the store's global version stamp for an O(1)
/// freshness fast path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupportSnapshot {
    /// The store's global monotone version at capture. If the store
    /// still reports this stamp, *nothing* has changed and the entry is
    /// fresh without examining any per-function counter — the common
    /// case under MVCC, where a statement evaluates against one pinned
    /// [`fdb_storage::Snapshot`] whose stamp never moves.
    store_version: u64,
    entries: Vec<(FunctionId, u64)>,
}

impl SupportSnapshot {
    /// Captures the current counters of `support` from `store`.
    pub fn capture<I>(store: &Store, support: I) -> Self
    where
        I: IntoIterator<Item = FunctionId>,
    {
        SupportSnapshot {
            store_version: store.version(),
            entries: support
                .into_iter()
                .map(|f| (f, store.function_version(f)))
                .collect(),
        }
    }

    /// `true` if any support function has been mutated since capture.
    ///
    /// O(1) when the store's global stamp is unchanged (equal stamps
    /// imply identical state); falls back to the per-function counters
    /// otherwise, so writes outside the support set still preserve the
    /// entry.
    pub fn is_stale(&self, store: &Store) -> bool {
        if store.version() == self.store_version {
            return false;
        }
        self.entries
            .iter()
            .any(|(f, v)| store.function_version(*f) != *v)
    }

    /// The functions this snapshot watches.
    pub fn functions(&self) -> impl Iterator<Item = FunctionId> + '_ {
        self.entries.iter().map(|(f, _)| *f)
    }
}

/// Hit/miss/invalidation counters for observability.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a still-valid entry.
    pub hits: u64,
    /// Lookups that had no entry and computed fresh.
    pub misses: u64,
    /// Entries evicted because a support function changed.
    pub invalidations: u64,
}

/// Both layers of cache statistics in one report: this cache's local
/// counters and entry counts, plus the process-wide registry counters
/// (`fdb.cache.*`, aggregated over every [`ResultCache`] in the
/// process). [`ResultCache::report`] builds one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// This cache's own hit/miss/invalidation counters.
    pub local: CacheStats,
    /// Truth entries currently held (valid or stale).
    pub truth_entries: usize,
    /// Extension entries currently held (valid or stale).
    pub extension_entries: usize,
    /// The process-wide `fdb.cache.*` registry counters.
    pub global: CacheStats,
}

/// The outcome of a non-mutating cache probe ([`ResultCache::probe_truth`]),
/// used by `EXPLAIN ANALYZE` to report what a real execution would find
/// without disturbing the counters it is reporting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheProbe {
    /// A valid entry exists; execution would hit.
    Hit,
    /// An entry exists but its support set has been mutated; execution
    /// would invalidate it and recompute.
    Stale,
    /// No entry; execution would compute fresh.
    Miss,
}

impl std::fmt::Display for CacheProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheProbe::Hit => write!(f, "hit"),
            CacheProbe::Stale => write!(f, "stale"),
            CacheProbe::Miss => write!(f, "miss"),
        }
    }
}

#[derive(Debug)]
struct Entry<T> {
    snapshot: SupportSnapshot,
    value: T,
}

/// A cache of derived truth and extension results, each entry guarded by
/// the [`SupportSnapshot`] of its function's support set.
#[derive(Debug, Default)]
pub struct ResultCache {
    truths: HashMap<(FunctionId, Value, Value), Entry<Truth>>,
    extensions: HashMap<FunctionId, Entry<Vec<DerivedPair>>>,
    stats: CacheStats,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current hit/miss/invalidation counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Unified two-layer statistics: this cache's counters and entry
    /// counts next to the process-wide `fdb.cache.*` registry counters.
    pub fn report(&self) -> CacheReport {
        let reg = fdb_obs::registry();
        CacheReport {
            local: self.stats,
            truth_entries: self.truths.len(),
            extension_entries: self.extensions.len(),
            global: CacheStats {
                hits: reg.cache_hits.get(),
                misses: reg.cache_misses.get(),
                invalidations: reg.cache_invalidations.get(),
            },
        }
    }

    /// Number of cached truth entries (valid or stale).
    pub fn truth_entries(&self) -> usize {
        self.truths.len()
    }

    /// Number of cached extension entries (valid or stale).
    pub fn extension_entries(&self) -> usize {
        self.extensions.len()
    }

    /// What a truth lookup of `f(x) = y` would find right now, without
    /// touching the entry or the counters.
    pub fn probe_truth(&self, store: &Store, f: FunctionId, x: &Value, y: &Value) -> CacheProbe {
        match self.truths.get(&(f, x.clone(), y.clone())) {
            None => CacheProbe::Miss,
            Some(entry) if entry.snapshot.is_stale(store) => CacheProbe::Stale,
            Some(_) => CacheProbe::Hit,
        }
    }

    /// Drops every entry (callers must do this when the store is
    /// replaced wholesale — snapshots are only meaningful within one
    /// store lineage).
    pub fn clear(&mut self) {
        self.truths.clear();
        self.extensions.clear();
    }

    /// The truth of `f(x) = y`, from cache when the support set is
    /// unchanged, else from `compute`. `support` yields `f`'s support set;
    /// it is called only on a miss, so a hit allocates nothing for it.
    pub fn truth_or_compute<I>(
        &mut self,
        store: &Store,
        f: FunctionId,
        support: impl FnOnce() -> I,
        x: &Value,
        y: &Value,
        compute: impl FnOnce() -> Truth,
    ) -> Truth
    where
        I: IntoIterator<Item = FunctionId>,
    {
        let key = (f, x.clone(), y.clone());
        if let Some(entry) = self.truths.get(&key) {
            if entry.snapshot.is_stale(store) {
                self.truths.remove(&key);
                self.stats.invalidations += 1;
                fdb_obs::registry().cache_invalidations.inc();
            } else {
                self.stats.hits += 1;
                fdb_obs::registry().cache_hits.inc();
                fdb_obs::causal::point("fdb.cache.hit", || format!("truth f={}", f.0));
                return entry.value;
            }
        }
        self.stats.misses += 1;
        fdb_obs::registry().cache_misses.inc();
        fdb_obs::causal::point("fdb.cache.miss", || format!("truth f={}", f.0));
        let snapshot = SupportSnapshot::capture(store, support());
        let value = compute();
        self.truths.insert(key, Entry { snapshot, value });
        value
    }

    /// The extension of `f`, from cache when the support set is
    /// unchanged, else from `compute`. `support` is called only on a
    /// miss, as for [`ResultCache::truth_or_compute`].
    pub fn extension_or_compute<I>(
        &mut self,
        store: &Store,
        f: FunctionId,
        support: impl FnOnce() -> I,
        compute: impl FnOnce() -> Vec<DerivedPair>,
    ) -> Vec<DerivedPair>
    where
        I: IntoIterator<Item = FunctionId>,
    {
        if let Some(entry) = self.extensions.get(&f) {
            if entry.snapshot.is_stale(store) {
                self.extensions.remove(&f);
                self.stats.invalidations += 1;
                fdb_obs::registry().cache_invalidations.inc();
            } else {
                self.stats.hits += 1;
                fdb_obs::registry().cache_hits.inc();
                fdb_obs::causal::point("fdb.cache.hit", || format!("extension f={}", f.0));
                return entry.value.clone();
            }
        }
        self.stats.misses += 1;
        fdb_obs::registry().cache_misses.inc();
        fdb_obs::causal::point("fdb.cache.miss", || format!("extension f={}", f.0));
        let snapshot = SupportSnapshot::capture(store, support());
        let value = compute();
        self.extensions.insert(
            f,
            Entry {
                snapshot,
                value: value.clone(),
            },
        );
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F0: FunctionId = FunctionId(0);
    const F1: FunctionId = FunctionId(1);
    const OTHER: FunctionId = FunctionId(2);
    const PUPIL: FunctionId = FunctionId(3);

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn writes_outside_the_support_set_do_not_invalidate() {
        let mut s = Store::new(4);
        s.base_insert(F0, v("a"), v("b"));
        s.base_insert(F1, v("b"), v("c"));
        // The support set is read only on a miss.
        let support_reads = std::cell::Cell::new(0);
        let support = || {
            support_reads.set(support_reads.get() + 1);
            [F0, F1]
        };
        let mut cache = ResultCache::new();
        let mut computes = 0;
        for _ in 0..2 {
            cache.truth_or_compute(&s, PUPIL, support, &v("a"), &v("c"), || {
                computes += 1;
                Truth::True
            });
        }
        assert_eq!(computes, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(support_reads.get(), 1);

        // A write to an unrelated function keeps the entry valid…
        s.base_insert(OTHER, v("x"), v("y"));
        cache.truth_or_compute(&s, PUPIL, support, &v("a"), &v("c"), || {
            computes += 1;
            Truth::True
        });
        assert_eq!(computes, 1);
        assert_eq!(cache.stats().invalidations, 0);

        // …while a write inside the support set invalidates it.
        s.base_insert(F0, v("a2"), v("b"));
        cache.truth_or_compute(&s, PUPIL, support, &v("a"), &v("c"), || {
            computes += 1;
            Truth::True
        });
        assert_eq!(computes, 2);
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(support_reads.get(), 2);
    }

    #[test]
    fn pinned_snapshot_keeps_hitting_while_live_store_mutates() {
        let mut s = Store::new(4);
        s.base_insert(F0, v("a"), v("b"));
        s.base_insert(F1, v("b"), v("c"));
        let snap = s.snapshot();
        let support = || [F0, F1];
        let mut cache = ResultCache::new();
        let mut computes = 0;
        // Writes to the live store — even inside the support set — are
        // invisible through the snapshot: its stamp is frozen, so every
        // lookup takes the O(1) fast path and hits.
        for _ in 0..3 {
            cache.truth_or_compute(snap.store(), PUPIL, support, &v("a"), &v("c"), || {
                computes += 1;
                Truth::True
            });
            s.base_insert(F0, v("mut"), v("mut"));
        }
        assert_eq!(computes, 1);
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().invalidations, 0);
        // The same cache consulted against the moved-on live store sees
        // the support-set change and recomputes.
        cache.truth_or_compute(&s, PUPIL, support, &v("a"), &v("c"), || {
            computes += 1;
            Truth::True
        });
        assert_eq!(computes, 2);
    }

    #[test]
    fn nc_creation_inside_support_invalidates_extension() {
        let mut s = Store::new(4);
        s.base_insert(F0, v("a"), v("b"));
        s.base_insert(F1, v("b"), v("c"));
        let support = || [F0, F1];
        let mut cache = ResultCache::new();
        let first = cache.extension_or_compute(&s, PUPIL, support, Vec::new);
        assert!(first.is_empty());
        // create_nc bumps the conjuncts' functions.
        s.create_nc(vec![fdb_storage::Fact {
            function: F1,
            x: v("b"),
            y: v("c"),
        }]);
        let mut recomputed = false;
        cache.extension_or_compute(&s, PUPIL, support, || {
            recomputed = true;
            Vec::new()
        });
        assert!(recomputed);
    }
}
