//! MVCC store snapshots: cheap, immutable, version-stamped views.
//!
//! A [`Snapshot`] freezes the extensional state of a [`Store`] at one
//! mutation-counter instant. Capturing one is O(#functions): every
//! per-function table and the NC store sit behind `Arc`s inside the
//! store, so the "copy" is a round of reference-count bumps. The first
//! write the live store makes to a function *after* a snapshot was taken
//! detaches that function's table spine, then only the row chunk and
//! index shards it touches ([`crate::cow`]): a commit that touched two
//! functions shares every other table with all outstanding snapshots,
//! and shares every untouched chunk and shard of the two it touched.
//!
//! Readers holding a snapshot see a state that can never change —
//! there is no locking, no torn read, and no coordination with writers.
//! The stamp ([`Snapshot::version`]) is the store's monotone mutation
//! counter at capture time; because the counter is bumped by every
//! state-changing operation (including rollbacks), two snapshots with
//! the same stamp are byte-identical and result caches may treat the
//! stamp as a complete cache key ("support-set logic collapses into
//! snapshot identity" — see `fdb-exec`'s `ResultCache`).
//!
//! Snapshots are views of **committed** state only: the shared handles
//! in `fdb-core` publish a new snapshot at each commit boundary and
//! never while an undo journal (open transaction) is recording.

use std::ops::Deref;

use crate::store::Store;

/// An immutable, version-stamped view of a [`Store`].
///
/// Derefs to [`Store`], so every read-side accessor (`table`, `ncs`,
/// `base_truth`, chain search, …) works on a snapshot unchanged.
#[derive(Clone, Debug)]
pub struct Snapshot {
    store: Store,
    version: u64,
}

impl Snapshot {
    pub(crate) fn new(store: Store) -> Snapshot {
        Snapshot {
            version: store.version(),
            store,
        }
    }

    /// The store's monotone mutation counter at capture time. Equal
    /// stamps imply byte-identical logical state (the counter never
    /// rewinds, even across transaction rollbacks).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The frozen store.
    pub fn store(&self) -> &Store {
        &self.store
    }
}

impl Deref for Snapshot {
    type Target = Store;

    fn deref(&self) -> &Store {
        &self.store
    }
}

#[cfg(test)]
mod tests {
    use fdb_types::{FunctionId, Value};

    use crate::fact::Fact;
    use crate::store::Store;
    use crate::truth::Truth;

    fn f(i: u32) -> FunctionId {
        FunctionId(i)
    }

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    #[test]
    fn snapshot_is_immune_to_later_writes() {
        let mut s = Store::new(2);
        s.base_insert(f(0), v("euclid"), v("math"));
        let snap = s.snapshot();
        assert_eq!(snap.version(), s.version());

        s.base_insert(f(0), v("gauss"), v("algebra"));
        s.base_delete(f(0), &v("euclid"), &v("math"));
        s.base_insert(f(1), v("math"), v("john"));

        // The snapshot still answers from the frozen state…
        assert_eq!(
            snap.base_truth(&Fact::new(f(0), "euclid", "math")),
            Truth::True
        );
        assert_eq!(
            snap.base_truth(&Fact::new(f(0), "gauss", "algebra")),
            Truth::False
        );
        assert_eq!(snap.table(f(1)).len(), 0);
        // …and its stamp is frozen while the live store moved on.
        assert!(s.version() > snap.version());
    }

    #[test]
    fn publication_is_copy_on_write_per_function() {
        let mut s = Store::new(3);
        s.base_insert(f(0), v("a"), v("b"));
        s.base_insert(f(1), v("c"), v("d"));
        s.base_insert(f(2), v("e"), v("g"));
        let snap = s.snapshot();

        // Before any write, every table is physically shared.
        for i in 0..3 {
            assert!(s.shares_table_with(snap.store(), f(i)));
        }
        // A write to f0 detaches exactly f0's table.
        s.base_insert(f(0), v("a2"), v("b2"));
        assert!(!s.shares_table_with(snap.store(), f(0)));
        assert!(s.shares_table_with(snap.store(), f(1)));
        assert!(s.shares_table_with(snap.store(), f(2)));
    }

    #[test]
    fn publication_is_copy_on_write_per_chunk_and_shard() {
        let mut s = Store::new(2);
        for i in 0..5_000 {
            s.base_insert(f(0), v(&format!("c{}", i % 700)), v(&format!("s{i}")));
        }
        s.base_insert(f(1), v("a"), v("b"));
        // The first write after the first publication splits the indexes
        // of the then unshared-built table.
        let first = s.snapshot();
        s.base_insert(f(0), v("c0"), v("warm"));
        assert_eq!(first.table(f(0)).part_counts()[1..], [1, 1, 1]);
        let parts = s.table(f(0)).part_counts();
        assert!(
            parts.iter().all(|&n| n > 1),
            "multi-chunk, multi-shard: {parts:?}"
        );
        let snap = s.snapshot();

        // An append detaches the last row chunk and one shard per index.
        s.base_insert(f(0), v("c1"), v("fresh"));
        assert_eq!(s.table(f(0)).unshared_parts(snap.table(f(0))), [1, 1, 1, 1]);
        assert!(s.shares_table_with(snap.store(), f(1)));

        // A flag write in an old row detaches that row's chunk and no shard.
        let snap = s.snapshot();
        let i = s.table(f(0)).position(&v("c3"), &v("s3")).unwrap();
        s.table_mut(f(0)).set_truth(i, Truth::Ambiguous);
        assert_eq!(s.table(f(0)).unshared_parts(snap.table(f(0))), [1, 0, 0, 0]);
        assert_eq!(
            snap.base_truth(&Fact::new(f(0), "c3", "s3")),
            Truth::True,
            "the snapshot keeps its chunk"
        );

        // A delete tombstones one row and drops one `index` entry.
        let snap = s.snapshot();
        s.base_delete(f(0), &v("c4"), &v("s4"));
        assert_eq!(s.table(f(0)).unshared_parts(snap.table(f(0))), [1, 1, 0, 0]);
        assert!(snap.table(f(0)).contains(&v("c4"), &v("s4")));
    }

    #[test]
    fn derived_delete_detaches_only_the_newest_nc_chunk() {
        let mut s = Store::new(1);
        for i in 0..300 {
            s.base_insert(f(0), v(&format!("x{i}")), v("y"));
            s.create_nc(vec![Fact::new(f(0), format!("x{i}").as_str(), "y")]);
        }
        let snap = s.snapshot();
        let id = s.create_nc(vec![Fact::new(f(0), "x0", "y")]);
        let newest = id.0 >> crate::nc::NC_CHUNK_BITS;
        assert!(newest > 1);
        for c in 0..newest {
            assert!(
                s.ncs().shares_chunk(snap.ncs(), c),
                "chunk {c} stays shared"
            );
        }
        assert!(!s.ncs().shares_chunk(snap.ncs(), newest));
        assert!(!snap.ncs().contains(id));
    }

    #[test]
    fn equal_stamps_mean_identical_state() {
        let mut s = Store::new(1);
        s.base_insert(f(0), v("a"), v("b"));
        let s1 = s.snapshot();
        let s2 = s.snapshot();
        assert_eq!(s1.version(), s2.version());
        let j1 = serde_json::to_string(s1.store()).unwrap();
        let j2 = serde_json::to_string(s2.store()).unwrap();
        assert_eq!(j1, j2);
    }
}
