//! Materialised extensions of derived functions.
//!
//! Derived facts are never stored (§3.2), so every read recomputes
//! chains. For read-heavy workloads a caller can *materialise* a derived
//! function's extension and refresh it only when the function's **support
//! set** — the base functions its derivations read, plus the NCs over
//! them — has actually changed. Staleness is detected through the store's
//! per-function mutation counters captured in a
//! [`fdb_exec::SupportSnapshot`], so writes to unrelated functions leave
//! the cache valid, and a refresh after `k` reads and no relevant writes
//! costs a handful of integer comparisons.
//!
//! Materialisation is a client-side cache, deliberately outside
//! [`Database`]: the engine's truth semantics stay pull-based and
//! storage-faithful, and no hidden interior mutability complicates
//! snapshots or sharing.

use fdb_exec::SupportSnapshot;
use fdb_storage::{DerivedPair, Truth};
use fdb_types::{FunctionId, Result, Value};

use crate::database::Database;

/// A cached extension of one derived (or base) function.
#[derive(Clone, Debug)]
pub struct MaterializedExtension {
    function: FunctionId,
    snapshot: SupportSnapshot,
    pairs: Vec<DerivedPair>,
}

impl MaterializedExtension {
    /// Computes the extension of `f` and snapshots the mutation counters
    /// of its support set.
    pub fn new(db: &Database, f: FunctionId) -> Result<Self> {
        Ok(MaterializedExtension {
            function: f,
            snapshot: SupportSnapshot::capture(db.store(), db.support_functions(f)),
            pairs: db.extension(f)?,
        })
    }

    /// The cached function.
    pub fn function(&self) -> FunctionId {
        self.function
    }

    /// `true` if some function in the support set has mutated since this
    /// cache was computed. Writes outside the support set — which cannot
    /// change any chain or any NC coverable by one — do not count.
    pub fn is_stale(&self, db: &Database) -> bool {
        self.snapshot.is_stale(db.store())
    }

    /// Recomputes if stale; returns `true` if a refresh happened.
    pub fn refresh(&mut self, db: &Database) -> Result<bool> {
        if !self.is_stale(db) {
            return Ok(false);
        }
        self.snapshot = SupportSnapshot::capture(db.store(), db.support_functions(self.function));
        self.pairs = db.extension(self.function)?;
        Ok(true)
    }

    /// The cached pairs, sorted by (x, y).
    pub fn pairs(&self) -> &[DerivedPair] {
        &self.pairs
    }

    /// Truth lookup against the cache (binary search; [`Truth::False`]
    /// for absent pairs). Callers must [`MaterializedExtension::refresh`]
    /// first if the database may have changed.
    pub fn truth(&self, x: &Value, y: &Value) -> Truth {
        self.pairs
            .binary_search_by(|p| (&p.x, &p.y).cmp(&(x, y)))
            .map(|i| self.pairs[i].truth)
            .unwrap_or(Truth::False)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::{Derivation, Schema, Step};

    fn v(s: &str) -> Value {
        Value::atom(s)
    }

    fn university() -> Database {
        let schema = Schema::builder()
            .function("teach", "faculty", "course", "many-many")
            .function("class_list", "course", "student", "many-many")
            .function("pupil", "faculty", "student", "many-many")
            .function("office", "faculty", "room", "many-one")
            .build()
            .unwrap();
        let mut db = Database::new(schema);
        let (t, c, p) = (
            db.resolve("teach").unwrap(),
            db.resolve("class_list").unwrap(),
            db.resolve("pupil").unwrap(),
        );
        db.register_derived(
            p,
            vec![Derivation::new(vec![Step::identity(t), Step::identity(c)]).unwrap()],
        )
        .unwrap();
        db.insert(t, v("euclid"), v("math")).unwrap();
        db.insert(c, v("math"), v("john")).unwrap();
        db.insert(c, v("math"), v("bill")).unwrap();
        db
    }

    #[test]
    fn cache_answers_match_live_queries() {
        let db = university();
        let pupil = db.resolve("pupil").unwrap();
        let cache = MaterializedExtension::new(&db, pupil).unwrap();
        assert_eq!(cache.pairs().len(), 2);
        assert_eq!(cache.truth(&v("euclid"), &v("john")), Truth::True);
        assert_eq!(cache.truth(&v("euclid"), &v("nobody")), Truth::False);
        assert!(!cache.is_stale(&db));
    }

    #[test]
    fn mutations_invalidate_and_refresh_recomputes() {
        let mut db = university();
        let pupil = db.resolve("pupil").unwrap();
        let teach = db.resolve("teach").unwrap();
        let mut cache = MaterializedExtension::new(&db, pupil).unwrap();

        db.insert(teach, v("laplace"), v("math")).unwrap();
        assert!(cache.is_stale(&db));
        assert!(cache.refresh(&db).unwrap());
        assert_eq!(cache.pairs().len(), 4);
        assert!(!cache.refresh(&db).unwrap(), "second refresh is a no-op");

        // Derived deletes (NC creation) also invalidate.
        db.delete(pupil, &v("euclid"), &v("john")).unwrap();
        assert!(cache.is_stale(&db));
        cache.refresh(&db).unwrap();
        assert_eq!(cache.truth(&v("euclid"), &v("john")), Truth::False);
        assert_eq!(cache.truth(&v("euclid"), &v("bill")), Truth::Ambiguous);
    }

    #[test]
    fn writes_outside_the_support_set_do_not_invalidate() {
        let mut db = university();
        let pupil = db.resolve("pupil").unwrap();
        let office = db.resolve("office").unwrap();
        let cache = MaterializedExtension::new(&db, pupil).unwrap();

        // `office` is not in pupil's support set {teach, class_list}:
        // inserting and deleting there leaves the cache valid.
        db.insert(office, v("euclid"), v("e-101")).unwrap();
        assert!(!cache.is_stale(&db));
        db.delete(office, &v("euclid"), &v("e-101")).unwrap();
        assert!(!cache.is_stale(&db));
        let mut cache = cache;
        assert!(!cache.refresh(&db).unwrap());
        assert_eq!(cache.truth(&v("euclid"), &v("john")), Truth::True);

        // A support-set write still invalidates.
        let teach = db.resolve("teach").unwrap();
        db.insert(teach, v("laplace"), v("math")).unwrap();
        assert!(cache.is_stale(&db));
    }

    #[test]
    fn works_for_base_functions_too() {
        let db = university();
        let teach = db.resolve("teach").unwrap();
        let cache = MaterializedExtension::new(&db, teach).unwrap();
        assert_eq!(cache.truth(&v("euclid"), &v("math")), Truth::True);
    }
}
