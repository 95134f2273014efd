//! Shared, thread-safe access to a database — MVCC snapshot reads,
//! bounded writes, group-committed durability.
//!
//! The paper's design aid is single-user, but a database library needs a
//! concurrency story. Since PR 8 the shared handles are **readers never
//! wait**: every read entry point (`truth`/`extension`/`image`/eval/
//! EXPLAIN/STATS closures) runs against a *pinned snapshot* — an
//! immutable [`Database`] published by the last commit — acquired with a
//! single `Arc` clone and **zero write-lock acquisition**. A writer
//! stalling in an fsync, holding the write path, or queueing behind the
//! admission gate cannot delay a reader by more than the nanoseconds it
//! takes to swap a pointer.
//!
//! **Snapshot lifecycle.** Cloning a [`Database`] is O(#functions) `Arc`
//! bumps: schema and derivations sit behind `Arc`s that only DDL
//! detaches, and the store is copy-on-write per function, then per
//! 512-row chunk and per index shard inside a table (`fdb-storage`'s
//! `cow` module; the shard count doubles as a table grows). The first
//! write after a publication therefore copies a table's pointer spine
//! plus the one row chunk and index shards it touches, not the table;
//! the bytes are counted in `fdb.mvcc.cow_bytes_cloned`. Each handle
//! keeps a published-snapshot slot; writers republish after every
//! mutation that moved the store's monotone version counter, *except*
//! while a transaction is open —
//! uncommitted state is never published, so a reader can never observe a
//! torn or rolled-back transaction. The open transaction itself still
//! reads its own uncommitted journal through the write path (its live
//! `&mut` database), overlaid on the state it pinned at `BEGIN`.
//! Publication is ordered by the version stamp: a publish only installs
//! a strictly newer snapshot, so racing publishers cannot regress the
//! slot.
//!
//! **Write side.** Writes are unchanged in spirit: exclusive, bounded by
//! an [`OverloadPolicy`] (lock timeout + admission gate capping in-flight
//! writers), shed with the typed [`FdbError::Overloaded`] *before* any
//! mutation, so retries are always safe. [`SharedLoggedDatabase`]
//! additionally batches concurrent autocommit fsyncs through the
//! [`GroupCommit`] coordinator: each writer appends its WAL record under
//! the engine lock with the inline fsync deferred, releases the lock,
//! and one leader fsyncs the whole group — identical WAL bytes, one disk
//! flush for N writers. Transactional `COMMIT` keeps its synchronous
//! force-fsync (and failure revocation) path: the PR 6 invariant that
//! recovery lands at pre-`BEGIN` or post-`COMMIT` is untouched.

use std::ops::Deref;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use fdb_governor::{Governance, Governor};
use fdb_storage::Truth;
use fdb_types::{FdbError, FunctionId, Result, Value};

use crate::database::Database;
use crate::durability::{GroupCommit, LoggedDatabase, SyncPolicy};
use crate::stats::DatabaseStats;
use crate::update::Update;

/// Bounds on lock acquisition for the shared handles.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// How long a writer may wait for the lock (or a group-commit
    /// follower for its leader's fsync) before the request is shed with
    /// [`FdbError::Overloaded`].
    pub lock_timeout: Duration,
    /// Maximum writers simultaneously holding-or-awaiting the lock;
    /// one more is rejected immediately (admission control) instead of
    /// queueing behind a convoy.
    pub max_inflight_writers: usize,
}

impl Default for OverloadPolicy {
    fn default() -> Self {
        OverloadPolicy {
            lock_timeout: Duration::from_secs(2),
            max_inflight_writers: 64,
        }
    }
}

/// Decrements the in-flight writer count when the write attempt ends
/// (success, shed, or panic inside the closure).
struct GatePass<'a>(&'a AtomicUsize);

impl Drop for GatePass<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

fn overloaded(what: &str, waited: Duration) -> FdbError {
    fdb_obs::registry().governor_overload_sheds.inc();
    FdbError::Overloaded {
        what: what.to_owned(),
        waited_ms: waited.as_millis() as u64,
    }
}

/// A pinned MVCC snapshot: an immutable [`Database`] frozen at one
/// commit boundary. Cheap to clone (one `Arc` bump) and valid forever —
/// it answers every query exactly as the database did at its version
/// stamp, no matter what writers do afterwards.
#[derive(Clone, Debug)]
pub struct PinnedSnapshot(Arc<Database>);

impl PinnedSnapshot {
    /// The store's monotone version stamp at publication. Equal stamps
    /// imply identical state; the stamp never rewinds (even across
    /// transaction rollbacks), so it is a complete cache key.
    pub fn version(&self) -> u64 {
        self.0.store().version()
    }
}

impl Deref for PinnedSnapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.0
    }
}

/// The published-snapshot slot shared by all clones of a handle.
///
/// `pin` is a read-lock + `Arc` clone (never contended by the database
/// write path — writers only touch this slot for the instants of a
/// pointer swap). `publish` installs strictly newer snapshots only, so
/// out-of-order publishers (group-commit writers racing after their
/// fsync) cannot regress the visible state.
#[derive(Debug)]
struct SnapshotCell {
    slot: RwLock<Arc<Database>>,
}

impl SnapshotCell {
    fn new(db: &Database) -> Self {
        SnapshotCell {
            slot: RwLock::new(Arc::new(db.clone())),
        }
    }

    fn pin(&self) -> PinnedSnapshot {
        fdb_obs::registry().mvcc_snapshot_pins.inc();
        let pinned = PinnedSnapshot(self.slot.read().clone());
        fdb_obs::causal::point("fdb.mvcc.pin", || {
            format!("version={}", pinned.0.store().version())
        });
        pinned
    }

    /// Publishes `snap` if it is strictly newer than the slot.
    fn publish(&self, snap: Arc<Database>) {
        let version = snap.store().version();
        {
            let current = self.slot.read();
            if version <= current.store().version() {
                return;
            }
        }
        let mut w = self.slot.write();
        if version > w.store().version() {
            *w = snap;
            fdb_obs::registry().mvcc_snapshots_published.inc();
            fdb_obs::causal::point("fdb.mvcc.publish", || format!("version={version}"));
        }
    }

    /// Clones `db` and publishes it, unless a transaction is open
    /// (uncommitted state is never published) or nothing changed since
    /// the last publication.
    fn publish_from(&self, db: &Database) {
        if db.txn_active() {
            return;
        }
        if db.store().version() == self.slot.read().store().version() {
            return;
        }
        self.publish(Arc::new(db.clone()));
    }
}

/// A cloneable, thread-safe handle to a [`Database`].
#[derive(Clone, Debug)]
pub struct SharedDatabase {
    inner: Arc<RwLock<Database>>,
    cell: Arc<SnapshotCell>,
    gate: Arc<AtomicUsize>,
    policy: OverloadPolicy,
}

impl SharedDatabase {
    /// Wraps a database for shared access with the default
    /// [`OverloadPolicy`].
    pub fn new(db: Database) -> Self {
        SharedDatabase::with_policy(db, OverloadPolicy::default())
    }

    /// Wraps a database for shared access with an explicit policy.
    pub fn with_policy(db: Database, policy: OverloadPolicy) -> Self {
        let cell = Arc::new(SnapshotCell::new(&db));
        SharedDatabase {
            inner: Arc::new(RwLock::new(db)),
            cell,
            gate: Arc::new(AtomicUsize::new(0)),
            policy,
        }
    }

    /// The handle's overload policy.
    pub fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// Pins the current published snapshot: a zero-lock, immutable view
    /// of the database as of the last completed write. Hold it as long
    /// as you like — it never blocks a writer and never changes.
    pub fn pin(&self) -> PinnedSnapshot {
        if self.gate.load(Ordering::Acquire) > 0 {
            fdb_obs::registry().mvcc_stale_snapshot_reads.inc();
        }
        self.cell.pin()
    }

    /// Runs a closure against a pinned snapshot. Lock-free: a writer
    /// holding the write path cannot delay this (the closure sees the
    /// state as of the last completed write).
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.pin())
    }

    /// [`SharedDatabase::read`] with the governor consulted up front:
    /// an expired deadline or tripped cancellation token sheds the read
    /// with the corresponding typed error before the snapshot is pinned.
    /// (Snapshot pins cannot block, so unlike writes there is no lock
    /// wait to clamp — pass the governor on to `*_governed` query
    /// methods inside the closure to bound the query itself.)
    pub fn read_governed<R>(
        &self,
        governor: &Governor,
        f: impl FnOnce(&Database) -> R,
    ) -> Result<R> {
        governor
            .check()
            .map_err(|r| r.into_error("database read"))?;
        Ok(self.read(f))
    }

    /// Runs a closure with exclusive write access.
    ///
    /// Bounded: if the admission gate is full the request is rejected
    /// immediately; if the lock cannot be acquired within the policy's
    /// timeout the request is shed. Either way the error is
    /// [`FdbError::Overloaded`], nothing was executed, and a retry is
    /// safe. On success the new state is published for readers before
    /// this returns (read-your-write through any handle clone).
    pub fn write<R>(&self, f: impl FnOnce(&mut Database) -> R) -> Result<R> {
        self.write_bounded(self.policy.lock_timeout, f)
    }

    /// [`SharedDatabase::write`] with the wait additionally clamped to
    /// `governor`'s remaining time (a request that would outlive its
    /// deadline is shed early; a cancelled governor sheds immediately).
    pub fn write_governed<R>(
        &self,
        governor: &Governor,
        f: impl FnOnce(&mut Database) -> R,
    ) -> Result<R> {
        governor
            .check()
            .map_err(|r| r.into_error("database write"))?;
        let timeout = match governor.remaining_time() {
            Some(left) => left.min(self.policy.lock_timeout),
            None => self.policy.lock_timeout,
        };
        self.write_bounded(timeout, f)
    }

    fn write_bounded<R>(&self, timeout: Duration, f: impl FnOnce(&mut Database) -> R) -> Result<R> {
        let inflight = self.gate.fetch_add(1, Ordering::AcqRel);
        let _pass = GatePass(&self.gate);
        if inflight >= self.policy.max_inflight_writers {
            return Err(overloaded("write admission gate", Duration::ZERO));
        }
        let t0 = Instant::now();
        match self.inner.try_write_for(timeout) {
            Some(mut guard) => {
                let r = f(&mut guard);
                // Publish while still holding the write lock: the slot
                // always advances in commit order.
                self.cell.publish_from(&guard);
                Ok(r)
            }
            None => Err(overloaded("database write lock", t0.elapsed())),
        }
    }

    /// Extracts the database, if this is the last handle; otherwise
    /// returns the handle back.
    pub fn try_unwrap(self) -> std::result::Result<Database, SharedDatabase> {
        let SharedDatabase {
            inner,
            cell,
            gate,
            policy,
        } = self;
        Arc::try_unwrap(inner)
            .map(RwLock::into_inner)
            .map_err(|inner| SharedDatabase {
                inner,
                cell,
                gate,
                policy,
            })
    }

    // --- convenience wrappers for the common operations ---

    /// Resolves a function name.
    pub fn resolve(&self, name: &str) -> Result<FunctionId> {
        self.read(|db| db.resolve(name))
    }

    /// `INS(f, <x, y>)`.
    pub fn insert(&self, f: FunctionId, x: Value, y: Value) -> Result<()> {
        self.write(|db| db.insert(f, x, y))?
    }

    /// `DEL(f, <x, y>)`.
    pub fn delete(&self, f: FunctionId, x: &Value, y: &Value) -> Result<()> {
        self.write(|db| db.delete(f, x, y))?
    }

    /// Applies a batch atomically.
    pub fn apply_all(&self, updates: Vec<Update>) -> Result<usize> {
        self.write(|db| db.apply_all(updates))?
    }

    /// Truth of a fact.
    pub fn truth(&self, f: FunctionId, x: &Value, y: &Value) -> Result<Truth> {
        self.read(|db| db.truth(f, x, y))
    }

    /// Instance statistics.
    pub fn stats(&self) -> DatabaseStats {
        self.read(|db| db.stats())
    }

    /// Consistency check.
    pub fn is_consistent(&self) -> bool {
        self.read(|db| db.is_consistent())
    }
}

/// A cloneable, thread-safe handle to a [`LoggedDatabase`]: shared
/// access with every mutation written ahead to the log.
///
/// Writers serialise on one mutex so the log order *is* the apply order
/// — replaying the log always reproduces the live state, no matter how
/// many threads were appending. Reads never touch that mutex: they pin
/// the snapshot published at the last commit boundary, so a writer stuck
/// in an fsync cannot stall them. Under [`SyncPolicy::Always`] the
/// autocommit write path group-commits: concurrent writers' WAL records
/// are made durable by one batched fsync (see [`GroupCommit`]), and a
/// write is acknowledged — and its state published to readers — only
/// after the fsync covering it succeeded. Write-side access is bounded
/// by the handle's [`OverloadPolicy`] lock timeout: a request that
/// cannot get the mutex (or, for a group-commit follower, its leader's
/// fsync) in time is shed with [`FdbError::Overloaded`].
#[derive(Clone, Debug)]
pub struct SharedLoggedDatabase {
    inner: Arc<Mutex<LoggedDatabase>>,
    cell: Arc<SnapshotCell>,
    group: Arc<GroupCommit>,
    policy: OverloadPolicy,
}

impl SharedLoggedDatabase {
    /// Wraps a logged database for shared access with the default
    /// [`OverloadPolicy`].
    pub fn new(ldb: LoggedDatabase) -> Self {
        SharedLoggedDatabase::with_policy(ldb, OverloadPolicy::default())
    }

    /// Wraps a logged database for shared access with an explicit
    /// policy.
    pub fn with_policy(ldb: LoggedDatabase, policy: OverloadPolicy) -> Self {
        let cell = Arc::new(SnapshotCell::new(ldb.database()));
        SharedLoggedDatabase {
            inner: Arc::new(Mutex::new(ldb)),
            cell,
            group: Arc::new(GroupCommit::new()),
            policy,
        }
    }

    /// The handle's overload policy.
    pub fn policy(&self) -> OverloadPolicy {
        self.policy
    }

    /// Pins the current published snapshot (see
    /// [`SharedDatabase::pin`]): zero-lock, immutable, never stalled by
    /// a writer holding the engine mutex or an fsync.
    pub fn pin(&self) -> PinnedSnapshot {
        if self.inner.is_locked() {
            fdb_obs::registry().mvcc_stale_snapshot_reads.inc();
        }
        self.cell.pin()
    }

    /// Runs a closure against a pinned snapshot of the live database.
    /// Lock-free and infallible; the `Result` is kept for signature
    /// compatibility with the bounded-lock era.
    pub fn read<R>(&self, f: impl FnOnce(&Database) -> R) -> Result<R> {
        Ok(f(&self.pin()))
    }

    /// [`SharedLoggedDatabase::read`] with the governor consulted up
    /// front (see [`SharedDatabase::read_governed`]).
    pub fn read_governed<R>(
        &self,
        governor: &Governor,
        f: impl FnOnce(&Database) -> R,
    ) -> Result<R> {
        governor
            .check()
            .map_err(|r| r.into_error("logged database read"))?;
        self.read(f)
    }

    /// Runs a closure with exclusive access to the logged engine. On
    /// return, if no transaction is open and the state changed, the new
    /// state is published for readers.
    pub fn with<R>(&self, f: impl FnOnce(&mut LoggedDatabase) -> R) -> Result<R> {
        let mut guard = self.lock_bounded(self.policy.lock_timeout, "logged database lock")?;
        let r = f(&mut guard);
        self.cell.publish_from(guard.database());
        Ok(r)
    }

    /// [`SharedLoggedDatabase::with`] with the lock wait clamped to
    /// `governor`'s remaining time, and the governor re-checked while
    /// holding the lock so the closure (typically an append + fsync)
    /// never even starts past the deadline.
    pub fn with_governed<R>(
        &self,
        governor: &Governor,
        f: impl FnOnce(&mut LoggedDatabase) -> R,
    ) -> Result<R> {
        governor
            .check()
            .map_err(|r| r.into_error("logged database access"))?;
        let timeout = match governor.remaining_time() {
            Some(left) => left.min(self.policy.lock_timeout),
            None => self.policy.lock_timeout,
        };
        let mut guard = self.lock_bounded(timeout, "logged database lock")?;
        governor
            .check()
            .map_err(|r| r.into_error("logged database access"))?;
        let r = f(&mut guard);
        self.cell.publish_from(guard.database());
        Ok(r)
    }

    /// The autocommit group-commit write path. Under
    /// [`SyncPolicy::Always`] with no open transaction: apply + append
    /// under the engine lock with the inline fsync deferred, release the
    /// lock, then make the record durable through the [`GroupCommit`]
    /// coordinator (one batched fsync per group of concurrent writers).
    /// The new state is published to readers only after the fsync
    /// covering it succeeded — a reader can never observe a state that
    /// an immediate crash would lose under `Always`.
    ///
    /// Any other configuration (lazy sync policies, open transaction)
    /// falls back to the plain [`SharedLoggedDatabase::with`] semantics.
    fn write_grouped(&self, f: impl FnOnce(&mut LoggedDatabase) -> Result<()>) -> Result<()> {
        let mut guard = self.lock_bounded(self.policy.lock_timeout, "logged database lock")?;
        let grouped = guard.config().sync_policy == SyncPolicy::Always && !guard.txn_active();
        if !grouped {
            let r = f(&mut guard);
            self.cell.publish_from(guard.database());
            return r;
        }
        guard.set_defer_sync(true);
        let r = f(&mut guard);
        guard.set_defer_sync(false);
        r?;
        let seq = guard.last_seq();
        let snap = Arc::new(guard.database().clone());
        drop(guard);

        self.group.sync_to(seq, self.policy.lock_timeout, || {
            match self.lock_bounded(self.policy.lock_timeout, "group fsync lock") {
                Ok(mut g) => (g.last_seq(), g.sync()),
                Err(e) => (0, Err(e)),
            }
        })?;
        self.cell.publish(snap);
        Ok(())
    }

    fn lock_bounded(
        &self,
        timeout: Duration,
        what: &str,
    ) -> Result<parking_lot::MutexGuard<'_, LoggedDatabase>> {
        let t0 = Instant::now();
        self.inner
            .try_lock_for(timeout)
            .ok_or_else(|| overloaded(what, t0.elapsed()))
    }

    /// Extracts the engine, if this is the last handle; otherwise
    /// returns the handle back.
    pub fn try_unwrap(self) -> std::result::Result<LoggedDatabase, SharedLoggedDatabase> {
        let SharedLoggedDatabase {
            inner,
            cell,
            group,
            policy,
        } = self;
        Arc::try_unwrap(inner)
            .map(Mutex::into_inner)
            .map_err(|inner| SharedLoggedDatabase {
                inner,
                cell,
                group,
                policy,
            })
    }

    /// `INS` by function name (logged, group-committed).
    pub fn insert(&self, function: &str, x: Value, y: Value) -> Result<()> {
        self.write_grouped(|ldb| ldb.insert(function, x, y))
    }

    /// `DEL` by function name (logged, group-committed).
    pub fn delete(&self, function: &str, x: Value, y: Value) -> Result<()> {
        self.write_grouped(|ldb| ldb.delete(function, x, y))
    }

    /// Applies one engine-level update (logged, group-committed).
    pub fn apply_update(&self, update: &Update) -> Result<()> {
        self.write_grouped(|ldb| ldb.apply_update(update))
    }

    /// Durably syncs the log.
    pub fn sync(&self) -> Result<()> {
        self.with(LoggedDatabase::sync)?
    }

    /// Durably syncs the log under a deadline: the lock wait is clamped
    /// to the governor's remaining time and the fsync is not started if
    /// the deadline already passed.
    pub fn sync_governed(&self, governor: &Governor) -> Result<()> {
        self.with_governed(governor, LoggedDatabase::sync)?
    }

    /// Takes a checkpoint now.
    pub fn checkpoint(&self) -> Result<()> {
        self.with(LoggedDatabase::checkpoint)?
    }

    /// Opens a logged transaction frame ([`LoggedDatabase::begin`]).
    /// While the transaction is open, readers keep pinning the
    /// pre-`BEGIN` snapshot — uncommitted state is never published.
    pub fn begin(&self) -> Result<()> {
        self.with(LoggedDatabase::begin)?
    }

    /// Commits the open transaction ([`LoggedDatabase::commit`]): the
    /// commit marker is force-fsynced synchronously, then the committed
    /// state becomes visible to readers atomically.
    pub fn commit(&self) -> Result<()> {
        self.with(LoggedDatabase::commit)?
    }

    /// Rolls the open transaction back ([`LoggedDatabase::rollback`]).
    pub fn rollback(&self) -> Result<()> {
        self.with(LoggedDatabase::rollback)?
    }

    /// Sets a named savepoint ([`LoggedDatabase::savepoint`]).
    pub fn savepoint(&self, name: &str) -> Result<()> {
        self.with(|ldb| ldb.savepoint(name))?
    }

    /// Rolls back to a named savepoint
    /// ([`LoggedDatabase::rollback_to`]).
    pub fn rollback_to(&self, name: &str) -> Result<()> {
        self.with(|ldb| ldb.rollback_to(name))?
    }

    /// Runs `f` under the lock, retrying with jittered exponential
    /// backoff whenever the attempt is shed with
    /// [`FdbError::Overloaded`] — the one error that guarantees nothing
    /// was executed, so a retry is always safe. Any other outcome
    /// (success or a different error) is returned as-is.
    ///
    /// The backoff is deterministic (a seeded LCG supplies the jitter, so
    /// chaos runs replay bit-identically) and bounded twice over: by
    /// `max_retries`, and by `governor`'s remaining deadline — a sleep
    /// that would outlive the deadline is not taken, the last `Overloaded`
    /// is returned instead.
    pub fn retry_on_overload<R>(
        &self,
        governor: &Governor,
        max_retries: u32,
        mut f: impl FnMut(&mut LoggedDatabase) -> Result<R>,
    ) -> Result<R> {
        const BASE_DELAY: Duration = Duration::from_millis(2);
        const MAX_DELAY: Duration = Duration::from_millis(100);
        // Deterministic jitter: Knuth's MMIX LCG over the attempt index.
        let mut rng: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut attempt = 0u32;
        loop {
            // Flatten the two layers: a shed lock (outer) and an
            // `Overloaded` surfaced by the closure (inner) are retried
            // the same way.
            let outcome = self.with_governed(governor, &mut f).and_then(|r| r);
            match outcome {
                Ok(r) => return Ok(r),
                Err(e) if matches!(e, FdbError::Overloaded { .. }) && attempt < max_retries => {
                    attempt += 1;
                    rng = rng
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let exp = BASE_DELAY.saturating_mul(1u32 << attempt.min(6));
                    let capped = exp.min(MAX_DELAY);
                    // Jitter in [capped/2, capped): desynchronises
                    // colliding retriers without ever zeroing the wait.
                    let half = capped / 2;
                    let jitter_ns = (rng >> 33) % half.as_nanos().max(1) as u64;
                    let delay = half + Duration::from_nanos(jitter_ns);
                    match governor.remaining_time() {
                        Some(left) if left <= delay => return Err(e),
                        _ => {}
                    }
                    fdb_obs::registry().txn_overload_retries.inc();
                    std::thread::sleep(delay);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Changes when appends are fsynced.
    pub fn set_sync_policy(&self, policy: SyncPolicy) -> Result<()> {
        self.with(|ldb| ldb.set_sync_policy(policy))
    }

    /// Truth of a fact.
    pub fn truth(&self, f: FunctionId, x: &Value, y: &Value) -> Result<Truth> {
        self.read(|db| db.truth(f, x, y))?
    }

    /// Instance statistics.
    pub fn stats(&self) -> Result<DatabaseStats> {
        self.read(|db| db.stats())
    }

    /// Consistency check.
    pub fn is_consistent(&self) -> Result<bool> {
        self.read(|db| db.is_consistent())
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
        db
    }

    #[test]
    fn handles_share_state() {
        let shared = SharedDatabase::new(university());
        let other = shared.clone();
        let teach = shared.resolve("teach").unwrap();
        shared.insert(teach, v("euclid"), v("math")).unwrap();
        assert_eq!(other.stats().base_facts, 1);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        let class_list = shared.resolve("class_list").unwrap();
        let mut handles = Vec::new();
        for w in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    h.insert(teach, v(&format!("prof{w}_{i}")), v(&format!("c{i}")))
                        .unwrap();
                    h.insert(class_list, v(&format!("c{i}")), v(&format!("s{w}_{i}")))
                        .unwrap();
                }
            }));
        }
        for r in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                let pupil = h.resolve("pupil").unwrap();
                for i in 0..50 {
                    let _ = h
                        .truth(pupil, &v(&format!("prof{r}_{i}")), &v(&format!("s{r}_{i}")))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.stats().base_facts, 4 * 50 * 2);
        assert!(shared.is_consistent());
    }

    #[test]
    fn reads_never_wait_for_a_writer_holding_the_lock() {
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        shared.insert(teach, v("euclid"), v("math")).unwrap();

        let holder = shared.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            holder
                .write(|db| {
                    db.insert(teach, v("gauss"), v("algebra")).unwrap();
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(200));
                })
                .unwrap();
        });
        rx.recv().unwrap(); // writer is inside the write lock
        let t0 = Instant::now();
        // The read completes immediately against the last *published*
        // state: euclid is visible, the in-flight gauss is not.
        assert_eq!(
            shared.truth(teach, &v("euclid"), &v("math")).unwrap(),
            Truth::True
        );
        assert_eq!(
            shared.truth(teach, &v("gauss"), &v("algebra")).unwrap(),
            Truth::False
        );
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "snapshot read stalled behind a writer: {:?}",
            t0.elapsed()
        );
        hold.join().unwrap();
        // After the write completed, its state is published.
        assert_eq!(
            shared.truth(teach, &v("gauss"), &v("algebra")).unwrap(),
            Truth::True
        );
    }

    #[test]
    fn pinned_snapshot_is_frozen() {
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        shared.insert(teach, v("euclid"), v("math")).unwrap();
        let pin = shared.pin();
        let stamp = pin.version();
        shared.insert(teach, v("gauss"), v("algebra")).unwrap();
        assert_eq!(
            pin.truth(teach, &v("gauss"), &v("algebra")).unwrap(),
            Truth::False
        );
        assert_eq!(pin.version(), stamp);
        assert!(shared.pin().version() > stamp);
    }

    #[test]
    fn read_governed_sheds_on_expired_deadline() {
        let shared = SharedDatabase::new(university());
        let gov = Governor::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            shared.read_governed(&gov, |db| db.stats()),
            Err(FdbError::DeadlineExceeded(_))
        ));
        let gov = Governor::unbounded();
        gov.cancel_token().cancel();
        assert!(matches!(
            shared.read_governed(&gov, |db| db.stats()),
            Err(FdbError::Cancelled)
        ));
        let gov = Governor::with_deadline(Duration::from_secs(10));
        assert!(shared.read_governed(&gov, |db| db.stats()).is_ok());
    }

    #[test]
    fn try_unwrap_returns_database_when_unique() {
        let shared = SharedDatabase::new(university());
        let clone = shared.clone();
        let shared = match shared.try_unwrap() {
            Err(handle) => handle, // clone still alive
            Ok(_) => panic!("should not unwrap with two handles"),
        };
        drop(clone);
        let db = shared.try_unwrap().expect("last handle unwraps");
        assert!(db.is_consistent());
    }

    #[test]
    fn shared_logged_writers_replay_to_live_state() {
        use crate::durability::DurabilityConfig;
        use crate::storage::SimDisk;

        let disk = Arc::new(SimDisk::new());
        let mut ldb = LoggedDatabase::create_with(
            disk.clone(),
            "/shared_db",
            DurabilityConfig {
                sync_policy: SyncPolicy::EveryN(16),
                checkpoint_every: Some(64),
                segment_max_bytes: 4096,
            },
        )
        .unwrap();
        ldb.import_schema(&university()).unwrap();
        let shared = SharedLoggedDatabase::new(ldb);

        let mut handles = Vec::new();
        for w in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..25 {
                    h.insert("teach", v(&format!("prof{w}_{i}")), v(&format!("c{i}")))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(shared.is_consistent().unwrap());
        let live = shared.read(|db| db.to_snapshot().unwrap()).unwrap();
        let ldb = shared.try_unwrap().expect("last handle");
        drop(ldb);

        let (recovered, _) = LoggedDatabase::open_with(
            disk,
            "/shared_db",
            crate::durability::DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.database().to_snapshot().unwrap(), live);
    }

    #[test]
    fn grouped_writes_are_durable_when_acknowledged() {
        use crate::durability::DurabilityConfig;
        use crate::storage::SimDisk;

        let disk = Arc::new(SimDisk::new());
        let mut ldb = LoggedDatabase::create_with(
            disk.clone(),
            "/group_db",
            DurabilityConfig::default(), // SyncPolicy::Always → grouped
        )
        .unwrap();
        ldb.import_schema(&university()).unwrap();
        let shared = SharedLoggedDatabase::new(ldb);
        let mut handles = Vec::new();
        for w in 0..4 {
            let h = shared.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..10 {
                    h.insert("teach", v(&format!("p{w}_{i}")), v(&format!("c{i}")))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let live = shared.read(|db| db.to_snapshot().unwrap()).unwrap();
        // No explicit sync, no graceful close: drop the engine cold. Every
        // acknowledged write must already be durable.
        drop(shared.try_unwrap().expect("last handle"));
        let (recovered, _) = LoggedDatabase::open_with(
            disk,
            "/group_db",
            crate::durability::DurabilityConfig::default(),
        )
        .unwrap();
        assert_eq!(recovered.database().to_snapshot().unwrap(), live);
        assert_eq!(recovered.database().stats().base_facts, 40);
    }

    #[test]
    fn group_fsync_failure_surfaces_to_the_writer() {
        use crate::durability::DurabilityConfig;
        use crate::storage::SimDisk;

        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk.clone(), "/gfail_db", DurabilityConfig::default())
                .unwrap();
        ldb.import_schema(&university()).unwrap();
        let shared = SharedLoggedDatabase::new(ldb);
        disk.fail_sync(1);
        assert!(shared.insert("teach", v("euclid"), v("math")).is_err());
        // The disk healed: later writes succeed and are durable.
        shared.insert("teach", v("gauss"), v("algebra")).unwrap();
        assert_eq!(
            shared
                .truth(
                    shared.read(|db| db.resolve("teach")).unwrap().unwrap(),
                    &v("gauss"),
                    &v("algebra")
                )
                .unwrap(),
            Truth::True
        );
    }

    #[test]
    fn uncommitted_transaction_is_invisible_to_readers() {
        use crate::durability::DurabilityConfig;
        use crate::storage::SimDisk;

        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk, "/txnvis_db", DurabilityConfig::default()).unwrap();
        ldb.import_schema(&university()).unwrap();
        let shared = SharedLoggedDatabase::new(ldb);
        let teach = shared.read(|db| db.resolve("teach")).unwrap().unwrap();

        shared.begin().unwrap();
        shared
            .with(|ldb| ldb.insert("teach", v("euclid"), v("math")))
            .unwrap()
            .unwrap();
        // The write path sees its own uncommitted journal…
        assert_eq!(
            shared
                .with(|ldb| ldb.database().truth(teach, &v("euclid"), &v("math")))
                .unwrap()
                .unwrap(),
            Truth::True
        );
        // …while snapshot readers still see the pre-BEGIN state.
        assert_eq!(
            shared.truth(teach, &v("euclid"), &v("math")).unwrap(),
            Truth::False
        );
        shared.commit().unwrap();
        // Commit publishes atomically.
        assert_eq!(
            shared.truth(teach, &v("euclid"), &v("math")).unwrap(),
            Truth::True
        );

        // A rolled-back transaction never becomes visible.
        shared.begin().unwrap();
        shared
            .with(|ldb| ldb.insert("teach", v("noether"), v("rings")))
            .unwrap()
            .unwrap();
        assert_eq!(
            shared.truth(teach, &v("noether"), &v("rings")).unwrap(),
            Truth::False
        );
        shared.rollback().unwrap();
        assert_eq!(
            shared.truth(teach, &v("noether"), &v("rings")).unwrap(),
            Truth::False
        );
    }

    #[test]
    fn write_sheds_instead_of_blocking_forever() {
        let shared = SharedDatabase::with_policy(
            university(),
            OverloadPolicy {
                lock_timeout: Duration::from_millis(20),
                max_inflight_writers: 8,
            },
        );
        let holder = shared.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            holder
                .write(|_db| {
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(200));
                })
                .unwrap();
        });
        rx.recv().unwrap(); // lock is now held
        let err = shared.write(|_db| ()).unwrap_err();
        match err {
            FdbError::Overloaded { what, .. } => assert_eq!(what, "database write lock"),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        hold.join().unwrap();
        // Lock released: writes succeed again.
        shared.write(|_db| ()).unwrap();
    }

    #[test]
    fn admission_gate_rejects_excess_writers() {
        let shared = SharedDatabase::with_policy(
            university(),
            OverloadPolicy {
                lock_timeout: Duration::from_millis(500),
                max_inflight_writers: 1,
            },
        );
        let holder = shared.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            holder
                .write(|_db| {
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(150));
                })
                .unwrap();
        });
        rx.recv().unwrap(); // one writer in flight = at capacity
        let t0 = Instant::now();
        let err = shared.write(|_db| ()).unwrap_err();
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "gate rejection must be immediate, waited {:?}",
            t0.elapsed()
        );
        match err {
            FdbError::Overloaded { what, waited_ms } => {
                assert_eq!(what, "write admission gate");
                assert_eq!(waited_ms, 0);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        hold.join().unwrap();
        shared.write(|_db| ()).unwrap();
    }

    #[test]
    fn governed_write_respects_deadline_and_cancel() {
        let shared = SharedDatabase::new(university());
        // Expired deadline: shed before touching the lock.
        let gov = Governor::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            shared.write_governed(&gov, |_db| ()),
            Err(FdbError::DeadlineExceeded(_))
        ));
        // Cancelled token: shed as Cancelled.
        let gov = Governor::unbounded();
        gov.cancel_token().cancel();
        assert!(matches!(
            shared.write_governed(&gov, |_db| ()),
            Err(FdbError::Cancelled)
        ));
        // Healthy governor: goes through.
        let gov = Governor::with_deadline(Duration::from_secs(10));
        shared.write_governed(&gov, |_db| ()).unwrap();
    }

    #[test]
    fn logged_handle_sheds_when_lock_is_stuck() {
        use crate::durability::DurabilityConfig;
        use crate::storage::SimDisk;

        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk, "/stuck_db", DurabilityConfig::default()).unwrap();
        ldb.import_schema(&university()).unwrap();
        let shared = SharedLoggedDatabase::with_policy(
            ldb,
            OverloadPolicy {
                lock_timeout: Duration::from_millis(20),
                max_inflight_writers: 8,
            },
        );
        let holder = shared.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            holder
                .with(|_ldb| {
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(150));
                })
                .unwrap();
        });
        rx.recv().unwrap();
        assert!(matches!(
            shared.insert("teach", v("euclid"), v("math")),
            Err(FdbError::Overloaded { .. })
        ));
        // Reads, by contrast, proceed against the snapshot while the
        // engine mutex is stuck.
        let t0 = Instant::now();
        assert!(shared.stats().is_ok());
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "snapshot read stalled behind the engine mutex"
        );
        // sync under an expired deadline is refused up front.
        let gov = Governor::with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(
            shared.sync_governed(&gov),
            Err(FdbError::DeadlineExceeded(_))
        ));
        hold.join().unwrap();
        shared.insert("teach", v("euclid"), v("math")).unwrap();
        shared.sync().unwrap();
    }

    #[test]
    fn retry_on_overload_waits_out_a_stuck_lock() {
        use crate::durability::DurabilityConfig;
        use crate::storage::SimDisk;

        let disk = Arc::new(SimDisk::new());
        let mut ldb =
            LoggedDatabase::create_with(disk, "/retry_db", DurabilityConfig::default()).unwrap();
        ldb.import_schema(&university()).unwrap();
        let shared = SharedLoggedDatabase::with_policy(
            ldb,
            OverloadPolicy {
                lock_timeout: Duration::from_millis(10),
                max_inflight_writers: 8,
            },
        );
        let holder = shared.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            holder
                .with(|_ldb| {
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(80));
                })
                .unwrap();
        });
        rx.recv().unwrap(); // lock held: first attempts will be shed
        let gov = Governor::with_deadline(Duration::from_secs(5));
        shared
            .retry_on_overload(&gov, 16, |ldb| ldb.insert("teach", v("euclid"), v("math")))
            .unwrap();
        hold.join().unwrap();
        assert_eq!(shared.stats().unwrap().base_facts, 1);

        // Zero remaining deadline: the retry loop refuses to sleep and
        // surfaces the overload instead.
        let holder = shared.clone();
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let hold = std::thread::spawn(move || {
            holder
                .with(|_ldb| {
                    tx.send(()).unwrap();
                    std::thread::sleep(Duration::from_millis(80));
                })
                .unwrap();
        });
        rx.recv().unwrap();
        let gov = Governor::with_deadline(Duration::from_millis(15));
        let err = shared
            .retry_on_overload(&gov, 16, |ldb| ldb.insert("teach", v("gauss"), v("math")))
            .unwrap_err();
        assert!(err.is_governed_stop(), "got {err:?}");
        hold.join().unwrap();
    }

    #[test]
    fn atomic_batches_under_sharing() {
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        let err = shared.apply_all(vec![
            Update::Insert {
                function: teach,
                x: v("a"),
                y: v("b"),
            },
            Update::Insert {
                function: teach,
                x: Value::Null(fdb_types::NullId(1)),
                y: v("boom"),
            },
        ]);
        assert!(err.is_err());
        assert_eq!(shared.stats().base_facts, 0);
    }

    #[test]
    fn retry_on_overload_note_reads_inside_with_see_live_state() {
        // `with` closures read the live database (their own uncommitted
        // journal included); `read` closures see the published snapshot.
        // After any completed non-transactional `with`, the two agree.
        let shared = SharedDatabase::new(university());
        let teach = shared.resolve("teach").unwrap();
        shared.insert(teach, v("a"), v("b")).unwrap();
        let via_write = shared
            .write(|db| db.truth(teach, &v("a"), &v("b")).unwrap())
            .unwrap();
        let via_read = shared.truth(teach, &v("a"), &v("b")).unwrap();
        assert_eq!(via_write, via_read);
    }
}
