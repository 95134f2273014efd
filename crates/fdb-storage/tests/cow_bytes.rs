//! `fdb.mvcc.cow_bytes_cloned` counts what a write after publication
//! copies. The counter is process-wide, so this binary holds a single
//! test: nothing else bumps it while the test measures.

use std::mem::size_of;

use fdb_storage::chain::{derived_delete, ChainLimits};
use fdb_storage::{Fact, NcId, Store, Truth};
use fdb_types::{Derivation, FunctionId, Step, Value};

const TEACH: FunctionId = FunctionId(0);
const CLASS_LIST: FunctionId = FunctionId(1);

fn v(s: impl std::fmt::Display) -> Value {
    Value::atom(s.to_string())
}

fn cloned() -> u64 {
    fdb_obs::registry().mvcc_cow_bytes_cloned.get()
}

/// A `class_list`-shaped table of `rows` rows over 400 courses.
fn class_list(rows: usize) -> Store {
    let mut s = Store::new(2);
    for i in 0..rows {
        s.base_insert(CLASS_LIST, v(format!("c{}", i % 400)), v(format!("s{i}")));
    }
    s
}

/// Bytes cloned by one fresh insert made after a snapshot. The table was
/// published and written once before, as a live table is: that first
/// write splits the indexes of a table built without sharing.
fn insert_after_snapshot(s: &mut Store) -> u64 {
    let _first = s.snapshot();
    s.base_insert(CLASS_LIST, v("c3"), v("warm"));
    let snap = s.snapshot();
    let before = cloned();
    s.base_insert(CLASS_LIST, v("c7"), v("fresh"));
    let bytes = cloned() - before;
    assert!(!snap.table(CLASS_LIST).contains(&v("c7"), &v("fresh")));
    bytes
}

/// Bytes cloned by the NC store alone when a derived delete runs after a
/// snapshot over a store holding `live` NCs. The conjunct rows' chunks
/// are detached beforehand by no-op flag writes, so the count isolates
/// the NC store.
fn derived_delete_after_snapshot(live: usize) -> u64 {
    let pupil = Derivation::new(vec![Step::identity(TEACH), Step::identity(CLASS_LIST)])
        .expect("teach o class_list is well-formed");
    let mut s = Store::new(2);
    for i in 0..=live {
        s.base_insert(TEACH, v(format!("f{i}")), v(format!("c{i}")));
        s.base_insert(CLASS_LIST, v(format!("c{i}")), v(format!("s{i}")));
    }
    let lim = ChainLimits::default();
    for i in 0..live {
        derived_delete(
            &mut s,
            std::slice::from_ref(&pupil),
            &v(format!("f{i}")),
            &v(format!("s{i}")),
            lim,
        );
    }
    assert_eq!(s.ncs().len(), live);
    let _snap = s.snapshot();
    for (f, x, y) in [
        (TEACH, format!("f{live}"), format!("c{live}")),
        (CLASS_LIST, format!("c{live}"), format!("s{live}")),
    ] {
        let i = s.table(f).position(&v(x), &v(y)).expect("row stored");
        s.table_mut(f).set_truth(i, Truth::True);
    }
    let before = cloned();
    let ncs = derived_delete(
        &mut s,
        &[pupil],
        &v(format!("f{live}")),
        &v(format!("s{live}")),
        lim,
    );
    assert_eq!(ncs, vec![NcId(live as u64 + 1)]);
    assert!(s.check_duality().is_none());
    cloned() - before
}

#[test]
fn writes_after_publication_clone_bytes_independent_of_size() {
    // A fresh insert copies the last row chunk, one shard per index and
    // the table's pointer spines — not the table.
    let at_20k = insert_after_snapshot(&mut class_list(20_000));
    let at_100k = insert_after_snapshot(&mut class_list(100_000));
    let flat_row_array = (100_000 * 2 * size_of::<Value>()) as u64;
    assert!(at_20k > 0 && at_100k > 0, "a shared table was written");
    assert!(
        at_100k * 30 < flat_row_array,
        "insert at 100k rows cloned {at_100k} bytes; a table copy clones over {flat_row_array}"
    );
    assert!(
        at_100k <= 2 * at_20k,
        "insert cost grew with the table: {at_20k} bytes at 20k rows, {at_100k} at 100k"
    );

    // A second write to the same detached parts copies nothing more.
    let mut s = class_list(2_000);
    let _snap = s.snapshot();
    s.base_insert(CLASS_LIST, v("c1"), v("x"));
    let before = cloned();
    s.base_insert(CLASS_LIST, v("c1"), v("y"));
    assert_eq!(cloned(), before);

    // A derived delete copies one NC chunk, not the NC store.
    for live in [1_000, 5_000] {
        let bytes = derived_delete_after_snapshot(live);
        let whole = (live * size_of::<(NcId, Vec<Fact>)>()) as u64;
        assert!(bytes > 0);
        assert!(
            bytes * 10 < whole,
            "derived delete over {live} NCs cloned {bytes} bytes of {whole}"
        );
    }
}
