//! The on-disk checkpoint format is pinned by a fixture written by the
//! flat-layout store (one row vector per table, one NC map), before
//! tables were split into copy-on-write chunks and shards.
//!
//! The fixture holds a 600-row `class_list` with tombstones (two row
//! chunks), 87 live NCs from derived deletes and a dismantle (two NC
//! chunks) and four nulls from derived inserts. It must load, answer as
//! the writing build did, and serialize back byte for byte.

use std::path::Path;

use fdb::core::{read_checkpoint, Database, FileStorage, SharedDatabase};
use fdb::storage::Truth;
use fdb::types::Value;

fn fixture() -> (String, Database) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/flat_layout");
    let info = read_checkpoint(&FileStorage, &dir)
        .expect("fixture readable")
        .expect("fixture holds a checkpoint");
    assert_eq!(info.seq, 789);
    let db = Database::from_snapshot(&info.snapshot).expect("flat layout loads");
    (info.snapshot, db)
}

fn v(s: &str) -> Value {
    Value::atom(s)
}

#[test]
fn flat_layout_checkpoint_loads_and_reserializes_byte_identically() {
    let (json, db) = fixture();
    assert_eq!(db.to_snapshot().expect("serializes"), json);

    let store = db.store();
    assert_eq!(store.fact_count(), 638);
    assert_eq!(store.ncs().len(), 87);
    assert_eq!(store.nulls().generated(), 4);
    assert_eq!(store.ambiguous_count(), 74);
    assert!(store.check_duality().is_none());
    let class_list = db.resolve("class_list").expect("declared");
    assert_eq!(store.table(class_list).tombstones(), 30);

    // The answers the writing build gave.
    let pupil = db.resolve("pupil").expect("declared");
    let truth = |x: &str, y: &str| db.truth(pupil, &v(x), &v(y)).expect("derived truth");
    assert_eq!(truth("prof0", "student1"), Truth::False);
    assert_eq!(truth("prof0", "student5"), Truth::Ambiguous);
    assert_eq!(truth("visitor0", "student190"), Truth::True);
}

#[test]
fn loaded_checkpoint_publishes_copy_on_write() {
    let (json, db) = fixture();
    let class_list = db.resolve("class_list").expect("declared");
    let shared = SharedDatabase::new(db);
    let before = shared.pin();
    shared
        .insert(class_list, v("course1"), v("student199"))
        .expect("insert");
    shared
        .delete(class_list, &v("course1"), &v("student199"))
        .expect("delete");
    // The pinned snapshot still serializes as the fixture.
    assert_eq!(before.to_snapshot().expect("serializes"), json);
    assert_ne!(shared.pin().to_snapshot().expect("serializes"), json);
}
