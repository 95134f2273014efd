//! Heap allocations an uncached derived `Database::truth` makes.
//!
//! A counting global allocator observes every allocation in the process,
//! so this binary holds a single test: nothing else allocates while it
//! measures. The budgets are counts, not times, so host noise cannot hide
//! a regression. The executor walks borrowed rows and hands each chain to
//! the truth sink, which stops at the first proof, so a point query
//! allocates only its plan, its two frontier arenas, the join order and
//! one member buffer — whatever the number of candidate rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fdb::core::Database;
use fdb::storage::Truth;
use fdb::types::Value;
use fdb::workload::university::{university_at_scale, university_database};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the added counter is a relaxed atomic
// that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn atom(s: &str) -> Value {
    Value::atom(s)
}

/// Asserts the answer of `pupil(x, y)` and that computing it made at most
/// `budget` allocations.
fn check(db: &Database, what: &str, x: &Value, y: &Value, expected: Truth, budget: u64) {
    let pupil = db.resolve("pupil").expect("pupil is declared");
    let before = allocations();
    let truth = db.truth(pupil, x, y).expect("derived truth");
    let made = allocations() - before;
    assert_eq!(truth, expected, "{what}: pupil({x}, {y})");
    assert!(
        made <= budget,
        "{what}: pupil({x}, {y}) made {made} allocations (budget {budget})"
    );
}

/// Budgets per query, with the count of the executor that built every
/// chain as owned facts before judging any (in brackets): the paper
/// instance's true pair ≤ 8 (10); on the scaled instance after one
/// derived insert, a true pair through atoms ≤ 12 (36), the null-linked
/// pair ≤ 13 (44), a false pair ≤ 8 (19).
#[test]
fn uncached_truth_allocation_budget() {
    // A sampled query records its span tree, which allocates by design;
    // the budget is for the unsampled path.
    fdb::obs::causal::set_tracing(false);

    let db = university_database().expect("paper instance");
    let pupil = db.resolve("pupil").expect("pupil is declared");
    let (euclid, john) = (atom("euclid"), atom("john"));
    // Warm-up: lazily initialised process state is not the query's cost.
    db.truth(pupil, &euclid, &john).expect("derived truth");
    check(&db, "paper instance", &euclid, &john, Truth::True, 8);

    let mut db = university_at_scale(7, 50, 40, 400, 3, 50).expect("scaled instance");
    let pupil = db.resolve("pupil").expect("pupil is declared");
    let (prof0, prof1) = (atom("prof0"), atom("prof1"));
    let truth = |db: &Database, x: &Value, y: &Value| db.truth(pupil, x, y).expect("truth");
    let students: Vec<Value> = (0..400).map(|i| atom(&format!("student{i}"))).collect();
    let find = |db: &Database, x: &Value, t: Truth| {
        students
            .iter()
            .find(|y| truth(db, x, y) == t)
            .expect("the instance has such a pair")
            .clone()
    };
    // A derived insert threads a fresh null: teach(prof0, n1),
    // class_list(n1, linked). Every walk from prof0 now meets the null.
    let linked = find(&db, &prof0, Truth::False);
    db.insert(pupil, prof0.clone(), linked.clone())
        .expect("derived insert");
    let true_pair = students
        .iter()
        .find(|y| **y != linked && truth(&db, &prof0, y) == Truth::True)
        .expect("prof0 has a true pupil")
        .clone();
    let false_pair = find(&db, &prof1, Truth::False);

    check(&db, "true pair", &prof0, &true_pair, Truth::True, 12);
    check(&db, "null-linked pair", &prof0, &linked, Truth::True, 13);
    check(&db, "false pair", &prof1, &false_pair, Truth::False, 8);
}
