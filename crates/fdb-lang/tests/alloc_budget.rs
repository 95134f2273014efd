//! Heap allocations the statement front end makes for a cached `TRUTH`.
//!
//! A counting global allocator observes every allocation in the process,
//! so this binary holds a single test: nothing else allocates while it
//! measures. The budgets are counts, not times, so host noise cannot hide
//! a regression.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fdb_lang::{parse_statement_spanned, Engine};

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

const TRUTH: &str = "TRUTH pupil(prof3, student17)";

/// Parsing a point `TRUTH` copies its three identifiers into the owned
/// statement and allocates the token and argument-span vectors once
/// each: at most 5 allocations. A cached `TRUTH` through
/// `Engine::execute_line` adds the lowered check-log entry, the two
/// `Value`s of the cache key and the answer string: at most 12.
#[test]
fn cached_truth_allocation_budget() {
    let before = allocations();
    let parsed = parse_statement_spanned(TRUTH, 1);
    let parse_allocs = allocations() - before;
    assert!(parsed.is_ok());
    drop(parsed);
    assert!(
        parse_allocs <= 5,
        "parse_statement_spanned({TRUTH:?}) made {parse_allocs} allocations (budget 5)"
    );

    // A sampled statement records its span tree, which allocates by
    // design; the budget is for the unsampled path every other statement
    // takes.
    fdb_obs::causal::set_tracing(false);
    let mut engine = Engine::new();
    for line in [
        "DECLARE teach: faculty -> course (many-many)",
        "DECLARE class_list: course -> student (many-many)",
        "DECLARE pupil: faculty -> student (many-many)",
        "DERIVE pupil = teach o class_list",
        "INSERT teach(prof3, math)",
        "INSERT class_list(math, student17)",
    ] {
        engine.execute_line(line).expect("set-up statement");
    }
    // The first TRUTH computes and caches; the next ones hit. Warm up so
    // the check log's amortised growth is not what is measured.
    for _ in 0..100 {
        assert_eq!(engine.execute_line(TRUTH).expect("TRUTH"), "T\n");
    }
    let hits_before = engine.cache_stats().local.hits;
    const N: u64 = 10;
    let before = allocations();
    for _ in 0..N {
        assert_eq!(engine.execute_line(TRUTH).expect("TRUTH"), "T\n");
    }
    let per_statement = (allocations() - before) as f64 / N as f64;
    assert_eq!(engine.cache_stats().local.hits - hits_before, N);
    assert!(
        per_statement <= 12.0,
        "a cached {TRUTH:?} made {per_statement} allocations per execute_line (budget 12)"
    );
}
