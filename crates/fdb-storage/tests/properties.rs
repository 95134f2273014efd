//! Property-based tests for the §3.2 / §4 update semantics.
//!
//! A random stream of base/derived inserts and deletes over the paper's
//! `pupil = teach o class_list` shape must preserve the structural
//! invariants of the store and the logical guarantees of each operation.

use proptest::prelude::*;

use fdb_storage::chain::{derived_delete, derived_truth, ChainLimits};
use fdb_storage::nvc::derived_insert;
use fdb_storage::{Fact, Store, Truth};
use fdb_types::{Derivation, FunctionId, Step, Value};

const TEACH: FunctionId = FunctionId(0);
const CLASS_LIST: FunctionId = FunctionId(1);

fn pupil() -> Derivation {
    Derivation::new(vec![Step::identity(TEACH), Step::identity(CLASS_LIST)]).unwrap()
}

#[derive(Clone, Debug)]
enum OpKind {
    BaseInsertTeach(u8, u8),
    BaseInsertClass(u8, u8),
    BaseDeleteTeach(u8, u8),
    BaseDeleteClass(u8, u8),
    DerivedInsert(u8, u8),
    DerivedDelete(u8, u8),
}

fn faculty(i: u8) -> Value {
    Value::atom(format!("fac{i}"))
}
fn course(i: u8) -> Value {
    Value::atom(format!("crs{i}"))
}
fn student(i: u8) -> Value {
    Value::atom(format!("stu{i}"))
}

fn arb_op() -> impl Strategy<Value = OpKind> {
    let small = 0u8..4;
    prop_oneof![
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::BaseInsertTeach(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::BaseInsertClass(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::BaseDeleteTeach(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::BaseDeleteClass(a, b)),
        (small.clone(), small.clone()).prop_map(|(a, b)| OpKind::DerivedInsert(a, b)),
        (small.clone(), small).prop_map(|(a, b)| OpKind::DerivedDelete(a, b)),
    ]
}

fn apply(store: &mut Store, op: &OpKind) {
    let d = pupil();
    let lim = ChainLimits::default();
    match *op {
        OpKind::BaseInsertTeach(a, b) => store.base_insert(TEACH, faculty(a), course(b)),
        OpKind::BaseInsertClass(a, b) => store.base_insert(CLASS_LIST, course(a), student(b)),
        OpKind::BaseDeleteTeach(a, b) => {
            store.base_delete(TEACH, &faculty(a), &course(b));
        }
        OpKind::BaseDeleteClass(a, b) => {
            store.base_delete(CLASS_LIST, &course(a), &student(b));
        }
        OpKind::DerivedInsert(a, b) => derived_insert(store, &d, faculty(a), student(b)),
        OpKind::DerivedDelete(a, b) => {
            derived_delete(store, &[d], &faculty(a), &student(b), lim);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The NC ↔ NCL duality invariant survives any op sequence.
    #[test]
    fn duality_invariant(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
            prop_assert!(store.check_duality().is_none(),
                "duality violated after {op:?}: {:?}", store.check_duality());
        }
    }

    /// Immediately after `derived-insert(x, y)` the derived fact is true.
    #[test]
    fn derived_insert_makes_fact_true(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        derived_insert(&mut store, &pupil(), faculty(a), student(b));
        prop_assert_eq!(
            derived_truth(&store, &[pupil()], &faculty(a), &student(b), ChainLimits::default()),
            Truth::True
        );
    }

    /// Immediately after `derived-delete(x, y)` the derived fact is not
    /// true (it may remain ambiguous through chains with mismatched nulls,
    /// which the delete's NCs do not — and must not — negate).
    #[test]
    fn derived_delete_removes_truth(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        derived_delete(&mut store, &[pupil()], &faculty(a), &student(b), ChainLimits::default());
        prop_assert_ne!(
            derived_truth(&store, &[pupil()], &faculty(a), &student(b), ChainLimits::default()),
            Truth::True
        );
    }

    /// Base inserts make the base fact true; base deletes make it false —
    /// regardless of history.
    #[test]
    fn base_ops_assert_their_fact(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        store.base_insert(TEACH, faculty(a), course(b));
        prop_assert_eq!(
            store.base_truth(&Fact::new(TEACH, faculty(a), course(b))),
            Truth::True
        );
        store.base_delete(TEACH, &faculty(a), &course(b));
        prop_assert_eq!(
            store.base_truth(&Fact::new(TEACH, faculty(a), course(b))),
            Truth::False
        );
    }

    /// Every NC member is flagged ambiguous while its NC is live — and
    /// base facts flagged true belong to no NC.
    #[test]
    fn nc_members_are_ambiguous(ops in proptest::collection::vec(arb_op(), 0..40)) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        for (_, facts) in store.ncs().iter() {
            for f in facts {
                prop_assert_eq!(store.base_truth(f), Truth::Ambiguous);
            }
        }
        for fid in [TEACH, CLASS_LIST] {
            for row in store.table(fid).rows() {
                if row.truth == Truth::True {
                    prop_assert!(row.ncl.is_empty());
                }
            }
        }
    }

    /// The NCL walk of `Store::chain_covers_some_nc` agrees with the scan
    /// over every live NC (`NcStore::chain_covers_some_nc`) on every
    /// one- and two-fact chain of stored rows, alone and with a fact that
    /// is not stored.
    #[test]
    fn nc_coverage_via_ncls_matches_the_full_scan(
        ops in proptest::collection::vec(arb_op(), 0..40),
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        let facts = |f: FunctionId| -> Vec<Fact> {
            store.table(f).rows().map(|r| Fact::new(f, r.x.clone(), r.y.clone())).collect()
        };
        let (teach, class_list) = (facts(TEACH), facts(CLASS_LIST));
        let singles = teach.iter().chain(&class_list).map(|f| vec![f.clone()]);
        let pairs = teach
            .iter()
            .flat_map(|t| class_list.iter().map(move |c| vec![t.clone(), c.clone()]));
        let absent = Fact::new(CLASS_LIST, "absent", "absent");
        for chain in singles.chain(pairs) {
            let with_absent = [chain.clone(), vec![absent.clone()]].concat();
            for chain in [chain, with_absent] {
                prop_assert_eq!(
                    store.chain_covers_some_nc(&chain),
                    store.ncs().chain_covers_some_nc(&chain),
                    "chain {:?}", chain
                );
            }
        }
    }

    /// Derived-insert is idempotent at the instance level: repeating it
    /// changes neither the fact count nor the null count.
    #[test]
    fn derived_insert_idempotent(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        derived_insert(&mut store, &pupil(), faculty(a), student(b));
        let facts = store.fact_count();
        let nulls = store.nulls().generated();
        derived_insert(&mut store, &pupil(), faculty(a), student(b));
        prop_assert_eq!(store.fact_count(), facts);
        prop_assert_eq!(store.nulls().generated(), nulls);
    }

    /// The side-effect-freedom theorem of §3: a derived delete never
    /// changes the truth value of any *other* derived fact from true to
    /// false (it may downgrade true to ambiguous, never to false, and
    /// never invents new truth).
    #[test]
    fn derived_delete_is_side_effect_free(
        ops in proptest::collection::vec(arb_op(), 0..25),
        a in 0u8..4, b in 0u8..4,
    ) {
        let mut store = Store::new(2);
        for op in &ops {
            apply(&mut store, op);
        }
        let lim = ChainLimits::default();
        // Truth of every derived pair before the delete.
        let mut before = Vec::new();
        for fa in 0..4u8 {
            for st in 0..4u8 {
                before.push((
                    fa,
                    st,
                    derived_truth(&store, &[pupil()], &faculty(fa), &student(st), lim),
                ));
            }
        }
        derived_delete(&mut store, &[pupil()], &faculty(a), &student(b), lim);
        for (fa, st, old) in before {
            if fa == a && st == b {
                continue; // the deleted fact itself
            }
            let new = derived_truth(&store, &[pupil()], &faculty(fa), &student(st), lim);
            // No other fact may be falsified outright…
            if old == Truth::True {
                prop_assert_ne!(new, Truth::False,
                    "side effect: pupil(fac{}, stu{}) went true → false", fa, st);
            }
            // …and nothing false becomes true.
            if old == Truth::False {
                prop_assert_ne!(new, Truth::True);
            }
        }
    }
}
