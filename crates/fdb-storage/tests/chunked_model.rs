//! Model-based tests of the chunked [`Table`] and [`NcStore`].
//!
//! Random operation streams run against the copy-on-write containers and
//! against a flat reference model (a plain `Vec` of rows, a plain
//! `BTreeMap` of NCs). Streams include bulk runs, so they cross row-chunk,
//! index-shard and NC-chunk boundaries, and they take snapshots (clones)
//! at random points. After every operation the live container must answer
//! like the model; at the end every snapshot must still answer like the
//! model did when it was taken, and the JSON of each must be
//! byte-identical to the flat layout's.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use serde::Serialize;

use fdb_storage::{Fact, NcId, NcStore, RowView, Table, Truth};
use fdb_types::{FunctionId, NullId, Value};

/// The `k`-th value pair: 97 domain values and a growing range, with
/// some nulls on either side so the null indexes are exercised.
fn pair(k: u16) -> (Value, Value) {
    let x = if k % 50 == 49 {
        Value::Null(NullId(u64::from(k % 7)))
    } else {
        Value::atom(format!("x{}", k % 97))
    };
    let y = if k % 60 == 59 {
        Value::Null(NullId(u64::from(k % 5)))
    } else {
        Value::atom(format!("y{}", k / 97))
    };
    (x, y)
}

const PAIRS: u16 = 3_000;

#[derive(Clone, Debug, PartialEq, Serialize)]
struct FlatRow {
    x: Value,
    y: Value,
    truth: Truth,
    ncl: BTreeSet<NcId>,
    alive: bool,
}

/// The pre-chunking table layout: one flat row log.
#[derive(Clone, Debug, Default, Serialize)]
struct FlatTable {
    rows: Vec<FlatRow>,
}

impl FlatTable {
    fn position(&self, x: &Value, y: &Value) -> Option<usize> {
        self.rows
            .iter()
            .position(|r| r.alive && &r.x == x && &r.y == y)
    }

    fn insert(&mut self, x: Value, y: Value) -> (usize, bool) {
        if let Some(i) = self.position(&x, &y) {
            return (i, false);
        }
        self.push(x, y, Truth::True, BTreeSet::new());
        (self.rows.len() - 1, true)
    }

    fn push(&mut self, x: Value, y: Value, truth: Truth, ncl: BTreeSet<NcId>) {
        self.rows.push(FlatRow {
            x,
            y,
            truth,
            ncl,
            alive: true,
        });
    }

    fn remove(&mut self, x: &Value, y: &Value) -> Option<BTreeSet<NcId>> {
        let i = self.position(x, y)?;
        self.rows[i].alive = false;
        Some(std::mem::take(&mut self.rows[i].ncl))
    }

    fn restore_row(
        &mut self,
        x: Value,
        y: Value,
        truth: Truth,
        ncl: BTreeSet<NcId>,
    ) -> Option<usize> {
        if self.position(&x, &y).is_some() {
            return None;
        }
        self.push(x, y, truth, ncl);
        Some(self.rows.len() - 1)
    }

    fn live_mut(&mut self, i: usize) -> Option<&mut FlatRow> {
        self.rows.get_mut(i).filter(|r| r.alive)
    }

    fn indices(&self, keep: impl Fn(&FlatRow) -> bool) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&i| self.rows[i].alive && keep(&self.rows[i]))
            .collect()
    }
}

#[derive(Clone, Debug)]
enum TableOp {
    Insert(u16),
    InsertRun(u16, u16),
    Remove(u16),
    RemoveRun(u16, u16),
    Restore(u16, bool, u8),
    Attach(u16, u8),
    Detach(u16, u8),
    SetAmbiguous(u16),
    Compact,
    RebuildIndex,
    Snapshot,
}

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    let k = 0..PAIRS;
    prop_oneof![
        k.clone().prop_map(TableOp::Insert),
        (k.clone(), 1u16..700).prop_map(|(a, n)| TableOp::InsertRun(a, n)),
        k.clone().prop_map(TableOp::Remove),
        (k.clone(), 1u16..400).prop_map(|(a, n)| TableOp::RemoveRun(a, n)),
        (k.clone(), any::<bool>(), 0u8..8).prop_map(|(a, t, n)| TableOp::Restore(a, t, n)),
        (0u16..4_000, 0u8..8).prop_map(|(i, n)| TableOp::Attach(i, n)),
        (0u16..4_000, 0u8..8).prop_map(|(i, n)| TableOp::Detach(i, n)),
        (0u16..4_000).prop_map(TableOp::SetAmbiguous),
        Just(TableOp::Compact),
        Just(TableOp::RebuildIndex),
        Just(TableOp::Snapshot),
    ]
}

fn json(v: &impl Serialize) -> String {
    serde_json::to_string(v).expect("serializes")
}

fn view(r: &FlatRow) -> RowView<'_> {
    RowView {
        x: &r.x,
        y: &r.y,
        truth: r.truth,
        ncl: &r.ncl,
    }
}

/// Every observable answer of `t` matches the model `m`.
fn check_table(t: &Table, m: &FlatTable) -> Result<(), TestCaseError> {
    prop_assert_eq!(json(t), json(m), "serialized layouts differ");
    let live = m.indices(|_| true);
    prop_assert_eq!(t.len(), live.len());
    prop_assert_eq!(t.tombstones(), m.rows.len() - live.len());
    prop_assert_eq!(t.live_indices().collect::<Vec<_>>(), live.clone());
    for &i in &live {
        let r = &m.rows[i];
        prop_assert_eq!(t.position(&r.x, &r.y), Some(i));
        prop_assert_eq!(t.row(i), Some(view(r)));
        prop_assert_eq!(t.truth_of(&r.x, &r.y), r.truth);
    }
    let mut keys: BTreeSet<&Value> = BTreeSet::new();
    for r in &m.rows {
        keys.insert(&r.x);
        keys.insert(&r.y);
    }
    for k in keys {
        prop_assert_eq!(
            t.rows_with_x(k).collect::<Vec<_>>(),
            m.indices(|r| &r.x == k)
        );
        prop_assert_eq!(
            t.rows_with_y(k).collect::<Vec<_>>(),
            m.indices(|r| &r.y == k)
        );
    }
    prop_assert_eq!(
        t.rows_with_null_x().collect::<Vec<_>>(),
        m.indices(|r| r.x.is_null())
    );
    prop_assert_eq!(
        t.rows_with_null_y().collect::<Vec<_>>(),
        m.indices(|r| r.y.is_null())
    );
    Ok(())
}

fn apply_table(t: &mut Table, m: &mut FlatTable, op: &TableOp) -> Result<(), TestCaseError> {
    match *op {
        TableOp::Insert(k) => {
            let (x, y) = pair(k);
            prop_assert_eq!(t.insert(x.clone(), y.clone()), m.insert(x, y));
        }
        TableOp::InsertRun(a, n) => {
            for k in a..a.saturating_add(n).min(PAIRS) {
                let (x, y) = pair(k);
                prop_assert_eq!(t.insert(x.clone(), y.clone()), m.insert(x, y));
            }
        }
        TableOp::Remove(k) => {
            let (x, y) = pair(k);
            prop_assert_eq!(t.remove(&x, &y), m.remove(&x, &y));
        }
        TableOp::RemoveRun(a, n) => {
            for k in a..a.saturating_add(n).min(PAIRS) {
                let (x, y) = pair(k);
                prop_assert_eq!(t.remove(&x, &y), m.remove(&x, &y));
            }
        }
        TableOp::Restore(k, ambiguous, nc) => {
            let (x, y) = pair(k);
            let truth = if ambiguous {
                Truth::Ambiguous
            } else {
                Truth::True
            };
            let ncl: BTreeSet<NcId> = (0..nc).map(|n| NcId(u64::from(n))).collect();
            prop_assert_eq!(
                t.restore_row(x.clone(), y.clone(), truth, ncl.clone()),
                m.restore_row(x, y, truth, ncl)
            );
        }
        TableOp::Attach(i, nc) => {
            let (i, nc) = (usize::from(i), NcId(u64::from(nc)));
            t.attach_nc(i, nc);
            if let Some(r) = m.live_mut(i) {
                r.ncl.insert(nc);
                r.truth = Truth::Ambiguous;
            }
        }
        TableOp::Detach(i, nc) => {
            let (i, nc) = (usize::from(i), NcId(u64::from(nc)));
            t.detach_nc(i, nc);
            if let Some(r) = m.rows.get_mut(i) {
                r.ncl.remove(&nc);
            }
        }
        TableOp::SetAmbiguous(i) => {
            let i = usize::from(i);
            t.set_truth(i, Truth::Ambiguous);
            if let Some(r) = m.live_mut(i) {
                r.truth = Truth::Ambiguous;
            }
        }
        TableOp::Compact => {
            t.compact();
            m.rows.retain(|r| r.alive);
        }
        TableOp::RebuildIndex => t.rebuild_index(),
        TableOp::Snapshot => {}
    }
    Ok(())
}

/// The pre-chunking NC store layout.
#[derive(Clone, Debug, Serialize)]
struct FlatNcs {
    ncs: BTreeMap<NcId, Vec<Fact>>,
    next: u64,
}

#[derive(Clone, Debug)]
enum NcOp {
    Create(u16),
    CreateRun(u16, u8),
    Dismantle(u16),
    DismantleRun(u16, u8),
    Substitute(u8, u8),
    Snapshot,
}

fn arb_nc_op() -> impl Strategy<Value = NcOp> {
    prop_oneof![
        (0u16..500).prop_map(NcOp::Create),
        (0u16..500, 1u8..150).prop_map(|(a, n)| NcOp::CreateRun(a, n)),
        (0u16..600).prop_map(NcOp::Dismantle),
        (0u16..600, 1u8..100).prop_map(|(a, n)| NcOp::DismantleRun(a, n)),
        (0u8..7, 0u8..7).prop_map(|(a, b)| NcOp::Substitute(a, b)),
        Just(NcOp::Snapshot),
    ]
}

fn conjuncts(k: u16) -> Vec<Fact> {
    let (x, y) = pair(k);
    vec![
        Fact::new(FunctionId(0), x.clone(), y.clone()),
        Fact::new(FunctionId(1), y, x),
    ]
}

fn check_ncs(s: &NcStore, m: &FlatNcs) -> Result<(), TestCaseError> {
    prop_assert_eq!(json(s), json(m), "serialized layouts differ");
    prop_assert_eq!(s.len(), m.ncs.len());
    prop_assert_eq!(s.is_empty(), m.ncs.is_empty());
    let got: Vec<(NcId, Vec<Fact>)> = s.iter().map(|(id, f)| (id, f.to_vec())).collect();
    let want: Vec<(NcId, Vec<Fact>)> = m.ncs.iter().map(|(&id, f)| (id, f.clone())).collect();
    prop_assert_eq!(got, want);
    Ok(())
}

fn apply_nc(s: &mut NcStore, m: &mut FlatNcs, op: &NcOp) -> Result<(), TestCaseError> {
    let create = |s: &mut NcStore, m: &mut FlatNcs, k: u16| {
        let id = s.create(conjuncts(k));
        let want = NcId(m.next);
        m.next += 1;
        m.ncs.insert(want, conjuncts(k));
        (id, want)
    };
    match *op {
        NcOp::Create(k) => {
            let (id, want) = create(s, m, k);
            prop_assert_eq!(id, want);
        }
        NcOp::CreateRun(a, n) => {
            for k in a..a + u16::from(n) {
                let (id, want) = create(s, m, k);
                prop_assert_eq!(id, want);
            }
        }
        NcOp::Dismantle(id) => {
            let id = NcId(u64::from(id));
            prop_assert_eq!(s.dismantle(id), m.ncs.remove(&id).unwrap_or_default());
        }
        NcOp::DismantleRun(a, n) => {
            for id in a..a + u16::from(n) {
                let id = NcId(u64::from(id));
                prop_assert_eq!(s.dismantle(id), m.ncs.remove(&id).unwrap_or_default());
            }
        }
        NcOp::Substitute(a, b) => {
            let from = Value::Null(NullId(u64::from(a)));
            let to = Value::atom(format!("v{b}"));
            s.substitute_value(&from, &to);
            for f in m.ncs.values_mut().flatten() {
                if f.x == from {
                    f.x = to.clone();
                }
                if f.y == from {
                    f.y = to.clone();
                }
            }
        }
        NcOp::Snapshot => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The chunked table answers like the flat model through chunk and
    /// shard-split boundaries, and no write reaches an older snapshot.
    #[test]
    fn chunked_table_matches_flat_model(
        before in proptest::collection::vec(arb_table_op(), 0..15),
        after in proptest::collection::vec(arb_table_op(), 1..30),
    ) {
        // A bulk run between the two random streams guarantees several
        // row chunks and a shard split, with earlier snapshots sharing
        // the shards being split.
        let ops: Vec<TableOp> = before
            .into_iter()
            .chain([TableOp::InsertRun(0, 1_200), TableOp::Snapshot])
            .chain(after)
            .collect();
        let mut t = Table::new();
        let mut m = FlatTable::default();
        let mut snaps: Vec<(Table, FlatTable)> = Vec::new();
        for op in &ops {
            apply_table(&mut t, &mut m, op)?;
            prop_assert_eq!(t.len(), m.indices(|_| true).len(), "after {:?}", op);
            if let TableOp::Snapshot = op {
                check_table(&t, &m)?;
                snaps.push((t.clone(), m.clone()));
            }
        }
        check_table(&t, &m)?;
        for (snap, model) in &snaps {
            check_table(snap, model)?;
        }
        // The flat layout loads back into the chunked table.
        let mut back: Table = serde_json::from_str(&json(&m)).expect("flat layout loads");
        back.rebuild_index();
        check_table(&back, &m)?;
    }

    /// The chunked NC store answers like the flat model through NC-chunk
    /// boundaries, and no write reaches an older snapshot.
    #[test]
    fn chunked_nc_store_matches_flat_model(
        before in proptest::collection::vec(arb_nc_op(), 0..15),
        after in proptest::collection::vec(arb_nc_op(), 1..30),
    ) {
        let ops: Vec<NcOp> = before
            .into_iter()
            .chain([NcOp::CreateRun(0, 149), NcOp::Snapshot])
            .chain(after)
            .collect();
        let mut s = NcStore::new();
        let mut m = FlatNcs { ncs: BTreeMap::new(), next: 1 };
        let mut snaps: Vec<(NcStore, FlatNcs)> = Vec::new();
        for op in &ops {
            apply_nc(&mut s, &mut m, op)?;
            prop_assert_eq!(s.len(), m.ncs.len(), "after {:?}", op);
            if let NcOp::Snapshot = op {
                check_ncs(&s, &m)?;
                snaps.push((s.clone(), m.clone()));
            }
        }
        check_ncs(&s, &m)?;
        for (snap, model) in &snaps {
            check_ncs(snap, model)?;
        }
        let back: NcStore = serde_json::from_str(&json(&m)).expect("flat layout loads");
        check_ncs(&back, &m)?;
    }
}
