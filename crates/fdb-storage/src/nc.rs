//! Negated conjunctions (NC) and their store.
//!
//! §3.2: deleting a derived fact `σ` converts each of its derivations into
//! a *negated conjunction* — a set of base facts whose conjunction is
//! asserted false while each member individually becomes ambiguous. §4
//! implements an NC as "a list of pointers to its component facts"; each
//! fact's NCL points back, forming a dual structure. The store below owns
//! the NC → facts direction; the facts' NCLs live in their tables
//! ([`crate::table`]) and are kept in sync by [`crate::Store`].

use std::collections::BTreeMap;
use std::fmt;
use std::mem::size_of;
use std::sync::Arc;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::cow::make_mut;
use crate::fact::Fact;

/// Unique index of a negated conjunction (the paper writes `NC(d)`; the
/// worked example names its first NC `g₁`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[serde(transparent)]
pub struct NcId(pub u64);

impl fmt::Display for NcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// NCs per chunk: NC `g_i` lives in chunk `i >> NC_CHUNK_BITS`.
pub(crate) const NC_CHUNK_BITS: u32 = 6;

type NcChunk = BTreeMap<NcId, Vec<Fact>>;

/// The NC store: `NcId → component facts`.
///
/// Only the bookkeeping lives here; flag/NCL updates on the component
/// facts are the responsibility of [`crate::Store`], which wraps
/// [`NcStore::create`] / [`NcStore::dismantle`] in the paper's
/// `create-NC` / `dismantle-NC` procedures.
///
/// NCs are kept in `Arc`'d chunks by index range, so after a snapshot a
/// derived delete copies only the newest chunk (where its fresh NC
/// lands), and a dismantle copies only the chunk of the NC it removes.
/// Serializes as `{"ncs": {id: conjuncts, ...}, "next": n}`.
#[derive(Clone, Debug, Default)]
pub struct NcStore {
    chunks: BTreeMap<u64, Arc<NcChunk>>,
    len: usize,
    next: u64,
}

impl Serialize for NcStore {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            (
                Content::Str("ncs".to_string()),
                Content::Map(
                    self.iter()
                        .map(|(id, facts)| (id.to_content(), facts.to_content()))
                        .collect(),
                ),
            ),
            (Content::Str("next".to_string()), self.next.to_content()),
        ])
    }
}

impl Deserialize for NcStore {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        let m = c
            .as_map()
            .ok_or_else(|| DeError::new("NcStore: expected map"))?;
        let field = |name: &str| {
            serde::map_get(m, name)
                .ok_or_else(|| DeError::new(format!("NcStore: missing field `{name}`")))
        };
        let ncs = NcChunk::from_content(field("ncs")?)?;
        let mut store = NcStore {
            next: u64::from_content(field("next")?)?,
            ..NcStore::default()
        };
        for (id, facts) in ncs {
            store.insert(id, facts);
        }
        Ok(store)
    }
}

fn nc_chunk_bytes(c: &NcChunk) -> usize {
    c.len() * size_of::<(NcId, Vec<Fact>)>()
}

impl NcStore {
    /// Creates an empty store whose first NC will be `g1`.
    pub fn new() -> Self {
        NcStore {
            next: 1,
            ..NcStore::default()
        }
    }

    /// Shallow size of the chunk spine: what detaching the store from a
    /// snapshot copies before any chunk is detached.
    pub(crate) fn spine_bytes(&self) -> usize {
        size_of::<NcStore>() + self.chunks.len() * size_of::<(u64, Arc<NcChunk>)>()
    }

    fn chunk_of(id: NcId) -> u64 {
        id.0 >> NC_CHUNK_BITS
    }

    /// The chunk holding `id` for writing, detached if a snapshot shares it.
    fn chunk_mut(&mut self, id: NcId) -> &mut NcChunk {
        make_mut(
            self.chunks.entry(Self::chunk_of(id)).or_default(),
            nc_chunk_bytes,
        )
    }

    fn insert(&mut self, id: NcId, conjuncts: Vec<Fact>) {
        if self.chunk_mut(id).insert(id, conjuncts).is_none() {
            self.len += 1;
        }
    }

    fn remove(&mut self, id: NcId) -> Option<Vec<Fact>> {
        if !self.contains(id) {
            return None;
        }
        let chunk = Self::chunk_of(id);
        let facts = self.chunk_mut(id).remove(&id);
        if self.chunks.get(&chunk).is_some_and(|c| c.is_empty()) {
            self.chunks.remove(&chunk);
        }
        self.len -= 1;
        facts
    }

    /// Registers a new NC over `conjuncts`, returning its fresh index.
    pub fn create(&mut self, conjuncts: Vec<Fact>) -> NcId {
        let id = NcId(self.next);
        self.next += 1;
        self.insert(id, conjuncts);
        id
    }

    /// Removes `id` and returns its conjuncts (empty if unknown).
    pub fn dismantle(&mut self, id: NcId) -> Vec<Fact> {
        self.remove(id).unwrap_or_default()
    }

    /// Undoes a create (transaction rollback): removes `id` and rewinds
    /// the index counter so the store's next NC reuses it. Sound only in
    /// reverse creation order — the most recently created NC always holds
    /// the highest index — which the undo journal guarantees.
    pub(crate) fn undo_create(&mut self, id: NcId) {
        debug_assert_eq!(id.0 + 1, self.next, "undo_create out of order");
        self.remove(id);
        self.next = id.0;
    }

    /// Undoes a dismantle (transaction rollback): re-registers `id` with
    /// the conjuncts it held. The index counter is untouched — dismantle
    /// never advanced it.
    pub(crate) fn restore(&mut self, id: NcId, conjuncts: Vec<Fact>) {
        debug_assert!(!self.contains(id), "restore of a live NC");
        self.insert(id, conjuncts);
    }

    /// Replaces the conjuncts of a live NC verbatim (undo of
    /// [`NcStore::substitute_value`] for one NC during rollback).
    pub(crate) fn rewrite(&mut self, id: NcId, conjuncts: Vec<Fact>) {
        if self.contains(id) {
            self.insert(id, conjuncts);
        } else {
            debug_assert!(false, "rewrite of unknown NC {id}");
        }
    }

    /// The conjuncts of `id`, if it exists.
    pub fn get(&self, id: NcId) -> Option<&[Fact]> {
        self.chunks
            .get(&Self::chunk_of(id))?
            .get(&id)
            .map(Vec::as_slice)
    }

    /// `true` if `id` is a live NC.
    pub fn contains(&self, id: NcId) -> bool {
        self.get(id).is_some()
    }

    /// Number of live NCs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if there are no live NCs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the live NCs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (NcId, &[Fact])> {
        self.chunks
            .values()
            .flat_map(|c| c.iter().map(|(&id, facts)| (id, facts.as_slice())))
    }

    /// Rewrites every occurrence of `from` in NC conjunct values to `to`
    /// (used by null substitution; see `fdb-core`'s resolution pass).
    /// Only chunks holding an NC that mentions `from` are detached.
    pub fn substitute_value(&mut self, from: &fdb_types::Value, to: &fdb_types::Value) {
        let mentions = |facts: &[Fact]| facts.iter().any(|f| &f.x == from || &f.y == from);
        for chunk in self.chunks.values_mut() {
            if !chunk.values().any(|facts| mentions(facts)) {
                continue;
            }
            for f in make_mut(chunk, nc_chunk_bytes).values_mut().flatten() {
                if &f.x == from {
                    f.x = to.clone();
                }
                if &f.y == from {
                    f.y = to.clone();
                }
            }
        }
    }

    /// Returns `true` if the multiset of facts in `chain` is a superset of
    /// some live NC — the §3.2 condition that disqualifies a chain from
    /// making a derived fact ambiguous.
    ///
    /// Facts are compared structurally (function + pair); a chain never
    /// contains duplicates of the same row, so set semantics suffice.
    ///
    /// This scan over every live NC is the reference statement of the
    /// rule: queries answer it through the NCLs of the chain's own rows
    /// ([`crate::Store::rows_cover_some_nc`]), and the storage proptests
    /// check the two agree.
    pub fn chain_covers_some_nc(&self, chain: &[Fact]) -> bool {
        self.iter()
            .any(|(_, nc)| nc.iter().all(|f| chain.contains(f)))
    }

    /// `true` if chunk `c` is the same allocation in `self` and `other`.
    #[cfg(test)]
    pub(crate) fn shares_chunk(&self, other: &NcStore, c: u64) -> bool {
        match (self.chunks.get(&c), other.chunks.get(&c)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_types::FunctionId;

    fn fact(f: u32, x: &str, y: &str) -> Fact {
        Fact::new(FunctionId(f), x, y)
    }

    #[test]
    fn create_assigns_sequential_indices() {
        let mut s = NcStore::new();
        let a = s.create(vec![fact(0, "a", "b")]);
        let b = s.create(vec![fact(1, "b", "c")]);
        assert_eq!(a, NcId(1));
        assert_eq!(b, NcId(2));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn dismantle_removes_and_returns_conjuncts() {
        let mut s = NcStore::new();
        let id = s.create(vec![fact(0, "a", "b"), fact(1, "b", "c")]);
        let conj = s.dismantle(id);
        assert_eq!(conj.len(), 2);
        assert!(!s.contains(id));
        assert!(s.dismantle(id).is_empty());
    }

    #[test]
    fn indices_are_never_reused() {
        let mut s = NcStore::new();
        let a = s.create(vec![fact(0, "a", "b")]);
        s.dismantle(a);
        let b = s.create(vec![fact(0, "a", "b")]);
        assert_ne!(a, b);
    }

    #[test]
    fn chain_superset_detection() {
        let mut s = NcStore::new();
        s.create(vec![fact(0, "euclid", "math"), fact(1, "math", "john")]);
        // The exact chain is a superset (equal).
        assert!(s.chain_covers_some_nc(&[fact(0, "euclid", "math"), fact(1, "math", "john")]));
        // A longer chain containing the NC is also a superset.
        assert!(s.chain_covers_some_nc(&[
            fact(0, "euclid", "math"),
            fact(1, "math", "john"),
            fact(2, "john", "cs")
        ]));
        // A chain sharing only one conjunct is not.
        assert!(!s.chain_covers_some_nc(&[fact(0, "euclid", "math"), fact(1, "math", "bill")]));
        // The empty chain covers nothing (every NC is non-empty here).
        assert!(!s.chain_covers_some_nc(&[]));
    }

    #[test]
    fn iter_in_index_order() {
        let mut s = NcStore::new();
        let a = s.create(vec![fact(0, "a", "b")]);
        let b = s.create(vec![fact(1, "c", "d")]);
        let ids: Vec<NcId> = s.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![a, b]);
    }
}
