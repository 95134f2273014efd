//! Copy-on-write building blocks: chunked vectors and sharded hash maps.
//!
//! A published snapshot shares its tables with the live store (see
//! [`crate::snapshot`]). The first write after publication must detach
//! what it touches, and these two containers keep that detach small:
//!
//! * `Chunked` stores a vector as fixed-size `Arc`'d chunks of
//!   `CHUNK` elements. Indices stay plain `usize` and stay stable; a
//!   write copies the one chunk holding the element (an append copies
//!   only the last, partially filled chunk).
//! * `Shards` splits a hash map into `Arc`'d shards selected by the
//!   key's hash. Before a write detaches a shard while the map holds more
//!   than `SHARD_MAX` entries per shard, the shard count doubles (as
//!   often as needed), so the shard a write copies stays bounded as the
//!   map grows. A map of at most `SHARD_MAX` entries is a single shard,
//!   and a map no snapshot shares never splits.
//!
//! Every copy a detach makes is counted, in shallow bytes (the copied
//! container's own element array, not what its elements point to), by
//! the `fdb.mvcc.cow_bytes_cloned` counter via [`make_mut`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::Arc;

/// Elements per [`Chunked`] chunk.
const CHUNK_BITS: u32 = 9;
const CHUNK: usize = 1 << CHUNK_BITS;

/// Entries per [`Shards`] shard (on average) before the shard count
/// doubles. Equal to [`CHUNK`], so a table that fits in one row chunk
/// keeps a single shard per index.
const SHARD_MAX: usize = CHUNK;

/// [`Arc::make_mut`] that counts a detach: if `a` was shared, the clone's
/// shallow size (`shallow(&clone)` bytes) is added to
/// `fdb.mvcc.cow_bytes_cloned`.
pub fn make_mut<T: Clone>(a: &mut Arc<T>, shallow: impl FnOnce(&T) -> usize) -> &mut T {
    let before = Arc::as_ptr(a);
    let inner = Arc::make_mut(a);
    if !std::ptr::eq(before, inner) {
        fdb_obs::registry()
            .mvcc_cow_bytes_cloned
            .add(shallow(inner) as u64);
    }
    inner
}

/// A vector stored as `Arc`'d chunks of [`CHUNK`] elements; every chunk
/// but the last is full.
#[derive(Clone, Debug)]
pub(crate) struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
    len: usize,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<T: Clone> Chunked<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> CHUNK_BITS)?.get(i & (CHUNK - 1))
    }

    /// Mutable access to element `i`, detaching its chunk if shared.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let chunk = self.chunks.get_mut(i >> CHUNK_BITS)?;
        make_mut(chunk, |c| chunk_bytes(c)).get_mut(i & (CHUNK - 1))
    }

    pub(crate) fn last(&self) -> Option<&T> {
        self.chunks.last()?.last()
    }

    /// Appends `v`: into a fresh chunk if the last one is full, otherwise
    /// into the last chunk (detaching it if shared).
    pub(crate) fn push(&mut self, v: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => make_mut(last, |c| chunk_bytes(c)).push(v),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(v);
                self.chunks.push(Arc::new(chunk));
            }
        }
        self.len += 1;
    }

    /// Removes and returns the last element, dropping its chunk once empty.
    pub(crate) fn pop(&mut self) -> Option<T> {
        let last = self.chunks.last_mut()?;
        let v = make_mut(last, |c| chunk_bytes(c)).pop();
        if last.is_empty() {
            self.chunks.pop();
        }
        self.len -= usize::from(v.is_some());
        v
    }

    /// Keeps the elements `keep` accepts, in order, re-packed into full
    /// chunks (moved out of unshared chunks, cloned out of shared ones).
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let mut out = Chunked::default();
        for chunk in std::mem::take(&mut self.chunks) {
            match Arc::try_unwrap(chunk) {
                Ok(owned) => owned
                    .into_iter()
                    .filter(|v| keep(v))
                    .for_each(|v| out.push(v)),
                Err(shared) => shared
                    .iter()
                    .filter(|v| keep(v))
                    .for_each(|v| out.push(v.clone())),
            }
        }
        *self = out;
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flat_map(|c| c.iter())
    }

    /// Shallow size of the chunk spine (what cloning `self` copies).
    pub(crate) fn spine_bytes(&self) -> usize {
        self.chunks.len() * size_of::<Arc<Vec<T>>>()
    }

    #[cfg(test)]
    pub(crate) fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// `true` if chunk `c` is the same allocation in `self` and `other`.
    #[cfg(test)]
    pub(crate) fn shares_chunk(&self, other: &Self, c: usize) -> bool {
        match (self.chunks.get(c), other.chunks.get(c)) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl<T: Clone> FromIterator<T> for Chunked<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = Chunked::default();
        for v in iter {
            out.push(v);
        }
        out
    }
}

fn chunk_bytes<T>(c: &[T]) -> usize {
    std::mem::size_of_val(c)
}

/// A hash map split into `2^bits` `Arc`'d shards by key hash.
#[derive(Clone, Debug)]
pub(crate) struct Shards<K, V> {
    shards: Vec<Arc<HashMap<K, V>>>,
    bits: u32,
    len: usize,
}

impl<K, V> Default for Shards<K, V> {
    fn default() -> Self {
        Shards {
            shards: vec![Arc::new(HashMap::new())],
            bits: 0,
            len: 0,
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> Shards<K, V> {
    /// An empty single-shard map with room for `entries` entries.
    pub(crate) fn with_capacity(entries: usize) -> Self {
        Shards {
            shards: vec![Arc::new(HashMap::with_capacity(entries))],
            bits: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The shard of `k`, ready for writing: detached from any snapshot
    /// sharing it. A shared shard is not copied while the map holds more
    /// than [`SHARD_MAX`] entries per shard: the map first splits to the
    /// shard count that restores the bound, so a detach copies a bounded
    /// shard.
    fn shard_mut(&mut self, k: &K) -> &mut HashMap<K, V> {
        let mut s = shard_of(k, self.bits);
        if self.len > SHARD_MAX << self.bits && Arc::strong_count(&self.shards[s]) > 1 {
            self.split();
            s = shard_of(k, self.bits);
        }
        make_mut(&mut self.shards[s], shard_bytes)
    }

    pub(crate) fn get(&self, k: &K) -> Option<&V> {
        self.shards[shard_of(k, self.bits)].get(k)
    }

    pub(crate) fn contains_key(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// Mutable access to the value under `k`, detaching its shard only if
    /// the key is present.
    pub(crate) fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        if !self.contains_key(k) {
            return None;
        }
        self.shard_mut(k).get_mut(k)
    }

    pub(crate) fn insert(&mut self, k: K, v: V) -> Option<V> {
        let old = self.shard_mut(&k).insert(k, v);
        self.len += usize::from(old.is_none());
        old
    }

    /// Applies `update` to the value under `k`, or inserts `insert()` if
    /// `k` is absent.
    pub(crate) fn upsert(&mut self, k: K, insert: impl FnOnce() -> V, update: impl FnOnce(&mut V)) {
        match self.shard_mut(&k).entry(k) {
            Entry::Occupied(mut e) => update(e.get_mut()),
            Entry::Vacant(e) => {
                e.insert(insert());
                self.len += 1;
            }
        }
    }

    /// Removes `k`, detaching its shard only if the key is present.
    pub(crate) fn remove(&mut self, k: &K) -> Option<V> {
        if !self.contains_key(k) {
            return None;
        }
        let old = self.shard_mut(k).remove(k);
        self.len -= usize::from(old.is_some());
        old
    }

    /// Doubles the shard count until the average shard holds at most
    /// [`SHARD_MAX`] entries, moving entries out of unshared shards and
    /// copying them out of shared ones.
    fn split(&mut self) {
        let mut bits = self.bits;
        while self.len > SHARD_MAX << bits {
            bits += 1;
        }
        // Sized for the next doubling, so no shard rehashes before it.
        let mut split: Vec<HashMap<K, V>> = (0..1usize << bits)
            .map(|_| HashMap::with_capacity(SHARD_MAX))
            .collect();
        for shard in std::mem::take(&mut self.shards) {
            let owned = Arc::try_unwrap(shard).unwrap_or_else(|shared| {
                fdb_obs::registry()
                    .mvcc_cow_bytes_cloned
                    .add(shard_bytes(&shared) as u64);
                (*shared).clone()
            });
            for (k, v) in owned {
                split[shard_of(&k, bits)].insert(k, v);
            }
        }
        self.shards = split.into_iter().map(Arc::new).collect();
        self.bits = bits;
    }

    /// Shallow size of the shard spine (what cloning `self` copies).
    pub(crate) fn spine_bytes(&self) -> usize {
        self.shards.len() * size_of::<Arc<HashMap<K, V>>>()
    }

    #[cfg(test)]
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of shards of `self` that are not the same allocation as the
    /// shard at the same position in `other`.
    #[cfg(test)]
    pub(crate) fn unshared_shards(&self, other: &Self) -> usize {
        (0..self.shards.len())
            .filter(|&s| match other.shards.get(s) {
                Some(b) => !Arc::ptr_eq(&self.shards[s], b),
                None => true,
            })
            .count()
    }
}

fn shard_bytes<K, V>(m: &HashMap<K, V>) -> usize {
    m.len() * size_of::<(K, V)>()
}

/// The shard of `k` among `2^bits`: the top `bits` bits of a fixed,
/// process-independent hash (the maps' own hashers are randomly keyed).
fn shard_of<K: Hash>(k: &K, bits: u32) -> usize {
    if bits == 0 {
        return 0;
    }
    let mut h = ShardHasher(0);
    k.hash(&mut h);
    (h.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
}

/// A word-at-a-time multiplicative hasher (FxHash's mixing step).
struct ShardHasher(u64);

impl Hasher for ShardHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut buf = [0u8; 8];
            buf[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(buf));
        }
    }

    fn write_u64(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_indices_are_stable_across_chunk_boundaries() {
        let mut c: Chunked<usize> = (0..CHUNK * 2 + 3).collect();
        assert_eq!(c.len(), CHUNK * 2 + 3);
        assert_eq!(c.chunk_count(), 3);
        assert_eq!(c.get(CHUNK), Some(&CHUNK));
        *c.get_mut(CHUNK + 1).unwrap() = 7;
        assert_eq!(c.get(CHUNK + 1), Some(&7));
        for _ in 0..4 {
            c.pop();
        }
        assert_eq!(c.chunk_count(), 2);
        assert_eq!(c.last(), Some(&(CHUNK * 2 - 2)));
        assert_eq!(c.iter().count(), c.len());
    }

    #[test]
    fn chunked_write_detaches_one_chunk() {
        let mut c: Chunked<usize> = (0..CHUNK * 3).collect();
        let snap = c.clone();
        *c.get_mut(CHUNK + 5).unwrap() = 0;
        assert!(c.shares_chunk(&snap, 0));
        assert!(!c.shares_chunk(&snap, 1));
        assert!(c.shares_chunk(&snap, 2));
        assert_eq!(snap.get(CHUNK + 5), Some(&(CHUNK + 5)));
    }

    #[test]
    fn shards_split_only_when_a_shared_shard_is_written() {
        let mut m: Shards<u64, u64> = Shards::default();
        for k in 0..(4 * SHARD_MAX) as u64 + 1 {
            m.insert(k, k * 2);
        }
        assert_eq!(m.shard_count(), 1, "an unshared map never splits");
        let snap = m.clone();
        // A read or a miss detaches nothing and splits nothing.
        assert!(m.get_mut(&u64::MAX).is_none());
        assert!(m.remove(&u64::MAX).is_none());
        assert_eq!(m.shard_count(), 1);
        m.insert(u64::MAX, 1);
        assert_eq!(m.shard_count(), 8, "doubled until shards hold <= SHARD_MAX");
        assert_eq!(m.len(), 4 * SHARD_MAX + 2);
        for k in 0..(4 * SHARD_MAX) as u64 + 1 {
            assert_eq!(m.get(&k), Some(&(k * 2)));
        }
        // The split copied out of the shared shard; the snapshot keeps it.
        assert_eq!(snap.shard_count(), 1);
        assert_eq!(snap.len(), 4 * SHARD_MAX + 1);
        assert!(snap.get(&u64::MAX).is_none());
        assert_eq!(m.remove(&3), Some(6));
        assert_eq!(m.remove(&3), None);
        m.upsert(3, || 0, |v| *v += 1);
        m.upsert(3, || 0, |v| *v += 1);
        assert_eq!(m.get(&3), Some(&1));
    }

    #[test]
    fn shards_write_detaches_one_shard() {
        let mut m: Shards<u64, u64> = Shards::default();
        for k in 0..(8 * SHARD_MAX - 10) as u64 {
            m.insert(k, k);
        }
        let _first = m.clone();
        m.insert(u64::MAX - 1, 0);
        let snap = m.clone();
        assert_eq!(m.unshared_shards(&snap), 0);
        m.insert(u64::MAX, 1);
        assert_eq!(m.unshared_shards(&snap), 1);
        assert!(snap.get(&u64::MAX).is_none());
    }
}
