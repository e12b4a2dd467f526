//! Fixed-size containers that keep [`ZabState`](crate::state::ZabState) cheap to clone,
//! hash and drop.
//!
//! Every state the model checker touches is cloned, fingerprinted and usually dropped,
//! so the layout decides the cost of a transition.  Ensembles are capped at
//! [`MAX_EFFECT_SERVERS`] (8) servers — the width of the `Effect` footprint masks — which
//! lets every `Sid`-keyed container live inline:
//!
//! * [`SidSet`]: a set of server ids as a `u8` bitmask;
//! * [`SidMap`]: a map from server ids as a key mask plus a `[V; 8]` array;
//! * [`PairSet`]: a set of unordered server pairs as a `u64` bitmask;
//! * [`Channels`]: the `n × n` FIFO channel table as one flat vector of queues,
//!   row-indexable so `msgs[from][to]` reads as before;
//! * [`Shared`]: copy-on-write `Arc` sharing for large, rarely written values
//!   (server histories and the ghost state).
//!
//! # Fingerprint compatibility
//!
//! Each container hand-implements [`Hash`] to emit exactly the `write_*` stream of the
//! standard container it replaced — `BTreeSet<Sid>`, `BTreeMap<Sid, V>`,
//! `BTreeSet<(Sid, Sid)>`, `Vec<Vec<Vec<Message>>>` and plain `T` — and [`Ord`] to
//! compare exactly as that container did.  State fingerprints and the `Ord`-minimal
//! symmetry representatives are therefore unchanged by the layout;
//! `tests/fingerprint_stability.rs` pins both.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut, Index, IndexMut};
use std::sync::Arc;

use remix_spec::effect::MAX_EFFECT_SERVERS;

use crate::types::{Message, Sid};

#[inline]
fn sid_bit(sid: Sid) -> u8 {
    assert!(
        sid < MAX_EFFECT_SERVERS,
        "sid {sid} exceeds the {MAX_EFFECT_SERVERS}-server cap"
    );
    1 << sid
}

/// A set of server ids, stored as a bitmask (bit `i` set ⇔ `i` is a member).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct SidSet(u8);

impl SidSet {
    /// The empty set.
    pub const fn new() -> Self {
        SidSet(0)
    }

    /// Adds `sid`; returns `true` if it was not already a member.
    pub fn insert(&mut self, sid: Sid) -> bool {
        let bit = sid_bit(sid);
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes `sid`; returns `true` if it was a member.
    pub fn remove(&mut self, sid: Sid) -> bool {
        let bit = sid_bit(sid);
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Whether `sid` is a member.
    pub fn contains(self, sid: Sid) -> bool {
        sid < MAX_EFFECT_SERVERS && self.0 & (1 << sid) != 0
    }

    /// Number of members.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.0 = 0;
    }

    /// The members in ascending order.
    pub const fn iter(self) -> SidIter {
        SidIter(self.0)
    }

    /// The image of the set under `f` (used to rename server ids).
    pub fn map(self, f: impl Fn(Sid) -> Sid) -> SidSet {
        self.iter().map(f).collect()
    }
}

/// Iterator over the members of a [`SidSet`], in ascending order.
#[derive(Clone, Copy, Debug)]
pub struct SidIter(u8);

impl Iterator for SidIter {
    type Item = Sid;

    #[inline]
    fn next(&mut self) -> Option<Sid> {
        if self.0 == 0 {
            return None;
        }
        let sid = self.0.trailing_zeros() as Sid;
        self.0 &= self.0 - 1;
        Some(sid)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.0.count_ones() as usize;
        (len, Some(len))
    }
}

impl ExactSizeIterator for SidIter {}

impl IntoIterator for SidSet {
    type Item = Sid;
    type IntoIter = SidIter;

    fn into_iter(self) -> SidIter {
        self.iter()
    }
}

impl FromIterator<Sid> for SidSet {
    fn from_iter<I: IntoIterator<Item = Sid>>(iter: I) -> Self {
        let mut set = SidSet::new();
        set.extend(iter);
        set
    }
}

impl Extend<Sid> for SidSet {
    fn extend<I: IntoIterator<Item = Sid>>(&mut self, iter: I) {
        for sid in iter {
            self.insert(sid);
        }
    }
}

/// Same stream as `BTreeSet<Sid>`: the length, then each member.
impl Hash for SidSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for sid in self.iter() {
            state.write_usize(sid);
        }
    }
}

/// Same order as `BTreeSet<Sid>`: lexicographic over the ascending members.
impl Ord for SidSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for SidSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for SidSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// A map from server ids to `V`: a key mask plus one inline slot per possible server.
///
/// Slots outside the key mask always hold `V::default()`, so the derived equality is
/// equality of the entries.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct SidMap<V> {
    keys: SidSet,
    slots: [V; MAX_EFFECT_SERVERS],
}

impl<V: Copy + Default> SidMap<V> {
    /// The empty map.
    pub fn new() -> Self {
        SidMap::default()
    }

    /// Inserts `value` under `sid`, returning the previous value.
    pub fn insert(&mut self, sid: Sid, value: V) -> Option<V> {
        let old = self.get(sid).copied();
        self.keys.insert(sid);
        self.slots[sid] = value;
        old
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        *self = SidMap::default();
    }
}

impl<V> SidMap<V> {
    /// The value stored under `sid`, if any.
    pub fn get(&self, sid: Sid) -> Option<&V> {
        self.keys.contains(sid).then(|| &self.slots[sid])
    }

    /// Whether `sid` has an entry.
    pub fn contains_key(&self, sid: Sid) -> bool {
        self.keys.contains(sid)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (Sid, &V)> + '_ {
        self.keys.iter().map(|sid| (sid, &self.slots[sid]))
    }

    /// The values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.keys.iter().map(|sid| &self.slots[sid])
    }
}

impl<V> Index<Sid> for SidMap<V> {
    type Output = V;

    fn index(&self, sid: Sid) -> &V {
        self.get(sid)
            .unwrap_or_else(|| panic!("no entry for sid {sid}"))
    }
}

impl<V: Copy + Default> FromIterator<(Sid, V)> for SidMap<V> {
    fn from_iter<I: IntoIterator<Item = (Sid, V)>>(iter: I) -> Self {
        let mut map = SidMap::new();
        for (sid, value) in iter {
            map.insert(sid, value);
        }
        map
    }
}

/// Same stream as `BTreeMap<Sid, V>`: the length, then each key and value.
impl<V: Hash> Hash for SidMap<V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for (sid, value) in self.iter() {
            state.write_usize(sid);
            value.hash(state);
        }
    }
}

/// Same order as `BTreeMap<Sid, V>`: lexicographic over the ascending entries.
impl<V: Ord> Ord for SidMap<V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl<V: Ord> PartialOrd for SidMap<V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<V: fmt::Debug> fmt::Debug for SidMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// A set of unordered server pairs, stored as a bitmask over the normalized
/// `(min, max)` pairs (bit `a * 8 + b` for `a < b`).
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct PairSet(u64);

impl PairSet {
    /// The empty set.
    pub const fn new() -> Self {
        PairSet(0)
    }

    #[inline]
    fn bit((a, b): (Sid, Sid)) -> u64 {
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(
            hi < MAX_EFFECT_SERVERS,
            "sid {hi} exceeds the {MAX_EFFECT_SERVERS}-server cap"
        );
        1 << (lo * MAX_EFFECT_SERVERS + hi)
    }

    /// Adds the unordered pair; returns `true` if it was not already a member.
    pub fn insert(&mut self, pair: (Sid, Sid)) -> bool {
        let bit = Self::bit(pair);
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Removes the unordered pair; returns `true` if it was a member.
    pub fn remove(&mut self, pair: (Sid, Sid)) -> bool {
        let bit = Self::bit(pair);
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Whether the unordered pair is a member.
    pub fn contains(self, pair: (Sid, Sid)) -> bool {
        self.0 & Self::bit(pair) != 0
    }

    /// Number of pairs.
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The pairs, normalized `(min, max)`, in lexicographic order.
    pub fn iter(self) -> impl Iterator<Item = (Sid, Sid)> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let index = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some((index / MAX_EFFECT_SERVERS, index % MAX_EFFECT_SERVERS))
        })
    }

    /// The image of the set under `f` applied to both ends of every pair.
    pub fn map(self, f: impl Fn(Sid) -> Sid) -> PairSet {
        let mut out = PairSet::new();
        for (a, b) in self.iter() {
            out.insert((f(a), f(b)));
        }
        out
    }
}

/// Same stream as `BTreeSet<(Sid, Sid)>` of normalized pairs.
impl Hash for PairSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.len());
        for (a, b) in self.iter() {
            state.write_usize(a);
            state.write_usize(b);
        }
    }
}

/// Same order as `BTreeSet<(Sid, Sid)>`.
impl Ord for PairSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl PartialOrd for PairSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for PairSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The FIFO channel table: `n × n` queues in one row-major vector.
///
/// `channels[from]` is the row of queues out of `from`, so `channels[from][to]` is the
/// queue `from → to`.
#[derive(Clone, PartialEq, Eq)]
pub struct Channels {
    n: usize,
    queues: Vec<Vec<Message>>,
}

impl Channels {
    /// Empty channels between `n` servers.
    pub fn new(n: usize) -> Self {
        Channels {
            n,
            queues: vec![Vec::new(); n * n],
        }
    }

    /// The rows of the table, in sender order.
    pub fn rows(&self) -> impl Iterator<Item = &[Vec<Message>]> + '_ {
        // `chunks` rejects a zero width; an empty table has no rows either way.
        self.queues.chunks(self.n.max(1))
    }

    /// Total number of in-flight messages.
    pub fn total_len(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// The table with every queue moved to `(f(from), f(to))` and every message
    /// rewritten by `g` (used to rename server ids).
    pub fn map(&self, f: impl Fn(Sid) -> Sid, g: impl Fn(&Message) -> Message) -> Channels {
        let mut out = Channels::new(self.n);
        for (index, queue) in self.queues.iter().enumerate() {
            if !queue.is_empty() {
                let (from, to) = (index / self.n, index % self.n);
                out.queues[f(from) * self.n + f(to)] = queue.iter().map(&g).collect();
            }
        }
        out
    }
}

impl Index<Sid> for Channels {
    type Output = [Vec<Message>];

    fn index(&self, from: Sid) -> &[Vec<Message>] {
        &self.queues[from * self.n..(from + 1) * self.n]
    }
}

impl IndexMut<Sid> for Channels {
    fn index_mut(&mut self, from: Sid) -> &mut [Vec<Message>] {
        &mut self.queues[from * self.n..(from + 1) * self.n]
    }
}

/// Same stream as `Vec<Vec<Vec<Message>>>`: the row count, then each row as a slice.
impl Hash for Channels {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.n);
        for row in self.rows() {
            row.hash(state);
        }
    }
}

/// Same order as `Vec<Vec<Vec<Message>>>`: lexicographic over the rows.
impl Ord for Channels {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rows().cmp(other.rows())
    }
}

impl PartialOrd for Channels {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for Channels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.rows()).finish()
    }
}

/// A copy-on-write shared value: cloning bumps a reference count, and the first
/// mutable access through a shared handle clones the value (`Arc::make_mut`).
///
/// Equality, ordering, hashing and `Debug` are those of the value itself.
#[derive(Clone, Default)]
pub struct Shared<T>(Arc<T>);

impl<T> Shared<T> {
    /// Wraps `value`.
    pub fn new(value: T) -> Self {
        Shared(Arc::new(value))
    }
}

impl<T> From<T> for Shared<T> {
    fn from(value: T) -> Self {
        Shared::new(value)
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    fn deref_mut(&mut self) -> &mut T {
        Arc::make_mut(&mut self.0)
    }
}

// Pointer identity implies equality only for a reflexive `==`, hence `T: Eq`.
impl<T: Eq> PartialEq for Shared<T> {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: Ord> Ord for Shared<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        if Arc::ptr_eq(&self.0, &other.0) {
            return Ordering::Equal;
        }
        self.0.cmp(&other.0)
    }
}

impl<T: Ord> PartialOrd for Shared<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Hash> Hash for Shared<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::types::{Vote, Zxid};

    /// The raw `write_*` stream a value emits, one byte vector per call.
    #[derive(Default)]
    struct Recorder(Vec<u8>);

    impl Hasher for Recorder {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }

        fn finish(&self) -> u64 {
            0
        }
    }

    fn stream<T: Hash + ?Sized>(value: &T) -> Vec<u8> {
        let mut r = Recorder::default();
        value.hash(&mut r);
        r.0
    }

    /// Every subset of `0..n`.
    fn subsets(n: usize) -> impl Iterator<Item = SidSet> {
        (0..1u16 << n).map(move |bits| (0..n).filter(|i| bits >> i & 1 == 1).collect())
    }

    #[test]
    fn sid_set_matches_btree_set() {
        let all: Vec<SidSet> = subsets(MAX_EFFECT_SERVERS).collect();
        for set in &all {
            let tree: BTreeSet<Sid> = set.iter().collect();
            assert_eq!(stream(set), stream(&tree));
            assert_eq!(set.len(), tree.len());
            assert_eq!(format!("{set:?}"), format!("{tree:?}"));
            for other in all.iter().step_by(7) {
                let other_tree: BTreeSet<Sid> = other.iter().collect();
                assert_eq!(
                    set.cmp(other),
                    tree.cmp(&other_tree),
                    "{set:?} vs {other:?}"
                );
            }
        }
    }

    #[test]
    fn sid_set_insert_and_remove_report_membership() {
        let mut set = SidSet::new();
        assert!(set.insert(3));
        assert!(!set.insert(3));
        assert!(set.contains(3) && !set.contains(2) && !set.contains(99));
        assert!(set.remove(3));
        assert!(!set.remove(3));
        assert!(set.is_empty());
        let shifted = [5, 1].into_iter().collect::<SidSet>().map(|s| s + 1);
        assert!(shifted.iter().eq([2, 6]));
    }

    #[test]
    #[should_panic(expected = "8-server cap")]
    fn sid_set_rejects_ids_beyond_the_cap() {
        SidSet::new().insert(MAX_EFFECT_SERVERS);
    }

    #[test]
    fn sid_map_matches_btree_map() {
        let vote = |leader| Vote {
            epoch: 1,
            zxid: Zxid::new(1, leader as u32),
            leader,
        };
        for keys in subsets(5) {
            let map: SidMap<Vote> = keys.iter().map(|s| (s, vote(s))).collect();
            let tree: BTreeMap<Sid, Vote> = map.iter().map(|(s, v)| (s, *v)).collect();
            assert_eq!(stream(&map), stream(&tree));
            assert_eq!(format!("{map:?}"), format!("{tree:?}"));
            for other in subsets(5).step_by(3) {
                let other: SidMap<Vote> = other.iter().map(|s| (s, vote(4 - s))).collect();
                let other_tree: BTreeMap<Sid, Vote> = other.iter().map(|(s, v)| (s, *v)).collect();
                assert_eq!(map.cmp(&other), tree.cmp(&other_tree));
                assert_eq!(map == other, tree == other_tree);
            }
        }
    }

    #[test]
    fn sid_map_clear_restores_equality() {
        let mut a: SidMap<Zxid> = SidMap::new();
        assert_eq!(a.insert(2, Zxid::new(1, 1)), None);
        assert_eq!(a.insert(2, Zxid::new(1, 2)), Some(Zxid::new(1, 1)));
        assert_eq!(a[2], Zxid::new(1, 2));
        a.clear();
        assert_eq!(a, SidMap::new());
        assert_eq!(a.get(2), None);
    }

    #[test]
    fn pair_set_matches_btree_set_of_normalized_pairs() {
        let pairs: Vec<(Sid, Sid)> = (0..5)
            .flat_map(|a| ((a + 1)..5).map(move |b| (a, b)))
            .collect();
        for mask in 0..1u32 << pairs.len() {
            let mut set = PairSet::new();
            let mut tree = BTreeSet::new();
            for (k, &(a, b)) in pairs.iter().enumerate() {
                if mask & (1 << k) != 0 {
                    // Insert reversed: the set normalizes.
                    set.insert((b, a));
                    tree.insert((a, b));
                }
            }
            assert_eq!(stream(&set), stream(&tree));
            assert!(set.iter().eq(tree.iter().copied()));
            if mask % 97 == 0 {
                let other = set.map(|s| 4 - s);
                let other_tree: BTreeSet<(Sid, Sid)> = other.iter().collect();
                assert_eq!(set.cmp(&other), tree.cmp(&other_tree));
            }
        }
    }

    #[test]
    fn channels_match_nested_vectors() {
        for n in 0..4 {
            let mut table = Channels::new(n);
            let mut nested: Vec<Vec<Vec<Message>>> = vec![vec![Vec::new(); n]; n];
            for from in 0..n {
                for to in 0..n {
                    for k in 0..(from + 2 * to) % 3 {
                        let msg = Message::Ack {
                            zxid: Zxid::new(from as u32, k as u32),
                        };
                        table[from][to].push(msg.clone());
                        nested[from][to].push(msg);
                    }
                }
            }
            assert_eq!(stream(&table), stream(&nested));
            assert_eq!(format!("{table:?}"), format!("{nested:?}"));
            assert_eq!(
                table.total_len(),
                nested.iter().flatten().map(Vec::len).sum::<usize>()
            );
            if n > 1 {
                let swapped = table.map(|s| n - 1 - s, Message::clone);
                let mut nested_swapped = vec![vec![Vec::new(); n]; n];
                for (from, row) in nested.iter().enumerate() {
                    for (to, queue) in row.iter().enumerate() {
                        nested_swapped[n - 1 - from][n - 1 - to] = queue.clone();
                    }
                }
                assert_eq!(table.cmp(&swapped), nested.cmp(&nested_swapped));
                assert_eq!(stream(&swapped), stream(&nested_swapped));
            }
        }
    }

    #[test]
    fn shared_values_copy_on_write() {
        let a: Shared<Vec<u32>> = vec![1, 2].into();
        let mut b = a.clone();
        b.push(3);
        assert_eq!(*a, vec![1, 2]);
        assert_eq!(*b, vec![1, 2, 3]);
        assert_eq!(stream(&b), stream(&vec![1u32, 2, 3]));
        assert!(a < b);
        assert_eq!(format!("{b:?}"), "[1, 2, 3]");
    }
}
