//! Persistent containers for the delta store: a clone is one `Arc` bump,
//! and a write copies only the path it walks.
//!
//! [`DeltaStore`](crate::DeltaStore) is published to readers as it is: a
//! write transaction clones the published state and writes into its clone.
//! Over `HashMap`s and `Vec`s that clone is a deep copy of the whole delta
//! on every commit. Over these containers it is a reference-count bump,
//! and a write copies at most one node per trie level on its way down —
//! 32 pointers or values — through `Arc::make_mut`: a node nobody else
//! holds is written in place, a shared one is copied first. A node a
//! pinned snapshot can reach is therefore never written.
//!
//! * [`PMap`] — a hash array mapped trie: 32-way branch nodes indexed by
//!   five hash bits per level through a bitmap, and collision nodes for
//!   keys whose 64-bit hashes are equal.
//! * [`PVec`] — a 32-way trie indexed by position, with copy-on-write
//!   `push`, `pop` and `set`.
//!
//! Values are meant to be cheap to clone (`Arc<[Value]>` rows, `Arc<[u64]>`
//! lists, integers): a path copy clones up to 32 of them.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

use gfcl_common::hash::IntHasher;

/// Hash bits, and list positions, consumed per trie level.
const BITS: u32 = 5;
const WIDTH: usize = 1 << BITS;
const MASK: usize = WIDTH - 1;
/// Shift of the deepest branch level of a [`PMap`]: its chunk holds hash
/// bits 60..64, so two keys that still agree below it have equal hashes.
const LAST_SHIFT: u32 = 60;

/// The maps' hash: [`IntHasher`]'s multiply-rotate for the integers the
/// delta is keyed by, seeded SipHash for byte strings.
fn hash_of<Q: Hash + ?Sized>(key: &Q) -> u64 {
    let mut h = IntHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// The bitmap bit of `hash`'s chunk at `shift` (at most [`LAST_SHIFT`]).
fn chunk_bit(hash: u64, shift: u32) -> u32 {
    1 << ((hash >> shift) as usize & MASK)
}

/// Position of the child for `bit` among a branch's packed children.
fn packed(bitmap: u32, bit: u32) -> usize {
    (bitmap & (bit - 1)).count_ones() as usize
}

/// A persistent hash map (see the module docs).
pub struct PMap<K, V> {
    root: Option<Arc<MapNode<K, V>>>,
    len: usize,
}

enum MapNode<K, V> {
    /// Bit `c` of `bitmap` is set when a child sits at hash chunk `c`;
    /// the children are packed in chunk order. Every sub-node holds at
    /// least two entries: a removal that leaves one collapses it to a leaf.
    Branch { bitmap: u32, children: Vec<Child<K, V>> },
    /// Keys whose full hashes are all `hash`.
    Collision { hash: u64, entries: Vec<(K, V)> },
}

enum Child<K, V> {
    Leaf { hash: u64, key: K, value: V },
    Node(Arc<MapNode<K, V>>),
}

impl<K: Clone, V: Clone> Clone for Child<K, V> {
    fn clone(&self) -> Self {
        match self {
            Child::Leaf { hash, key, value } => {
                Child::Leaf { hash: *hash, key: key.clone(), value: value.clone() }
            }
            Child::Node(node) => Child::Node(Arc::clone(node)),
        }
    }
}

impl<K: Clone, V: Clone> Clone for MapNode<K, V> {
    /// A path copy, with one spare slot for the insert that usually
    /// follows it.
    fn clone(&self) -> Self {
        match self {
            MapNode::Branch { bitmap, children } => {
                let mut copy = Vec::with_capacity((children.len() + 1).min(WIDTH));
                copy.extend(children.iter().cloned());
                MapNode::Branch { bitmap: *bitmap, children: copy }
            }
            MapNode::Collision { hash, entries } => {
                MapNode::Collision { hash: *hash, entries: entries.clone() }
            }
        }
    }
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap { root: self.root.clone(), len: self.len }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap { root: None, len: 0 }
    }
}

impl<K, V> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PMap").field("len", &self.len).finish_non_exhaustive()
    }
}

impl<K, V> PMap<K, V> {
    pub fn new() -> Self {
        PMap::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let hash = hash_of(key);
        let mut node = self.root.as_deref()?;
        let mut shift = 0;
        loop {
            match node {
                MapNode::Branch { bitmap, children } => {
                    let bit = chunk_bit(hash, shift);
                    if bitmap & bit == 0 {
                        return None;
                    }
                    match children.get(packed(*bitmap, bit))? {
                        Child::Leaf { hash: h, key: k, value } => {
                            return (*h == hash && k.borrow() == key).then_some(value);
                        }
                        Child::Node(sub) => {
                            node = sub;
                            shift += BITS;
                        }
                    }
                }
                MapNode::Collision { hash: h, entries } => {
                    if *h != hash {
                        return None;
                    }
                    return entries.iter().find(|(k, _)| k.borrow() == key).map(|(_, v)| v);
                }
            }
        }
    }

    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.get(key).is_some()
    }
}

impl<K: Hash + Eq + Clone, V: Clone> PMap<K, V> {
    /// Insert or replace; returns the replaced value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let hash = hash_of(&key);
        let old = match &mut self.root {
            Some(root) => insert_into(root, hash, 0, key, value),
            None => {
                let leaf = Child::Leaf { hash, key, value };
                let root = MapNode::Branch { bitmap: chunk_bit(hash, 0), children: vec![leaf] };
                self.root = Some(Arc::new(root));
                None
            }
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove `key`, returning its value. A miss copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        if !self.contains_key(key) {
            return None;
        }
        let removed = remove_from(self.root.as_mut()?, hash_of(key), 0, key)?;
        self.len -= 1;
        if self.len == 0 {
            self.root = None;
        }
        Some(removed)
    }
}

fn insert_into<K: Eq + Clone, V: Clone>(
    node: &mut Arc<MapNode<K, V>>,
    hash: u64,
    shift: u32,
    key: K,
    value: V,
) -> Option<V> {
    match Arc::make_mut(node) {
        MapNode::Branch { bitmap, children } => {
            let bit = chunk_bit(hash, shift);
            let at = packed(*bitmap, bit);
            if *bitmap & bit == 0 {
                children.insert(at, Child::Leaf { hash, key, value });
                *bitmap |= bit;
                return None;
            }
            let child = &mut children[at];
            match child {
                Child::Node(sub) => insert_into(sub, hash, shift + BITS, key, value),
                Child::Leaf { hash: h, key: k, value: v } if *h == hash && *k == key => {
                    Some(std::mem::replace(v, value))
                }
                Child::Leaf { hash: h, key: k, value: v } => {
                    // Two keys share this chunk: both move one level down.
                    let old = (*h, k.clone(), v.clone());
                    *child = Child::Node(Arc::new(pair(shift + BITS, old, (hash, key, value))));
                    None
                }
            }
        }
        MapNode::Collision { entries, .. } => {
            // Only keys of the node's hash get here: collision nodes sit
            // below the last branch level, where every hash bit is used.
            if let Some((_, v)) = entries.iter_mut().find(|(k, _)| *k == key) {
                return Some(std::mem::replace(v, value));
            }
            entries.push((key, value));
            None
        }
    }
}

/// The node holding two entries whose hashes agree below `shift`.
fn pair<K, V>(shift: u32, a: (u64, K, V), b: (u64, K, V)) -> MapNode<K, V> {
    if shift > LAST_SHIFT {
        return MapNode::Collision { hash: a.0, entries: vec![(a.1, a.2), (b.1, b.2)] };
    }
    let (bit_a, bit_b) = (chunk_bit(a.0, shift), chunk_bit(b.0, shift));
    if bit_a == bit_b {
        let sub = Child::Node(Arc::new(pair(shift + BITS, a, b)));
        return MapNode::Branch { bitmap: bit_a, children: vec![sub] };
    }
    let leaf = |(hash, key, value)| Child::Leaf { hash, key, value };
    let children = if bit_a < bit_b { vec![leaf(a), leaf(b)] } else { vec![leaf(b), leaf(a)] };
    MapNode::Branch { bitmap: bit_a | bit_b, children }
}

fn remove_from<K, V, Q>(node: &mut Arc<MapNode<K, V>>, hash: u64, shift: u32, key: &Q) -> Option<V>
where
    K: Borrow<Q> + Clone,
    V: Clone,
    Q: Eq + ?Sized,
{
    match Arc::make_mut(node) {
        MapNode::Branch { bitmap, children } => {
            let bit = chunk_bit(hash, shift);
            if *bitmap & bit == 0 {
                return None;
            }
            let at = packed(*bitmap, bit);
            match &mut children[at] {
                Child::Leaf { hash: h, key: k, .. } => {
                    if *h != hash || (*k).borrow() != key {
                        return None;
                    }
                    *bitmap &= !bit;
                    match children.remove(at) {
                        Child::Leaf { value, .. } => Some(value),
                        Child::Node(_) => None,
                    }
                }
                Child::Node(sub) => {
                    let removed = remove_from(sub, hash, shift + BITS, key)?;
                    if let Some(leaf) = lone_entry(sub) {
                        children[at] = leaf;
                    }
                    Some(removed)
                }
            }
        }
        MapNode::Collision { entries, .. } => {
            let at = entries.iter().position(|(k, _)| k.borrow() == key)?;
            Some(entries.remove(at).1)
        }
    }
}

/// The single entry of a node a removal left with one, as a leaf.
fn lone_entry<K: Clone, V: Clone>(node: &MapNode<K, V>) -> Option<Child<K, V>> {
    match node {
        MapNode::Branch { children, .. } => match children.as_slice() {
            [leaf @ Child::Leaf { .. }] => Some(leaf.clone()),
            _ => None,
        },
        MapNode::Collision { hash, entries } => match entries.as_slice() {
            [(key, value)] => {
                Some(Child::Leaf { hash: *hash, key: key.clone(), value: value.clone() })
            }
            _ => None,
        },
    }
}

/// A persistent vector (see the module docs).
pub struct PVec<T> {
    root: Option<Arc<VecNode<T>>>,
    len: usize,
    /// Shift of the root's level: 0 when the root is a leaf.
    shift: u32,
}

enum VecNode<T> {
    Leaf(Vec<T>),
    Inner(Vec<Arc<VecNode<T>>>),
}

impl<T: Clone> Clone for VecNode<T> {
    /// A path copy, with one spare slot for the push that usually
    /// follows it.
    fn clone(&self) -> Self {
        match self {
            VecNode::Leaf(items) => {
                let mut copy = Vec::with_capacity((items.len() + 1).min(WIDTH));
                copy.extend(items.iter().cloned());
                VecNode::Leaf(copy)
            }
            VecNode::Inner(children) => {
                let mut copy = Vec::with_capacity((children.len() + 1).min(WIDTH));
                copy.extend(children.iter().cloned());
                VecNode::Inner(copy)
            }
        }
    }
}

impl<T> Clone for PVec<T> {
    fn clone(&self) -> Self {
        PVec { root: self.root.clone(), len: self.len, shift: self.shift }
    }
}

impl<T> Default for PVec<T> {
    fn default() -> Self {
        PVec { root: None, len: 0, shift: 0 }
    }
}

impl<T: fmt::Debug> fmt::Debug for PVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Elements a trie whose root level is at `shift` can hold.
fn capacity(shift: u32) -> usize {
    1usize.checked_shl(shift + BITS).unwrap_or(usize::MAX)
}

impl<T> PVec<T> {
    pub fn new() -> Self {
        PVec::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The leaf holding position `i` (empty when there is none).
    fn leaf_of(&self, i: usize) -> &[T] {
        let Some(mut node) = self.root.as_deref() else { return &[] };
        let mut shift = self.shift;
        loop {
            match node {
                VecNode::Leaf(items) => return items,
                VecNode::Inner(children) => match children.get((i >> shift) & MASK) {
                    Some(child) => node = child,
                    None => return &[],
                },
            }
            shift = shift.saturating_sub(BITS);
        }
    }

    pub fn get(&self, i: usize) -> Option<&T> {
        if i < self.len {
            self.leaf_of(i).get(i & MASK)
        } else {
            None
        }
    }

    pub fn last(&self) -> Option<&T> {
        self.get(self.len.checked_sub(1)?)
    }

    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).filter_map(move |i| self.get(i))
    }
}

impl<T> Index<usize> for PVec<T> {
    type Output = T;

    /// Panics when `i >= len()`, as a slice does.
    fn index(&self, i: usize) -> &T {
        let leaf = if i < self.len { self.leaf_of(i) } else { &[] };
        &leaf[i & MASK]
    }
}

impl<T: Clone> PVec<T> {
    pub fn push(&mut self, value: T) {
        let i = self.len;
        self.len += 1;
        let Some(root) = &mut self.root else {
            let mut items = Vec::with_capacity(WIDTH);
            items.push(value);
            self.root = Some(Arc::new(VecNode::Leaf(items)));
            return;
        };
        if i == capacity(self.shift) {
            // Full: grow a level above the old root.
            let mut children = Vec::with_capacity(WIDTH);
            children.push(Arc::clone(root));
            *root = Arc::new(VecNode::Inner(children));
            self.shift += BITS;
        }
        push_into(root, self.shift, i, value);
    }

    pub fn pop(&mut self) -> Option<T> {
        let i = self.len.checked_sub(1)?;
        let value = pop_from(self.root.as_mut()?, self.shift, i)?;
        self.len = i;
        if i == 0 {
            self.root = None;
            self.shift = 0;
        }
        // Drop root levels the remaining elements no longer need.
        while self.shift > 0 && self.len <= capacity(self.shift - BITS) {
            let Some(VecNode::Inner(children)) = self.root.as_deref() else { break };
            let Some(first) = children.first().cloned() else { break };
            self.root = Some(first);
            self.shift -= BITS;
        }
        Some(value)
    }

    /// Replace the element at `i`, returning the old one (`None`, and no
    /// change, when `i >= len()`).
    pub fn set(&mut self, i: usize, value: T) -> Option<T> {
        if i >= self.len {
            return None;
        }
        set_in(self.root.as_mut()?, self.shift, i, value)
    }
}

fn push_into<T: Clone>(node: &mut Arc<VecNode<T>>, shift: u32, i: usize, value: T) {
    match Arc::make_mut(node) {
        VecNode::Leaf(items) => items.push(value),
        VecNode::Inner(children) => {
            let at = (i >> shift) & MASK;
            let below = shift.saturating_sub(BITS);
            if at == children.len() {
                children.push(Arc::new(empty_path(below)));
            }
            if let Some(child) = children.get_mut(at) {
                push_into(child, below, i, value);
            }
        }
    }
}

/// A chain of single-child nodes from level `shift` down to an empty leaf.
fn empty_path<T>(shift: u32) -> VecNode<T> {
    if shift == 0 {
        VecNode::Leaf(Vec::with_capacity(WIDTH))
    } else {
        let mut children = Vec::with_capacity(WIDTH);
        children.push(Arc::new(empty_path(shift.saturating_sub(BITS))));
        VecNode::Inner(children)
    }
}

fn pop_from<T: Clone>(node: &mut Arc<VecNode<T>>, shift: u32, i: usize) -> Option<T> {
    match Arc::make_mut(node) {
        VecNode::Leaf(items) => items.pop(),
        VecNode::Inner(children) => {
            let at = (i >> shift) & MASK;
            let value = pop_from(children.get_mut(at)?, shift.saturating_sub(BITS), i);
            // The child starts at position `i` exactly when `i` was its
            // only element: then it is empty now.
            if i & ((1 << shift) - 1) == 0 {
                children.truncate(at);
            }
            value
        }
    }
}

fn set_in<T: Clone>(node: &mut Arc<VecNode<T>>, shift: u32, i: usize, value: T) -> Option<T> {
    match Arc::make_mut(node) {
        VecNode::Leaf(items) => items.get_mut(i & MASK).map(|slot| std::mem::replace(slot, value)),
        VecNode::Inner(children) => {
            let child = children.get_mut((i >> shift) & MASK)?;
            set_in(child, shift.saturating_sub(BITS), i, value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_write_copies_only_its_path() {
        let mut a: PVec<u64> = PVec::new();
        for i in 0..5_000 {
            a.push(i);
        }
        let mut b = a.clone();
        b.set(4_321, 0);
        b.push(5_000);
        assert_eq!((a[4_321], b[4_321]), (4_321, 0));
        assert_eq!((a.len(), b.len()), (5_000, 5_001));
        // Untouched leaves are still shared between the two.
        let (Some(ra), Some(rb)) = (&a.root, &b.root) else { panic!("non-empty") };
        let (VecNode::Inner(ca), VecNode::Inner(cb)) = (&**ra, &**rb) else { panic!("3 levels") };
        assert!(Arc::ptr_eq(&ca[0], &cb[0]));
        assert!(!Arc::ptr_eq(&ca[4], &cb[4]), "the written subtree was copied");
    }

    #[test]
    fn pop_shrinks_the_trie_back_to_a_leaf() {
        let mut v: PVec<u32> = PVec::new();
        for i in 0..1_100 {
            v.push(i);
        }
        assert_eq!(v.shift, 2 * BITS);
        while v.len() > 3 {
            v.pop();
        }
        assert_eq!((v.shift, v.iter().copied().collect::<Vec<_>>()), (0, vec![0, 1, 2]));
        assert_eq!((v.pop(), v.pop(), v.pop(), v.pop()), (Some(2), Some(1), Some(0), None));
        assert!(v.root.is_none());
    }

    #[test]
    fn equal_hashes_share_a_collision_node() {
        #[derive(Clone, Debug, PartialEq, Eq)]
        struct Same(u32);
        impl Hash for Same {
            fn hash<H: Hasher>(&self, h: &mut H) {
                h.write_u32(7);
            }
        }
        let mut m = PMap::new();
        for k in 0..5 {
            m.insert(Same(k), k);
        }
        assert_eq!((m.len(), m.get(&Same(3)), m.get(&Same(9))), (5, Some(&3), None));
        for k in 0..4 {
            assert_eq!(m.remove(&Same(k)), Some(k));
        }
        // One entry left: the collision node collapsed back into a leaf.
        let Some(MapNode::Branch { children, .. }) = m.root.as_deref() else { panic!() };
        assert!(matches!(children.as_slice(), [Child::Leaf { .. }]));
    }
}
