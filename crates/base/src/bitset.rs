//! The one word-backed dense bit set of the workspace.
//!
//! Both halves of the mapper lean on hot bitset intersection loops: the
//! monomorphism engine intersects neighbourhood rows of the target graph
//! (`cgra-iso`), and the architecture model keeps per-PE adjacency masks
//! (`cgra-arch`). Historically each crate carried its own near-identical
//! 64-bit-word implementation; they are consolidated here so every
//! future word-level optimisation (SIMD, popcount batching, row sharing)
//! lands in exactly one place.
//!
//! [`DenseBitSet`] is the raw `usize`-indexed set; [`IndexSet`] wraps it
//! with a typed index (any [`DenseIndex`] newtype such as a PE id) at
//! zero cost.

use std::fmt;
use std::marker::PhantomData;

/// A fixed-capacity set of dense indices backed by a `u64` word vector.
///
/// All set algebra is in-place and word-parallel; membership and
/// insertion are O(1). Capacity is fixed at construction (the exclusive
/// upper bound on indices).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DenseBitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl DenseBitSet {
    /// Creates an empty set over indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        DenseBitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// Creates a set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = DenseBitSet::new(capacity);
        for w in &mut s.words {
            *w = !0;
        }
        s.mask_tail();
        s
    }

    /// Clears bits of the last word beyond `capacity`, maintaining the
    /// invariant that no bit at index `>= capacity` is ever set (word
    /// iteration, `len` and equality all rely on it).
    fn mask_tail(&mut self) {
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The exclusive upper bound on indices.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn insert(&mut self, i: usize) {
        assert!(i < self.capacity, "index {i} out of range");
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes an index (no-op when absent or out of range).
    pub fn remove(&mut self, i: usize) {
        if i < self.capacity {
            self.words[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Membership test (out-of-range indices are never members).
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes every member, keeping the capacity.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// In-place intersection (`self ∩= other`).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place union (`self ∪= other`).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ (a mismatched union could set
    /// bits beyond this set's capacity, breaking the invariant that
    /// `len`, iteration and equality rely on).
    pub fn union_with(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference (`self \= other`).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn subtract(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Copies `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn copy_from(&mut self, other: &DenseBitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates over members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The backing words (tail bits beyond the capacity are zero).
    ///
    /// Exposed for word-level consumers (popcount batching, SIMD
    /// experiments); prefer the set API elsewhere.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

impl fmt::Debug for DenseBitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for DenseBitSet {
    /// Collects indices into a set sized to the largest index seen.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().map(|&i| i + 1).max().unwrap_or(0);
        let mut s = DenseBitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

impl Extend<usize> for DenseBitSet {
    fn extend<T: IntoIterator<Item = usize>>(&mut self, iter: T) {
        for i in iter {
            self.insert(i);
        }
    }
}

impl<'a> IntoIterator for &'a DenseBitSet {
    type Item = usize;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over the members of a [`DenseBitSet`] in ascending order.
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

/// A dense zero-based index type (a typed newtype over `usize`).
///
/// Implement this for id types like `PeId` to get a typed [`IndexSet`]
/// over them for free.
pub trait DenseIndex: Copy {
    /// Constructs the id from its dense index.
    fn from_index(index: usize) -> Self;
    /// The dense index of this id.
    fn index(self) -> usize;
}

impl DenseIndex for usize {
    fn from_index(index: usize) -> Self {
        index
    }

    fn index(self) -> usize {
        self
    }
}

/// A typed wrapper over [`DenseBitSet`]: a set of `I` where `I` is a
/// dense newtype index ([`DenseIndex`]).
///
/// The wrapper is zero-cost — it stores exactly a [`DenseBitSet`] — and
/// exists so id types from different domains (PEs, DFG nodes, MRRG
/// vertices) cannot be mixed up in one set.
pub struct IndexSet<I> {
    raw: DenseBitSet,
    _marker: PhantomData<I>,
}

impl<I: DenseIndex> IndexSet<I> {
    /// Creates an empty set able to hold ids with indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        IndexSet {
            raw: DenseBitSet::new(capacity),
            _marker: PhantomData,
        }
    }

    /// Creates a set containing every id in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        IndexSet {
            raw: DenseBitSet::full(capacity),
            _marker: PhantomData,
        }
    }

    /// The capacity (exclusive upper bound on indices).
    pub fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Inserts an id.
    ///
    /// # Panics
    ///
    /// Panics if the id's index is out of range.
    pub fn insert(&mut self, id: I) {
        self.raw.insert(id.index());
    }

    /// Removes an id (no-op if absent).
    pub fn remove(&mut self, id: I) {
        self.raw.remove(id.index());
    }

    /// Membership test.
    pub fn contains(&self, id: I) -> bool {
        self.raw.contains(id.index())
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// True when no id is present.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Removes every member, keeping the capacity.
    pub fn clear(&mut self) {
        self.raw.clear();
    }

    /// In-place intersection with `other`.
    pub fn intersect_with(&mut self, other: &IndexSet<I>) {
        self.raw.intersect_with(&other.raw);
    }

    /// In-place union with `other`.
    pub fn union_with(&mut self, other: &IndexSet<I>) {
        self.raw.union_with(&other.raw);
    }

    /// In-place difference (`self \ other`).
    pub fn subtract(&mut self, other: &IndexSet<I>) {
        self.raw.subtract(&other.raw);
    }

    /// Copies `other` into `self` (capacities must match).
    pub fn copy_from(&mut self, other: &IndexSet<I>) {
        self.raw.copy_from(&other.raw);
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(&self) -> TypedIter<'_, I> {
        TypedIter {
            inner: self.raw.iter(),
            _marker: PhantomData,
        }
    }

    /// The untyped set underneath (for word-level consumers).
    pub fn as_raw(&self) -> &DenseBitSet {
        &self.raw
    }
}

impl<I> Clone for IndexSet<I> {
    fn clone(&self) -> Self {
        IndexSet {
            raw: self.raw.clone(),
            _marker: PhantomData,
        }
    }
}

impl<I> Default for IndexSet<I> {
    fn default() -> Self {
        IndexSet {
            raw: DenseBitSet::default(),
            _marker: PhantomData,
        }
    }
}

impl<I> PartialEq for IndexSet<I> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}

impl<I> Eq for IndexSet<I> {}

impl<I> std::hash::Hash for IndexSet<I> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}

impl<I: DenseIndex + fmt::Debug> fmt::Debug for IndexSet<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<I: DenseIndex> FromIterator<I> for IndexSet<I> {
    /// Collects ids into a set sized to the largest index seen.
    fn from_iter<T: IntoIterator<Item = I>>(iter: T) -> Self {
        IndexSet {
            raw: iter.into_iter().map(DenseIndex::index).collect(),
            _marker: PhantomData,
        }
    }
}

impl<I: DenseIndex> Extend<I> for IndexSet<I> {
    fn extend<T: IntoIterator<Item = I>>(&mut self, iter: T) {
        for id in iter {
            self.insert(id);
        }
    }
}

impl<'a, I: DenseIndex> IntoIterator for &'a IndexSet<I> {
    type Item = I;
    type IntoIter = TypedIter<'a, I>;

    fn into_iter(self) -> TypedIter<'a, I> {
        self.iter()
    }
}

/// Iterator over the members of an [`IndexSet`] in ascending index
/// order.
#[derive(Clone, Debug)]
pub struct TypedIter<'a, I> {
    inner: Iter<'a>,
    _marker: PhantomData<I>,
}

impl<I: DenseIndex> Iterator for TypedIter<'_, I> {
    type Item = I;

    fn next(&mut self) -> Option<I> {
        self.inner.next().map(I::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut s = DenseBitSet::new(130);
        s.insert(0);
        s.insert(64);
        s.insert(129);
        assert_eq!(s.len(), 3);
        assert!(s.contains(64));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 129]);
    }

    #[test]
    fn full_respects_capacity() {
        let s = DenseBitSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
    }

    #[test]
    fn set_algebra() {
        let mut a = DenseBitSet::full(70);
        let b: DenseBitSet = [3usize, 68].iter().copied().collect();
        let mut b70 = DenseBitSet::new(70);
        for i in b.iter() {
            b70.insert(i);
        }
        a.subtract(&b70);
        assert_eq!(a.len(), 68);
        a.union_with(&b70);
        assert_eq!(a.len(), 70);
        a.intersect_with(&b70);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 68]);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut s = DenseBitSet::full(65);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 65);
        s.insert(64);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn copy_from_replaces_contents() {
        let mut a = DenseBitSet::new(10);
        a.insert(1);
        let mut b = DenseBitSet::new(10);
        b.insert(7);
        a.copy_from(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_insert_panics() {
        let mut s = DenseBitSet::new(3);
        s.insert(3);
    }

    #[test]
    fn zero_capacity_is_workable() {
        let s = DenseBitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert_eq!(DenseBitSet::full(0), s);
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Id(u16);

    impl DenseIndex for Id {
        fn from_index(index: usize) -> Self {
            Id(index as u16)
        }

        fn index(self) -> usize {
            self.0 as usize
        }
    }

    #[test]
    fn typed_wrapper_round_trips() {
        let mut s: IndexSet<Id> = IndexSet::new(100);
        s.extend([Id(3), Id(64), Id(99)]);
        assert!(s.contains(Id(64)));
        assert!(!s.contains(Id(65)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Id(3), Id(64), Id(99)]);
        let from_iter: IndexSet<Id> = [Id(5), Id(17)].into_iter().collect();
        assert_eq!(from_iter.capacity(), 18);
        assert_eq!(from_iter.len(), 2);
    }

    #[test]
    fn typed_wrapper_algebra_matches_raw() {
        let mut a: IndexSet<Id> = IndexSet::new(10);
        a.extend([Id(1), Id(2), Id(3)]);
        let mut b: IndexSet<Id> = IndexSet::new(10);
        b.extend([Id(2), Id(3), Id(4)]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![Id(2), Id(3)]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.len(), 4);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![Id(1)]);
    }
}
