//! Node identifiers and node bitmaps.

/// A processor-node identifier. The full-map directory uses a 64-bit
/// presence vector, so at most 64 nodes are supported (the paper uses 8).
pub type NodeId = u8;

/// A set of nodes, represented as a presence bitmap (full-map directory
/// vector).
///
/// Packed to byte alignment, so a [`crate::LineState`] holding one takes
/// 9 bytes instead of 16: a directory of more than 14 nodes stores one
/// per tracked line (smaller machines keep each line in 2 bytes). Reads
/// copy the bitmap out, so no reference to the unaligned field is ever
/// made.
///
/// # Example
///
/// ```
/// use csim_coherence::NodeSet;
/// let mut s = NodeSet::empty();
/// s.insert(2);
/// s.insert(5);
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(5));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![2, 5]);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(C, packed)]
pub struct NodeSet(u64);

impl NodeSet {
    /// The empty set.
    pub fn empty() -> Self {
        NodeSet(0)
    }

    /// A set containing exactly one node.
    ///
    /// # Panics
    ///
    /// Panics if `node >= 64`.
    pub fn single(node: NodeId) -> Self {
        assert!(node < 64, "node id {node} exceeds the 64-node directory limit");
        NodeSet(1 << node)
    }

    /// Adds a node.
    ///
    /// # Panics
    ///
    /// Panics if `node >= 64`.
    pub fn insert(&mut self, node: NodeId) {
        assert!(node < 64, "node id {node} exceeds the 64-node directory limit");
        self.0 |= 1 << node;
    }

    /// Removes a node (no-op when absent).
    pub fn remove(&mut self, node: NodeId) {
        if node < 64 {
            self.0 &= !(1 << node);
        }
    }

    /// Membership test.
    pub fn contains(&self, node: NodeId) -> bool {
        node < 64 && self.0 & (1 << node) != 0
    }

    /// Number of member nodes.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// `true` when no nodes are present.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// The set with `node` removed (does not modify `self`).
    pub fn without(&self, node: NodeId) -> NodeSet {
        let mut s = *self;
        s.remove(node);
        s
    }

    /// The raw presence bitmap (bit `i` set ⇔ node `i` present). Stable
    /// across versions; used by state-space encoders and tests.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Rebuilds a set from a raw presence bitmap, the inverse of
    /// [`NodeSet::bits`]. Every `u64` is a valid bitmap (bit `i` means
    /// node `i`, for `i < 64`).
    pub fn from_bits(bits: u64) -> NodeSet {
        NodeSet(bits)
    }

    /// Iterates over member node ids in ascending order.
    pub fn iter(&self) -> Iter {
        Iter(self.0)
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut s = NodeSet::empty();
        for n in iter {
            s.insert(n);
        }
        s
    }
}

impl IntoIterator for NodeSet {
    type Item = NodeId;
    type IntoIter = Iter;

    fn into_iter(self) -> Iter {
        Iter(self.0)
    }
}

/// Iterator over the members of a [`NodeSet`], ascending.
#[derive(Clone, Debug)]
pub struct Iter(u64);

impl Iterator for Iter {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.0 == 0 {
            None
        } else {
            let n = self.0.trailing_zeros() as NodeId;
            self.0 &= self.0 - 1;
            Some(n)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_members() {
        let s = NodeSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::empty();
        s.insert(0);
        s.insert(63);
        assert!(s.contains(0) && s.contains(63));
        assert_eq!(s.len(), 2);
        s.remove(0);
        assert!(!s.contains(0));
        assert_eq!(s.len(), 1);
        s.remove(7); // absent: no-op
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn single_and_without() {
        let s = NodeSet::single(4);
        assert_eq!(s.len(), 1);
        assert!(s.without(4).is_empty());
        assert_eq!(s.without(3), s);
    }

    #[test]
    fn iteration_is_ascending_and_exact() {
        let s: NodeSet = [5u8, 1, 7].into_iter().collect();
        let it = s.iter();
        assert_eq!(it.len(), 3);
        assert_eq!(it.collect::<Vec<_>>(), vec![1, 5, 7]);
    }

    #[test]
    #[should_panic(expected = "64-node")]
    fn node_64_rejected() {
        let _ = NodeSet::single(64);
    }

    #[test]
    fn from_iterator_deduplicates() {
        let s: NodeSet = [3u8, 3, 3].into_iter().collect();
        assert_eq!(s.len(), 1);
    }
}
