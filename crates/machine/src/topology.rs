//! Rank-to-node placement.
//!
//! The simulated cluster places MPI ranks onto nodes in contiguous blocks
//! (the common `--map-by core` layout): ranks `0..c-1` on node 0, `c..2c-1`
//! on node 1, and so on, where `c` is the number of rank slots per node.

/// Placement of ranks onto nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Number of rank slots per node (cores per node for MPI-everywhere
    /// runs; fewer when each rank also hosts threads).
    pub ranks_per_node: usize,
}

impl Topology {
    /// All ranks on a single node (shared-memory machine).
    pub const SINGLE_NODE: Topology = Topology {
        ranks_per_node: usize::MAX,
    };

    /// Create a block placement with `ranks_per_node` slots per node.
    /// A value of 0 is treated as 1.
    pub fn block(ranks_per_node: usize) -> Topology {
        Topology {
            ranks_per_node: ranks_per_node.max(1),
        }
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node.max(1)
    }

    /// Number of nodes used by `nranks` ranks.
    pub fn nodes_for(&self, nranks: usize) -> usize {
        if nranks == 0 {
            0
        } else {
            (nranks - 1) / self.ranks_per_node.max(1) + 1
        }
    }

    /// Number of ranks, out of `nranks` placed in order, that land on
    /// `node`: `min(nranks, (node + 1)·c) − node·c`, clamped at 0 for nodes
    /// past the last. The products saturate, so [`Topology::SINGLE_NODE`]
    /// puts all `nranks` on node 0. O(1), where counting with
    /// [`Topology::node_of`] over every rank is O(nranks).
    pub fn ranks_on_node(&self, node: usize, nranks: usize) -> usize {
        let c = self.ranks_per_node.max(1);
        let first = node.saturating_mul(c);
        let end = node.saturating_add(1).saturating_mul(c).min(nranks);
        end.saturating_sub(first)
    }

    /// True when two ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// True when the given world ranks span more than one node.
    pub fn spans_nodes(&self, ranks: &[usize]) -> bool {
        match ranks.first() {
            None => false,
            Some(&first) => {
                let n0 = self.node_of(first);
                ranks.iter().any(|&r| self.node_of(r) != n0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_mapping() {
        let t = Topology::block(8);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(7), 0);
        assert_eq!(t.node_of(8), 1);
        assert_eq!(t.node_of(63), 7);
        assert!(t.same_node(0, 7));
        assert!(!t.same_node(7, 8));
    }

    #[test]
    fn nodes_for_counts() {
        let t = Topology::block(8);
        assert_eq!(t.nodes_for(0), 0);
        assert_eq!(t.nodes_for(1), 1);
        assert_eq!(t.nodes_for(8), 1);
        assert_eq!(t.nodes_for(9), 2);
        assert_eq!(t.nodes_for(456), 57);
    }

    #[test]
    fn single_node_never_spans() {
        let t = Topology::SINGLE_NODE;
        let ranks: Vec<usize> = (0..1000).collect();
        assert!(!t.spans_nodes(&ranks));
        assert!(t.same_node(0, 999));
    }

    #[test]
    fn spans_detection() {
        let t = Topology::block(4);
        assert!(!t.spans_nodes(&[0, 1, 2, 3]));
        assert!(t.spans_nodes(&[0, 1, 2, 3, 4]));
        assert!(t.spans_nodes(&[3, 4]));
        assert!(!t.spans_nodes(&[]));
    }

    /// The O(nranks) scan that [`Topology::ranks_on_node`] replaces.
    fn scan(t: Topology, node: usize, nranks: usize) -> usize {
        (0..nranks).filter(|&r| t.node_of(r) == node).count()
    }

    #[test]
    fn ranks_on_node_matches_the_scan() {
        let topologies = [
            Topology::block(0),
            Topology::block(1),
            Topology::block(3),
            Topology::block(8),
            Topology::SINGLE_NODE,
        ];
        for t in topologies {
            for nranks in 0..40 {
                for node in 0..45 {
                    assert_eq!(
                        t.ranks_on_node(node, nranks),
                        scan(t, node, nranks),
                        "{t:?} node={node} nranks={nranks}"
                    );
                }
            }
        }
    }

    #[test]
    fn ranks_on_node_cases() {
        // Ragged last node: 10 ranks in blocks of 4 -> 4, 4, 2.
        let t = Topology::block(4);
        assert_eq!(
            (0..4).map(|n| t.ranks_on_node(n, 10)).collect::<Vec<_>>(),
            vec![4, 4, 2, 0]
        );
        // Fewer ranks than slots: everyone on node 0.
        assert_eq!(Topology::block(8).ranks_on_node(0, 5), 5);
        assert_eq!(Topology::block(8).ranks_on_node(1, 5), 0);
        // One slot per node: one rank each, none past the end.
        assert_eq!(Topology::block(1).ranks_on_node(6, 7), 1);
        assert_eq!(Topology::block(1).ranks_on_node(7, 7), 0);
        // A single node holds the whole world, however large.
        let s = Topology::SINGLE_NODE;
        assert_eq!(s.ranks_on_node(0, 16384), 16384);
        assert_eq!(s.ranks_on_node(1, 16384), 0);
        assert_eq!(s.ranks_on_node(usize::MAX, 16384), 0);
    }

    #[test]
    fn zero_is_clamped() {
        let t = Topology::block(0);
        assert_eq!(t.ranks_per_node, 1);
        assert_eq!(t.node_of(5), 5);
    }
}
