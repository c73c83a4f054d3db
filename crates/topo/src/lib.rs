#![warn(missing_docs)]

//! # topo — two-tier cluster topology model
//!
//! The paper analyses Ok-Topk on a flat α–β network, but the cloud-cluster
//! scenario (ROADMAP; "Towards Scalable Distributed Training of Deep Learning
//! on Public Cloud Clusters", arXiv 2010.10458) is dominated by a *two-tier*
//! topology: ranks are packed onto nodes with fast intra-node links (NVLink /
//! shared memory) while nodes talk over a slower, often oversubscribed,
//! inter-node fabric. This crate is the single shared description of that
//! shape, consulted by
//!
//! - simnet's charging points (`Cluster::with_topology`) to resolve per-tier
//!   link parameters at every send,
//! - the tier-aggregated traffic counters (`net.intra_bytes` /
//!   `net.inter_bytes`),
//! - the hierarchical collectives (intra-node reduce → inter-node exchange →
//!   intra-node broadcast), which group ranks by [`Topology::node_of`].
//!
//! ## A topology is its tiers
//!
//! [`Topology::two_tier`] is the one constructor: a *shape* (ranks → nodes,
//! consecutive blocks of `ranks_per_node`) and a priced `(α, β)` per tier,
//! which supersede the cluster's flat cost model at every charging point. An
//! optional [oversubscription ratio](Topology::with_oversubscription)
//! multiplies the inter-node β, statically approximating uplink contention.
//! A topology whose two tiers equal the flat cost model charges exactly what
//! no topology does (`β · 1.0` is exact) while still grouping ranks and
//! splitting the tier counters.

/// Which tier a (src, dst) rank pair communicates over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkClass {
    /// Both endpoints live on the same node.
    Intra,
    /// The endpoints live on different nodes (or there is no topology — a
    /// flat network is all inter-node fabric by convention).
    Inter,
}

/// A two-tier cluster topology: consecutive blocks of `ranks_per_node` ranks
/// form a node; links are classified intra- or inter-node and priced by tier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Topology {
    ranks_per_node: usize,
    /// Intra-node `(α, β)`: seconds and seconds-per-element.
    intra: (f64, f64),
    /// Inter-node `(α, β)`, before oversubscription.
    inter: (f64, f64),
    oversub: f64,
}

impl Topology {
    /// Two-tier topology with explicit per-tier `(α, β)` link parameters.
    pub fn two_tier(ranks_per_node: usize, intra: (f64, f64), inter: (f64, f64)) -> Self {
        assert!(ranks_per_node >= 1, "ranks_per_node must be >= 1");
        Self { ranks_per_node, intra, inter, oversub: 1.0 }
    }

    /// Multiply the inter-node β by `ratio` (≥ 1), statically approximating an
    /// oversubscribed uplink where concurrent inter-node flows share capacity.
    pub fn with_oversubscription(mut self, ratio: f64) -> Self {
        assert!(ratio >= 1.0, "oversubscription ratio must be >= 1");
        self.oversub = ratio;
        self
    }

    /// The configured oversubscription ratio (1.0 = fully provisioned).
    pub fn oversubscription(&self) -> f64 {
        self.oversub
    }

    /// Ranks packed onto each node.
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Node index of `rank`.
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// Number of nodes a cluster of `size` ranks occupies (last may be partial).
    pub fn nodes(&self, size: usize) -> usize {
        size.div_ceil(self.ranks_per_node)
    }

    /// Classify the link between two ranks.
    pub fn classify(&self, src: usize, dst: usize) -> LinkClass {
        if self.node_of(src) == self.node_of(dst) {
            LinkClass::Intra
        } else {
            LinkClass::Inter
        }
    }

    /// True when both ranks share a node.
    pub fn is_intra(&self, src: usize, dst: usize) -> bool {
        self.classify(src, dst) == LinkClass::Intra
    }

    /// The node leader (lowest rank on the node) responsible for `rank`'s
    /// inter-node traffic in hierarchical collectives.
    pub fn leader_of(&self, rank: usize) -> usize {
        self.node_of(rank) * self.ranks_per_node
    }

    /// Whether `rank` is its node's leader.
    pub fn is_leader(&self, rank: usize) -> bool {
        rank.is_multiple_of(self.ranks_per_node)
    }

    /// All ranks on `node` within a cluster of `size` ranks.
    pub fn node_members(&self, node: usize, size: usize) -> Vec<usize> {
        let lo = node * self.ranks_per_node;
        let hi = (lo + self.ranks_per_node).min(size);
        (lo..hi).collect()
    }

    /// The leader rank of every node in a cluster of `size` ranks.
    pub fn leaders(&self, size: usize) -> Vec<usize> {
        (0..self.nodes(size)).map(|n| n * self.ranks_per_node).collect()
    }

    /// Effective `(α, β)` for the `src → dst` link. The oversubscription
    /// ratio is folded into the inter-node β here, so every charging point
    /// sees the same effective parameters.
    pub fn tier_params(&self, src: usize, dst: usize) -> (f64, f64) {
        match self.classify(src, dst) {
            LinkClass::Intra => self.intra,
            LinkClass::Inter => (self.inter.0, self.inter.1 * self.oversub),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A topology of `rpn`-rank nodes; the tests here read only its shape.
    fn nodes(rpn: usize) -> Topology {
        Topology::two_tier(rpn, (1e-6, 1e-9), (20e-6, 4e-9))
    }

    #[test]
    fn maps_consecutive_blocks_to_nodes() {
        let t = nodes(4);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.nodes(16), 4);
        assert_eq!(t.nodes(17), 5);
        assert_eq!(t.node_members(1, 16), vec![4, 5, 6, 7]);
        assert_eq!(t.node_members(4, 17), vec![16]);
        assert_eq!(t.leaders(16), vec![0, 4, 8, 12]);
    }

    #[test]
    fn classifies_links_by_shared_node() {
        let t = nodes(4);
        assert_eq!(t.classify(0, 3), LinkClass::Intra);
        assert_eq!(t.classify(3, 4), LinkClass::Inter);
        assert!(t.is_intra(5, 6));
        assert!(!t.is_intra(0, 8));
    }

    #[test]
    fn leaders_are_lowest_rank_per_node() {
        let t = nodes(8);
        assert_eq!(t.leader_of(0), 0);
        assert_eq!(t.leader_of(7), 0);
        assert_eq!(t.leader_of(8), 8);
        assert!(t.is_leader(8));
        assert!(!t.is_leader(9));
    }

    #[test]
    fn two_tier_resolves_params_by_class() {
        let t = nodes(4);
        assert_eq!(t.tier_params(0, 1), (1e-6, 1e-9));
        assert_eq!(t.tier_params(0, 4), (20e-6, 4e-9));
    }

    #[test]
    fn oversubscription_scales_inter_beta_only() {
        let t = nodes(4).with_oversubscription(8.0);
        assert_eq!(t.tier_params(1, 2), (1e-6, 1e-9));
        assert_eq!(t.tier_params(1, 9), (20e-6, 32e-9));
        assert_eq!(t.oversubscription(), 8.0);
    }

    #[test]
    fn degenerate_single_rank_nodes_are_all_inter() {
        let t = nodes(1);
        assert_eq!(t.classify(0, 1), LinkClass::Inter);
        assert!(t.is_leader(5));
        assert_eq!(t.nodes(7), 7);
    }
}
