//! Two-tier cluster topology model.
//!
//! The paper analyses Ok-Topk on a flat α–β network, but the cloud-cluster
//! scenario (ROADMAP; "Towards Scalable Distributed Training of Deep Learning
//! on Public Cloud Clusters", arXiv 2010.10458) is dominated by a *two-tier*
//! topology: ranks are packed onto nodes with fast intra-node links (NVLink /
//! shared memory) while nodes talk over a slower, often oversubscribed,
//! inter-node fabric. This module is the single shared description of that
//! shape, consulted by
//!
//! - the charging points ([`crate::Cluster::with_topology`]) to resolve
//!   per-tier link parameters at every send,
//! - the tier-aggregated traffic counters (`net.intra_bytes` /
//!   `net.inter_bytes`),
//! - the hierarchical collectives (intra-node reduce → inter-node exchange →
//!   intra-node broadcast), which group ranks by
//!   [`Topology::ranks_per_node`].
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

    /// Ranks packed onto each node.
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Node index of `rank`.
    fn node_of(&self, rank: usize) -> usize {
        rank / self.ranks_per_node
    }

    /// True when both ranks share a node. A flat network (no topology) is all
    /// inter-node fabric by convention.
    pub(crate) fn is_intra(&self, src: usize, dst: usize) -> bool {
        self.node_of(src) == self.node_of(dst)
    }

    /// Whether `rank` is its node's leader (the lowest rank on the node), the
    /// rank that carries the node's inter-node traffic in hierarchical
    /// collectives.
    pub fn is_leader(&self, rank: usize) -> bool {
        rank.is_multiple_of(self.ranks_per_node)
    }

    /// Effective `(α, β)` for the `src → dst` link. The oversubscription
    /// ratio is folded into the inter-node β here, so every charging point
    /// sees the same effective parameters.
    pub(crate) fn tier_params(&self, src: usize, dst: usize) -> (f64, f64) {
        if self.is_intra(src, dst) {
            self.intra
        } else {
            (self.inter.0, self.inter.1 * self.oversub)
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
        assert_eq!(t.node_of(16), 4);
    }

    #[test]
    fn classifies_links_by_shared_node() {
        let t = nodes(4);
        assert!(t.is_intra(0, 3));
        assert!(!t.is_intra(3, 4));
        assert!(t.is_intra(5, 6));
        assert!(!t.is_intra(0, 8));
    }

    #[test]
    fn leaders_are_lowest_rank_per_node() {
        let t = nodes(8);
        assert!(t.is_leader(0));
        assert!(!t.is_leader(7));
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
    }

    #[test]
    fn degenerate_single_rank_nodes_are_all_inter() {
        let t = nodes(1);
        assert!(!t.is_intra(0, 1));
        assert!(t.is_leader(5));
        assert_eq!(t.node_of(6), 6);
    }
}
