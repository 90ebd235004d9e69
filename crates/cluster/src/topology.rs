//! Fabric topologies and cluster assembly.
//!
//! Node numbering: compute nodes occupy ids `0 .. compute_nodes`, storage
//! nodes `compute_nodes .. compute_nodes + storage_nodes`. Every node has a
//! CPU; storage nodes additionally have a disk. The fabric spans all nodes.
//!
//! # Topologies
//!
//! The fabric is a graph of capacity-weighted links. Every host owns a
//! full-duplex access pair (`tx` link `2n`, `rx` link `2n + 1`) regardless
//! of topology; interior links get ids `≥ 2·hosts`. A [`Topology`] decides
//! which interior links exist and the deterministic route every
//! `src → dst` flow follows:
//!
//! * [`TopologySpec::Star`] — every host on one non-blocking switch; no
//!   interior links. Reproduces the paper's testbed (and the original
//!   star fabric) bit for bit.
//! * [`TopologySpec::Tree`] — a d-ary aggregation tree. Each non-root
//!   switch has an up/down link pair to its parent sized at half its
//!   subtree's host count (2:1 oversubscription per level); routes climb
//!   to the lowest common ancestor and descend.
//! * [`TopologySpec::FatTree`] — a full-bisection k-ary fat-tree (k pods,
//!   k²/4 cores, up to k³/4 hosts) with deterministic destination-indexed
//!   two-level routing, the static analogue of ECMP hashing.
//!
//! Routes are pure functions of `(topology, src, dst)` — no RNG, no state —
//! so the simulation's determinism is unaffected by topology choice.

use crate::config::ClusterConfig;
use crate::cpu::Cpu;
use crate::disk::Disk;
use crate::net::Fabric;
use crate::node::{NodeId, NodeRole};
use serde::{Deserialize, Serialize};
use simkit::RngFactory;

/// Fabric wiring declared in [`ClusterConfig`]. The default (`Star`) keeps
/// the serialized form and the simulated behavior of every pre-topology
/// config unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum TopologySpec {
    /// Every host on one non-blocking switch (the paper's 2012 testbed).
    #[default]
    Star,
    /// d-ary aggregation tree with 2:1 oversubscribed uplinks per level.
    Tree { arity: usize },
    /// Full-bisection k-ary fat-tree: k pods of k/2 edge + k/2 aggregation
    /// switches, (k/2)² cores, up to k³/4 hosts.
    FatTree { k: usize },
}

impl TopologySpec {
    /// Serde helper: `Star` configs serialize exactly as before the
    /// topology field existed.
    pub fn is_star(&self) -> bool {
        matches!(self, TopologySpec::Star)
    }

    /// Maximum host count this spec can wire (`None` = unbounded).
    pub fn max_hosts(&self) -> Option<usize> {
        match self {
            TopologySpec::Star | TopologySpec::Tree { .. } => None,
            TopologySpec::FatTree { k } => Some(k * k * k / 4),
        }
    }

    /// Parse the CLI spelling: `star`, `tree`, `tree:<arity>` or
    /// `fat-tree:<k>`.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (kind, param) = match s.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (s, None),
        };
        let number = |name: &str| -> Result<usize, String> {
            param
                .ok_or_else(|| format!("{name} needs a parameter, e.g. {name}:4"))?
                .parse()
                .map_err(|e| format!("{name} parameter: {e}"))
        };
        match kind {
            "star" => match param {
                None => Ok(TopologySpec::Star),
                Some(_) => Err("star takes no parameter".into()),
            },
            "tree" => Ok(TopologySpec::Tree {
                arity: match param {
                    None => 4,
                    Some(_) => number("tree")?,
                },
            }),
            "fat-tree" | "fat_tree" => Ok(TopologySpec::FatTree {
                k: number("fat-tree")?,
            }),
            other => Err(format!(
                "unknown topology {other:?} (star | tree[:arity] | fat-tree:k)"
            )),
        }
    }

    /// Validate the spec for a cluster of `hosts` nodes.
    pub fn validate(&self, hosts: usize) -> Result<(), String> {
        match self {
            TopologySpec::Star => Ok(()),
            TopologySpec::Tree { arity } => {
                if *arity < 2 {
                    return Err(format!("tree arity must be >= 2, got {arity}"));
                }
                Ok(())
            }
            TopologySpec::FatTree { k } => {
                if *k < 2 || !k.is_multiple_of(2) {
                    return Err(format!("fat-tree k must be even and >= 2, got {k}"));
                }
                let cap = k * k * k / 4;
                if hosts > cap {
                    return Err(format!(
                        "fat-tree k={k} wires at most {cap} hosts, cluster has {hosts}"
                    ));
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologySpec::Star => write!(f, "star"),
            TopologySpec::Tree { arity } => write!(f, "tree:{arity}"),
            TopologySpec::FatTree { k } => write!(f, "fat-tree:{k}"),
        }
    }
}

/// A built topology: the interior link set plus the deterministic router.
/// Constructed once per fabric; owns no mutable state.
#[derive(Debug, Clone)]
pub struct Topology {
    spec: TopologySpec,
    hosts: usize,
    /// Capacity of interior link `i` (absolute id `2·hosts + i`) as a
    /// multiple of the host access-link bandwidth.
    interior_scale: Vec<f64>,
    plan: RoutePlan,
}

#[derive(Debug, Clone)]
enum RoutePlan {
    Star,
    Tree {
        arity: usize,
        /// Interior-index offset of each non-root switch level ℓ ≥ 1
        /// (entry `ℓ - 1`); a level holds `switches(ℓ) × 2` links, laid
        /// out `(up, down)` per switch in ascending switch order.
        level_offsets: Vec<usize>,
    },
    FatTree {
        k: usize,
    },
}

impl Topology {
    /// Build the topology `spec` declares for a cluster of `hosts` nodes.
    pub fn build(spec: &TopologySpec, hosts: usize) -> Self {
        spec.validate(hosts).expect("invalid topology spec");
        match spec {
            TopologySpec::Star => Self::star(hosts),
            TopologySpec::Tree { arity } => Self::tree(hosts, *arity),
            TopologySpec::FatTree { k } => Self::fat_tree(*k, hosts),
        }
    }

    /// The single-switch star: access links only.
    pub fn star(hosts: usize) -> Self {
        assert!(hosts > 0);
        Topology {
            spec: TopologySpec::Star,
            hosts,
            interior_scale: Vec::new(),
            plan: RoutePlan::Star,
        }
    }

    /// A d-ary aggregation tree over `hosts` leaves. Hosts hang off
    /// level-1 switches in groups of `arity`; each non-root switch owns an
    /// up/down link pair to its parent sized at `max(1, subtree_hosts / 2)`
    /// access links — the classic 2:1 oversubscription per level. With
    /// `hosts <= arity` the tree degenerates to a single non-blocking
    /// switch (no interior links).
    pub fn tree(hosts: usize, arity: usize) -> Self {
        assert!(hosts > 0 && arity >= 2);
        let mut level_offsets = Vec::new();
        let mut interior_scale = Vec::new();
        let mut width = hosts.div_ceil(arity); // switches at this level
        let mut group = arity; // hosts per subtree at this level
        while width > 1 {
            level_offsets.push(interior_scale.len());
            for s in 0..width {
                let sub = (hosts - s * group).min(group);
                let scale = (sub as f64 / 2.0).max(1.0);
                interior_scale.push(scale); // up
                interior_scale.push(scale); // down
            }
            width = width.div_ceil(arity);
            group = group.saturating_mul(arity);
        }
        Topology {
            spec: TopologySpec::Tree { arity },
            hosts,
            interior_scale,
            plan: RoutePlan::Tree {
                arity,
                level_offsets,
            },
        }
    }

    /// A full-bisection k-ary fat-tree carrying `hosts <= k³/4` hosts
    /// (surplus host slots are simply left unwired). Interior links all
    /// carry one access link's bandwidth — the textbook rearrangeably
    /// non-blocking configuration; contention arises from the
    /// deterministic routing's collisions, exactly like static ECMP.
    pub fn fat_tree(k: usize, hosts: usize) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree k must be even");
        let cap = k * k * k / 4;
        assert!(
            hosts > 0 && hosts <= cap,
            "fat-tree k={k} holds {cap} hosts"
        );
        let half = k / 2;
        // edge↔agg pairs per pod: (k/2)² switch pairs × 2 directions;
        // agg↔core the same count. Ids: edge-agg block first, agg-core after.
        let interior = 2 * (k * half * half * 2);
        Topology {
            spec: TopologySpec::FatTree { k },
            hosts,
            interior_scale: vec![1.0; interior],
            plan: RoutePlan::FatTree { k },
        }
    }

    pub fn spec(&self) -> &TopologySpec {
        &self.spec
    }

    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Total number of link slots: `2·hosts` access links plus interior.
    pub fn num_links(&self) -> usize {
        2 * self.hosts + self.interior_scale.len()
    }

    /// Capacity scales of the interior links (index = id − 2·hosts).
    pub fn interior_scales(&self) -> &[f64] {
        &self.interior_scale
    }

    /// The deterministic route of a `src → dst` flow: `[tx(src),
    /// interior links src-side to dst-side, rx(dst)]`. Pure in
    /// `(self, src, dst)`.
    pub fn route_links(&self, src: usize, dst: usize) -> Vec<u32> {
        assert!(src < self.hosts && dst < self.hosts && src != dst);
        let mut out = Vec::with_capacity(6);
        out.push(2 * src as u32);
        self.interior_route(src, dst, &mut out);
        out.push((2 * dst + 1) as u32);
        out
    }

    /// Push the interior hops of `src → dst` onto `out` (absolute ids).
    fn interior_route(&self, src: usize, dst: usize, out: &mut Vec<u32>) {
        let base = 2 * self.hosts;
        match &self.plan {
            RoutePlan::Star => {}
            RoutePlan::Tree {
                arity,
                level_offsets,
            } => {
                // Climb to the lowest common ancestor, then descend. While
                // the two sides differ the level is non-root (the root is a
                // single switch), so every visited level has a link pair.
                let mut up = Vec::with_capacity(4);
                let mut down = Vec::with_capacity(4);
                let (mut s, mut d) = (src / arity, dst / arity);
                let mut level = 1usize;
                while s != d {
                    let off = level_offsets[level - 1];
                    up.push((base + off + 2 * s) as u32);
                    down.push((base + off + 2 * d + 1) as u32);
                    s /= arity;
                    d /= arity;
                    level += 1;
                }
                out.extend(up);
                out.extend(down.into_iter().rev());
            }
            RoutePlan::FatTree { k } => {
                let half = k / 2;
                let per_pod = half * half;
                let (ps, is) = (src / per_pod, src % per_pod);
                let (pd, id) = (dst / per_pod, dst % per_pod);
                let (es, ed) = (is / half, id / half);
                if ps == pd && es == ed {
                    return; // same edge switch: access links only
                }
                // Destination-indexed picks (static ECMP): the aggregation
                // index follows the dst's slot under its edge switch, the
                // core follows the dst's edge index.
                let a = id % half;
                let ea_stride = k * half * half * 2;
                let ea = |p: usize, e: usize, dir: usize| {
                    (base + ((p * half + e) * half + a) * 2 + dir) as u32
                };
                let ac = |p: usize, j: usize, dir: usize| {
                    (base + ea_stride + ((p * half + a) * half + j) * 2 + dir) as u32
                };
                out.push(ea(ps, es, 0));
                if ps != pd {
                    let j = ed; // core a·(k/2)+j, the one agg `a` shares with it
                    out.push(ac(ps, j, 0));
                    out.push(ac(pd, j, 1));
                }
                out.push(ea(pd, ed, 1));
            }
        }
    }
}

/// All hardware state of a simulated cluster.
#[derive(Debug)]
pub struct ClusterState {
    pub cfg: ClusterConfig,
    /// One CPU per node, indexed by `NodeId.0`. Storage-node CPUs expose only
    /// the kernel-usable cores (service cores are reserved, see DESIGN.md).
    pub cpus: Vec<Cpu>,
    /// One disk per *storage* node, indexed by storage ordinal
    /// (`NodeId.0 - compute_nodes`).
    pub disks: Vec<Disk>,
    pub fabric: Fabric,
}

impl ClusterState {
    /// Build a cluster; `rng` seeds the fabric's bandwidth jitter.
    pub fn build(cfg: ClusterConfig, rng: &RngFactory) -> Self {
        cfg.validate().expect("invalid cluster config");
        let total = cfg.total_nodes();
        let mut cpus = Vec::with_capacity(total);
        for _ in 0..cfg.compute_nodes {
            cpus.push(Cpu::new(cfg.cores_per_compute));
        }
        for _ in 0..cfg.storage_nodes {
            cpus.push(Cpu::new(cfg.storage_kernel_cores()));
        }
        let disks = (0..cfg.storage_nodes)
            .map(|_| Disk::new(cfg.disk_bandwidth, cfg.disk_overhead))
            .collect();
        let fabric = Fabric::with_topology(
            Topology::build(&cfg.topology, total),
            cfg.nic_bandwidth,
            cfg.switch_bandwidth,
            cfg.net_latency,
            cfg.flow_bandwidth_jitter,
            rng.stream("fabric-jitter"),
        );
        ClusterState {
            cfg,
            cpus,
            disks,
            fabric,
        }
    }

    pub fn role(&self, n: NodeId) -> NodeRole {
        if n.0 < self.cfg.compute_nodes {
            NodeRole::Compute
        } else {
            NodeRole::Storage
        }
    }

    pub fn is_storage(&self, n: NodeId) -> bool {
        self.role(n) == NodeRole::Storage
    }

    /// Ids of all compute nodes.
    pub fn compute_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.cfg.compute_nodes).map(NodeId)
    }

    /// Ids of all storage nodes.
    pub fn storage_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (self.cfg.compute_nodes..self.cfg.total_nodes()).map(NodeId)
    }

    /// The `i`-th storage node's id.
    pub fn storage_node(&self, ordinal: usize) -> NodeId {
        assert!(ordinal < self.cfg.storage_nodes);
        NodeId(self.cfg.compute_nodes + ordinal)
    }

    /// Storage ordinal of a storage node id.
    pub fn storage_ordinal(&self, n: NodeId) -> usize {
        assert!(self.is_storage(n), "{n} is not a storage node");
        n.0 - self.cfg.compute_nodes
    }

    /// The disk attached to storage node `n`.
    pub fn disk_of(&mut self, n: NodeId) -> &mut Disk {
        let ord = self.storage_ordinal(n);
        &mut self.disks[ord]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_default() -> ClusterState {
        ClusterState::build(ClusterConfig::default(), &RngFactory::new(42))
    }

    #[test]
    fn roles_partition_nodes() {
        let c = build_default();
        assert_eq!(c.compute_ids().count(), 8);
        assert_eq!(c.storage_ids().count(), 1);
        assert_eq!(c.role(NodeId(0)), NodeRole::Compute);
        assert_eq!(c.role(NodeId(8)), NodeRole::Storage);
        assert!(c.is_storage(c.storage_node(0)));
    }

    #[test]
    fn storage_cpu_exposes_kernel_cores_only() {
        let c = build_default();
        // 2 cores, 1 reserved for service => 1 kernel core.
        assert_eq!(c.cpus[8].cores(), 1);
        assert_eq!(c.cpus[0].cores(), 8);
    }

    #[test]
    fn disks_exist_per_storage_node() {
        let cfg = ClusterConfig {
            storage_nodes: 3,
            ..Default::default()
        };
        let mut c = ClusterState::build(cfg, &RngFactory::new(1));
        assert_eq!(c.disks.len(), 3);
        let sn = c.storage_node(2);
        assert_eq!(c.storage_ordinal(sn), 2);
        let _ = c.disk_of(sn);
    }

    #[test]
    #[should_panic(expected = "is not a storage node")]
    fn storage_ordinal_rejects_compute_nodes() {
        let c = build_default();
        c.storage_ordinal(NodeId(0));
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let a = ClusterState::build(ClusterConfig::default(), &RngFactory::new(9));
        let b = ClusterState::build(ClusterConfig::default(), &RngFactory::new(9));
        assert_eq!(a.cfg.total_nodes(), b.cfg.total_nodes());
        // Fabric jitter streams are equal: first flows get identical caps.
        // (Exercised end-to-end in dosas driver determinism tests.)
    }

    #[test]
    fn star_routes_are_access_links_only() {
        let t = Topology::star(4);
        assert_eq!(t.num_links(), 8);
        assert_eq!(t.route_links(1, 3), vec![2, 7]);
        assert_eq!(t.route_links(3, 0), vec![6, 1]);
    }

    #[test]
    fn tree_routes_climb_to_lca() {
        // 8 hosts, arity 2: levels 1 (4 switches), 2 (2 switches), root.
        let t = Topology::tree(8, 2);
        // Level 1: 4 switches × 2 links (offset 0), level 2: 2 × 2 (offset 8).
        assert_eq!(t.interior_scales().len(), 12);
        let base = 16;
        // Same leaf switch: access links only.
        assert_eq!(t.route_links(0, 1), vec![0, 3]);
        // Adjacent leaf switches: up through level-1, down the sibling.
        assert_eq!(t.route_links(0, 2), vec![0, base, base + 3, 5]);
        // Opposite halves: climb two levels.
        assert_eq!(
            t.route_links(0, 7),
            vec![0, base, base + 8, base + 8 + 3, base + 7, 15]
        );
        // Level-1 uplinks aggregate 2 hosts → scale max(1, 2/2) = 1;
        // level-2 uplinks aggregate 4 hosts → scale 2.
        assert_eq!(t.interior_scales()[0], 1.0);
        assert_eq!(t.interior_scales()[8], 2.0);
    }

    #[test]
    fn tree_degenerates_to_star_when_one_switch_suffices() {
        let t = Topology::tree(4, 4);
        assert_eq!(t.interior_scales().len(), 0);
        assert_eq!(t.route_links(0, 3), vec![0, 7]);
    }

    #[test]
    fn fat_tree_routes_have_expected_hop_counts() {
        // k=4: 16 hosts, 4 per pod, 2 per edge switch; 32 edge-agg +
        // 32 agg-core directed links.
        let t = Topology::fat_tree(4, 16);
        assert_eq!(t.interior_scales().len(), 64);
        for src in 0..16 {
            for dst in 0..16 {
                if src == dst {
                    continue;
                }
                let r = t.route_links(src, dst);
                // Links are distinct (fill counts each link once per flow).
                let set: std::collections::BTreeSet<u32> = r.iter().copied().collect();
                assert_eq!(set.len(), r.len(), "{src}->{dst}: {r:?}");
                assert_eq!(r[0], 2 * src as u32);
                assert_eq!(*r.last().unwrap(), 2 * dst as u32 + 1);
                let hops = r.len() - 2;
                let (ps, pd) = (src / 4, dst / 4);
                let (es, ed) = ((src % 4) / 2, (dst % 4) / 2);
                let expect = if ps == pd {
                    if es == ed {
                        0 // same edge switch
                    } else {
                        2 // via one aggregation switch
                    }
                } else {
                    4 // edge → agg → core → agg → edge
                };
                assert_eq!(hops, expect, "{src}->{dst}: {r:?}");
            }
        }
    }

    #[test]
    fn fat_tree_routes_are_deterministic_and_partial_hosts_ok() {
        let a = Topology::fat_tree(4, 10);
        let b = Topology::fat_tree(4, 10);
        for src in 0..10 {
            for dst in 0..10 {
                if src != dst {
                    assert_eq!(a.route_links(src, dst), b.route_links(src, dst));
                }
            }
        }
    }

    #[test]
    fn fat_tree_cluster_shares_core_links() {
        use simkit::SimTime;
        // k=4 fat-tree, 8 compute + 8 storage: compute pods 0–1, storage
        // pods 2–3, so compute→storage flows always cross a core.
        let cfg = ClusterConfig {
            storage_nodes: 8,
            topology: TopologySpec::FatTree { k: 4 },
            flow_bandwidth_jitter: None,
            ..ClusterConfig::deterministic()
        };
        let mut c = ClusterState::build(cfg, &RngFactory::new(1));
        let bw = c.cfg.nic_bandwidth;
        // 0→8 and 2→13 use different source edges, aggregation indices, and
        // destination pods: fully disjoint routes, full bandwidth each.
        let f1 = c
            .fabric
            .start_flow(SimTime::ZERO, NodeId(0), NodeId(8), 1e12);
        let f2 = c
            .fabric
            .start_flow(SimTime::ZERO, NodeId(2), NodeId(13), 1e12);
        assert_eq!(c.fabric.rate_of(f1), Some(bw));
        assert_eq!(c.fabric.rate_of(f2), Some(bw));
        c.fabric.cancel_flow(SimTime::ZERO, f1);
        c.fabric.cancel_flow(SimTime::ZERO, f2);
        // Two cross-pod flows converging on host 9 share its rx link (and,
        // with dst-indexed routing, the dst-side agg/core links): bw/2 each.
        let g1 = c
            .fabric
            .start_flow(SimTime::ZERO, NodeId(3), NodeId(9), 1e12);
        let g2 = c
            .fabric
            .start_flow(SimTime::ZERO, NodeId(4), NodeId(9), 1e12);
        let (r1, r2) = (c.fabric.rate_of(g1).unwrap(), c.fabric.rate_of(g2).unwrap());
        assert!((r1 - bw / 2.0).abs() < 1e-6, "{r1}");
        assert!((r2 - bw / 2.0).abs() < 1e-6, "{r2}");
    }
}
