//! A Ganglia-style centralized management plane, the architectural
//! baseline RBAY argues against (paper §II.A, Fig. 3a).
//!
//! A single **master** polls one **cluster head** per site; each head
//! collects its leaves' full state and ships the cluster snapshot upstream.
//! All queries are answered from the master's snapshot. The ablation
//! benches measure what the paper claims: the master's message/byte load
//! grows linearly with the total node count, and snapshot staleness grows
//! with the poll period, while RBAY spreads the same load over many tree
//! roots.

use rbay_query::AttrValue;
use simnet::{Actor, Context, NodeAddr, SimDuration, SimTime, Simulation, Topology, Transport};
use std::collections::BTreeMap;

/// Node state shipped in snapshots: attribute → value.
pub type AttrMap = BTreeMap<String, AttrValue>;

/// Wire messages of the centralized design.
#[derive(Debug, Clone)]
pub enum CentralMsg {
    /// Master asks a cluster head for its cluster's state.
    PollCluster,
    /// Head asks a leaf for its state.
    PollLeaf,
    /// Leaf replies with its full attribute map.
    LeafState {
        /// The leaf's attributes.
        attrs: AttrMap,
    },
    /// Head ships the whole cluster snapshot to the master.
    ClusterSnapshot {
        /// Per-leaf attribute maps.
        nodes: Vec<(NodeAddr, AttrMap)>,
    },
    /// A customer query: find `k` nodes with `attr = value`.
    Query {
        /// Query sequence number at the issuing node.
        seq: u32,
        /// Attribute to match.
        attr: String,
        /// Required value.
        value: AttrValue,
        /// Number of nodes wanted.
        k: u32,
    },
    /// The master's answer.
    QueryReply {
        /// Echo of the query sequence number.
        seq: u32,
        /// Matching nodes (up to `k`).
        nodes: Vec<NodeAddr>,
    },
}

fn attr_map_size(m: &AttrMap) -> usize {
    m.iter()
        .map(|(k, v)| {
            k.len()
                + match v {
                    AttrValue::Str(s) => s.len(),
                    _ => 8,
                }
        })
        .sum()
}

/// Role of a node in the centralized hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The single global master.
    Master,
    /// One per site, aggregating its leaves.
    ClusterHead,
    /// An ordinary monitored node.
    Leaf,
}

/// A completed query observed at its issuing node.
#[derive(Debug, Clone)]
pub struct CentralQueryRecord {
    /// Local sequence number.
    pub seq: u32,
    /// Issue time.
    pub issued_at: SimTime,
    /// Completion time.
    pub completed_at: Option<SimTime>,
    /// Nodes returned.
    pub result: Vec<NodeAddr>,
}

/// One node of the centralized design.
#[derive(Debug)]
pub struct CentralNode {
    /// This node's role.
    pub role: Role,
    /// The cluster head this leaf reports to (leaves only).
    pub head: NodeAddr,
    /// The master's address.
    pub master: NodeAddr,
    /// This node's own attributes.
    pub attrs: AttrMap,
    /// Leaves of this cluster (heads only).
    pub leaves: Vec<NodeAddr>,
    /// In-progress cluster collection (heads only): replies still owed.
    pending_leaves: usize,
    collected: Vec<(NodeAddr, AttrMap)>,
    /// Global snapshot (master only): node → (attrs, as-of time).
    pub snapshot: BTreeMap<NodeAddr, (AttrMap, SimTime)>,
    /// Messages this node has received (the bottleneck metric).
    pub messages_in: u64,
    /// Bytes this node has received.
    pub bytes_in: u64,
    /// Queries issued by this node.
    pub queries: Vec<CentralQueryRecord>,
}

impl CentralNode {
    fn new(role: Role, head: NodeAddr, master: NodeAddr, leaves: Vec<NodeAddr>) -> Self {
        CentralNode {
            role,
            head,
            master,
            attrs: AttrMap::new(),
            leaves,
            pending_leaves: 0,
            collected: Vec::new(),
            snapshot: BTreeMap::new(),
            messages_in: 0,
            bytes_in: 0,
            queries: Vec::new(),
        }
    }
}

impl Actor for CentralNode {
    type Msg = CentralMsg;

    /// This baseline has no codec: its bytes are a hand estimate.
    fn wire_size(msg: &CentralMsg) -> usize {
        match msg {
            CentralMsg::PollCluster | CentralMsg::PollLeaf => 1,
            CentralMsg::LeafState { attrs } => attr_map_size(attrs),
            CentralMsg::ClusterSnapshot { nodes } => {
                nodes.iter().map(|(_, m)| 4 + attr_map_size(m)).sum()
            }
            CentralMsg::Query { attr, .. } => 12 + attr.len(),
            CentralMsg::QueryReply { nodes, .. } => 8 + nodes.len() * 4,
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, CentralMsg>, from: NodeAddr, msg: CentralMsg) {
        self.messages_in += 1;
        self.bytes_in += Self::wire_size(&msg) as u64;
        match msg {
            CentralMsg::PollCluster => {
                // Head: fan a poll out to every leaf.
                self.pending_leaves = self.leaves.len();
                self.collected.clear();
                self.collected.push((ctx.self_addr(), self.attrs.clone()));
                if self.pending_leaves == 0 {
                    let nodes = std::mem::take(&mut self.collected);
                    ctx.send(self.master, CentralMsg::ClusterSnapshot { nodes });
                    return;
                }
                for leaf in self.leaves.clone() {
                    ctx.send(leaf, CentralMsg::PollLeaf);
                }
            }
            CentralMsg::PollLeaf => {
                ctx.send(
                    from,
                    CentralMsg::LeafState {
                        attrs: self.attrs.clone(),
                    },
                );
            }
            CentralMsg::LeafState { attrs } => {
                self.collected.push((from, attrs));
                self.pending_leaves = self.pending_leaves.saturating_sub(1);
                if self.pending_leaves == 0 {
                    let nodes = std::mem::take(&mut self.collected);
                    ctx.send(self.master, CentralMsg::ClusterSnapshot { nodes });
                }
            }
            CentralMsg::ClusterSnapshot { nodes } => {
                let now = ctx.now();
                for (addr, attrs) in nodes {
                    self.snapshot.insert(addr, (attrs, now));
                }
            }
            CentralMsg::Query {
                seq,
                attr,
                value,
                k,
            } => {
                // Master answers from its (possibly stale) snapshot.
                let nodes: Vec<NodeAddr> = self
                    .snapshot
                    .iter()
                    .filter(|(_, (attrs, _))| attrs.get(&attr) == Some(&value))
                    .map(|(addr, _)| *addr)
                    .take(k as usize)
                    .collect();
                ctx.send(from, CentralMsg::QueryReply { seq, nodes });
            }
            CentralMsg::QueryReply { seq, nodes } => {
                if let Some(rec) = self.queries.iter_mut().find(|r| r.seq == seq) {
                    rec.completed_at = Some(ctx.now());
                    rec.result = nodes;
                }
            }
        }
    }
}

/// Harness for the centralized baseline, mirroring the `Federation` API
/// shape so benches can drive both designs identically.
pub struct CentralPlane {
    sim: Simulation<CentralNode>,
    master: NodeAddr,
    heads: Vec<NodeAddr>,
}

impl CentralPlane {
    /// Builds the hierarchy: node 0 is the master, the first node of each
    /// site is its cluster head, everyone else is a leaf.
    pub fn new(topology: Topology, seed: u64) -> Self {
        let master = NodeAddr(0);
        let heads: Vec<NodeAddr> = (0..topology.site_count() as u16)
            .map(|s| {
                *topology
                    .nodes_of_site(simnet::SiteId(s))
                    .first()
                    .expect("site has nodes")
            })
            .collect();
        let heads2 = heads.clone();
        let topo2 = topology.clone();
        let sim = Simulation::new(topology, seed, move |addr| {
            let site = topo2.site_of(addr);
            let head = heads2[site.0 as usize];
            let role = if addr == master {
                Role::Master
            } else if addr == head {
                Role::ClusterHead
            } else {
                Role::Leaf
            };
            let leaves: Vec<NodeAddr> = if addr == head {
                topo2
                    .nodes_of_site(site)
                    .into_iter()
                    .filter(|n| *n != head && *n != master)
                    .collect()
            } else {
                Vec::new()
            };
            CentralNode::new(role, head, master, leaves)
        });
        CentralPlane { sim, master, heads }
    }

    /// The underlying simulation.
    pub fn sim(&self) -> &Simulation<CentralNode> {
        &self.sim
    }

    /// Mutable simulation access.
    pub fn sim_mut(&mut self) -> &mut Simulation<CentralNode> {
        &mut self.sim
    }

    /// The master's address.
    pub fn master(&self) -> NodeAddr {
        self.master
    }

    /// Sets an attribute on a node (picked up at the next poll round).
    pub fn set_attr(&mut self, node: NodeAddr, attr: &str, value: AttrValue) {
        let attr = attr.to_owned();
        let now = self.sim.now();
        self.sim.schedule_call(now, node, move |a, _| {
            a.attrs.insert(attr, value);
        });
    }

    /// Runs one poll round: master polls every head, heads poll leaves,
    /// snapshots flow back up.
    pub fn poll_round(&mut self) {
        let heads = self.heads.clone();
        let now = self.sim.now();
        self.sim.schedule_call(now, self.master, move |_, ctx| {
            for head in heads {
                ctx.send(head, CentralMsg::PollCluster);
            }
        });
        self.sim.run_until_idle();
    }

    /// Issues an equality query from `node`; returns its local sequence
    /// number.
    pub fn query(&mut self, node: NodeAddr, attr: &str, value: AttrValue, k: u32) -> u32 {
        let attr = attr.to_owned();
        let master = self.master;
        let now = self.sim.now();
        let seq = self.sim.actor(node).queries.len() as u32;
        self.sim.schedule_call(now, node, move |a, ctx| {
            let seq = a.queries.len() as u32;
            a.queries.push(CentralQueryRecord {
                seq,
                issued_at: ctx.now(),
                completed_at: None,
                result: Vec::new(),
            });
            ctx.send(
                master,
                CentralMsg::Query {
                    seq,
                    attr,
                    value,
                    k,
                },
            );
        });
        seq
    }

    /// Lets in-flight traffic drain.
    pub fn settle(&mut self) {
        self.sim.run_until_idle();
    }

    /// Runs for a fixed span.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Messages received by the master so far — the central bottleneck.
    pub fn master_load(&self) -> (u64, u64) {
        let m = self.sim.actor(self.master);
        (m.messages_in, m.bytes_in)
    }

    /// A node's query records.
    pub fn queries(&self, node: NodeAddr) -> &[CentralQueryRecord] {
        &self.sim.actor(node).queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_round_builds_a_global_snapshot() {
        let mut cp = CentralPlane::new(Topology::aws_ec2_8_sites(5), 1);
        cp.set_attr(NodeAddr(7), "GPU", AttrValue::Bool(true));
        cp.settle();
        cp.poll_round();
        let master = cp.sim().actor(cp.master());
        assert!(master.snapshot.len() >= 39, "snapshot covers the fleet");
        let (attrs, _) = &master.snapshot[&NodeAddr(7)];
        assert_eq!(attrs.get("GPU"), Some(&AttrValue::Bool(true)));
    }

    #[test]
    fn queries_are_answered_from_the_snapshot() {
        let mut cp = CentralPlane::new(Topology::aws_ec2_8_sites(5), 2);
        cp.set_attr(NodeAddr(12), "Matlab", AttrValue::str("8.0"));
        cp.settle();
        cp.poll_round();
        let seq = cp.query(NodeAddr(30), "Matlab", AttrValue::str("8.0"), 1);
        cp.settle();
        let rec = &cp.queries(NodeAddr(30))[seq as usize];
        assert!(rec.completed_at.is_some());
        assert_eq!(rec.result, vec![NodeAddr(12)]);
    }

    #[test]
    fn stale_snapshot_misses_new_resources_until_next_poll() {
        let mut cp = CentralPlane::new(Topology::aws_ec2_8_sites(4), 3);
        cp.poll_round();
        cp.set_attr(NodeAddr(9), "FPGA", AttrValue::Bool(true));
        cp.settle();
        let seq = cp.query(NodeAddr(20), "FPGA", AttrValue::Bool(true), 1);
        cp.settle();
        assert!(
            cp.queries(NodeAddr(20))[seq as usize].result.is_empty(),
            "centralized design serves stale data between polls"
        );
        cp.poll_round();
        let seq = cp.query(NodeAddr(20), "FPGA", AttrValue::Bool(true), 1);
        cp.settle();
        assert_eq!(
            cp.queries(NodeAddr(20))[seq as usize].result,
            vec![NodeAddr(9)]
        );
    }

    #[test]
    fn master_load_scales_with_fleet_size() {
        let load = |per_site: usize| {
            let mut cp = CentralPlane::new(Topology::aws_ec2_8_sites(per_site), 4);
            cp.settle();
            cp.poll_round();
            cp.master_load().1
        };
        let small = load(5);
        let big = load(20);
        assert!(
            big > small * 2,
            "master bytes must grow with fleet size: {small} -> {big}"
        );
    }
}
