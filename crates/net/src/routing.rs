//! All-shortest-path routing with per-flow ECMP.
//!
//! For every (node, destination host) pair we precompute the set of
//! output ports that lie on some shortest path (by hop count, breaking
//! distance ties by keeping all minimal next hops). At forwarding time a
//! flow hashes onto one of the candidates so that all its packets follow
//! one path — standard per-flow ECMP, which is what the paper's ns-3
//! setup uses.
//!
//! # Layout
//!
//! Every host is single-homed (one port, asserted at build time), so at
//! any node other than the host and its *attachment node* — the peer of
//! that one port — the next hops toward the host are exactly the next hops
//! toward its attachment node. The table is therefore built with one BFS
//! per distinct attachment node (one per ToR, not one per host) and
//! stored as:
//!
//! * `hop`: a flat `u32` matrix, `hop[node * columns + column]`, where
//!   `column` is the dense index of the destination's attachment node.
//!   Each entry names an interned candidate set.
//! * `sets` / `pool`: every distinct candidate list (a list of node-local
//!   port indices, in ascending port order) stored once as a `(start,
//!   end)` range into one shared `pool`. A fabric has only a handful of
//!   distinct lists; set 0 is the empty set, used for unreachable pairs.
//! * `dests`: per node, `Some` for hosts: the attachment node, its column
//!   and the attachment node's own port facing the host (the last hop).
//!
//! The table takes O(nodes × attachment nodes) `u32`s plus the pool,
//! about 0.7 MiB on the 1024-host k = 16 fat-tree.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::ids::{FlowId, NodeId, PortId};
use crate::link::Link;
use crate::topology::{NodeKind, Topology};

/// Routing facts about one destination host.
#[derive(Debug, Clone, Copy)]
struct Dest {
    /// The peer of the host's single port.
    attach: NodeId,
    /// Dense index of `attach` among the distinct attachment nodes: the
    /// column of `hop` to read.
    column: u32,
    /// The port at `attach` that faces the host.
    last_hop: PortId,
}

/// Precomputed next-hop sets: for each node and destination host, the
/// output ports on shortest paths.
///
/// Link failures are handled incrementally: [`RoutingTable::fail_link`]
/// marks both endpoint ports dead without recomputing the BFS, and
/// [`RoutingTable::next_port`] re-hashes an affected flow onto the live
/// subset of its candidate set. In a clos fabric every minimal path
/// shares the same hop count, so excluding dead candidates keeps routing
/// minimal as long as any shortest path survives; restoring the link
/// restores the exact pre-failure selection for every flow.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Per node id: `Some` iff the node is a host.
    dests: Vec<Option<Dest>>,
    /// Number of distinct attachment nodes (the row width of `hop`).
    columns: usize,
    /// `hop[node * columns + column]` = index into `sets`.
    hop: Vec<u32>,
    /// Interned candidate sets as `(start, end)` ranges into `pool`.
    sets: Vec<(u32, u32)>,
    /// Backing storage of every interned candidate set.
    pool: Vec<PortId>,
    /// ECMP hash salt (per-topology constant; change to re-roll paths).
    salt: u64,
    /// Ports whose link is currently down. Empty in a healthy fabric,
    /// so the forwarding fast path stays byte-identical to a build
    /// without fault support.
    down: HashSet<(NodeId, PortId)>,
}

impl RoutingTable {
    /// Builds shortest-path next-hop sets for every destination host by
    /// one BFS from each distinct host attachment node.
    ///
    /// # Panics
    ///
    /// Panics if a host does not have exactly one port: the table relies
    /// on every host being single-homed.
    pub fn shortest_paths(topo: &Topology) -> RoutingTable {
        let n = topo.node_count();
        let mut dests: Vec<Option<Dest>> = vec![None; n];
        let mut attachments: Vec<NodeId> = Vec::new();
        let mut column_of: Vec<Option<u32>> = vec![None; n];
        for host in topo.hosts() {
            let ports = &topo.node(host).ports;
            assert!(
                ports.len() == 1,
                "host {host:?} has {} ports; routing requires every host to be single-homed",
                ports.len()
            );
            let end = topo
                .link(ports[0])
                .peer_of(host)
                .expect("a host's link touches the host");
            let column = *column_of[end.node.index()].get_or_insert_with(|| {
                attachments.push(end.node);
                (attachments.len() - 1) as u32
            });
            dests[host.index()] = Some(Dest {
                attach: end.node,
                column,
                last_hop: end.port,
            });
        }

        let columns = attachments.len();
        let mut hop = vec![0u32; n * columns];
        let mut sets = vec![(0u32, 0u32)];
        let mut pool: Vec<PortId> = Vec::new();
        let mut interned: HashMap<Vec<PortId>, u32> = HashMap::new();
        interned.insert(Vec::new(), 0);

        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::with_capacity(n);
        let mut next: Vec<PortId> = Vec::new();
        for (column, &dst) in attachments.iter().enumerate() {
            // BFS from dst; dist[v] = hops from v to dst.
            dist.fill(u32::MAX);
            dist[dst.index()] = 0;
            queue.push_back(dst);
            while let Some(v) = queue.pop_front() {
                let dv = dist[v.index()];
                for &lid in &topo.node(v).ports {
                    let Ok(end) = topo.link(lid).peer_of(v) else {
                        continue; // wiring defect: skip, don't abort
                    };
                    let peer = end.node;
                    if dist[peer.index()] == u32::MAX {
                        dist[peer.index()] = dv + 1;
                        queue.push_back(peer);
                    }
                }
            }
            // Next hops: every port whose peer is strictly closer to dst.
            for node in topo.nodes() {
                let dn = dist[node.id.index()];
                if dn == u32::MAX || node.id == dst {
                    continue;
                }
                next.clear();
                for (pix, &lid) in node.ports.iter().enumerate() {
                    let Ok(end) = topo.link(lid).peer_of(node.id) else {
                        continue;
                    };
                    let peer = end.node;
                    if dist[peer.index()] != u32::MAX && dist[peer.index()] + 1 == dn {
                        next.push(PortId::new(pix as u16));
                    }
                }
                let set = match interned.get(next.as_slice()) {
                    Some(&set) => set,
                    None => {
                        let start = pool.len() as u32;
                        pool.extend_from_slice(&next);
                        sets.push((start, pool.len() as u32));
                        let set = (sets.len() - 1) as u32;
                        interned.insert(next.clone(), set);
                        set
                    }
                };
                hop[node.id.index() * columns + column] = set;
            }
        }

        RoutingTable {
            dests,
            columns,
            hop,
            sets,
            pool,
            salt: 0x005E_ED0F_ECA7,
            down: HashSet::new(),
        }
    }

    /// Marks both endpoint ports of `link` dead. O(1); forwarding
    /// excludes them until [`RoutingTable::restore_link`].
    pub fn fail_link(&mut self, link: &Link) {
        self.down.insert((link.a.node, link.a.port));
        self.down.insert((link.b.node, link.b.port));
    }

    /// Restores both endpoint ports of `link`. Flow-to-port pinning
    /// returns to exactly the pre-failure selection.
    pub fn restore_link(&mut self, link: &Link) {
        self.down.remove(&(link.a.node, link.a.port));
        self.down.remove(&(link.b.node, link.b.port));
    }

    /// Whether `port` at `node` is currently marked dead.
    pub fn is_port_down(&self, node: NodeId, port: PortId) -> bool {
        self.down.contains(&(node, port))
    }

    /// All candidate output ports at `node` toward `dst`, in ascending
    /// port order, or an empty slice if unreachable / `dst` is not a host
    /// / `node` is `dst`.
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        let Some(Some(d)) = self.dests.get(dst.index()) else {
            return &[];
        };
        if node == dst {
            return &[];
        }
        if node == d.attach {
            return std::slice::from_ref(&d.last_hop);
        }
        let (start, end) =
            self.sets[self.hop[node.index() * self.columns + d.column as usize] as usize];
        &self.pool[start as usize..end as usize]
    }

    /// The ECMP-selected output port for `flow` at `node` toward `dst`,
    /// or `None` if unreachable (including when every candidate's link
    /// is down).
    ///
    /// All packets of one flow at one node get the same port. Flows
    /// whose hashed port is alive are never re-pinned by an unrelated
    /// failure; flows on a dead port re-hash onto the live subset and
    /// return to their original port once the link is restored.
    pub fn next_port(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<PortId> {
        let c = self.candidates(node, dst);
        if c.is_empty() {
            return None;
        }
        // Salt with the node id so a flow re-rolls independently per hop.
        let h = flow.ecmp_hash(self.salt ^ (node.index() as u64) << 17);
        let primary = c[(h % c.len() as u64) as usize];
        if self.down.is_empty() || !self.down.contains(&(node, primary)) {
            return Some(primary);
        }
        // Re-hash onto the live subset without materialising it: count
        // the live ports, then take the `(h % live)`-th one.
        let is_live = |p: &&PortId| !self.down.contains(&(node, **p));
        let live = c.iter().filter(is_live).count();
        if live == 0 {
            return None;
        }
        c.iter()
            .filter(is_live)
            .nth((h % live as u64) as usize)
            .copied()
    }

    /// Hop count from `node` to `dst` following shortest paths, or `None`
    /// if unreachable. Useful for ideal-FCT computation.
    pub fn hop_count(&self, topo: &Topology, mut node: NodeId, dst: NodeId) -> Option<u32> {
        let mut hops = 0;
        let flow = FlowId::new(0);
        while node != dst {
            if topo.node(node).kind == NodeKind::Host && hops > 0 {
                return None; // wandered into a wrong host
            }
            let port = self.next_port(node, dst, flow)?;
            node = topo.link_at(node, port).peer_of(node).ok()?.node;
            hops += 1;
            if hops > 64 {
                return None; // routing loop guard
            }
        }
        Some(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClosConfig, FatTreeConfig};
    use dcn_sim::{BitRate, SimDuration};

    /// The straightforward table the interned one must reproduce: one BFS
    /// per destination host and one port list per (node, host) pair.
    struct Reference {
        /// `ports[node][dst_host_rank]` = candidate output ports.
        ports: Vec<Vec<Vec<PortId>>>,
        /// Maps host NodeId -> dense rank used to index `ports`.
        host_rank: Vec<Option<usize>>,
    }

    impl Reference {
        fn build(topo: &Topology) -> Reference {
            let n = topo.node_count();
            let hosts: Vec<NodeId> = topo.hosts().collect();
            let mut host_rank = vec![None; n];
            for (rank, h) in hosts.iter().enumerate() {
                host_rank[h.index()] = Some(rank);
            }
            let mut ports = vec![vec![Vec::new(); hosts.len()]; n];
            for (rank, &dst) in hosts.iter().enumerate() {
                let mut dist = vec![u32::MAX; n];
                dist[dst.index()] = 0;
                let mut q = VecDeque::new();
                q.push_back(dst);
                while let Some(v) = q.pop_front() {
                    let dv = dist[v.index()];
                    for &lid in &topo.node(v).ports {
                        let peer = topo.link(lid).peer_of(v).unwrap().node;
                        if dist[peer.index()] == u32::MAX {
                            dist[peer.index()] = dv + 1;
                            q.push_back(peer);
                        }
                    }
                }
                for node in topo.nodes() {
                    if dist[node.id.index()] == u32::MAX || node.id == dst {
                        continue;
                    }
                    let dn = dist[node.id.index()];
                    for (pix, &lid) in node.ports.iter().enumerate() {
                        let peer = topo.link(lid).peer_of(node.id).unwrap().node;
                        if dist[peer.index()] != u32::MAX && dist[peer.index()] + 1 == dn {
                            ports[node.id.index()][rank].push(PortId::new(pix as u16));
                        }
                    }
                }
            }
            Reference { ports, host_rank }
        }

        fn candidates(&self, node: NodeId, dst: NodeId) -> &[PortId] {
            match self.host_rank.get(dst.index()).copied().flatten() {
                Some(rank) => &self.ports[node.index()][rank],
                None => &[],
            }
        }

        /// ECMP selection that collects the live subset into a `Vec` when
        /// the hashed port is down, using `table`'s salt and failed ports.
        fn next_port(
            &self,
            table: &RoutingTable,
            node: NodeId,
            dst: NodeId,
            flow: FlowId,
        ) -> Option<PortId> {
            let c = self.candidates(node, dst);
            if c.is_empty() {
                return None;
            }
            let h = flow.ecmp_hash(table.salt ^ (node.index() as u64) << 17);
            let primary = c[(h % c.len() as u64) as usize];
            if !table.is_port_down(node, primary) {
                return Some(primary);
            }
            let live: Vec<PortId> = c
                .iter()
                .copied()
                .filter(|&p| !table.is_port_down(node, p))
                .collect();
            if live.is_empty() {
                return None;
            }
            Some(live[(h % live.len() as u64) as usize])
        }
    }

    fn oracle_topologies() -> Vec<(&'static str, Topology)> {
        let rate = BitRate::from_gbps(25);
        let prop = SimDuration::from_micros(1);
        vec![
            ("paper clos", Topology::clos(&ClosConfig::paper())),
            ("clos small(4)", Topology::clos(&ClosConfig::small(4))),
            ("clos small(8)", Topology::clos(&ClosConfig::small(8))),
            ("fat-tree k=4", Topology::fat_tree(&FatTreeConfig::new(4))),
            ("fat-tree k=8", Topology::fat_tree(&FatTreeConfig::new(8))),
            (
                "dumbbell",
                Topology::dumbbell(3, 2, rate, BitRate::from_gbps(10), prop),
            ),
            ("single switch", Topology::single_switch(5, rate, prop)),
        ]
    }

    /// Asserts `table` selects the same port as `reference` for 256 flows
    /// on every (node, host) pair with a choice to make.
    fn assert_same_selection(
        name: &str,
        t: &Topology,
        table: &RoutingTable,
        reference: &Reference,
    ) {
        for node in t.nodes() {
            for dst in t.hosts() {
                if reference.candidates(node.id, dst).is_empty() {
                    continue;
                }
                for f in 0..256 {
                    let flow = FlowId::new(f);
                    assert_eq!(
                        table.next_port(node.id, dst, flow),
                        reference.next_port(table, node.id, dst, flow),
                        "{name}: next_port at {:?} toward {dst:?} for {flow:?}",
                        node.id
                    );
                }
            }
        }
    }

    #[test]
    fn interned_table_matches_per_host_bfs_oracle() {
        for (name, t) in oracle_topologies() {
            let mut table = RoutingTable::shortest_paths(&t);
            let reference = Reference::build(&t);
            for node in t.nodes() {
                for dst in t.hosts() {
                    assert_eq!(
                        table.candidates(node.id, dst),
                        reference.candidates(node.id, dst),
                        "{name}: candidates at {:?} toward {dst:?}",
                        node.id
                    );
                }
            }

            // Fail one ToR uplink (the host link on a lone switch), then
            // restore it; selection must track the reference throughout.
            let host0 = t.hosts().next().unwrap();
            let tor = t.host_uplink_switch(host0).unwrap();
            let ports = &t.node(tor).ports;
            let victim = ports
                .iter()
                .find(|&&lid| {
                    let peer = t.link(lid).peer_of(tor).unwrap().node;
                    t.node(peer).kind == NodeKind::Switch
                })
                .unwrap_or(&ports[0]);
            let link = *t.link(*victim);
            table.fail_link(&link);
            assert_same_selection(name, &t, &table, &reference);
            table.restore_link(&link);
            assert_same_selection(name, &t, &table, &reference);
        }
    }

    fn paper() -> (Topology, RoutingTable) {
        let t = Topology::clos(&ClosConfig::paper());
        let r = RoutingTable::shortest_paths(&t);
        (t, r)
    }

    #[test]
    fn same_tor_is_two_hops() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        // hosts 0 and 1 share a ToR: host -> tor -> host = 2 hops.
        assert_eq!(r.hop_count(&t, hosts[0], hosts[1]), Some(2));
    }

    #[test]
    fn cross_tor_is_four_hops() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        // host 0 (ToR 0) to host 32 (ToR 1): host-tor-agg-tor-host.
        assert_eq!(r.hop_count(&t, hosts[0], hosts[32]), Some(4));
    }

    #[test]
    fn tor_has_four_ecmp_uplinks_cross_rack() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let c = r.candidates(tor0, hosts[32]);
        assert_eq!(c.len(), 4, "one per aggregation switch");
    }

    #[test]
    fn tor_has_single_downlink_same_rack() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let c = r.candidates(tor0, hosts[1]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn flow_pinning_is_stable() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let f = FlowId::new(77);
        let p1 = r.next_port(tor0, hosts[32], f);
        let p2 = r.next_port(tor0, hosts[32], f);
        assert_eq!(p1, p2);
    }

    #[test]
    fn ecmp_spreads_flows() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let distinct: std::collections::HashSet<PortId> = (0..256)
            .filter_map(|i| r.next_port(tor0, hosts[32], FlowId::new(i)))
            .collect();
        assert!(
            distinct.len() >= 3,
            "got {} distinct uplinks",
            distinct.len()
        );
    }

    #[test]
    fn unreachable_and_non_host_destinations() {
        let (t, r) = paper();
        let sw = t.switches().next().unwrap();
        let host = t.hosts().next().unwrap();
        // Switch as destination: not a host, no routes.
        assert!(r.candidates(host, sw).is_empty());
        assert_eq!(r.next_port(host, sw, FlowId::new(1)), None);
    }

    #[test]
    fn failed_uplink_repins_only_affected_flows_and_restores_exactly() {
        let (t, mut r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let dst = hosts[32];

        // Pin a pre-failure port for many flows.
        let before: Vec<Option<PortId>> = (0..64)
            .map(|i| r.next_port(tor0, dst, FlowId::new(i)))
            .collect();

        // Fail the link behind some flow's selected port.
        let victim_port = before[0].unwrap();
        let link = *t.link_at(tor0, victim_port);
        r.fail_link(&link);
        assert!(r.is_port_down(tor0, victim_port));

        for (i, &was) in before.iter().enumerate() {
            let now = r.next_port(tor0, dst, FlowId::new(i as u64));
            let was = was.unwrap();
            if was == victim_port {
                let now = now.expect("three live uplinks remain");
                assert_ne!(now, victim_port, "flow {i} moved off the dead port");
            } else {
                assert_eq!(now, Some(was), "flow {i} must not be re-pinned");
            }
        }

        // Recovery restores the exact pre-failure selection.
        r.restore_link(&link);
        assert!(!r.is_port_down(tor0, victim_port));
        for (i, &was) in before.iter().enumerate() {
            assert_eq!(r.next_port(tor0, dst, FlowId::new(i as u64)), was);
        }
    }

    #[test]
    fn all_candidates_down_means_no_route() {
        let (t, mut r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let dst = hosts[32];
        for &p in r.candidates(tor0, dst).to_vec().iter() {
            let link = *t.link_at(tor0, p);
            r.fail_link(&link);
        }
        assert_eq!(r.next_port(tor0, dst, FlowId::new(1)), None);
    }

    #[test]
    fn works_on_dumbbell() {
        let t = Topology::dumbbell(
            2,
            2,
            BitRate::from_gbps(25),
            BitRate::from_gbps(10),
            SimDuration::from_micros(1),
        );
        let r = RoutingTable::shortest_paths(&t);
        let hosts: Vec<NodeId> = t.hosts().collect();
        // left host to right host: host-swL-swR-host = 3 hops.
        assert_eq!(r.hop_count(&t, hosts[0], hosts[2]), Some(3));
    }
}
