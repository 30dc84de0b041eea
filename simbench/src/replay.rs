//! Switch-layer replay: the first ToR's recorded traffic, fed through a
//! fresh `SharedMemorySwitch` call by call, to time `receive` and
//! `tx_complete` on their own.
//!
//! The flight recorder logs one `Enqueue` or `Drop` per `receive` call
//! and one `Dequeue` per `tx_complete` call, in dispatch order; PFC
//! frames the ToR receives are the `PfcPause`/`PfcResume` records of its
//! switch neighbours, delayed by the link. A replay counts only when the
//! fresh switch makes exactly the decisions the traced one made.

use std::collections::HashMap;
use std::time::Instant;

use dcn_fabric::{FabricConfig, RdmaTransport};
use dcn_net::{
    FlowId, NodeId, Packet, PfcFrame, PortId, Priority, RoutingTable, Topology, TrafficClass,
    ACK_SIZE,
};
use dcn_sim::{Bytes, SimDuration, SimTime, TraceDropCause, TraceEvent, TraceRecord};
use dcn_switch::{ReceiveOutcome, SharedMemorySwitch, TxStart};
use dcn_workload::FlowSpec;

/// At most this many ToR records are kept for the replay (a prefix of
/// the run), which bounds the traced run's memory.
pub const MAX_RECORDS: usize = 500_000;

/// The recorded input stream of one switch.
pub struct Capture {
    /// The switch.
    pub tor: NodeId,
    /// `(neighbour, neighbour port)` → (ToR port, link propagation).
    neighbours: HashMap<(u32, u16), (PortId, SimDuration)>,
    /// The ToR's own records, in dispatch order.
    records: Vec<TraceRecord>,
    /// PFC frames arriving at the ToR: (arrival, port, frame).
    pfc_in: Vec<(SimTime, PortId, PfcFrame)>,
    /// Whether the record cap cut the stream short.
    pub truncated: bool,
}

impl Capture {
    /// An empty capture of the topology's first switch (a ToR on the
    /// clos and fat-tree).
    pub fn new(topo: &Topology) -> Capture {
        let tor = topo.switches().next().expect("fabric has switches");
        let mut neighbours = HashMap::new();
        for (pix, &lid) in topo.node(tor).ports.iter().enumerate() {
            let link = topo.link(lid);
            let peer = link.peer_of(tor).expect("port link attaches its node");
            neighbours.insert(
                (peer.node.index() as u32, peer.port.index() as u16),
                (PortId::new(pix as u16), link.propagation),
            );
        }
        Capture {
            tor,
            neighbours,
            records: Vec::new(),
            pfc_in: Vec::new(),
            truncated: false,
        }
    }

    /// Keeps `r` if it is an input or decision of the ToR.
    pub fn offer(&mut self, r: &TraceRecord) {
        if self.truncated {
            return;
        }
        let tor = self.tor.index() as u32;
        let (node, pfc) = match r.event {
            TraceEvent::Enqueue { node, .. }
            | TraceEvent::Dequeue { node, .. }
            | TraceEvent::Drop { node, .. }
            | TraceEvent::EcnMark { node, .. }
            | TraceEvent::PfcWatchdogFired { node, .. }
            | TraceEvent::Defect { node, .. } => (node, None),
            TraceEvent::IrnNack {
                node,
                from_switch: true,
                ..
            } => (node, None),
            TraceEvent::PfcPause { node, port, prio } => (node, Some((port, prio, true))),
            TraceEvent::PfcResume { node, port, prio } => (node, Some((port, prio, false))),
            _ => return,
        };
        if node == tor {
            self.records.push(*r);
            self.truncated = self.records.len() >= MAX_RECORDS;
        } else if let Some((port, prio, pause)) = pfc {
            if let Some(&(tor_port, prop)) = self.neighbours.get(&(node, port)) {
                let prio = Priority::new(prio);
                let frame = if pause {
                    PfcFrame::pause(prio)
                } else {
                    PfcFrame::resume(prio)
                };
                self.pfc_in.push((r.at + prop, tor_port, frame));
            }
        }
    }
}

/// Per-call cost of the replayed switch.
#[derive(Debug, Clone, Copy)]
pub struct ReplayCost {
    /// Mean ns per `receive` call, timer overhead removed.
    pub receive_ns: f64,
    /// Mean ns per `tx_complete` call, timer overhead removed.
    pub tx_complete_ns: f64,
    /// `receive` calls replayed.
    pub receives: u64,
    /// `tx_complete` calls replayed.
    pub tx_completes: u64,
}

/// One call into the switch.
enum Op {
    Receive {
        at: SimTime,
        packet: Packet,
        in_port: PortId,
        out_port: PortId,
    },
    TxComplete {
        at: SimTime,
        port: PortId,
        flow: u64,
        seq: u64,
    },
    Pfc {
        at: SimTime,
        port: PortId,
        frame: PfcFrame,
    },
}

/// Decisions counted on both sides of the replay.
#[derive(Debug, Default, PartialEq, Eq)]
struct Decisions {
    admits: u64,
    drops: u64,
    ecn_marks: u64,
    xoffs: u64,
}

/// Replays `cap` through a fresh switch built like the fabric builds
/// it. Returns the per-call cost, or why the replay is not a faithful
/// copy of the traced switch.
pub fn replay(
    cap: &Capture,
    topo: &Topology,
    cfg: &FabricConfig,
    flows: &[FlowSpec],
) -> Result<ReplayCost, String> {
    let specs: HashMap<FlowId, &FlowSpec> = flows.iter().map(|f| (f.id, f)).collect();
    let routes = RoutingTable::shortest_paths(topo);
    let (ops, want) = build_ops(cap, cfg, &specs, &routes)?;
    let mut sw = fresh_switch(cap.tor, topo, cfg);
    let node_ports = topo.node(cap.tor).ports.len();
    let mut busy = vec![false; node_ports];
    let mut got = Decisions::default();
    let overhead = timer_overhead_ns();
    let (mut rx_ns, mut tx_ns, mut receives, mut tx_completes) = (0u128, 0u128, 0u64, 0u64);
    for (i, op) in ops.into_iter().enumerate() {
        match op {
            Op::Receive {
                at,
                packet,
                in_port,
                out_port,
            } => {
                let t0 = Instant::now();
                let res = sw.receive(at, packet, in_port, out_port);
                rx_ns += t0.elapsed().as_nanos();
                receives += 1;
                match res.outcome {
                    ReceiveOutcome::Admitted { ecn_marked } => {
                        got.admits += 1;
                        got.ecn_marks += u64::from(ecn_marked);
                    }
                    ReceiveOutcome::Dropped(_) => got.drops += 1,
                }
                got.xoffs += u64::from(res.pfc.is_some());
                mark_busy(&res.tx, &mut busy);
            }
            Op::TxComplete {
                at,
                port,
                flow,
                seq,
            } => {
                if !busy[port.index()] {
                    return Err(format!(
                        "call {i}: recorded departure on port {} which the replay left idle",
                        port.index()
                    ));
                }
                let t0 = Instant::now();
                let res = sw.tx_complete(at, port);
                tx_ns += t0.elapsed().as_nanos();
                tx_completes += 1;
                if (res.departed.flow.as_u64(), res.departed.seq) != (flow, seq) {
                    return Err(format!(
                        "call {i}: replay sent flow {} seq {}, the traced switch flow {flow} seq {seq}",
                        res.departed.flow.as_u64(),
                        res.departed.seq
                    ));
                }
                busy[port.index()] = res.next.is_some();
                mark_busy(&res.next, &mut busy);
            }
            Op::Pfc { at, port, frame } => {
                let tx = sw.handle_pfc(at, port, frame);
                mark_busy(&tx, &mut busy);
            }
        }
    }
    if got != want {
        return Err(format!(
            "replay decided {got:?}, the traced switch {want:?}"
        ));
    }
    if receives == 0 || tx_completes == 0 {
        return Err("the ToR saw no traffic".to_string());
    }
    Ok(ReplayCost {
        receive_ns: rx_ns as f64 / receives as f64 - overhead,
        tx_complete_ns: tx_ns as f64 / tx_completes as f64 - overhead,
        receives,
        tx_completes,
    })
}

/// Marks the port of a started transmission busy.
fn mark_busy(tx: &Option<TxStart>, busy: &mut [bool]) {
    if let Some(tx) = tx {
        busy[tx.port.index()] = true;
    }
}

/// The switch `World` would build for `tor`: same config, policy, seed
/// and per-port headroom.
fn fresh_switch(tor: NodeId, topo: &Topology, cfg: &FabricConfig) -> SharedMemorySwitch {
    let node = topo.node(tor);
    let rates = node.ports.iter().map(|&l| topo.link(l).rate).collect();
    let mut sw =
        SharedMemorySwitch::new(tor, cfg.switch.clone(), rates, cfg.policy.build(), cfg.seed);
    for (pix, &lid) in node.ports.iter().enumerate() {
        let link = topo.link(lid);
        let auto = link.rate.bytes_over(link.propagation) * 2 + cfg.switch.mtu * 4;
        sw.set_port_headroom(
            PortId::new(pix as u16),
            auto.max(cfg.switch.headroom_per_queue),
        );
    }
    sw
}

/// Turns the capture into switch calls, with the decision counts the
/// traced switch made on them.
fn build_ops(
    cap: &Capture,
    cfg: &FabricConfig,
    specs: &HashMap<FlowId, &FlowSpec>,
    routes: &RoutingTable,
) -> Result<(Vec<Op>, Decisions), String> {
    let mut want = Decisions::default();
    let mut ops = Vec::with_capacity(cap.records.len() + cap.pfc_in.len());
    let mut pfc_in = cap.pfc_in.clone();
    pfc_in.sort_by_key(|&(at, _, _)| at);
    let last = cap.records.last().map_or(SimTime::ZERO, |r| r.at);
    let mut pfc = pfc_in
        .into_iter()
        .filter(|&(at, _, _)| at <= last)
        .peekable();
    for r in &cap.records {
        while let Some(&(at, port, frame)) = pfc.peek() {
            if at >= r.at {
                break;
            }
            ops.push(Op::Pfc { at, port, frame });
            pfc.next();
        }
        let at = r.at;
        match r.event {
            TraceEvent::Enqueue {
                in_port,
                out_port,
                prio,
                flow,
                seq,
                size,
                ..
            } => {
                want.admits += 1;
                ops.push(Op::Receive {
                    at,
                    packet: packet(specs, cfg, flow, seq, size, prio)?,
                    in_port: PortId::new(in_port),
                    out_port: PortId::new(out_port),
                });
            }
            TraceEvent::Drop {
                in_port,
                prio,
                flow,
                seq,
                size,
                cause,
                ..
            } => {
                if !matches!(
                    cause,
                    TraceDropCause::AdmissionDeniedIngress
                        | TraceDropCause::AdmissionDeniedEgress
                        | TraceDropCause::HeadroomExhausted
                ) {
                    return Err(format!("drop cause {cause:?} is not an admission decision"));
                }
                want.drops += 1;
                let packet = packet(specs, cfg, flow, seq, size, prio)?;
                let out_port = routes
                    .next_port(cap.tor, packet.dst, packet.flow)
                    .ok_or_else(|| format!("no route from the ToR for flow {flow}"))?;
                ops.push(Op::Receive {
                    at,
                    packet,
                    in_port: PortId::new(in_port),
                    out_port,
                });
            }
            TraceEvent::Dequeue {
                port, flow, seq, ..
            } => ops.push(Op::TxComplete {
                at,
                port: PortId::new(port),
                flow,
                seq,
            }),
            TraceEvent::EcnMark { .. } => want.ecn_marks += 1,
            TraceEvent::PfcPause { .. } => want.xoffs += 1,
            TraceEvent::PfcResume { .. } | TraceEvent::IrnNack { .. } => {}
            other => return Err(format!("record {other:?} has no switch call to replay")),
        }
    }
    Ok((ops, want))
}

/// Rebuilds the packet behind a switch record from its flow's spec:
/// data travels source → destination, 60-byte feedback (ACK, CNP, NACK)
/// the other way.
fn packet(
    specs: &HashMap<FlowId, &FlowSpec>,
    cfg: &FabricConfig,
    flow: u64,
    seq: u64,
    size: u64,
    prio: u8,
) -> Result<Packet, String> {
    let id = FlowId::new(flow);
    let spec = specs
        .get(&id)
        .ok_or_else(|| format!("flow {flow} is not in the inputs"))?;
    let class = match (spec.class, cfg.rdma_transport) {
        (TrafficClass::Lossless, RdmaTransport::Irn) => TrafficClass::LossyRdma,
        (class, _) => class,
    };
    let prio = Priority::new(prio);
    if seq == 0 && size == ACK_SIZE.as_u64() {
        return Ok(match class {
            TrafficClass::Lossless => Packet::cnp(id, spec.dst, spec.src, prio),
            _ => Packet::ack(id, spec.dst, spec.src, prio, class, 0, false),
        });
    }
    let header = match class {
        TrafficClass::Lossy => cfg.dctcp.header,
        TrafficClass::Lossless => cfg.dcqcn.header,
        TrafficClass::LossyRdma => cfg.irn.header,
    };
    let payload = size
        .checked_sub(header.as_u64())
        .map(Bytes::new)
        .ok_or_else(|| format!("flow {flow} seq {seq}: {size} bytes is less than a header"))?;
    Ok(Packet::data(
        id, spec.src, spec.dst, prio, class, seq, payload, header,
    ))
}

/// Mean cost of one `Instant::now()` + `elapsed()` pair, in ns.
fn timer_overhead_ns() -> f64 {
    const N: u32 = 100_000;
    let mut total = 0u128;
    for _ in 0..N {
        let t0 = Instant::now();
        total += std::hint::black_box(t0.elapsed()).as_nanos();
    }
    total as f64 / f64::from(N)
}
