//! The named workloads and the inputs each one generates from a seed.
//!
//! Every workload is the paper's hybrid mix (§IV-A): RDMA web-search
//! flows at load 0.4 among the RDMA senders and TCP web-search flows at
//! load 0.8 among the TCP senders. The workloads differ in fabric
//! size, buffer, policy, RDMA transport, window and engine, so that each
//! one loads a different set of simulator layers (see README.md).

use dcn_fabric::{FabricConfig, PolicyChoice, RdmaTransport};
use dcn_net::{ClosConfig, FatTreeConfig, NodeId, Priority, Topology, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimRng, SimTime};
use dcn_switch::SwitchConfig;
use dcn_workload::{web_search_cdf, FlowSpec, PoissonTraffic};

use crate::measure::Spans;

/// Every workload name the benchmark accepts.
pub const NAMES: [&str; 4] = [
    "hybrid_paper",
    "hybrid_small_congested",
    "irn_dt_small",
    "fattree_sharded",
];

/// Load of the RDMA half of every rack.
const RDMA_LOAD: f64 = 0.4;
/// Load of the TCP half of every rack.
const TCP_LOAD: f64 = 0.8;
/// The lossless priority the paper assigns to RDMA.
const RDMA_PRIO: Priority = Priority::new(3);
/// The lossy priority the paper assigns to TCP.
const TCP_PRIO: Priority = Priority::new(1);
/// TCP flow ids start here so the two generators never collide.
const TCP_FIRST_FLOW_ID: u64 = 1 << 40;

/// The simulated network.
#[derive(Debug, Clone)]
pub enum Fabric {
    /// A three-tier clos (ToR / agg / core).
    Clos(ClosConfig),
    /// A k-ary fat-tree.
    FatTree(FatTreeConfig),
}

impl Fabric {
    fn host_rate(&self) -> BitRate {
        match self {
            Fabric::Clos(c) => c.host_rate,
            Fabric::FatTree(c) => c.host_rate,
        }
    }

    /// The (RDMA, TCP) sender sets. On the clos, as in the paper, the
    /// first half of each rack sends RDMA and the second half TCP. On the
    /// fat-tree every host sends both, as the repository's sharded bench
    /// does, so the 1024-host run carries enough traffic to keep two
    /// shards busy in a 100 us window.
    fn senders(&self, topo: &Topology) -> (Vec<NodeId>, Vec<NodeId>) {
        match self {
            Fabric::Clos(c) => {
                let (rdma, tcp): (Vec<_>, Vec<_>) = topo
                    .hosts()
                    .enumerate()
                    .partition(|&(i, _)| i % c.hosts_per_tor < c.hosts_per_tor / 2);
                let ids = |v: Vec<(usize, NodeId)>| v.into_iter().map(|(_, h)| h).collect();
                (ids(rdma), ids(tcp))
            }
            Fabric::FatTree(_) => (topo.hosts().collect(), topo.hosts().collect()),
        }
    }

    fn build(&self) -> Topology {
        match self {
            Fabric::Clos(c) => Topology::clos(c),
            Fabric::FatTree(c) => Topology::fat_tree(c),
        }
    }

    fn describe(&self) -> String {
        match self {
            Fabric::Clos(c) => format!(
                "clos {} ToR x {} hosts, {} agg, {} core",
                c.tors, c.hosts_per_tor, c.aggs, c.cores
            ),
            Fabric::FatTree(c) => format!("fat-tree k={} ({} hosts)", c.k, c.host_count()),
        }
    }
}

/// One named workload: the full set of inputs but the seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// The network.
    pub fabric: Fabric,
    /// Shared buffer of every switch.
    pub buffer: Bytes,
    /// Buffer-management policy of every switch.
    pub policy: PolicyChoice,
    /// Transport of the RDMA flows.
    pub rdma_transport: RdmaTransport,
    /// Flows arrive in `[0, window)`.
    pub window: SimDuration,
    /// Simulated time allowed after the window for flows to finish.
    pub drain: SimDuration,
    /// `0` runs the serial engine, `n` the sharded engine on `n` threads.
    pub shards: usize,
    /// Sim-time step of the traced run's slices: short enough that one
    /// slice's trace records fit the flight recorder's ring.
    pub slice: SimDuration,
}

/// Everything a run needs, generated from one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The topology.
    pub topo: Topology,
    /// The fabric configuration (policy, buffer, transport, seed).
    pub cfg: FabricConfig,
    /// The generated flows.
    pub flows: Vec<FlowSpec>,
    /// Give-up time of `run_until_done`.
    pub deadline: SimTime,
}

impl Workload {
    /// The workload called `name`, at full size, or `None` if no
    /// workload has that name.
    pub fn named(name: &str) -> Option<Workload> {
        let paper_clos = || Fabric::Clos(ClosConfig::paper());
        let small_clos = || Fabric::Clos(ClosConfig::small(8));
        let w = match name {
            "hybrid_paper" => Workload {
                name: NAMES[0],
                fabric: paper_clos(),
                buffer: Bytes::from_mb(4),
                policy: PolicyChoice::l2bm(),
                rdma_transport: RdmaTransport::Dcqcn,
                window: SimDuration::from_millis(2),
                drain: SimDuration::from_millis(400),
                shards: 0,
                slice: SimDuration::from_micros(100),
            },
            "hybrid_small_congested" => Workload {
                name: NAMES[1],
                fabric: small_clos(),
                buffer: Bytes::from_kb(500),
                policy: PolicyChoice::l2bm(),
                rdma_transport: RdmaTransport::Dcqcn,
                window: SimDuration::from_millis(10),
                drain: SimDuration::from_millis(200),
                shards: 0,
                slice: SimDuration::from_micros(100),
            },
            "irn_dt_small" => Workload {
                name: NAMES[2],
                policy: PolicyChoice::dt(),
                rdma_transport: RdmaTransport::Irn,
                ..Workload::named("hybrid_small_congested")?
            },
            "fattree_sharded" => Workload {
                name: NAMES[3],
                fabric: Fabric::FatTree(FatTreeConfig::new(16)),
                buffer: Bytes::from_mb(4),
                policy: PolicyChoice::l2bm(),
                rdma_transport: RdmaTransport::Dcqcn,
                window: SimDuration::from_micros(100),
                drain: SimDuration::from_millis(100),
                shards: 2,
                slice: SimDuration::from_micros(10),
            },
            _ => return None,
        };
        Some(w)
    }

    /// The same workload shrunk to run in well under a second: the
    /// smallest fabric of its kind and a 0.2 ms window. Used by the
    /// smoke tests.
    #[cfg(test)]
    pub fn tiny(mut self) -> Workload {
        self.fabric = match self.fabric {
            Fabric::Clos(_) => Fabric::Clos(ClosConfig::small(4)),
            Fabric::FatTree(_) => Fabric::FatTree(FatTreeConfig::new(4)),
        };
        self.buffer = Bytes::from_kb(250);
        self.window = SimDuration::from_micros(200);
        self.drain = SimDuration::from_millis(50);
        self.slice = SimDuration::from_micros(20);
        self
    }

    /// Whether RDMA runs over lossless (PFC-protected) queues, where a
    /// lossless drop is a defect.
    pub fn lossless_rdma(&self) -> bool {
        self.rdma_transport == RdmaTransport::Dcqcn
    }

    /// One line naming the inputs, for the run log.
    pub fn describe(&self) -> String {
        format!(
            "{}: {}, buffer {} KB, policy {}, RDMA {}, loads rdma {RDMA_LOAD} tcp {TCP_LOAD}, \
             window {} us, drain {} ms, engine {}",
            self.name,
            self.fabric.describe(),
            self.buffer.as_u64() / 1_000,
            self.policy.label(),
            self.rdma_transport.label(),
            self.window.as_nanos() / 1_000,
            self.drain.as_nanos() / 1_000_000,
            match self.shards {
                0 => "serial".to_string(),
                n => format!("sharded x{n}"),
            },
        )
    }

    /// Generates the run's inputs from `seed`, recording one span per
    /// library call under `parent`.
    pub fn inputs(&self, seed: u64, spans: &mut Spans, parent: Option<usize>) -> Inputs {
        let topo = spans.time("net.topology", parent, || self.fabric.build());
        let flows = spans.time("workload.generate", parent, || self.generate(&topo, seed));
        let cfg = FabricConfig {
            policy: self.policy,
            rdma_transport: self.rdma_transport,
            seed,
            switch: SwitchConfig {
                total_buffer: self.buffer,
                ..SwitchConfig::default()
            },
            ..FabricConfig::default()
        };
        Inputs {
            topo,
            cfg,
            flows,
            deadline: SimTime::ZERO + self.window + self.drain,
        }
    }

    fn generate(&self, topo: &Topology, seed: u64) -> Vec<FlowSpec> {
        let (rdma, tcp) = self.fabric.senders(topo);
        let mut rng = SimRng::seed_from_u64(seed);
        let rate = self.fabric.host_rate();
        let rdma = PoissonTraffic::builder(rdma.clone(), web_search_cdf())
            .load(RDMA_LOAD)
            .link_rate(rate)
            .class(TrafficClass::Lossless, RDMA_PRIO)
            .dests(rdma)
            .build();
        let tcp = PoissonTraffic::builder(tcp.clone(), web_search_cdf())
            .load(TCP_LOAD)
            .link_rate(rate)
            .class(TrafficClass::Lossy, TCP_PRIO)
            .dests(tcp)
            .first_flow_id(TCP_FIRST_FLOW_ID)
            .build();
        let mut flows = self.fixed_volume(&rdma, &mut rng.fork(1));
        flows.extend(self.fixed_volume(&tcp, &mut rng.fork(2)));
        flows
    }

    /// Poisson flows whose count and total size are the same for every
    /// seed: the expected number of arrivals in the window, with sizes
    /// at evenly spaced quantiles of the web-search distribution dealt
    /// out in a seeded order.
    ///
    /// With plain Poisson draws a window holds only a few hundred flows
    /// of a heavy-tailed size distribution, so the simulated work, and
    /// with it every host-time metric, would swing by a third from one
    /// seed to the next. Here the seed still decides arrival times,
    /// endpoints and which flow gets which size, while the amount of
    /// traffic stays fixed.
    fn fixed_volume(&self, traffic: &PoissonTraffic, rng: &mut SimRng) -> Vec<FlowSpec> {
        let count = (self.window.as_nanos() as f64 / traffic.mean_interarrival().as_nanos() as f64)
            .round() as usize;
        // Twice the window holds `count` arrivals except with negligible
        // probability; extend it until it does.
        let mut span = self.window * 2;
        let mut flows = traffic.generate(span, &mut rng.fork(1));
        while flows.len() < count {
            span = span * 2;
            flows = traffic.generate(span, &mut rng.fork(1));
        }
        flows.truncate(count);
        let cdf = web_search_cdf();
        let mut sizes: Vec<u64> = (0..count)
            .map(|i| cdf.quantile((i as f64 + 0.5) / count as f64).max(1))
            .collect();
        rng.fork(2).shuffle(&mut sizes);
        for (f, size) in flows.iter_mut().zip(sizes) {
            f.size = Bytes::new(size);
        }
        flows
    }
}
