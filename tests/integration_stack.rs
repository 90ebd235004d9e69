//! Cross-crate integration: the substrate stack (simkit → cluster → pfs →
//! mpiio) composed directly, without the DOSAS driver.

use cluster::{ClusterConfig, ClusterState, NodeId};
use mpiio::Communicator;
use pfs::{MetadataServer, ReadPlan, ReadTracker, StripeLayout};
use simkit::{RngFactory, Scheduler, SimSpan, SimTime, Simulation, Timer, World};

/// A hand-rolled mini-world: one client reads a striped file by driving the
/// fabric and disks directly, with one completion timer per resource.
/// Validates that the substrate crates compose without the dosas driver.
struct MiniWorld {
    cluster: ClusterState,
    disk_timers: Vec<Timer>,
    net_timer: Timer,
    pending_flows: usize,
    done_at: Option<SimTime>,
}

#[derive(Debug)]
enum Ev {
    DiskTick(usize),
    NetTick,
}

impl MiniWorld {
    fn arm_disk(&mut self, ordinal: usize, sched: &mut Scheduler<Ev>) {
        let disk = &self.cluster.disks[ordinal];
        let (next, epoch) = (disk.next_event(), disk.epoch());
        self.disk_timers[ordinal].arm(sched, next, epoch, Ev::DiskTick(ordinal));
    }

    fn arm_net(&mut self, sched: &mut Scheduler<Ev>) {
        let next = self.cluster.fabric.next_completion();
        let epoch = self.cluster.fabric.epoch();
        self.net_timer.arm(sched, next, epoch, Ev::NetTick);
    }
}

impl World for MiniWorld {
    type Event = Ev;
    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::DiskTick(ordinal) => {
                let armed = self.disk_timers[ordinal].fired();
                assert_eq!(armed, self.cluster.disks[ordinal].epoch());
                for _ in self.cluster.disks[ordinal].take_completed(now) {
                    // Disk done: ship 1 MiB to the client (node 0).
                    let src = self.cluster.storage_node(ordinal);
                    self.cluster
                        .fabric
                        .start_flow(now, src, NodeId(0), 1024.0 * 1024.0);
                    self.pending_flows += 1;
                    self.arm_net(sched);
                }
                self.arm_disk(ordinal, sched);
            }
            Ev::NetTick => {
                let armed = self.net_timer.fired();
                assert_eq!(armed, self.cluster.fabric.epoch());
                let done = self.cluster.fabric.take_completed(now).len();
                self.pending_flows -= done;
                if done > 0 && self.pending_flows == 0 {
                    self.done_at = Some(now);
                }
                self.arm_net(sched);
            }
        }
    }
}

#[test]
fn substrate_composes_without_the_driver() {
    let cfg = ClusterConfig {
        storage_nodes: 2,
        flow_bandwidth_jitter: None,
        cpu_time_jitter: None,
        net_latency: SimSpan::ZERO,
        disk_overhead: SimSpan::ZERO,
        ..Default::default()
    };
    let mut cluster = ClusterState::build(cfg, &RngFactory::new(5));
    // Two disks each read 1 MiB, then both stream to client 0.
    for ordinal in 0..2 {
        cluster.disks[ordinal].submit_read(SimTime::ZERO, 1024.0 * 1024.0);
    }
    let mut sim = Simulation::new(MiniWorld {
        cluster,
        disk_timers: Vec::new(),
        net_timer: Timer::default(),
        pending_flows: 0,
        done_at: None,
    });
    for ordinal in 0..2 {
        let disk = &sim.world.cluster.disks[ordinal];
        let (next, epoch) = (disk.next_event(), disk.epoch());
        let mut timer = Timer::default();
        timer.arm(sim.scheduler(), next, epoch, Ev::DiskTick(ordinal));
        sim.world.disk_timers.push(timer);
    }
    sim.run();
    let done = sim.world.done_at.expect("both transfers completed");
    // Disk: 1/1000 s; then two 1 MiB flows share client 0's 118 MiB/s rx
    // link: 2/118 s.
    let expect = 1.0 / 1000.0 + 2.0 / 118.0;
    assert!(
        (done.as_secs_f64() - expect).abs() < 1e-3,
        "got {done}, want {expect}"
    );
}

#[test]
fn metadata_striping_and_read_planning_compose() {
    let mut meta = MetadataServer::new();
    let servers: Vec<NodeId> = vec![NodeId(8), NodeId(9), NodeId(10)];
    let layout = StripeLayout::striped(servers).with_stripe_size(64 * 1024);
    let fh = meta.create("/exp/field.dat", 10 << 20, layout).unwrap();
    let file = meta.stat(fh).unwrap().clone();

    let plan = ReadPlan::new(&file, 100 * 1024, 1 << 20).unwrap();
    assert_eq!(plan.server_count(), 3);
    let mut tracker = ReadTracker::new(&plan);
    let n = plan.extents.len();
    for i in 0..n {
        let complete = tracker.deliver(i);
        assert_eq!(complete, i == n - 1);
    }
}

#[test]
fn communicator_places_ranks_on_cluster_nodes() {
    let cfg = ClusterConfig::default();
    let cluster = ClusterState::build(cfg, &RngFactory::new(1));
    let nodes: Vec<NodeId> = (0..16)
        .map(|i| NodeId(i % cluster.cfg.compute_nodes))
        .collect();
    let comm = Communicator::new(nodes);
    assert_eq!(comm.size(), 16);
    // Binomial bcast covers all ranks in ceil(log2 16) = 4 rounds.
    let plan = comm.bcast_plan(0);
    assert_eq!(plan.iter().map(|m| m.round).max().unwrap() + 1, 4);
    // Every planned message runs between real compute nodes.
    for m in plan {
        assert!(comm.node_of(m.src_rank).0 < cluster.cfg.compute_nodes);
        assert!(comm.node_of(m.dst_rank).0 < cluster.cfg.compute_nodes);
    }
}

#[test]
fn kernels_roundtrip_through_every_layer_of_state() {
    // kernel -> KernelState -> mpiio ResultBuf -> serde -> restore.
    use kernels::{Kernel, KernelRegistry, SumKernel};
    use mpiio::file::ResultBuf;
    use pfs::FileHandle;

    let data: Vec<u8> = (0..1000u64)
        .flat_map(|v| (v as f64).to_le_bytes())
        .collect();
    let mut k = SumKernel::new();
    k.process_chunk(&data[..4096]);
    let rb = ResultBuf::uncompleted(Some(k.checkpoint()), FileHandle(3), 4096);

    let json = serde_json::to_string(&rb).unwrap();
    let rb: ResultBuf = serde_json::from_str(&json).unwrap();

    let registry = KernelRegistry::with_defaults();
    let mut restored = registry.restore(rb.kernel_state().unwrap()).unwrap();
    restored.process_chunk(&data[4096..]);

    let mut whole = SumKernel::new();
    whole.process_chunk(&data);
    assert_eq!(restored.finalize(), whole.finalize());
}
