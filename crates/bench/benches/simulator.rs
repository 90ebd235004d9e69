//! Simulation-engine benchmarks: event throughput of the DES substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simkit::{Scheduler, ShareResource, SimSpan, SimTime, Simulation, World};
use std::hint::black_box;

/// A ping-pong world: every event schedules the next, measuring raw event
/// dispatch overhead.
struct PingPong {
    remaining: u64,
}

impl World for PingPong {
    type Event = ();
    fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.after(SimSpan::from_nanos(1), ());
        }
    }
}

fn bench_event_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_dispatch");
    for events in [10_000u64, 100_000] {
        g.bench_with_input(BenchmarkId::from_parameter(events), &events, |b, &n| {
            b.iter(|| {
                let mut sim = Simulation::new(PingPong { remaining: n });
                sim.scheduler().at(SimTime::ZERO, ());
                black_box(sim.run())
            })
        });
    }
    g.finish();
}

fn bench_share_resource_churn(c: &mut Criterion) {
    // Processor-sharing rate recomputation under arrival/departure churn —
    // the hot loop of CPU and fabric modelling.
    let mut g = c.benchmark_group("share_churn");
    for tasks in [8usize, 64, 256] {
        g.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, &n| {
            b.iter(|| {
                let mut r = ShareResource::new(100.0);
                let mut now = SimTime::ZERO;
                let ids: Vec<_> = (0..n)
                    .map(|i| r.add(now, 1000.0 + i as f64, 10.0))
                    .collect();
                for id in ids {
                    now += SimSpan::from_millis(1);
                    black_box(r.remove(now, id));
                }
            })
        });
    }
    g.finish();
}

fn bench_fabric_recompute(c: &mut Criterion) {
    use cluster::{Fabric, NodeId};
    use simkit::RngFactory;

    let mut g = c.benchmark_group("fabric_maxmin");
    for flows in [16usize, 128] {
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &n| {
            b.iter(|| {
                let mut f = Fabric::new(
                    64,
                    118.0e6,
                    None,
                    SimSpan::ZERO,
                    None,
                    RngFactory::new(1).stream("bench"),
                );
                for i in 0..n {
                    // All flows leave node 63 (one storage node fan-out).
                    f.start_flow(SimTime::ZERO, NodeId(63), NodeId(i % 63), 1e9);
                }
                black_box(f.next_completion())
            })
        });
    }
    g.finish();
}

fn bench_fabric_churn(c: &mut Criterion) {
    // The incremental-fill headline: a churn-heavy flow schedule (bursts of
    // same-timestamp cancel+start over disjoint components, a completion
    // query per tick) under the incremental fill vs the pre-incremental
    // full-recompute baseline. Construction is re-done per iteration but
    // settles in one coalesced pass, so churn dominates the measurement.
    use bench::fabric_churn::{self, FLOW_POINTS};
    use cluster::FillMode;

    let mut g = c.benchmark_group("fabric_churn");
    for flows in FLOW_POINTS {
        for (label, mode) in [
            ("incremental", FillMode::Incremental),
            ("full_rescan", FillMode::FullRescan),
        ] {
            g.bench_with_input(BenchmarkId::new(label, flows), &flows, |b, &n| {
                b.iter(|| {
                    let (mut f, mut ids) = fabric_churn::build(n);
                    f.set_fill_mode(mode);
                    black_box(fabric_churn::run(&mut f, &mut ids))
                })
            });
        }
    }
    g.finish();
}

fn bench_topology_churn(c: &mut Criterion) {
    // The multi-hop graph fill: pod-local churn on a small fat-tree under
    // the incremental fill vs the full-rescan baseline. A deliberately
    // small point (k = 8, 128 hosts) — the acceptance-scale 1k/10k-host
    // points live in bench_baseline's `topology` section, where each run
    // happens once instead of per criterion sample.
    use bench::topology_churn::{self, TopoPoint, OPS_PER_TICK, TICKS};
    use cluster::FillMode;

    let point = TopoPoint {
        k: 8,
        flows_per_host: 8,
    };
    let mut g = c.benchmark_group("topology_churn");
    for (label, mode, ticks) in [
        ("incremental", FillMode::Incremental, TICKS),
        ("full_rescan", FillMode::FullRescan, 1),
    ] {
        g.bench_with_input(BenchmarkId::new(label, point.hosts()), &point, |b, p| {
            b.iter(|| {
                let (mut f, mut ids, pairs) = topology_churn::build(p);
                f.set_fill_mode(mode);
                black_box(topology_churn::run(
                    p,
                    &mut f,
                    &mut ids,
                    &pairs,
                    ticks,
                    OPS_PER_TICK,
                ))
            })
        });
    }
    g.finish();
}

fn quick() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_secs(1))
        .sample_size(20)
}

/// Lighter sampling for `fabric_churn`: one FullRescan schedule at 8192
/// flows costs seconds, so the default 20-sample floor would dominate the
/// whole suite's wall time.
fn churn_quick() -> Criterion {
    Criterion::default()
        .measurement_time(std::time::Duration::from_secs(1))
        .warm_up_time(std::time::Duration::from_millis(200))
        .sample_size(3)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = bench_event_dispatch, bench_share_resource_churn, bench_fabric_recompute
}
criterion_group! {
    name = churn;
    config = churn_quick();
    targets = bench_fabric_churn, bench_topology_churn
}
criterion_main!(benches, churn);
