//! Property tests on the end-to-end driver: arbitrary workloads must
//! complete, conserve request accounting, and behave deterministically —
//! under every scheme.

use dosas_repro::prelude::*;
use mpiio::program::RankProgram;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct WorkloadSpec {
    storage_nodes: usize,
    requests: Vec<(u8, u64, u16)>, // (op selector, size MB 1..=64, delay ms)
    scheme_sel: u8,
    seed: u64,
}

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1usize..=3,
        proptest::collection::vec((0u8..3, 1u64..=64, 0u16..500), 1..=10),
        0u8..4,
        0u64..1000,
    )
        .prop_map(|(storage_nodes, requests, scheme_sel, seed)| WorkloadSpec {
            storage_nodes,
            requests,
            scheme_sel,
            seed,
        })
}

fn op_name(sel: u8) -> &'static str {
    match sel % 3 {
        0 => "sum",
        1 => "gaussian2d",
        _ => "stats",
    }
}

fn params(op: &str) -> KernelParams {
    if op == "gaussian2d" {
        KernelParams::with_width(1024)
    } else {
        KernelParams::default()
    }
}

fn scheme(sel: u8) -> Scheme {
    match sel % 4 {
        0 => Scheme::Traditional,
        1 => Scheme::ActiveStorage,
        2 => Scheme::dosas_default(),
        _ => Scheme::dosas_partial(),
    }
}

fn build(spec: &WorkloadSpec) -> (DriverConfig, Workload) {
    use dosas::workload::{FileSpec, LayoutSpec};
    let files: Vec<FileSpec> = (0..spec.storage_nodes)
        .map(|s| FileSpec {
            path: format!("/f{s}").into(),
            bytes: 64 << 20,
            layout: LayoutSpec::OneServer(s),
            content: None,
        })
        .collect();
    let programs = spec
        .requests
        .iter()
        .enumerate()
        .map(|(i, &(op_sel, mb, delay_ms))| {
            let op = op_name(op_sel);
            let mut p = RankProgram::single_read_ex(
                &files[i % spec.storage_nodes].path,
                mb << 20,
                &op.into(),
                &params(op).into(),
            );
            if delay_ms > 0 {
                p.ops.insert(
                    0,
                    Op::Compute {
                        span: SimSpan::from_millis(delay_ms as u64),
                    },
                );
            }
            p
        })
        .collect();
    let workload = Workload {
        files,
        programs,
        tenants: vec![],
    };
    let mut cfg = DriverConfig::paper(scheme(spec.scheme_sel));
    cfg.cluster.storage_nodes = spec.storage_nodes;
    cfg.seed = spec.seed;
    (cfg, workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every random workload drains: all requests complete, accounting
    /// balances, the makespan covers every record.
    #[test]
    fn random_workloads_complete_and_balance(spec in arb_spec()) {
        let (cfg, workload) = build(&spec);
        let n = workload.rank_count() as u64;
        let m = Driver::run(cfg, &workload);

        prop_assert_eq!(m.records.len() as u64, n);
        let done = m.runtime.completed_active
            + m.runtime.completed_normal
            + m.runtime.completed_migrated;
        if matches!(scheme(spec.scheme_sel), Scheme::Traditional) {
            // Under TS the enhanced call degrades to a plain read: the
            // active-storage runtime never sees an active request.
            prop_assert_eq!(m.runtime.admitted, 0);
            prop_assert_eq!(done, 0);
        } else {
            prop_assert_eq!(done, n, "every active request ends in exactly one bucket");
            prop_assert_eq!(m.runtime.admitted, n);
        }
        prop_assert!(m.runtime.demoted + m.runtime.interrupted + m.runtime.split
            <= 3 * n, "bounded control actions");

        let makespan = m.makespan_secs;
        prop_assert!(makespan > 0.0);
        for r in &m.records {
            prop_assert!(r.completed_at.as_secs_f64() <= makespan + 1e-9);
            prop_assert!(r.issued_at <= r.completed_at);
        }
        prop_assert!(
            (m.achieved_bandwidth - m.total_requested_bytes / makespan).abs()
                < 1e-6 * m.achieved_bandwidth.max(1.0)
        );
    }

    /// Same spec, same seed ⇒ bit-identical makespan; DOSAS never beats the
    /// physically-required lower bounds.
    #[test]
    fn runs_are_deterministic_and_physical(spec in arb_spec()) {
        let (cfg, workload) = build(&spec);
        let a = Driver::run(cfg.clone(), &workload);
        let b = Driver::run(cfg, &workload);
        prop_assert_eq!(a.makespan_secs.to_bits(), b.makespan_secs.to_bits());
        prop_assert_eq!(a.events, b.events);

        // Physical floor: no run can finish before the largest single
        // request could possibly be served by an idle system (its disk
        // read alone).
        let max_bytes = spec.requests.iter().map(|&(_, mb, _)| mb << 20).max().unwrap();
        let disk_floor = max_bytes as f64 / (1000.0 * 1024.0 * 1024.0);
        prop_assert!(
            a.makespan_secs >= disk_floor,
            "makespan {} below disk floor {}",
            a.makespan_secs,
            disk_floor
        );
    }
}
