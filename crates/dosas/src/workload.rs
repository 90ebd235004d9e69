//! Workload generators for the paper's experiments.
//!
//! The evaluation's workload shape (§IV-A): each storage node serves
//! `n ∈ {1, 2, 4, 8, 16, 32, 64}` concurrent I/O requests, each requesting
//! `d ∈ {128 MB, 256 MB, 512 MB, 1 GB}`; every process issues one request at
//! a time. [`Workload::uniform_active`] builds exactly that. Richer shapes —
//! the multi-application mix of Figure 1 and staggered second waves that
//! exercise kernel interruption — are provided for the extension studies.

use kernels::KernelParams;
use mpiio::program::{Op, RankProgram};
use mpiio::Datatype;
use rand::Rng;
use serde::{Deserialize, Serialize};
use simkit::{RngFactory, SimSpan};
use std::sync::Arc;

/// How a file is placed on the storage nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayoutSpec {
    /// Contiguous on the storage node with this ordinal.
    OneServer(usize),
    /// Striped round-robin over all storage nodes.
    StripedAll { stripe_size: u64 },
}

/// A file the workload reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileSpec {
    /// The file's path, shared by every op that reads or writes it.
    pub path: Arc<str>,
    pub bytes: u64,
    pub layout: LayoutSpec,
    /// Real content for data-plane runs; `None` lets the driver synthesize
    /// a deterministic f64 stream. Only used when the driver's
    /// `data_plane` flag is on (correctness tests, small sizes).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub content: Option<Vec<u8>>,
}

/// Files plus one program per rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    pub files: Vec<FileSpec>,
    pub programs: Vec<RankProgram>,
    /// Tenant id of each rank (parallel to `programs`). Empty means the
    /// workload is untenanted — single-tenant runs carry no per-tenant
    /// metrics and their serialized form is unchanged.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub tenants: Vec<usize>,
}

impl Workload {
    /// The paper's benchmark: `per_server × storage_nodes` processes, each
    /// issuing one active read of `bytes` bytes with operation `op`.
    /// Process `i` targets storage node `i % storage_nodes`.
    pub fn uniform_active(
        per_server: usize,
        storage_nodes: usize,
        bytes: u64,
        op: &str,
        params: KernelParams,
    ) -> Self {
        assert!(per_server > 0 && storage_nodes > 0 && bytes > 0);
        let files = one_file_per_server(storage_nodes, bytes);
        let (op, params) = (Arc::from(op), Arc::new(params));
        let programs = (0..per_server * storage_nodes)
            .map(|i| {
                RankProgram::single_read_ex(&files[i % storage_nodes].path, bytes, &op, &params)
            })
            .collect();
        Workload {
            files,
            programs,
            tenants: vec![],
        }
    }

    /// Like [`Workload::uniform_active`] but the second half of the
    /// processes starts after `delay` — a second wave that arrives while the
    /// first wave's kernels are running, exercising DOSAS interruption.
    pub fn two_waves(
        per_server: usize,
        storage_nodes: usize,
        bytes: u64,
        op: &str,
        params: KernelParams,
        delay: SimSpan,
    ) -> Self {
        let mut w = Self::uniform_active(per_server, storage_nodes, bytes, op, params);
        let half = w.programs.len() / 2;
        for program in w.programs.iter_mut().skip(half) {
            let read = std::mem::take(&mut program.ops);
            program.ops = std::iter::once(Op::Compute { span: delay })
                .chain(read)
                .collect();
        }
        w
    }

    /// The Figure-1 scenario: `apps` applications share the storage nodes,
    /// each app with its own (op, size, active-or-normal) mix. App `a`
    /// contributes `ranks_per_app` processes; normal-I/O apps read the same
    /// files without an operation (their "analysis" happens client-side).
    #[allow(clippy::type_complexity)]
    pub fn multi_app(
        apps: &[(String, KernelParams, u64, bool, usize)], // (op, params, bytes, active, ranks)
        storage_nodes: usize,
    ) -> Self {
        assert!(storage_nodes > 0 && !apps.is_empty());
        let mut files = Vec::new();
        let mut programs = Vec::new();
        for (a, (op, params, bytes, active, ranks)) in apps.iter().enumerate() {
            let (op, params) = (Arc::from(op.as_str()), Arc::new(params.clone()));
            let mut paths = FileIndex::new(storage_nodes);
            for r in 0..*ranks {
                let server = (a + r) % storage_nodes;
                let path = paths.get_or_add(server, &mut files, || FileSpec {
                    path: format!("/data/app{a}-server{server}.dat").into(),
                    bytes: *bytes,
                    layout: LayoutSpec::OneServer(server),
                    content: None,
                });
                programs.push(if *active {
                    RankProgram::single_read_ex(path, *bytes, &op, &params)
                } else {
                    RankProgram::single_read_with_client_op(path, *bytes, &op, &params)
                });
            }
        }
        Workload {
            files,
            programs,
            tenants: vec![],
        }
    }

    /// A striped variant of the uniform workload (ablation A2): one shared
    /// file striped over all storage nodes; every process reads the whole
    /// range, so each request fans out to every server.
    pub fn striped_active(
        processes: usize,
        stripe_size: u64,
        bytes: u64,
        op: &str,
        params: KernelParams,
    ) -> Self {
        let file = FileSpec {
            path: "/data/striped.dat".into(),
            bytes,
            layout: LayoutSpec::StripedAll { stripe_size },
            content: None,
        };
        let (op, params) = (Arc::from(op), Arc::new(params));
        let programs = (0..processes)
            .map(|_| RankProgram::single_read_ex(&file.path, bytes, &op, &params))
            .collect();
        Workload {
            files: vec![file],
            programs,
            tenants: vec![],
        }
    }

    /// A multi-tenant mix: tenant `t` contributes `ranks` active reads of
    /// `bytes` bytes with operation `op`, its rank `r` targeting storage
    /// node `(t + r) % storage_nodes` (tenants interleave over servers, so
    /// they genuinely contend). Rank order is tenant-major; `tenants` is
    /// populated so per-tenant metrics flow through the run.
    #[allow(clippy::type_complexity)]
    pub fn multi_tenant(
        mixes: &[(String, KernelParams, u64, usize)], // (op, params, bytes, ranks)
        storage_nodes: usize,
    ) -> Self {
        assert!(storage_nodes > 0 && !mixes.is_empty());
        let mut files = Vec::new();
        let mut programs = Vec::new();
        let mut tenants = Vec::new();
        for (t, (op, params, bytes, ranks)) in mixes.iter().enumerate() {
            let (op, params) = (Arc::from(op.as_str()), Arc::new(params.clone()));
            let mut paths = FileIndex::new(storage_nodes);
            for r in 0..*ranks {
                let server = (t + r) % storage_nodes;
                let path = paths.get_or_add(server, &mut files, || FileSpec {
                    path: format!("/data/tenant{t}-server{server}.dat").into(),
                    bytes: *bytes,
                    layout: LayoutSpec::OneServer(server),
                    content: None,
                });
                programs.push(RankProgram::single_read_ex(path, *bytes, &op, &params));
                tenants.push(t);
            }
        }
        Workload {
            files,
            programs,
            tenants,
        }
    }

    /// An open-loop arrival process: requests arrive by a Poisson process
    /// at `spec.arrival_rate` per second over `[0, horizon)`, with
    /// heavy-tailed (bounded-Pareto) sizes and a weighted tenant mix. Each
    /// request is one rank whose program sleeps until its arrival instant
    /// ([`Op::Sleep`] — pure delay, so contention cannot thin the arrival
    /// process the way closed-loop think time does) and then issues one
    /// active read against a uniformly chosen storage node. Deterministic
    /// in `spec` (including `seed`).
    pub fn open_loop(spec: &OpenLoopSpec) -> Self {
        assert!(spec.arrival_rate > 0.0 && spec.arrival_rate.is_finite());
        assert!(spec.storage_nodes > 0 && !spec.tenants.is_empty());
        assert!(spec.size_min > 0 && spec.size_max >= spec.size_min);
        assert!(spec.alpha > 0.0);
        let mut rng = RngFactory::new(spec.seed).stream("open-loop");
        let total_weight: f64 = spec.tenants.iter().map(|(_, _, w)| *w).sum();
        assert!(total_weight > 0.0, "tenant weights must sum > 0");
        let horizon = spec.horizon.as_secs_f64();

        // (arrival, tenant, server, bytes) in arrival order.
        let mut requests: Vec<(f64, usize, usize, u64)> = Vec::new();
        let mut t = 0.0;
        while requests.len() < spec.max_requests {
            let u: f64 = rng.random_range(0.0..1.0);
            t += -(1.0 - u).ln() / spec.arrival_rate;
            if t >= horizon {
                break;
            }
            let mut pick = rng.random_range(0.0..total_weight);
            let mut tenant = spec.tenants.len() - 1;
            for (i, (_, _, w)) in spec.tenants.iter().enumerate() {
                if pick < *w {
                    tenant = i;
                    break;
                }
                pick -= w;
            }
            // Bounded Pareto via inverse transform, truncated at the cap.
            let v: f64 = rng.random_range(0.0..1.0);
            let raw = spec.size_min as f64 / (1.0 - v).powf(1.0 / spec.alpha);
            let bytes = (raw.min(spec.size_max as f64) as u64).max(spec.size_min);
            let server = rng.random_range(0..spec.storage_nodes);
            requests.push((t, tenant, server, bytes));
        }
        assert!(
            !requests.is_empty(),
            "open-loop spec generated no arrivals within the horizon"
        );

        // One file per (tenant, server) pair actually hit, sized to its
        // largest request; enumerate pairs tenant-major for determinism.
        let mut max_bytes = vec![vec![0u64; spec.storage_nodes]; spec.tenants.len()];
        for &(_, tenant, server, bytes) in &requests {
            max_bytes[tenant][server] = max_bytes[tenant][server].max(bytes);
        }
        let mut files = Vec::new();
        let mut paths = Vec::with_capacity(spec.tenants.len());
        for (tenant, row) in max_bytes.iter().enumerate() {
            let mut index = FileIndex::new(spec.storage_nodes);
            for (server, &bytes) in row.iter().enumerate() {
                if bytes > 0 {
                    index.get_or_add(server, &mut files, || FileSpec {
                        path: format!("/data/open-t{tenant}-server{server}.dat").into(),
                        bytes,
                        layout: LayoutSpec::OneServer(server),
                        content: None,
                    });
                }
            }
            paths.push(index);
        }
        let kernels: Vec<(Arc<str>, Arc<KernelParams>)> = spec
            .tenants
            .iter()
            .map(|(op, params, _)| (Arc::from(op.as_str()), Arc::new(params.clone())))
            .collect();

        let mut programs = Vec::with_capacity(requests.len());
        let mut tenants = Vec::with_capacity(requests.len());
        for &(arrival, tenant, server, bytes) in &requests {
            let (op, params) = &kernels[tenant];
            programs.push(RankProgram {
                ops: vec![
                    Op::Sleep {
                        span: SimSpan::from_secs_f64(arrival),
                    },
                    Op::ReadEx {
                        path: Arc::clone(paths[tenant].get(server)),
                        offset: 0,
                        count: bytes,
                        datatype: Datatype::Byte,
                        operation: Arc::clone(op),
                        params: Arc::clone(params),
                    },
                ],
            });
            tenants.push(tenant);
        }
        Workload {
            files,
            programs,
            tenants,
        }
    }

    /// Total bytes all ranks will request.
    pub fn total_request_bytes(&self) -> u64 {
        self.programs.iter().map(|p| p.total_request_bytes()).sum()
    }

    pub fn rank_count(&self) -> usize {
        self.programs.len()
    }

    /// Tenant of `rank`, `None` when the workload is untenanted.
    pub fn tenant_of(&self, rank: usize) -> Option<usize> {
        self.tenants.get(rank).copied()
    }

    /// Number of distinct tenants (0 for an untenanted workload).
    pub fn tenant_count(&self) -> usize {
        self.tenants.iter().max().map_or(0, |m| m + 1)
    }

    /// Bytes each tenant will request: index = tenant id.
    pub fn tenant_request_bytes(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.tenant_count()];
        for (rank, program) in self.programs.iter().enumerate() {
            if let Some(t) = self.tenant_of(rank) {
                out[t] += program.total_request_bytes();
            }
        }
        out
    }
}

/// Parameters of [`Workload::open_loop`].
#[derive(Debug, Clone)]
pub struct OpenLoopSpec {
    /// Aggregate Poisson arrival rate, requests per simulated second.
    pub arrival_rate: f64,
    /// Arrivals are generated in `[0, horizon)`.
    pub horizon: SimSpan,
    /// Hard cap on generated requests (bounds memory for long horizons).
    pub max_requests: usize,
    /// Bounded-Pareto size floor, bytes.
    pub size_min: u64,
    /// Bounded-Pareto size cap, bytes.
    pub size_max: u64,
    /// Pareto tail index; smaller = heavier tail (1.1–1.5 is typical for
    /// storage request sizes).
    pub alpha: f64,
    /// Tenant mix: `(kernel op, params, weight)` — each arrival is drawn
    /// from this distribution.
    pub tenants: Vec<(String, KernelParams, f64)>,
    pub storage_nodes: usize,
    pub seed: u64,
}

/// A plain normal-read workload (no kernels anywhere) for file system tests.
pub fn plain_reads(processes: usize, storage_nodes: usize, bytes: u64) -> Workload {
    let files = one_file_per_server(storage_nodes, bytes);
    let programs = (0..processes)
        .map(|i| RankProgram {
            ops: vec![Op::Read {
                path: Arc::clone(&files[i % storage_nodes].path),
                offset: 0,
                count: bytes,
                datatype: Datatype::Byte,
                client_op: None,
            }],
        })
        .collect();
    Workload {
        files,
        programs,
        tenants: vec![],
    }
}

/// `/data/server{s}.dat` of `bytes` bytes on each storage node `s`.
fn one_file_per_server(storage_nodes: usize, bytes: u64) -> Vec<FileSpec> {
    (0..storage_nodes)
        .map(|s| FileSpec {
            path: format!("/data/server{s}.dat").into(),
            bytes,
            layout: LayoutSpec::OneServer(s),
            content: None,
        })
        .collect()
}

/// One group's files (an app's or a tenant's) indexed by storage node:
/// the shared path of the group's file on each server, added to the
/// workload's file list the first time a rank targets that server.
struct FileIndex(Vec<Option<Arc<str>>>);

impl FileIndex {
    fn new(storage_nodes: usize) -> Self {
        FileIndex(vec![None; storage_nodes])
    }

    /// The path of the group's file on `server`, pushing `file()` onto
    /// `files` if the group has none there yet.
    fn get_or_add(
        &mut self,
        server: usize,
        files: &mut Vec<FileSpec>,
        file: impl FnOnce() -> FileSpec,
    ) -> &Arc<str> {
        self.0[server].get_or_insert_with(|| {
            let f = file();
            let path = Arc::clone(&f.path);
            files.push(f);
            path
        })
    }

    /// The path of the group's file on `server`, which must exist.
    fn get(&self, server: usize) -> &Arc<str> {
        self.0[server].as_ref().expect("a file on every server hit")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_shape() {
        let w = Workload::uniform_active(4, 2, 1024, "sum", KernelParams::default());
        assert_eq!(w.rank_count(), 8);
        assert_eq!(w.files.len(), 2);
        assert_eq!(w.total_request_bytes(), 8 * 1024);
        assert!(w.programs.iter().all(|p| p.ops[0].is_active_io()));
    }

    #[test]
    fn ranks_round_robin_over_servers() {
        let w = Workload::uniform_active(2, 3, 10, "sum", KernelParams::default());
        let target = |i: usize| match &w.programs[i].ops[0] {
            Op::ReadEx { path, .. } => &**path,
            _ => unreachable!(),
        };
        assert_eq!(target(0), "/data/server0.dat");
        assert_eq!(target(1), "/data/server1.dat");
        assert_eq!(target(2), "/data/server2.dat");
        assert_eq!(target(3), "/data/server0.dat");
    }

    #[test]
    fn two_waves_delays_second_half() {
        let w = Workload::two_waves(
            4,
            1,
            10,
            "sum",
            KernelParams::default(),
            SimSpan::from_secs(1),
        );
        assert!(matches!(w.programs[0].ops[0], Op::ReadEx { .. }));
        assert!(matches!(w.programs[2].ops[0], Op::Compute { .. }));
        assert!(matches!(w.programs[3].ops[0], Op::Compute { .. }));
        assert!(
            w.programs.iter().all(|p| p.ops.capacity() == p.ops.len()),
            "delayed programs are rebuilt at their exact length"
        );
    }

    #[test]
    fn multi_app_mixes_kinds() {
        let apps = vec![
            ("sum".to_string(), KernelParams::default(), 100, true, 2),
            ("stats".to_string(), KernelParams::default(), 200, false, 3),
        ];
        let w = Workload::multi_app(&apps, 2);
        assert_eq!(w.rank_count(), 5);
        let actives = w
            .programs
            .iter()
            .filter(|p| p.ops[0].is_active_io())
            .count();
        assert_eq!(actives, 2);
        assert_eq!(w.total_request_bytes(), 2 * 100 + 3 * 200);
    }

    #[test]
    fn striped_uses_one_shared_file() {
        let w = Workload::striped_active(4, 64 << 10, 1 << 20, "sum", KernelParams::default());
        assert_eq!(w.files.len(), 1);
        assert!(matches!(
            w.files[0].layout,
            LayoutSpec::StripedAll { stripe_size } if stripe_size == 64 << 10
        ));
    }

    #[test]
    fn plain_reads_have_no_ops() {
        let w = plain_reads(3, 1, 100);
        assert!(w.programs.iter().all(|p| matches!(
            &p.ops[0],
            Op::Read {
                client_op: None,
                ..
            }
        )));
    }

    #[test]
    fn serde_roundtrip() {
        let w = Workload::uniform_active(1, 1, 8, "sum", KernelParams::default());
        let json = serde_json::to_string(&w).unwrap();
        assert!(
            !json.contains("tenants"),
            "untenanted workloads serialize as before"
        );
        assert_eq!(serde_json::from_str::<Workload>(&json).unwrap(), w);
    }

    #[test]
    fn multi_tenant_interleaves_and_labels() {
        let mixes = vec![
            ("sum".to_string(), KernelParams::default(), 100, 2),
            ("stats".to_string(), KernelParams::default(), 300, 3),
        ];
        let w = Workload::multi_tenant(&mixes, 2);
        assert_eq!(w.rank_count(), 5);
        assert_eq!(w.tenants, vec![0, 0, 1, 1, 1]);
        assert_eq!(w.tenant_count(), 2);
        assert_eq!(w.tenant_of(0), Some(0));
        assert_eq!(w.tenant_of(4), Some(1));
        assert_eq!(w.tenant_of(5), None);
        assert_eq!(w.tenant_request_bytes(), vec![200, 900]);
        // Tenants land on distinct starting servers so they contend rather
        // than partition.
        assert!(w.files.iter().any(|f| f.path.contains("tenant0-server0")));
        assert!(w.files.iter().any(|f| f.path.contains("tenant1-server1")));
        // Files are listed in the order ranks first hit them, and ranks
        // reading one file share its path.
        let paths: Vec<&str> = w.files.iter().map(|f| &*f.path).collect();
        assert_eq!(
            paths,
            [
                "/data/tenant0-server0.dat",
                "/data/tenant0-server1.dat",
                "/data/tenant1-server1.dat",
                "/data/tenant1-server0.dat",
            ]
        );
        let path = |rank: usize| match &w.programs[rank].ops[0] {
            Op::ReadEx { path, .. } => path,
            _ => unreachable!(),
        };
        assert!(Arc::ptr_eq(path(2), path(4)));
        let json = serde_json::to_string(&w).unwrap();
        assert_eq!(serde_json::from_str::<Workload>(&json).unwrap(), w);
    }

    #[test]
    fn untenanted_workloads_report_no_tenants() {
        let w = Workload::uniform_active(2, 1, 8, "sum", KernelParams::default());
        assert_eq!(w.tenant_count(), 0);
        assert_eq!(w.tenant_of(0), None);
        assert!(w.tenant_request_bytes().is_empty());
    }

    fn open_spec() -> OpenLoopSpec {
        OpenLoopSpec {
            arrival_rate: 100.0,
            horizon: SimSpan::from_secs(2),
            max_requests: 10_000,
            size_min: 1 << 20,
            size_max: 64 << 20,
            alpha: 1.3,
            tenants: vec![
                ("sum".to_string(), KernelParams::default(), 3.0),
                ("stats".to_string(), KernelParams::default(), 1.0),
            ],
            storage_nodes: 3,
            seed: 2012,
        }
    }

    #[test]
    fn open_loop_is_deterministic_and_well_formed() {
        let a = Workload::open_loop(&open_spec());
        let b = Workload::open_loop(&open_spec());
        assert_eq!(a, b, "same spec must generate the same workload");
        // ~rate × horizon arrivals, each [Sleep, ReadEx] with
        // non-decreasing arrival offsets.
        assert!((100..300).contains(&a.rank_count()), "{}", a.rank_count());
        assert_eq!(a.tenants.len(), a.rank_count());
        let mut last = SimSpan::ZERO;
        for p in &a.programs {
            assert_eq!(p.ops.len(), 2);
            let Op::Sleep { span } = p.ops[0] else {
                panic!("first op must be the arrival sleep: {:?}", p.ops[0]);
            };
            assert!(span >= last, "arrivals must be sorted");
            assert!(span < SimSpan::from_secs(2), "arrival within horizon");
            last = span;
            assert!(p.ops[1].is_active_io());
        }
        // Both tenants appear; weight 3:1 means tenant 0 dominates.
        let t0 = a.tenants.iter().filter(|&&t| t == 0).count();
        let t1 = a.rank_count() - t0;
        assert!(t0 > t1 && t1 > 0, "t0={t0} t1={t1}");
        // Sizes respect the bounded-Pareto range and files cover them.
        for p in &a.programs {
            let bytes = p.ops[1].request_bytes();
            assert!((1 << 20..=64 << 20).contains(&bytes), "{bytes}");
        }
        for f in &a.files {
            let covered = a
                .programs
                .iter()
                .filter_map(|p| match &p.ops[1] {
                    Op::ReadEx { path, .. } if *path == f.path => Some(p.ops[1].request_bytes()),
                    _ => None,
                })
                .max()
                .unwrap();
            assert_eq!(f.bytes, covered, "file sized to its largest request");
        }
    }

    #[test]
    fn open_loop_respects_max_requests() {
        let w = Workload::open_loop(&OpenLoopSpec {
            max_requests: 7,
            ..open_spec()
        });
        assert_eq!(w.rank_count(), 7);
    }

    #[test]
    fn open_loop_seed_changes_schedule() {
        let a = Workload::open_loop(&open_spec());
        let b = Workload::open_loop(&OpenLoopSpec {
            seed: 2013,
            ..open_spec()
        });
        assert_ne!(a, b);
    }
}
