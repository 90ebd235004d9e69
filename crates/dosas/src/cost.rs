//! The paper's analytic cost model (Table II, Equations 1–7).
//!
//! Notation mapping:
//!
//! | paper | here |
//! |-------|------|
//! | `d_i` | [`RequestSpec::bytes`] |
//! | `S_{C,op}` | [`CostModel::storage_rate`] (per op) |
//! | `C_{C,op}` | [`CostModel::compute_rate`] (per op) |
//! | `bw` | [`CostModel::bw`] |
//! | `h(x)` | [`ResultModel`] |
//! | `x_i` (Eq. 5) | [`Item::x`] |
//! | `y_i` (Eq. 6) | [`Item::y`] |
//! | `z` (Eq. 7) | `max` over demoted of [`Item::z`] |
//!
//! The model deliberately serializes all storage-side work (compute at
//! `S_{C,op}`, transfers at `bw`) and parallelizes client-side work (each
//! demoted request computes on its own compute node) — the paper's stated
//! assumptions. The simulation in [`crate::driver`] is richer (overlap,
//! fair sharing, jitter), which is exactly why Table IV's accuracy is below
//! 100 %.

use crate::config::OpRates;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The paper's `h(x)`: result size for `x` input bytes, `fixed + ratio·x`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResultModel {
    pub fixed_bytes: f64,
    pub ratio: f64,
}

impl ResultModel {
    /// A constant-size result (reductions: sum, stats, digests…).
    pub fn fixed(bytes: u64) -> Self {
        ResultModel {
            fixed_bytes: bytes as f64,
            ratio: 0.0,
        }
    }

    /// A proportional result (filters that keep `ratio` of the input).
    pub fn proportional(ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio));
        ResultModel {
            fixed_bytes: 0.0,
            ratio,
        }
    }

    /// `h(x)` in bytes.
    pub fn bytes(&self, input: f64) -> f64 {
        self.fixed_bytes + self.ratio * input
    }
}

/// One active I/O request as the scheduler sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestSpec {
    /// `d_i` in bytes.
    pub bytes: f64,
    /// Operation name (selects rates and `h`).
    pub op: Arc<str>,
}

impl RequestSpec {
    pub fn new(bytes: f64, op: impl Into<Arc<str>>) -> Self {
        RequestSpec {
            bytes,
            op: op.into(),
        }
    }
}

/// Precomputed per-request costs handed to the solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Cost of serving as active I/O: `d_i / S + h(d_i) / bw` (Eq. 5).
    pub x: f64,
    /// Cost of serving as normal I/O: `d_i / bw` (Eq. 6).
    pub y: f64,
    /// This request's contribution to `z` if demoted: `d_i / C` (Eq. 7).
    pub z: f64,
}

/// The full cost model for one storage node.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Network bandwidth `bw`, bytes/second.
    pub bw: f64,
    /// Effective storage-node capability multiplier: kernel-usable cores.
    pub storage_cores: f64,
    /// Cores a single client process can use (1 for sequential kernels).
    pub compute_cores: f64,
    rates: OpRates,
}

impl CostModel {
    pub fn new(bw: f64, storage_cores: f64, compute_cores: f64, rates: OpRates) -> Self {
        assert!(bw.is_finite() && bw > 0.0);
        assert!(storage_cores > 0.0 && compute_cores > 0.0);
        CostModel {
            bw,
            storage_cores,
            compute_cores,
            rates,
        }
    }

    /// `S_{C,op}`: storage node's aggregate rate for `op`, bytes/second.
    pub fn storage_rate(&self, op: &str) -> f64 {
        self.rates.per_core(op) * self.storage_cores
    }

    /// `C_{C,op}`: one compute process's rate for `op`, bytes/second.
    pub fn compute_rate(&self, op: &str) -> f64 {
        self.rates.per_core(op) * self.compute_cores
    }

    /// `f(x)` on the storage node.
    pub fn f_storage(&self, op: &str, x: f64) -> f64 {
        x / self.storage_rate(op)
    }

    /// `f(x)` on a compute node.
    pub fn f_compute(&self, op: &str, x: f64) -> f64 {
        x / self.compute_rate(op)
    }

    /// `g(x) = x / bw`.
    pub fn g(&self, x: f64) -> f64 {
        x / self.bw
    }

    /// `h(x)` for `op`.
    pub fn h(&self, op: &str, x: f64) -> f64 {
        self.rates.result_model(op).bytes(x)
    }

    /// Eq. 5: `x_i = d_i/S_{C,op} + h(d_i)/bw`.
    pub fn x_i(&self, r: &RequestSpec) -> f64 {
        self.f_storage(&r.op, r.bytes) + self.g(self.h(&r.op, r.bytes))
    }

    /// Eq. 6: `y_i = d_i / bw`.
    pub fn y_i(&self, r: &RequestSpec) -> f64 {
        self.g(r.bytes)
    }

    /// Eq. 7 term: `d_i / C_{C,op}`.
    pub fn z_i(&self, r: &RequestSpec) -> f64 {
        self.f_compute(&r.op, r.bytes)
    }

    /// Precompute solver items for a batch.
    pub fn items(&self, reqs: &[RequestSpec]) -> Vec<Item> {
        reqs.iter()
            .map(|r| Item {
                x: self.x_i(r),
                y: self.y_i(r),
                z: self.z_i(r),
            })
            .collect()
    }

    /// Eq. 4: total time of an assignment (`true` = serve as active).
    pub fn total_time(&self, items: &[Item], assign: &[bool]) -> f64 {
        assert_eq!(items.len(), assign.len());
        let mut t = 0.0;
        let mut z: f64 = 0.0;
        for (item, &active) in items.iter().zip(assign) {
            if active {
                t += item.x;
            } else {
                t += item.y;
                z = z.max(item.z);
            }
        }
        t + z
    }

    /// Eq. 1: `T_A = f(D_A) + g(D_N) + g(h(D_A))` — everything active.
    /// All requests must share one op (the paper's setting).
    pub fn t_all_active(&self, op: &str, d_active: f64, d_normal: f64) -> f64 {
        self.f_storage(op, d_active) + self.g(d_normal) + self.g(self.h(op, d_active))
    }

    /// Eqs. 2–3: `T_N = g(D) + f(IO_size)` with `IO_size = max d_i` —
    /// everything served as normal I/O and computed client-side.
    pub fn t_all_normal(&self, op: &str, sizes: &[f64]) -> f64 {
        let d: f64 = sizes.iter().sum();
        let io_size = sizes.iter().cloned().fold(0.0, f64::max);
        self.g(d) + self.f_compute(op, io_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: f64 = 1024.0 * 1024.0;

    /// The paper's testbed: 118 MB/s network, 1 kernel core on storage.
    fn paper_model() -> CostModel {
        CostModel::new(118.0 * MIB, 1.0, 1.0, OpRates::paper())
    }

    #[test]
    fn result_models() {
        assert_eq!(ResultModel::fixed(16).bytes(1e9), 16.0);
        let r = ResultModel::proportional(0.5);
        assert_eq!(r.bytes(100.0), 50.0);
    }

    #[test]
    fn rates_scale_with_cores() {
        let m = CostModel::new(118.0 * MIB, 2.0, 1.0, OpRates::paper());
        assert!((m.storage_rate("gaussian2d") / MIB - 160.0).abs() < 1e-9);
        assert!((m.compute_rate("gaussian2d") / MIB - 80.0).abs() < 1e-9);
    }

    #[test]
    fn gaussian_128mb_costs_match_hand_calculation() {
        // d = 128 MB, S = 80 MB/s, bw = 118 MB/s, h = 32 bytes.
        let m = paper_model();
        let r = RequestSpec::new(128.0 * MIB, "gaussian2d");
        assert!((m.x_i(&r) - 1.6).abs() < 1e-6, "x = {}", m.x_i(&r));
        assert!((m.y_i(&r) - 128.0 / 118.0).abs() < 1e-6);
        assert!((m.z_i(&r) - 1.6).abs() < 1e-6);
    }

    #[test]
    fn total_time_all_active_matches_eq1() {
        let m = paper_model();
        let reqs: Vec<RequestSpec> = (0..4)
            .map(|_| RequestSpec::new(128.0 * MIB, "gaussian2d"))
            .collect();
        let items = m.items(&reqs);
        let t = m.total_time(&items, &[true; 4]);
        // 4 × 1.6 s compute + 4 small result transfers.
        assert!((t - 6.4).abs() < 1e-3, "t = {t}");
        let t_eq1 = m.t_all_active("gaussian2d", 4.0 * 128.0 * MIB, 0.0);
        assert!((t - t_eq1).abs() < 1e-6);
    }

    #[test]
    fn total_time_all_normal_matches_eq3() {
        let m = paper_model();
        let sizes = [128.0 * MIB; 4];
        let reqs: Vec<RequestSpec> = sizes
            .iter()
            .map(|&d| RequestSpec::new(d, "gaussian2d"))
            .collect();
        let items = m.items(&reqs);
        let t = m.total_time(&items, &[false; 4]);
        let t_eq3 = m.t_all_normal("gaussian2d", &sizes);
        assert!((t - t_eq3).abs() < 1e-9);
        // 4 transfers serialized + one parallel client compute.
        assert!((t - (4.0 * 128.0 / 118.0 + 1.6)).abs() < 1e-3);
    }

    #[test]
    fn crossover_matches_figure_2() {
        // The motivating observation: Gaussian active storage wins below
        // ~4 concurrent requests per storage node and loses above.
        let m = paper_model();
        for n in [1usize, 2] {
            let sizes = vec![128.0 * MIB; n];
            let ta = m.t_all_active("gaussian2d", sizes.iter().sum(), 0.0);
            let tn = m.t_all_normal("gaussian2d", &sizes);
            assert!(ta < tn, "n={n}: active {ta} should beat normal {tn}");
        }
        for n in [8usize, 16, 64] {
            let sizes = vec![128.0 * MIB; n];
            let ta = m.t_all_active("gaussian2d", sizes.iter().sum(), 0.0);
            let tn = m.t_all_normal("gaussian2d", &sizes);
            assert!(tn < ta, "n={n}: normal {tn} should beat active {ta}");
        }
    }

    #[test]
    fn sum_active_always_wins() {
        // 860 MB/s per core >> 118 MB/s network (paper Figure 6).
        let m = paper_model();
        for n in [1usize, 4, 16, 64] {
            let sizes = vec![128.0 * MIB; n];
            let ta = m.t_all_active("sum", sizes.iter().sum(), 0.0);
            let tn = m.t_all_normal("sum", &sizes);
            assert!(ta < tn, "n={n}");
        }
    }

    #[test]
    fn z_is_max_not_sum() {
        let m = paper_model();
        let reqs = vec![
            RequestSpec::new(100.0 * MIB, "gaussian2d"),
            RequestSpec::new(200.0 * MIB, "gaussian2d"),
        ];
        let items = m.items(&reqs);
        let t = m.total_time(&items, &[false, false]);
        let expect = (300.0 / 118.0) + (200.0 / 80.0);
        assert!((t - expect).abs() < 1e-6);
    }

    #[test]
    fn mixed_assignment_cost() {
        let m = paper_model();
        let reqs = vec![
            RequestSpec::new(128.0 * MIB, "gaussian2d"),
            RequestSpec::new(128.0 * MIB, "gaussian2d"),
        ];
        let items = m.items(&reqs);
        let t = m.total_time(&items, &[true, false]);
        let expect = items[0].x + items[1].y + items[1].z;
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn mismatched_assignment_length_panics() {
        let m = paper_model();
        let items = m.items(&[RequestSpec::new(1.0, "sum")]);
        m.total_time(&items, &[true, false]);
    }
}
