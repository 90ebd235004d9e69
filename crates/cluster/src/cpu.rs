//! Multi-core CPU model.
//!
//! Tasks are measured in **core-seconds**: a kernel that processes `d` bytes
//! at `r` bytes/second/core costs `d / r` core-seconds. The CPU's capacity is
//! its number of kernel-usable cores (core-seconds per second), and no single
//! task can exceed 1.0 — a sequential kernel cannot use more than one core.
//! This lets kernels with different per-operation rates share one CPU without
//! the CPU knowing anything about operations.
//!
//! Processor sharing approximates a time-slicing OS scheduler: with `n > cores`
//! runnable tasks each receives `cores / n` of a core, which is the paper's
//! contention regime on storage nodes. Since every task gets the same rate,
//! `min(1, capacity / n)`, the CPU sits on [`ShareResource`]'s virtual-time
//! share: it tracks one accumulator and a heap of finish tags rather than
//! every task's progress, so submitting, interrupting or completing a kernel
//! costs O(log n) however many kernels share the node.

use simkit::share::RemovedTask;
use simkit::{ShareResource, SimTime, TaskId};

/// A node's CPU, modelled as processor-sharing over `cores` cores.
#[derive(Debug, Clone)]
pub struct Cpu {
    res: ShareResource,
    cores: usize,
    capacity_factor: f64,
}

impl Cpu {
    pub fn new(cores: usize) -> Self {
        assert!(cores > 0, "a CPU needs at least one core");
        Cpu {
            res: ShareResource::new(cores as f64, 1.0),
            cores,
            capacity_factor: 1.0,
        }
    }

    pub fn cores(&self) -> usize {
        self.cores
    }

    /// Degrade (or restore) effective capacity to `factor * cores`, e.g. for
    /// an injected slowdown fault. Running tasks are re-shared at the new
    /// capacity from `now` on; the nominal core count is unchanged.
    /// `factor == 0.0` models a full stall: tasks run at rate 0 and report
    /// no upcoming completion until capacity is restored.
    pub fn set_capacity_factor(&mut self, now: SimTime, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "capacity factor {factor} outside [0, 1]"
        );
        if (factor - self.capacity_factor).abs() > f64::EPSILON {
            self.capacity_factor = factor;
            self.res.set_capacity(now, self.cores as f64 * factor);
        }
    }

    /// Current capacity factor (`1.0` when healthy).
    pub fn capacity_factor(&self) -> f64 {
        self.capacity_factor
    }

    /// Submit a task costing `core_seconds`; it runs at up to one core.
    pub fn submit(&mut self, now: SimTime, core_seconds: f64) -> TaskId {
        self.res.add(now, core_seconds)
    }

    /// Interrupt a task (DOSAS kernel demotion). Returns its residual
    /// core-seconds and progress fraction.
    pub fn interrupt(&mut self, now: SimTime, id: TaskId) -> Option<RemovedTask> {
        self.res.remove(now, id)
    }

    /// Earliest completion among running tasks (`None` when idle or fully
    /// stalled by a zero capacity factor).
    pub fn next_completion(&mut self) -> Option<SimTime> {
        self.res.next_completion()
    }

    /// Collect tasks finished by `now`.
    pub fn take_completed(&mut self, now: SimTime) -> Vec<TaskId> {
        self.res.take_completed(now)
    }

    /// Membership epoch: the completion timer's key.
    pub fn epoch(&self) -> u64 {
        self.res.epoch()
    }

    /// Churn and work counters of the underlying resource.
    pub fn fill_counters(&self) -> simkit::share::FillCounters {
        self.res.fill_counters()
    }

    /// Number of runnable tasks.
    #[cfg(test)]
    fn load(&self) -> usize {
        self.res.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn one_task_uses_one_core() {
        // 2 core-seconds on 4 idle cores still take 2 s: one core at most.
        let mut cpu = Cpu::new(4);
        let id = cpu.submit(SimTime::ZERO, 2.0);
        let t = cpu.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(cpu.take_completed(t), vec![id]);
    }

    #[test]
    fn tasks_fill_cores_then_share() {
        // Two tasks on two cores run at one core each and finish at 1 s.
        let mut cpu = Cpu::new(2);
        cpu.submit(SimTime::ZERO, 1.0);
        cpu.submit(SimTime::ZERO, 1.0);
        let t = cpu.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        // A third task forces sharing: 2 cores / 3 tasks, done at 1.5 s.
        let c = cpu.submit(SimTime::ZERO, 1.0);
        assert_eq!(cpu.load(), 3);
        let t = cpu.next_completion().unwrap();
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-9);
        let done = cpu.take_completed(t);
        assert_eq!(done.len(), 3);
        assert!(done.contains(&c));
    }

    #[test]
    fn contention_slows_completion_linearly() {
        // n identical kernels on 1 core finish at n * work — the paper's
        // storage-node contention effect.
        for n in [1usize, 2, 4, 8] {
            let mut cpu = Cpu::new(1);
            for _ in 0..n {
                cpu.submit(SimTime::ZERO, 1.6); // 128 MB Gaussian at 80 MB/s
            }
            let t = cpu.next_completion().unwrap();
            assert!(
                (t.as_secs_f64() - 1.6 * n as f64).abs() < 1e-6,
                "n={n}: {t}"
            );
        }
    }

    #[test]
    fn interrupt_reports_progress() {
        let mut cpu = Cpu::new(1);
        let id = cpu.submit(SimTime::ZERO, 4.0);
        let removed = cpu.interrupt(secs(1.0), id).unwrap();
        assert!((removed.progress - 0.25).abs() < 1e-9);
        assert!((removed.remaining - 3.0).abs() < 1e-9);
        assert_eq!(cpu.load(), 0);
    }

    #[test]
    fn capacity_factor_slows_and_recovers() {
        let mut cpu = Cpu::new(1);
        let id = cpu.submit(SimTime::ZERO, 2.0);
        // Half speed from t=1: 1.0 core-second done, 1.0 left at 0.5 → t=3.
        cpu.set_capacity_factor(secs(1.0), 0.5);
        let t = cpu.next_completion().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6);
        // Recover at t=2: 0.5 left at full speed → t=2.5.
        cpu.set_capacity_factor(secs(2.0), 1.0);
        assert!((cpu.capacity_factor() - 1.0).abs() < 1e-12);
        let t = cpu.next_completion().unwrap();
        assert!((t.as_secs_f64() - 2.5).abs() < 1e-6);
        assert_eq!(cpu.take_completed(t), vec![id]);
        assert_eq!(cpu.cores(), 1);
    }

    #[test]
    fn completion_collection() {
        let mut cpu = Cpu::new(2);
        let a = cpu.submit(SimTime::ZERO, 1.0);
        let _b = cpu.submit(SimTime::ZERO, 2.0);
        let t = cpu.next_completion().unwrap();
        assert_eq!(cpu.take_completed(t), vec![a]);
        assert_eq!(cpu.load(), 1);
    }
}
