//! The four workloads and the output checks they share.

pub mod ablation;
pub mod cluster;
pub mod recover;
pub mod serve;

use crate::record::Recorder;
use picasso_core::exec::SimulationOutput;
use std::path::Path;

/// One workload: set-up from a seed, then repeated ops of identical work.
pub trait Workload: Sized {
    /// Builds the workload's inputs and plans from `seed`, writing any
    /// files under `out`. This is what `setup_s` times.
    fn setup(seed: u64, out: &Path, rec: &mut Recorder) -> Result<Self, String>;

    /// Runs one op. Program calls go through `rec.span`, so the op's time
    /// excludes the checks; returns one message per violated check.
    fn op(&mut self, rec: &mut Recorder) -> Vec<String>;

    /// The traced run's extra calls with the op's inputs, for layers the
    /// op reaches only through one program call.
    fn probe(&mut self, _rec: &mut Recorder) {}

    /// Corrupts one output kept from the last op and confirms a check
    /// reports it.
    fn self_test(&mut self) -> Result<(), String>;

    /// Simulated throughput of the last op, instances per second.
    fn sim_ips(&self) -> f64;
}

/// Every executed stage must start no earlier than each of its causal
/// dependencies ended.
pub fn check_deps(label: &str, out: &SimulationOutput) -> Option<String> {
    for st in &out.causal {
        let start = out.result.record(st.task).start;
        for &dep in &st.deps {
            let end = out.result.record(dep).end;
            if start < end {
                return Some(format!(
                    "{label}: task {} starts at {} ns before dependency {} ends at {} ns",
                    st.task.0, start.0, dep.0, end.0
                ));
            }
        }
    }
    None
}

/// The reported IPS must equal batch × executors × iterations over the
/// latest task end over machines, recomputed from the engine records.
pub fn check_ips(label: &str, reported: f64, out: &SimulationOutput) -> Option<String> {
    let end = out.result.records.iter().map(|r| r.end).max()?;
    let secs = end.as_secs_f64();
    let ips = (out.batch * out.executors * out.iterations) as f64 / secs / out.machines as f64;
    if secs > 0.0 && (ips - reported).abs() <= 1e-9 * ips.abs() {
        None
    } else {
        Some(format!(
            "{label}: reported IPS {reported} but the records give {ips}"
        ))
    }
}

/// Instances per second per node of several training jobs run back to
/// back: all their instances over all their simulated makespans.
pub fn combined_ips(outs: &[&SimulationOutput]) -> f64 {
    let instances: f64 = outs
        .iter()
        .map(|o| (o.batch * o.executors * o.iterations) as f64)
        .sum();
    let secs: f64 = outs.iter().map(|o| o.result.makespan.as_secs_f64()).sum();
    let machines = outs.first().map(|o| o.machines).unwrap_or(1).max(1);
    instances / secs / machines as f64
}

/// Moves one task of `out` to start before its first dependency ends, so
/// [`check_deps`] must fire. Returns whether a task with a dependency
/// existed.
pub fn corrupt_deps(out: &mut SimulationOutput) -> bool {
    let Some(st) = out.causal.iter().find(|s| !s.deps.is_empty()) else {
        return false;
    };
    let dep_end = out.result.record(st.deps[0]).end;
    let (task, early) = (st.task.0, dep_end.0.saturating_sub(1));
    out.result.records[task].start.0 = early;
    true
}
