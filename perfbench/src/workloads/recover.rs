//! `recover`: the `crash_recover` plan through `exec::run_recovery`, beside
//! an uninterrupted run, with every committed checkpoint read back.

use super::Workload;
use crate::record::Recorder;
use picasso_bench::scenarios::recovery_scenarios;
use picasso_core::ckpt::{CheckpointKind, CheckpointStore};
use picasso_core::data::DatasetSpec;
use picasso_core::exec::{lint_recovery, run_recovery, RecoveryOptions, RecoveryRun};
use picasso_core::sim::{FaultKind, FaultPlan};
use picasso_core::train::auc_datasets;
use picasso_core::Severity;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Instances per training step. The `crash_recover` scenario trains 16 per
/// step, which leaves the op to file creation (about 120 files per op at
/// 0.2–0.7 ms each on an ext4 root disk, varying between runs); 2048 makes
/// training and the checkpoint codec nearly all of it.
pub const BATCH: usize = 2048;

/// Inputs of every op and the last op's outcome.
pub struct Recover {
    data: Arc<DatasetSpec>,
    /// The faulted run: crash plan plus an incremental checkpoint chain.
    chained: RecoveryOptions,
    /// The uninterrupted run: no faults, and a full checkpoint at each step
    /// where the chain writes an incremental one (every second cadence
    /// step), to compare the two.
    full: RecoveryOptions,
    crash_iter: u64,
    full_dir: PathBuf,
    chain_dir: PathBuf,
    last: Option<Outcome>,
}

struct Outcome {
    base: RecoveryRun,
    faulted: RecoveryRun,
    /// Committed checkpoints read back and their bytes, or the first
    /// failure.
    verified: Result<(usize, u64), String>,
}

/// Reads back every committed checkpoint of `store`: manifest, then the
/// restore chain, whose links are each validated (length and checksum of
/// every shard).
fn verify(store: &CheckpointStore) -> Result<(usize, u64), String> {
    let steps = store.steps();
    let mut bytes = 0;
    for &step in &steps {
        let m = store.manifest(step).map_err(|e| e.to_string())?;
        store.chain(&m).map_err(|e| format!("step {step}: {e}"))?;
        bytes += m.total_bytes();
    }
    Ok((steps.len(), bytes))
}

fn check(crash_iter: u64, o: &Outcome) -> Vec<String> {
    let mut bad = Vec::new();
    if o.faulted.final_digest != o.base.final_digest {
        bad.push(format!(
            "recovered digest {:016x} != uninterrupted {:016x}",
            o.faulted.final_digest, o.base.final_digest
        ));
    }
    if o.faulted.recoveries.is_empty() {
        bad.push("the crash plan caused no recovery".into());
    }
    for r in &o.faulted.recoveries {
        if r.at_iter != crash_iter
            || r.lost_iterations != crash_iter - r.restored_step.min(crash_iter)
        {
            bad.push(format!(
                "crash at {} restored step {} but lost {} iterations",
                r.at_iter, r.restored_step, r.lost_iterations
            ));
        }
    }
    match &o.verified {
        Ok((0, _)) => bad.push("no committed checkpoint to read back".into()),
        Ok(_) => {}
        Err(e) => bad.push(format!("committed checkpoint fails validation: {e}")),
    }
    let mut incrementals = 0;
    for c in &o.faulted.checkpoints {
        if c.kind != CheckpointKind::Incremental {
            continue;
        }
        incrementals += 1;
        let full = o
            .base
            .checkpoints
            .iter()
            .find(|f| f.step == c.step && f.kind == CheckpointKind::Full);
        match full {
            Some(f) if c.bytes < f.bytes => {}
            Some(f) => bad.push(format!(
                "incremental at step {} ({} B) not smaller than the full one ({} B)",
                c.step, c.bytes, f.bytes
            )),
            None => bad.push(format!("no full checkpoint at step {}", c.step)),
        }
    }
    if incrementals == 0 {
        bad.push("the chain holds no incremental checkpoint".into());
    }
    bad
}

/// Opens the store at `dir` with every file of the previous op removed.
/// The directory itself is kept, so each op creates the same names in the
/// same directory.
fn fresh_store(dir: &Path) -> Result<CheckpointStore, String> {
    let err = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(err)?;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        std::fs::remove_file(entry.map_err(err)?.path()).map_err(err)?;
    }
    CheckpointStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

impl Recover {
    fn run(&mut self, rec: &mut Recorder) -> Vec<String> {
        self.last = None;
        let stores =
            fresh_store(&self.full_dir).and_then(|f| Ok((f, fresh_store(&self.chain_dir)?)));
        let (full_store, chain_store) = match stores {
            Ok(s) => s,
            Err(e) => return vec![e],
        };
        let base = rec.span("train.run", || {
            run_recovery(&self.data, Some(&full_store), &self.full)
        });
        let faulted = rec.span("exec.recover", || {
            run_recovery(&self.data, Some(&chain_store), &self.chained)
        });
        let verified = rec.span("ckpt.verify", || verify(&chain_store));
        let (base, faulted) = match (base, faulted) {
            (Ok(b), Ok(f)) => (b, f),
            (Err(e), _) | (_, Err(e)) => return vec![e.to_string()],
        };
        let o = Outcome {
            base,
            faulted,
            verified,
        };
        let bad = check(self.crash_iter, &o);
        rec.value("sim.recover_s", o.faulted.time_to_recover_s());
        if let Ok((_, bytes)) = o.verified {
            rec.value("ckpt.bytes", bytes as f64);
        }
        self.last = Some(o);
        bad
    }
}

impl Workload for Recover {
    fn setup(seed: u64, out: &Path, rec: &mut Recorder) -> Result<Self, String> {
        // Set-up is the inputs, the plan's static analysis and one warm op.
        let sc = recovery_scenarios()
            .into_iter()
            .next()
            .ok_or("no recovery scenario")?;
        let mut chained = sc.opts;
        chained.seed = seed;
        chained.batch_size = BATCH;
        if let Some(d) = lint_recovery(&chained)
            .into_iter()
            .find(|d| d.severity == Severity::Error)
        {
            return Err(format!("recovery plan: error diagnostic {}", d.rule));
        }
        let crash_iter = chained
            .fault_plan
            .events
            .iter()
            .find(|e| matches!(e.kind, FaultKind::WorkerCrash { .. }))
            .map(|e| e.at_iter)
            .ok_or("the recovery plan schedules no crash")?;
        let full = RecoveryOptions {
            fault_plan: FaultPlan::none(),
            full_every: 1,
            ckpt_every: chained.ckpt_every * 2,
            ..chained.clone()
        };
        let mut w = Recover {
            data: auc_datasets::criteo_like(),
            chained,
            full,
            crash_iter,
            full_dir: out.join("ckpt-full"),
            chain_dir: out.join("ckpt-chain"),
            last: None,
        };
        match w.run(rec).first() {
            Some(first) => Err(format!("warm op failed its checks: {first}")),
            None => Ok(w),
        }
    }

    fn op(&mut self, rec: &mut Recorder) -> Vec<String> {
        let bad = self.run(rec);
        let recovery = rec.cost("exec.recover").minus(&[rec.cost("train.run")]);
        rec.add("exec.recovery", recovery);
        bad
    }

    fn self_test(&mut self) -> Result<(), String> {
        let o = self.last.as_mut().ok_or("no recovery outcome kept")?;
        if !check(self.crash_iter, o).is_empty() {
            return Err("recovery checks fire on an intact outcome".into());
        }
        o.faulted.final_digest ^= 1;
        let fired = !check(self.crash_iter, o).is_empty();
        o.faulted.final_digest ^= 1;
        if fired {
            Ok(())
        } else {
            Err("digest check missed a corrupted recovered state".into())
        }
    }

    fn sim_ips(&self) -> f64 {
        // Instances trained per simulated second of the faulted run, the
        // crash's detection, restore and lost work included.
        match &self.last {
            Some(o) if o.faulted.sim_time_s > 0.0 => {
                (self.chained.iterations as f64 * self.chained.batch_size as f64)
                    / o.faulted.sim_time_s
            }
            _ => 0.0,
        }
    }
}

impl Drop for Recover {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only disk space.
        let _ = std::fs::remove_dir_all(&self.full_dir);
        let _ = std::fs::remove_dir_all(&self.chain_dir);
    }
}
