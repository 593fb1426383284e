//! `ablation`: the perf suite's 8-rung ladder through `exec::run` at one
//! machine, with fresh `Session`s every op.

use super::{check_deps, check_ips, combined_ips, corrupt_deps, Workload};
use crate::record::Recorder;
use picasso_bench::scenarios::{perf_scenarios, suite_config, Scenario};
use picasso_core::data::BatchGenerator;
use picasso_core::exec::{self, run_warmup, stage_lints, RunArtifacts, SimConfig, TrainingReport};
use picasso_core::graph::graph_stats;
use picasso_core::{PassId, PicassoConfig, Session, Severity, Strategy};
use std::path::Path;

/// The ladder's shape and its seeded inputs.
pub struct Ablation {
    config: PicassoConfig,
    ladder: Vec<Scenario>,
    /// The last op's artifacts, one per rung.
    runs: Vec<RunArtifacts>,
}

/// The suite's session shape with the warm-up ID stream seeded from the
/// benchmark seed.
pub fn seeded_config(seed: u64) -> PicassoConfig {
    let mut config = suite_config();
    config.warmup.seed = seed;
    config
}

/// The simulation shape `exec::run` used for `art`.
pub fn sim_config(config: &PicassoConfig, art: &RunArtifacts) -> SimConfig {
    SimConfig {
        batch_per_executor: art.report.batch_per_executor,
        iterations: config.iterations,
        machines: config.machines,
        machine: config.machine.clone(),
        quantized_comm: config.quantized_comm,
    }
}

/// Checks every rung plus the ladder's packing claim (Tab. IV–V): `+pack`
/// has fewer ops and a higher simulated IPS than `base`, per model.
fn check_ladder(ladder: &[Scenario], runs: &[RunArtifacts]) -> Vec<String> {
    let mut bad = Vec::new();
    for (sc, art) in ladder.iter().zip(runs) {
        bad.extend(check_deps(&sc.name, &art.output));
        bad.extend(check_ips(&sc.name, art.report.ips_per_node, &art.output));
        if let Some(d) = art.lint.iter().find(|d| d.severity == Severity::Error) {
            bad.push(format!("{}: error diagnostic {}", sc.name, d.rule));
        }
    }
    for model in ["wdl", "can"] {
        let find = |rung: &str| {
            ladder
                .iter()
                .position(|s| s.name == format!("{model}_{rung}"))
                .map(|i| &runs[i].report)
        };
        match (find("base"), find("pack")) {
            (Some(base), Some(pack)) => {
                if pack.op_stats.total_ops >= base.op_stats.total_ops
                    || pack.ips_per_node <= base.ips_per_node
                {
                    bad.push(format!(
                        "{model}: +pack ({} ops, {} IPS) does not beat base ({} ops, {} IPS)",
                        pack.op_stats.total_ops,
                        pack.ips_per_node,
                        base.op_stats.total_ops,
                        base.ips_per_node
                    ));
                }
            }
            _ => bad.push(format!("{model}: ladder lacks a base or +pack rung")),
        }
    }
    bad
}

impl Ablation {
    fn run_ladder(&mut self, rec: &mut Recorder) -> Vec<String> {
        let mut bad = Vec::new();
        self.runs.clear();
        let mut passes_ns = 0u64;
        for sc in &self.ladder {
            let session = Session::new(sc.model, self.config.clone());
            let run = rec.span("exec.run", || {
                session.try_run_custom(Strategy::Hybrid, sc.pipeline.clone(), &sc.name)
            });
            match run {
                Ok(art) => {
                    passes_ns += art.pass_reports.iter().map(|p| p.duration_ns).sum::<u64>();
                    self.runs.push(art);
                }
                Err(e) => bad.push(format!("{}: {e}", sc.name)),
            }
        }
        if !bad.is_empty() {
            return bad;
        }
        rec.add(
            "graph.passes",
            crate::record::Cost {
                ns: passes_ns as f64,
                ..Default::default()
            },
        );
        bad.extend(check_ladder(&self.ladder, &self.runs));
        bad
    }

    fn guard(&self, name: &str) -> Option<&RunArtifacts> {
        let i = self.ladder.iter().position(|s| s.name == name)?;
        self.runs.get(i)
    }
}

impl Workload for Ablation {
    fn setup(seed: u64, _out: &Path, rec: &mut Recorder) -> Result<Self, String> {
        // Set-up is the ladder's inputs plus one warm ladder, so work that
        // moves out of the ops into process-wide state shows up here.
        let mut w = Ablation {
            config: seeded_config(seed),
            ladder: perf_scenarios(),
            runs: Vec::new(),
        };
        let bad = w.run_ladder(rec);
        match bad.first() {
            Some(first) => Err(format!("warm ladder failed its checks: {first}")),
            None => Ok(w),
        }
    }

    fn op(&mut self, rec: &mut Recorder) -> Vec<String> {
        let bad = self.run_ladder(rec);
        if bad.is_empty() {
            if let (Some(w), Some(c)) = (self.guard("wdl_cache"), self.guard("can_cache")) {
                rec.value("sim.ips_wdl", w.report.ips_per_node);
                rec.value("sim.ips_can", c.report.ips_per_node);
            }
            let tasks: usize = self
                .runs
                .iter()
                .map(|a| a.output.result.records.len())
                .sum();
            rec.value("sim.tasks", tasks as f64);
        }
        bad
    }

    fn probe(&mut self, rec: &mut Recorder) {
        // The op reaches every planning layer through one `exec::run` per
        // rung; these calls repeat each layer with the op's inputs.
        let mut ids = 0usize;
        for (sc, art) in self.ladder.iter().zip(&self.runs) {
            let data = sc.model.default_dataset().shared();
            let opts = self.config.trainer_options();
            let mut wcfg = opts.warmup.clone();
            wcfg.hot_bytes = if sc.pipeline.enables(PassId::Caching) {
                opts.hot_bytes
            } else {
                0
            };
            ids += rec.span("data.batch", || {
                let mut gen =
                    BatchGenerator::with_max_vocab(data.clone(), wcfg.seed, wcfg.max_vocab);
                (0..wcfg.batches)
                    .map(|_| gen.next_batch(wcfg.batch_size).total_ids())
                    .sum::<usize>()
            });
            rec.span("exec.warmup", || run_warmup(&data, &wcfg));
            let _ = rec.span("exec.lint", || {
                exec::lint(
                    sc.model,
                    &data,
                    Strategy::Hybrid,
                    sc.pipeline.clone(),
                    &opts,
                )
            });
            let cfg = sim_config(&self.config, art);
            rec.span("exec.stage_lint", || {
                stage_lints(&art.spec, Strategy::Hybrid, &cfg)
            });
            let Ok(out) = rec.span("sim.simulate", || {
                exec::simulate(&art.spec, Strategy::Hybrid, &cfg)
            }) else {
                continue;
            };
            rec.span("exec.report", || {
                TrainingReport::from_simulation(
                    &sc.name,
                    art.spec.name.clone(),
                    &out,
                    graph_stats(&art.spec),
                    art.report.micro_batches,
                    art.report.groups,
                    art.report.cache_hit_ratio,
                )
            });
        }
        let plan = rec.cost("exec.lint").minus(&[rec.cost("exec.warmup")]);
        rec.add("exec.plan", plan);
        rec.value("data.ids", ids as f64);
    }

    fn self_test(&mut self) -> Result<(), String> {
        let out = &mut self.runs.first_mut().ok_or("no rung output kept")?.output;
        if check_deps("self-test", out).is_some() {
            return Err("dependency check fires on an intact output".into());
        }
        if !corrupt_deps(out) {
            return Err("no task with a dependency to corrupt".into());
        }
        match check_deps("self-test", out) {
            Some(_) => Ok(()),
            None => Err("dependency check missed a task started before its dependency".into()),
        }
    }

    fn sim_ips(&self) -> f64 {
        match (self.guard("wdl_cache"), self.guard("can_cache")) {
            (Some(w), Some(c)) => combined_ips(&[&w.output, &c.output]),
            _ => 0.0,
        }
    }
}
