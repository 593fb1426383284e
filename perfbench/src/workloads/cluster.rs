//! `cluster`: the two full-PICASSO rungs planned at 16 machines in set-up;
//! each op simulates, reports, analyzes and exports both.

use super::ablation::{seeded_config, sim_config};
use super::{check_deps, check_ips, combined_ips, Workload};
use crate::record::Recorder;
use picasso_bench::scenarios::perf_scenarios;
use picasso_core::exec::{self, SimConfig, SimulationOutput, TrainingReport};
use picasso_core::graph::{graph_stats, WdlSpec};
use picasso_core::obs::json;
use picasso_core::{Severity, Strategy};
use std::path::Path;

/// Worker machines of every cluster op.
pub const MACHINES: usize = 16;

/// One planned rung: everything `exec::run` derived before simulating.
struct Planned {
    name: String,
    spec: WdlSpec,
    cfg: SimConfig,
    micro: usize,
    groups: usize,
    hit: f64,
}

/// The planned rungs and the last op's outputs.
pub struct Cluster {
    plans: Vec<Planned>,
    outs: Vec<SimulationOutput>,
    /// The last op's Chrome JSON of the first rung, for the self-test.
    json: String,
}

impl Workload for Cluster {
    fn setup(seed: u64, _out: &Path, rec: &mut Recorder) -> Result<Self, String> {
        let config = seeded_config(seed).machines(MACHINES);
        let mut plans = Vec::new();
        for sc in perf_scenarios() {
            if !sc.name.ends_with("_cache") {
                continue;
            }
            let session = picasso_core::Session::new(sc.model, config.clone());
            let art = rec
                .span("exec.plan", || {
                    session.try_run_custom(Strategy::Hybrid, sc.pipeline.clone(), &sc.name)
                })
                .map_err(|e| format!("{}: {e}", sc.name))?;
            if let Some(d) = art.lint.iter().find(|d| d.severity == Severity::Error) {
                return Err(format!("{}: error diagnostic {}", sc.name, d.rule));
            }
            plans.push(Planned {
                cfg: sim_config(&config, &art),
                micro: art.report.micro_batches,
                groups: art.report.groups,
                hit: art.report.cache_hit_ratio,
                spec: art.spec,
                name: sc.name,
            });
        }
        Ok(Cluster {
            plans,
            outs: Vec::new(),
            json: String::new(),
        })
    }

    fn op(&mut self, rec: &mut Recorder) -> Vec<String> {
        let mut bad = Vec::new();
        self.outs.clear();
        let (mut tasks, mut trace_bytes) = (0usize, 0usize);
        for (i, p) in self.plans.iter().enumerate() {
            let out = match rec.span("sim.simulate", || {
                exec::simulate(&p.spec, Strategy::Hybrid, &p.cfg)
            }) {
                Ok(out) => out,
                Err(e) => {
                    bad.push(format!("{}: {e}", p.name));
                    continue;
                }
            };
            let report = rec.span("exec.report", || {
                TrainingReport::from_simulation(
                    &p.name,
                    p.spec.name.clone(),
                    &out,
                    graph_stats(&p.spec),
                    p.micro,
                    p.groups,
                    p.hit,
                )
            });
            let analysis = rec.span("exec.analyze", || {
                exec::analyze_run(
                    &out,
                    p.spec.micro_batches.max(1),
                    p.spec.group_count().max(1),
                )
            });
            let trace = rec.span("exec.chrome", || exec::chrome_trace(&out));
            let text = rec.span("obs.chrome_json", || trace.to_json());
            drop(trace);

            bad.extend(check_deps(&p.name, &out));
            bad.extend(check_ips(&p.name, report.ips_per_node, &out));
            if let Err(e) = json::parse(&text) {
                bad.push(format!("{}: Chrome JSON does not re-parse: {e:?}", p.name));
            }
            let longest = out
                .result
                .records
                .iter()
                .map(|r| r.end.0 - r.start.0)
                .max()
                .unwrap_or(0);
            if analysis.critical_len_ns < longest || analysis.critical_len_ns > analysis.makespan_ns
            {
                bad.push(format!(
                    "{}: critical path {} ns outside [longest task {longest} ns, makespan {} ns]",
                    p.name, analysis.critical_len_ns, analysis.makespan_ns
                ));
            }
            tasks += out.result.records.len();
            trace_bytes += text.len();
            rec.value(
                if i == 0 { "sim.ips_wdl" } else { "sim.ips_can" },
                report.ips_per_node,
            );
            if i == 0 {
                self.json = text;
            }
            self.outs.push(out);
        }
        rec.value("sim.tasks", tasks as f64);
        rec.value("obs.trace_kb", trace_bytes as f64 / 1024.0);
        bad
    }

    fn self_test(&mut self) -> Result<(), String> {
        if json::parse(&self.json).is_err() {
            return Err("Chrome JSON check fires on an intact trace".into());
        }
        self.json.pop();
        match json::parse(&self.json) {
            Err(_) => Ok(()),
            Ok(_) => Err("Chrome JSON check missed a truncated trace".into()),
        }
    }

    fn sim_ips(&self) -> f64 {
        let outs: Vec<&SimulationOutput> = self.outs.iter().collect();
        if outs.len() == self.plans.len() {
            combined_ips(&outs)
        } else {
            0.0
        }
    }
}
