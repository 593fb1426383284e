//! `serve`: the W&D serving plan built in set-up; each op serves one
//! seeded bursty MMPP stream through one replica.

use super::Workload;
use crate::record::Recorder;
use picasso_core::data::DatasetSpec;
use picasso_core::embedding::{EmbeddingTable, HybridHash};
use picasso_core::exec::{forward_latency_ns, prepare_serving, ServingPlan, TrainerOptions};
use picasso_core::serve::{serve, BatchPolicy, ReplicaConfig, ServeRun};
use picasso_core::sim::TrafficPlan;
use picasso_core::{ModelKind, Severity, Strategy};
use std::path::Path;

/// Admission bound of the replica.
pub const QUEUE: usize = 1024;

/// The traffic of one op: calm arrivals far under the replica's capacity
/// (about 58 k requests/s at full batches), bursts twice above it. The
/// 5 ms mean dwell gives a few hundred bursts per stream, so the work of
/// an op varies little from seed to seed.
pub fn traffic(seed: u64) -> String {
    format!("seed={seed};mmpp@5000:b120000:d5;users=3000000;zipf=105;ids=8;reqs=200000")
}

/// The plan, the stream and the replica settings of every op.
pub struct Serve {
    plan: ServingPlan,
    traffic: TrafficPlan,
    cfg: ReplicaConfig,
    /// Report digest of the first op; every later op must match it.
    digest: Option<u64>,
    last: Option<ServeRun>,
}

/// The checks every op's outcome must pass.
fn check(s: &Serve, run: &ServeRun) -> Vec<String> {
    let r = &run.report;
    let mut bad = Vec::new();
    if r.served + r.shed != s.traffic.requests {
        bad.push(format!(
            "served {} + shed {} != {} requests",
            r.served, r.shed, s.traffic.requests
        ));
    }
    if r.mean_batch() > s.cfg.policy.max_batch as f64 {
        bad.push(format!("mean batch {} above max_batch", r.mean_batch()));
    }
    if r.p50_ns > r.p99_ns {
        bad.push(format!("p50 {} ns above p99 {} ns", r.p50_ns, r.p99_ns));
    }
    let floor = forward_latency_ns(&s.plan.spec, s.plan.strategy, &s.plan.cfg, 1);
    if r.p50_ns < floor {
        bad.push(format!(
            "p50 {} ns below batch-1 forward latency {floor} ns",
            r.p50_ns
        ));
    }
    let lookups = r.served * s.traffic.ids_per_request as u64;
    if r.cache_hot_hits + r.cache_cold_hits > lookups {
        bad.push(format!(
            "{} cache hits exceed {lookups} lookups",
            r.cache_hot_hits + r.cache_cold_hits
        ));
    }
    if r.shed == 0 {
        bad.push("no request was shed".into());
    }
    let depth = run.latency.queue_depth().iter().map(|&(_, d)| d).max();
    if depth.unwrap_or(0) as usize > QUEUE {
        bad.push(format!("queue depth {depth:?} above the bound {QUEUE}"));
    }
    if let Some(d) = s.digest {
        if d != r.digest() {
            bad.push(format!(
                "digest {:016x} differs from the first op's {d:016x}",
                r.digest()
            ));
        }
    }
    bad
}

impl Workload for Serve {
    fn setup(seed: u64, _out: &Path, rec: &mut Recorder) -> Result<Self, String> {
        let traffic: TrafficPlan = traffic(seed).parse()?;
        let data = DatasetSpec::criteo().shared();
        let opts = TrainerOptions {
            batch_per_executor: Some(256),
            ..Default::default()
        };
        let plan = rec
            .span("exec.serving_plan", || {
                prepare_serving(
                    ModelKind::WideDeep,
                    &data,
                    Strategy::Hybrid,
                    &opts,
                    Some(QUEUE),
                )
            })
            .map_err(|e| e.to_string())?;
        if let Some(d) = plan
            .diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
        {
            return Err(format!("serving plan: error diagnostic {}", d.rule));
        }
        let cfg = ReplicaConfig {
            policy: BatchPolicy {
                max_batch: 256,
                max_linger_ns: 1_000_000,
            },
            queue_capacity: Some(QUEUE),
            ..ReplicaConfig::default()
        };
        Ok(Serve {
            plan,
            traffic,
            cfg,
            digest: None,
            last: None,
        })
    }

    fn op(&mut self, rec: &mut Recorder) -> Vec<String> {
        self.last = None;
        let run = rec.span("serve.serve", || {
            serve(&self.plan, &self.traffic, &self.cfg, "bench")
        });
        let bad = check(self, &run);
        self.digest.get_or_insert(run.report.digest());
        let r = &run.report;
        rec.value("serve.batches", r.batches as f64);
        rec.value("serve.shed", r.shed as f64);
        rec.value("serve.sim_p50_ms", r.p50_ns as f64 / 1e6);
        rec.value("serve.sim_p99_ms", r.p99_ns as f64 / 1e6);
        rec.value("serve.sim_capacity_rps", r.capacity_rps());
        rec.value("embedding.hit_ratio", r.cache_hit_ratio());
        self.last = Some(run);
        bad
    }

    fn probe(&mut self, rec: &mut Recorder) {
        // The op is one `serve::serve` call. Replay its traffic generation,
        // then its cache lookups: the served requests' IDs in as many
        // equal batches as the replica ran, through a fresh HybridHash
        // with the replica's settings (same counts, not the same batch
        // membership). The replica's own loop is the remainder.
        let Some(run) = &self.last else { return };
        let (served, batches) = (run.report.served as usize, run.report.batches as usize);
        let requests = rec.span("sim.traffic", || {
            self.traffic.generator().map(|r| r.ids).collect::<Vec<_>>()
        });
        let per_batch = served.div_ceil(batches.max(1)).max(1);
        let ids: Vec<Vec<u64>> = requests[..served.min(requests.len())]
            .chunks(per_batch)
            .map(|c| c.concat())
            .collect();
        rec.span("embedding.lookup", || {
            let mut cache = HybridHash::new(
                EmbeddingTable::new(self.cfg.cache_dim.max(1), self.traffic.seed),
                self.cfg.cache.clone(),
            );
            let mut out = Vec::new();
            for batch in &ids {
                out.clear();
                cache.lookup_batch(batch, &mut out);
            }
            cache.stats()
        });
        let replica = rec
            .cost("serve.serve")
            .minus(&[rec.cost("sim.traffic"), rec.cost("embedding.lookup")]);
        rec.add("serve.replica", replica);
    }

    fn self_test(&mut self) -> Result<(), String> {
        let mut run = self.last.take().ok_or("no serving run kept")?;
        if !check(self, &run).is_empty() {
            return Err("serving checks fire on an intact run".into());
        }
        run.report.shed += 1;
        let fired = !check(self, &run).is_empty();
        run.report.shed -= 1;
        self.last = Some(run);
        if fired {
            Ok(())
        } else {
            Err("served + shed check missed a miscounted shed".into())
        }
    }

    fn sim_ips(&self) -> f64 {
        // A saturated replica's simulated throughput: full batches back to
        // back at the plan's analytic forward latency. It depends on the
        // plan alone, not on the seeded stream.
        let b = self.cfg.policy.max_batch;
        let ns = forward_latency_ns(&self.plan.spec, self.plan.strategy, &self.plan.cfg, b);
        b as f64 / (ns as f64 / 1e9)
    }
}
