//! Timing and tracing of layer calls made from the benchmark.
//!
//! Every call into the program goes through [`Recorder::span`], which times
//! it. In a traced run the span is also recorded on an
//! [`obs::Tracer<WallClock>`](picasso_core::obs::Tracer) (one track per
//! layer, rendered through `obs::chrome`), and the counting allocator's
//! totals are read at both ends, so each span carries its self time and
//! self allocations (its own minus those of the spans nested inside it).

use crate::host;
use picasso_core::obs::chrome::ChromeTrace;
use picasso_core::obs::{Clock, Tracer, WallClock};
use std::collections::BTreeMap;
use std::time::Instant;

/// Time and allocations of one name over one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Host nanoseconds (raw until [`Recorder::finish`] normalizes it).
    pub ns: f64,
    /// Bytes requested from the allocator.
    pub bytes: f64,
    /// Allocation calls.
    pub allocs: f64,
}

impl Cost {
    fn add(&mut self, o: Cost) {
        self.ns += o.ns;
        self.bytes += o.bytes;
        self.allocs += o.allocs;
    }

    /// `self − a − b − ...`, field by field.
    pub fn minus(self, others: &[Cost]) -> Cost {
        let mut c = self;
        for o in others {
            c.ns -= o.ns;
            c.bytes -= o.bytes;
            c.allocs -= o.allocs;
        }
        c
    }
}

struct Frame {
    name: &'static str,
    start_ns: u64,
    start_alloc: (u64, u64),
    child: Cost,
}

/// Self cost of one span name over the whole run, for the layer table.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfCost {
    /// Calls made.
    pub calls: u64,
    /// Summed inclusive cost.
    pub total: Cost,
    /// Summed self cost (inclusive minus nested spans).
    pub own: Cost,
}

/// Collects per-round costs of named spans.
pub struct Recorder {
    traced: bool,
    tracer: Tracer<WallClock>,
    stack: Vec<Frame>,
    depth: usize,
    top: Cost,
    round: BTreeMap<&'static str, Cost>,
    blocks: Vec<Vec<BTreeMap<&'static str, Cost>>>,
    /// Normalized per-round costs, one entry per finished round.
    pub rounds: Vec<BTreeMap<&'static str, Cost>>,
    /// Exact values (counts and simulated figures) the workload reports.
    pub values: BTreeMap<&'static str, f64>,
    /// Self cost per span name, summed over the run (traced runs only).
    pub table: BTreeMap<&'static str, SelfCost>,
}

impl Recorder {
    /// A recorder; `traced` turns on spans and allocation accounting.
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            traced,
            tracer: Tracer::new(WallClock::new()),
            stack: Vec::new(),
            depth: 0,
            top: Cost::default(),
            round: BTreeMap::new(),
            blocks: Vec::new(),
            rounds: Vec::new(),
            values: BTreeMap::new(),
            table: BTreeMap::new(),
        }
    }

    /// Whether this is the traced run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Times `f` under `name` (a `layer.what` string), adding its cost to
    /// the current round.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if self.traced {
            self.stack.push(Frame {
                name,
                start_ns: self.tracer.clock().now_ns(),
                start_alloc: host::alloc_totals(),
                child: Cost::default(),
            });
        }
        self.depth += 1;
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as f64;
        self.depth -= 1;
        if !self.traced {
            if self.depth == 0 {
                self.top.ns += ns;
            }
            self.round.entry(name).or_default().ns += ns;
            return out;
        }
        let end_ns = self.tracer.clock().now_ns();
        let (bytes, allocs) = host::alloc_totals();
        let frame = self.stack.pop().expect("span frames are balanced");
        let total = Cost {
            ns,
            bytes: (bytes - frame.start_alloc.0) as f64,
            allocs: (allocs - frame.start_alloc.1) as f64,
        };
        let own = total.minus(&[frame.child]);
        match self.stack.last_mut() {
            Some(parent) => parent.child.add(total),
            None => self.top.add(total),
        }
        self.round.entry(name).or_default().add(total);
        let row = self.table.entry(name).or_default();
        row.calls += 1;
        row.total.add(total);
        row.own.add(own);
        let track = name.split('.').next().unwrap_or(name);
        self.tracer
            .record_span(track, frame.name, frame.start_ns, end_ns, &[]);
        out
    }

    /// Summed cost of the outermost spans since the last call (time only
    /// in an untraced run).
    pub fn take_top(&mut self) -> Cost {
        std::mem::take(&mut self.top)
    }

    /// The current round's cost of `name` so far.
    pub fn cost(&self, name: &str) -> Cost {
        self.round.get(name).copied().unwrap_or_default()
    }

    /// Adds a derived cost (e.g. a difference of two spans) to the round.
    pub fn add(&mut self, name: &'static str, c: Cost) {
        self.round.entry(name).or_default().add(c);
    }

    /// Records an exact value.
    pub fn value(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    /// Closes the current round.
    pub fn end_round(&mut self) {
        let round = std::mem::take(&mut self.round);
        if let Some(block) = self.blocks.last_mut() {
            block.push(round);
        }
    }

    /// Starts a block: the rounds between two reference-kernel samples.
    pub fn begin_block(&mut self) {
        self.blocks.push(Vec::new());
    }

    /// Normalizes block `b`'s rounds by `scales[b]` (nominal over measured
    /// reference-kernel time), files them in `rounds`, and starts afresh.
    pub fn finish(&mut self, scales: &[f64]) {
        for (mut block, scale) in self.blocks.drain(..).zip(scales) {
            for round in &mut block {
                for c in round.values_mut() {
                    c.ns *= scale;
                }
            }
            self.rounds.append(&mut block);
        }
        self.blocks.clear();
        self.round.clear();
    }

    /// Records a span that was timed elsewhere (the reference kernel).
    pub fn mark(&self, name: &str, start_ns: u64, end_ns: u64) {
        if self.traced {
            let track = name.split('.').next().unwrap_or(name);
            self.tracer.record_span(track, name, start_ns, end_ns, &[]);
        }
    }

    /// Nanoseconds on the tracer's clock.
    pub fn now_ns(&self) -> u64 {
        self.tracer.clock().now_ns()
    }

    /// The recorded spans as a Chrome trace document.
    pub fn chrome_json(&self) -> String {
        let mut t = ChromeTrace::new();
        t.add_tracer(&self.tracer);
        t.to_json()
    }
}
