//! `map-exact`: the user's compile. `run_flow` with default options runs
//! HlsTool, MappedHeuristic and MilpBase on all nine suite benchmarks and
//! MilpMap on the three that prove optimal at one job (CLZ, DR, GSM);
//! one incremental sweep (see `crate::sweep`) ends each pass. The 27
//! short compiles run once before each MilpMap compile, three times a
//! pass, but count towards the pass's QoR and counters once. Every MILP
//! must end proven optimal, so nodes, LP iterations, objective and bound
//! repeat exactly and the wall time measures only the code.

use pipemap_bench_suite::Benchmark;
use pipemap_core::{run_flow, Flow, FlowOptions, MilpStats};
use pipemap_milp::Status;

use crate::check::check_design;
use crate::sweep::Sweep;
use crate::workload::{
    input_seed, sample_repeated, PassOut, Tracer, Workload, ALPHA, BETA, NEVER_BINDING_LIMIT,
};

/// Benchmarks whose MilpMap solve proves optimal in seconds at one job.
const EXACT_MAP: [&str; 3] = ["CLZ", "DR", "GSM"];

struct Compile {
    name: String,
    bench: usize,
    flow: Flow,
    seed: u64,
}

pub struct MapExact {
    benches: Vec<Benchmark>,
    compiles: Vec<Compile>,
    opts: FlowOptions,
    sweep: Sweep,
}

impl MapExact {
    pub fn new(mut corpus: Vec<Benchmark>, seed: u64) -> Result<MapExact, String> {
        corpus.truncate(crate::corpus::SUITE_LEN);
        let benches = corpus;
        let clz = benches.iter().find(|b| b.name == "CLZ");
        let sweep = Sweep::new(clz.ok_or("the corpus has no CLZ")?.clone());
        let mut compiles = Vec::new();
        for (i, b) in benches.iter().enumerate() {
            let mut flows = vec![Flow::HlsTool, Flow::MappedHeuristic, Flow::MilpBase];
            if EXACT_MAP.contains(&b.name) {
                flows.push(Flow::MilpMap);
            }
            for flow in flows {
                let name = format!("{}/{}", b.name, flow.label());
                compiles.push(Compile {
                    seed: input_seed(seed, &name),
                    name,
                    bench: i,
                    flow,
                });
            }
        }
        let opts = FlowOptions {
            time_limit: NEVER_BINDING_LIMIT,
            jobs: 1,
            alpha: ALPHA,
            beta: BETA,
            ..FlowOptions::default()
        };
        Ok(MapExact {
            benches,
            compiles,
            opts,
            sweep,
        })
    }
}

impl MapExact {
    /// Compile `c` once and check the result. Its QoR, objective, bound,
    /// counters and solve time go into the pass only when `first`, so
    /// rates such as LP iterations per second stay per compile; a repeat
    /// adds only its sample and its checks.
    fn compile(&self, c: &Compile, first: bool, out: &mut PassOut, tr: Tracer) {
        let b = &self.benches[c.bench];
        out.attempted += 1;
        let (res, mut s) =
            sample_repeated(&c.name, || run_flow(&b.dfg, &b.target, c.flow, &self.opts));
        s.solver_bound = c.flow == Flow::MilpMap;
        out.samples.push(s);
        let r = match res {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{}: flow failed: {e}", c.name));
                return;
            }
        };
        let q = r.qor;
        let mut print = format!("{}: luts={} ffs={} cp={}", c.name, q.luts, q.ffs, q.cp_ns);
        let mut guard_ok = true;
        if first {
            out.design(&q);
            if let Some(p) = &r.analysis {
                out.count(
                    "analyze.nodes_removed",
                    (p.nodes_before - p.nodes_after) as f64,
                );
            }
        }
        match &r.milp {
            Some(m) => {
                if first {
                    record_milp(out, m);
                    out.objective += m.objective;
                    out.bound += m.best_bound;
                }
                print += &format!(
                    " status={} obj={} bound={} nodes={} lp_iters={}",
                    m.status, m.objective, m.best_bound, m.nodes, m.lp_iterations
                );
                if m.status != Status::Optimal {
                    out.fail(format!(
                        "fixed-work guard: {} ended {} after {} nodes, not optimal",
                        c.name, m.status, m.nodes
                    ));
                    guard_ok = false;
                }
            }
            None if first => out.objective += ALPHA * q.luts as f64 + BETA * q.ffs as f64,
            None => {}
        }
        out.fingerprint.push(print);
        let checked = check_design(
            out,
            tr,
            &c.name,
            &r.dfg,
            &b.target,
            &r.implementation,
            c.seed,
        );
        out.answered += usize::from(checked && guard_ok);
    }
}

impl Workload for MapExact {
    /// One round per MilpMap compile: every short compile, then that
    /// MilpMap compile; the sweep ends the pass. The short compiles thus
    /// give a run three times the samples the multi-second solves give,
    /// taken at different moments.
    fn pass(&self, tr: Tracer) -> PassOut {
        let mut out = PassOut::default();
        let (long, short): (Vec<&Compile>, Vec<&Compile>) =
            self.compiles.iter().partition(|c| c.flow == Flow::MilpMap);
        for (round, l) in long.iter().enumerate() {
            for c in &short {
                self.compile(c, round == 0, &mut out, tr);
            }
            self.compile(l, true, &mut out, tr);
        }
        self.sweep.compile(&mut out);
        out
    }
}

/// Copy the solver's own counters for one MILP flow into the pass.
fn record_milp(out: &mut PassOut, m: &MilpStats) {
    out.time("milp.solve_s", m.solve_time.as_secs_f64());
    out.count("milp.nodes", m.nodes as f64);
    out.count("milp.lp_iterations", m.lp_iterations as f64);
    out.count("milp.vars", m.variables as f64);
    out.count("milp.rows", m.constraints as f64);
    out.count("cuts.total", m.total_cuts as f64);
    out.count("cuts.pruned", m.cuts_pruned as f64);
    out.solver_stats(&m.solver);
}
