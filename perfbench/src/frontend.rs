//! `frontend`: every layer except the MILP solver, on the whole corpus
//! (the nine suite kernels plus scaled generator instances). Each input
//! is printed and parsed, simplified, cut-enumerated (plain and
//! priority), scheduled by the baseline and the mapped heuristic,
//! formulated (the model is built, never solved), costed, emitted as
//! Verilog, simulated and verified.

use pipemap_analyze::simplify;
use pipemap_bench_suite::Benchmark;
use pipemap_core::{debug_build_model, schedule_baseline, schedule_mapped_heuristic};
use pipemap_cuts::{priority_cuts, CutConfig, CutDb, PruneConfig};
use pipemap_ir::{parse_dfg, print_dfg, Dfg, Target};
use pipemap_netlist::Qor;
use pipemap_verify::check_graph_equivalence;

use crate::check::{check_design, first_error};
use crate::workload::{input_seed, sample, PassOut, Tracer, Workload, ALPHA, BETA};

/// Vectors replayed to check the simplified graph against its source.
const EQUIV_VECTORS: usize = 32;

struct Input {
    name: String,
    dfg: Dfg,
    target: Target,
    seed: u64,
}

pub struct Frontend {
    inputs: Vec<Input>,
}

impl Frontend {
    pub fn new(corpus: Vec<Benchmark>, seed: u64) -> Frontend {
        let inputs = corpus
            .into_iter()
            .map(|b| {
                let name = format!("{}-{}", b.name, b.dfg.len());
                Input {
                    seed: input_seed(seed, &name),
                    name,
                    dfg: b.dfg,
                    target: b.target,
                }
            })
            .collect();
        Frontend { inputs }
    }

    /// One input through every front-end layer. Returns whether every
    /// step succeeded and every output checked out.
    fn compile(&self, inp: &Input, out: &mut PassOut, tr: Tracer) -> bool {
        let label = inp.name.as_str();
        let target = &inp.target;
        let parsed = tr.span(out, "ir.parse_s", || parse_dfg(&print_dfg(&inp.dfg)));
        let dfg = match parsed {
            Ok(d) => d,
            Err(e) => {
                out.fail(format!("{label}: printed graph does not parse: {e}"));
                return false;
            }
        };
        let simplified = match tr.span(out, "analyze.simplify_s", || simplify(&dfg)) {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("{label}: simplify failed: {e}"));
                return false;
            }
        };
        let nodes_removed = simplified.stats.nodes_before - simplified.stats.nodes_after;
        out.count("analyze.nodes_removed", nodes_removed as f64);
        let work = simplified.dfg;

        let cfg = CutConfig::for_target(target);
        let db = tr.span(out, "cuts.enumerate_s", || CutDb::enumerate(&work, &cfg));
        let pcfg = PruneConfig {
            max_cuts_per_root: 4,
            raw_cuts: 16,
            live_bits: None,
        };
        let pruned = tr.span(out, "cuts.priority_s", || priority_cuts(&work, &cfg, &pcfg));
        out.count("cuts.total", db.total_cuts() as f64);
        out.count("cuts.pruned", pruned.stats.cuts_pruned() as f64);

        let base = match tr.span(out, "core.baseline_s", || {
            schedule_baseline(&work, target, 1, &db)
        }) {
            Ok(b) => b,
            Err(e) => {
                out.fail(format!("{label}: baseline schedule failed: {e}"));
                return false;
            }
        };
        let heur = tr.span(out, "core.heuristic_s", || {
            schedule_mapped_heuristic(&work, target, 1, &db)
        });
        let depth = base.implementation.schedule.depth();
        let model = tr.span(out, "core.formulation_s", || {
            debug_build_model(&work, target, &pruned.db, base.ii, depth, ALPHA, BETA)
        });
        out.count("milp.vars", model.num_vars() as f64);
        out.count("milp.rows", model.num_rows() as f64);

        let mut ok = true;
        let mut designs = vec![("baseline", base.implementation)];
        designs.extend(heur.map(|h| ("heuristic", h.implementation)));
        for (kind, imp) in &designs {
            let q = tr.span(out, "netlist.qor_s", || Qor::evaluate(&work, target, imp));
            out.design(&q);
            out.objective += ALPHA * q.luts as f64 + BETA * q.ffs as f64;
            out.fingerprint.push(format!(
                "{label}/{kind}: luts={} ffs={} cp={} ii={}",
                q.luts, q.ffs, q.cp_ns, q.ii
            ));
            let what = format!("{label}/{kind}");
            ok &= check_design(out, tr, &what, &work, target, imp, inp.seed);
        }
        let equiv = tr.span(out, "verify.check_s", || {
            check_graph_equivalence(label, &dfg, &work, EQUIV_VECTORS, inp.seed)
        });
        if let Some(e) = first_error(&equiv) {
            out.fail(format!("{label}: simplified graph diverges: {e}"));
            ok = false;
        }
        out.fingerprint.push(format!(
            "{label}: removed={nodes_removed} cuts={} pruned={} vars={} rows={}",
            db.total_cuts(),
            pruned.stats.cuts_pruned(),
            model.num_vars(),
            model.num_rows()
        ));
        ok
    }
}

impl Workload for Frontend {
    fn pass(&self, tr: Tracer) -> PassOut {
        let mut out = PassOut::default();
        for inp in &self.inputs {
            let (ok, s) = sample(&inp.name, || self.compile(inp, &mut out, tr));
            out.samples.push(s);
            out.attempted += 1;
            out.answered += usize::from(ok);
        }
        out
    }
}
