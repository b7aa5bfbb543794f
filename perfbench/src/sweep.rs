//! The sweep compile of `map-exact`: `run_sweep` in incremental mode on a
//! grid where every point proves optimal (CLZ at K = 4, II in {1, 2, 4},
//! the four default weightings: 4 points solved, 8 answered by base
//! dedup). It drives the solver through `milp::resolve` and `core::sweep`
//! (objective deltas, incumbent seeding, dedup), a path `run_flow` never
//! takes.

use pipemap_bench_suite::Benchmark;
use pipemap_core::{run_sweep, SweepConfig};
use pipemap_milp::Status;

use crate::workload::{sample, PassOut, NEVER_BINDING_LIMIT};

pub struct Sweep {
    bench: Benchmark,
    cfg: SweepConfig,
}

impl Sweep {
    pub fn new(bench: Benchmark) -> Sweep {
        Sweep {
            bench,
            cfg: SweepConfig {
                ii_values: vec![1, 2, 4],
                k_values: vec![4],
                time_limit: NEVER_BINDING_LIMIT,
                jobs: 1,
                incremental: true,
                audit: false,
                ..SweepConfig::default()
            },
        }
    }

    /// Run the sweep once, as one compile of the pass, and check that
    /// every point of the grid is present and proven optimal.
    pub fn compile(&self, out: &mut PassOut) {
        let name = format!("{}/sweep", self.bench.name);
        out.attempted += 1;
        let (res, mut s) = sample(&name, || {
            run_sweep(&self.bench.dfg, &self.bench.target, &self.cfg)
        });
        s.solver_bound = true;
        out.samples.push(s);
        let report = match res {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{name}: sweep failed: {e}"));
                return;
            }
        };
        let expected = self.cfg.ii_values.len() * self.cfg.k_values.len() * self.cfg.weights.len();
        let mut ok = report.points.len() == expected;
        if !ok {
            out.fail(format!(
                "{name}: {} points returned, {expected} asked for",
                report.points.len()
            ));
        }
        for p in &report.points {
            let point = format!("{name} ii={} k={} alpha={}", p.ii, p.k, p.alpha);
            out.fingerprint
                .push(format!("{point}: status={} obj={}", p.status, p.objective));
            if p.status != Status::Optimal {
                out.fail(format!(
                    "fixed-work guard: {point} ended {}, not optimal",
                    p.status
                ));
                ok = false;
            } else if !(p.objective.is_finite() && p.objective >= 0.0) {
                out.fail(format!("{point}: optimal with objective {}", p.objective));
                ok = false;
            }
            // Optimal: the proven bound is the objective itself.
            out.objective += p.objective;
            out.bound += p.objective;
            out.time("sweep.solve_s", p.wall.as_secs_f64());
        }
        out.count("sweep.bases_deduped", report.bases_deduped as f64);
        if let Some(r) = &report.resolve {
            out.count("resolve.solves", r.solves as f64);
            out.count("resolve.cached_results", r.cached_results as f64);
            out.count("resolve.incumbent_seeds", r.incumbent_seeds as f64);
            out.count("resolve.warm_hits", r.warm_hits as f64);
            out.count("resolve.lu_factor_reuses", r.lu_factor_reuses as f64);
            out.count("resolve.frontier_resumes", r.frontier_resumes as f64);
            out.fingerprint
                .push(format!("{name}: {r:?} dedup={}", report.bases_deduped));
        }
        out.answered += usize::from(ok);
    }
}
