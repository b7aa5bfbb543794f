//! Incremental re-solve engine: an editable, solved model.
//!
//! [`ResolveContext`] wraps a [`Model`] and keeps the result of its last
//! solve. Small edits ([`ResolveContext::set_bounds`],
//! [`ResolveContext::set_objective_coeff`], [`ResolveContext::add_cut`],
//! [`ResolveContext::add_var`] and friends, integrality toggles) mark the
//! model dirty; the next solve then reuses the prior result in one of
//! two ways:
//!
//! - **no edits at all** returns the cached result when its status is
//!   proved (optimal, infeasible, unbounded) — a proved status is an
//!   immutable fact about an unedited model;
//! - **any other solve** carries the prior assignment in as the starting
//!   incumbent (padded for appended columns). The solver re-validates it
//!   against the edited model and silently drops a seed an edit made
//!   infeasible, so seeding can speed a solve up but never change what
//!   it proves.
//!
//! Context solves run the caller's options unchanged — presolve,
//! probing, cuts, Gomory separation — so an incremental solve returns the
//! same status and objective as a from-scratch solve of the edited model
//! with the same options, which [`ResolveContext::audit`] re-checks on
//! demand.

use std::time::Duration;

use pipemap_obs as obs;

use crate::branch;
use crate::model::{LinExpr, Model, RowId, Sense, VarId, VarKind};
use crate::{MilpError, MilpResult, SolverOptions, Status};

/// Counters describing how much prior-solve state the context reused.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolveStats {
    /// Solves dispatched through the context (cached returns included).
    pub solves: usize,
    /// Solves answered from the cached result without touching the
    /// solver (no edits, prior status already proved).
    pub cached_results: usize,
    /// Solves that started with no incumbent: no prior solution to carry
    /// (first solve, or the previous solve found no feasible point) and
    /// none passed in as `SolverOptions::initial_solution`.
    pub cold_solves: usize,
    /// Solves that carried the prior solution in as a starting incumbent.
    pub incumbent_seeds: usize,
    /// Always 0: the context keeps no simplex basis between solves. The
    /// field stays because the fixed-work benchmark (`perfbench/`) still
    /// reports it as `resolve.warm_hits`.
    pub warm_hits: usize,
    /// Always 0: the context keeps no LU factors between solves. The
    /// field stays because the fixed-work benchmark (`perfbench/`) still
    /// reports it as `resolve.lu_factor_reuses`.
    pub lu_factor_reuses: usize,
    /// Always 0: the context never resumes a stopped search from its
    /// open leaves. The field stays because the fixed-work benchmark
    /// (`perfbench/`) still reports it as `resolve.frontier_resumes`.
    pub frontier_resumes: usize,
}

impl ResolveStats {
    /// Accumulate another context's counters into this one — for
    /// harnesses that drive several contexts (one per structural sweep
    /// point) and report a single set of reuse totals.
    pub fn merge(&mut self, other: &ResolveStats) {
        self.solves += other.solves;
        self.cached_results += other.cached_results;
        self.cold_solves += other.cold_solves;
        self.incumbent_seeds += other.incumbent_seeds;
    }
}

/// Outcome of [`ResolveContext::audit`]: the incremental result checked
/// against a from-scratch solve of the identical model and options.
///
/// A seeded re-solve starts from the prior incumbent, so it can keep a
/// *different member* of a set of tied optima than a cold solve would
/// find. That divergence is benign (both assignments are feasible
/// points of the identical model with the identical objective) and is
/// reported as [`ResolveAudit::tied_optima`] rather than a failure;
/// what the engine guarantees — and [`ResolveAudit::ok`] enforces — is
/// that status and objective are indistinguishable from a from-scratch
/// solve and the returned assignment is genuinely feasible.
#[derive(Debug, Clone)]
pub struct ResolveAudit {
    /// Statuses agree, or differ only because one side proved optimality
    /// while the other stopped at a time/node limit with the same
    /// incumbent objective (a budget artifact, not a divergence).
    pub status_match: bool,
    /// Objectives agree to `1e-6` (or are both non-finite). When both
    /// searches stopped at their budget ([`ResolveAudit::budget_capped`])
    /// neither objective is the optimum and the comparison does not bind:
    /// the incumbents are artifacts of what each budget bought, so this
    /// reports `true` as long as both assignments re-verify feasible.
    pub objective_match: bool,
    /// Both searches hit their time/node budget: the determinism
    /// contract binds completed searches, so objective and assignment
    /// comparisons degrade to feasibility checks on this audit.
    pub budget_capped: bool,
    /// Returned assignments agree element-wise to `1e-6`.
    pub values_match: bool,
    /// Assignments differ but both re-verify as feasible points of the
    /// model: two members of a tied optimal set (matching objectives),
    /// or two budget-capped incumbents — not a soundness failure.
    pub tied_optima: bool,
    /// The from-scratch result the context was checked against.
    pub cold: MilpResult,
}

impl ResolveAudit {
    /// `true` when the incremental solve is indistinguishable from cold
    /// up to tied optima: same status, same objective, and — when the
    /// assignments differ — both independently re-verified feasible.
    pub fn ok(&self) -> bool {
        self.status_match && self.objective_match && (self.values_match || self.tied_optima)
    }
}

/// An editable MILP model whose solves reuse the previous solve's result
/// (cached when unedited and proved, otherwise as a seed incumbent). See
/// the module docs.
#[derive(Debug)]
pub struct ResolveContext {
    base: Model,
    model: Model,
    last: Option<MilpResult>,
    /// Set by any edit since the last solve; an unedited model may answer
    /// from the cached result.
    dirty: bool,
    stats: ResolveStats,
}

impl ResolveContext {
    /// Wrap a model for incremental re-solving. The model is also kept
    /// as the *base* snapshot that [`ResolveContext::restore_bounds`]
    /// and friends roll edits back to.
    pub fn new(model: Model) -> Self {
        ResolveContext {
            base: model.clone(),
            model,
            last: None,
            dirty: false,
            stats: ResolveStats::default(),
        }
    }

    /// The current (edited) model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Result of the most recent solve, if any.
    pub fn last_result(&self) -> Option<&MilpResult> {
        self.last.as_ref()
    }

    /// Reuse counters accumulated over this context's lifetime.
    pub fn stats(&self) -> ResolveStats {
        self.stats
    }

    // --- delta API -------------------------------------------------------

    /// Change a variable's bounds.
    pub fn set_bounds(&mut self, v: VarId, lb: f64, ub: f64) {
        // No-op edits keep the cached result alive, so a caller replaying
        // an unchanged query gets it for free.
        if self.model.bounds(v) == (lb, ub) {
            return;
        }
        self.model.set_bounds(v, lb, ub);
        self.dirty = true;
    }

    /// Change a variable's objective weight.
    pub fn set_objective_coeff(&mut self, v: VarId, obj: f64) {
        if self.model.objective_coeff(v) == obj {
            return;
        }
        self.model.set_objective_coeff(v, obj);
        self.dirty = true;
    }

    /// Make an integer variable continuous.
    pub fn relax_integrality(&mut self, v: VarId) {
        if self.model.var_kind(v) == VarKind::Continuous {
            return;
        }
        self.model.relax_integrality(v);
        self.dirty = true;
    }

    /// Set a variable's kind.
    pub fn set_var_kind(&mut self, v: VarId, kind: VarKind) {
        if self.model.var_kind(v) == kind {
            return;
        }
        self.model.set_var_kind(v, kind);
        self.dirty = true;
    }

    /// Append a variable. The seed incumbent gives it a finite bound
    /// (or 0) on the next solve.
    pub fn add_var(&mut self, lb: f64, ub: f64, obj: f64, kind: VarKind) -> VarId {
        self.dirty = true;
        self.model.add_var(lb, ub, obj, kind)
    }

    /// Append a binary variable (see [`ResolveContext::add_var`]).
    pub fn add_binary(&mut self, obj: f64) -> VarId {
        self.add_var(0.0, 1.0, obj, VarKind::Integer)
    }

    /// Append a continuous variable (see [`ResolveContext::add_var`]).
    pub fn add_continuous(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var(lb, ub, obj, VarKind::Continuous)
    }

    /// Append an integer variable (see [`ResolveContext::add_var`]).
    pub fn add_integer(&mut self, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var(lb, ub, obj, VarKind::Integer)
    }

    /// Append a constraint row (a "cut" in re-solve terms). A seed the
    /// cut excludes is dropped by the solver.
    pub fn add_cut(&mut self, expr: LinExpr, sense: Sense, rhs: f64) -> RowId {
        self.dirty = true;
        self.model.add_constraint(expr, sense, rhs)
    }

    /// Add (or merge) one coefficient.
    pub fn add_coefficient(&mut self, r: RowId, v: VarId, coeff: f64) {
        self.dirty = true;
        self.model.add_coefficient(r, v, coeff);
    }

    /// Roll every variable's bounds back to the base snapshot. Variables
    /// added after [`ResolveContext::new`] are left untouched.
    pub fn restore_bounds(&mut self) {
        for j in 0..self.base.num_vars() {
            let v = VarId::from_index(j);
            let (lb, ub) = self.base.bounds(v);
            self.set_bounds(v, lb, ub);
        }
    }

    /// Roll every variable's objective weight back to the base snapshot.
    pub fn restore_objective(&mut self) {
        for j in 0..self.base.num_vars() {
            let v = VarId::from_index(j);
            let want = self.base.objective_coeff(v);
            self.set_objective_coeff(v, want);
        }
    }

    /// Roll every variable's kind back to the base snapshot.
    pub fn restore_kinds(&mut self) {
        for j in 0..self.base.num_vars() {
            let v = VarId::from_index(j);
            let want = self.base.var_kind(v);
            self.set_var_kind(v, want);
        }
    }

    // --- solving ---------------------------------------------------------

    /// Solve the current model: the cached result when nothing was edited
    /// and it is proved, otherwise a solve seeded with the prior
    /// incumbent (see the module docs).
    ///
    /// # Errors
    ///
    /// [`MilpError`] only on unrecoverable numerical failure, exactly as
    /// [`Model::solve`]; the saved result is dropped so the next call
    /// starts cold.
    pub fn solve(&mut self, opts: &SolverOptions) -> Result<MilpResult, MilpError> {
        let span = obs::enabled().then(|| obs::span("resolve-solve"));
        self.stats.solves += 1;

        // Proved statuses are immutable facts about an unedited model.
        if !self.dirty {
            if let Some(r) = &self.last {
                if matches!(
                    r.status,
                    Status::Optimal | Status::Infeasible | Status::Unbounded
                ) {
                    self.stats.cached_results += 1;
                    obs::instant("resolve-cached");
                    Self::emit_stats(&self.stats);
                    drop(span);
                    return Ok(r.clone());
                }
            }
        }

        let mut opts = opts.clone();
        if opts.initial_solution.is_none() {
            if let Some(r) = self.last.as_ref().filter(|r| r.status.has_solution()) {
                // Pad for appended columns: each rests at a finite bound
                // (or 0). The solver re-validates feasibility and silently
                // drops a seed an edit excluded.
                let mut vals = r.values.clone();
                for j in vals.len()..self.model.num_vars() {
                    let (lb, ub) = self.model.bounds(VarId::from_index(j));
                    vals.push(if lb.is_finite() {
                        lb
                    } else if ub.is_finite() {
                        ub
                    } else {
                        0.0
                    });
                }
                opts.initial_solution = Some(vals);
                self.stats.incumbent_seeds += 1;
            }
        }
        if opts.initial_solution.is_none() {
            self.stats.cold_solves += 1;
        }

        self.last = None;
        self.dirty = false;
        let result = branch::solve_milp(&self.model, &opts);
        drop(span);
        let result = result?;
        self.last = Some(result.clone());
        Self::emit_stats(&self.stats);
        Ok(result)
    }

    /// Emit the cumulative reuse counters as a `resolve-stats` instant so
    /// the flight recorder can attribute solves (cached /
    /// incumbent-seeded / cold) without access to the context.
    fn emit_stats(s: &ResolveStats) {
        if !obs::enabled() {
            return;
        }
        obs::instant_with(
            "resolve-stats",
            vec![
                ("solves", s.solves.into()),
                ("cached_results", s.cached_results.into()),
                ("cold_solves", s.cold_solves.into()),
                ("incumbent_seeds", s.incumbent_seeds.into()),
            ],
        );
    }

    /// Re-check the last incremental result against a from-scratch solve
    /// of the identical model and options. Expensive — this is
    /// the verification path, not the fast path.
    ///
    /// # Errors
    ///
    /// [`MilpError`] if the from-scratch solve itself fails numerically.
    ///
    /// # Panics
    ///
    /// Panics if no solve has completed on this context yet.
    pub fn audit(&self, opts: &SolverOptions) -> Result<ResolveAudit, MilpError> {
        let last = self
            .last
            .as_ref()
            .expect("audit requires a completed solve");
        let cold = self.model.solve(opts)?;
        let objs_eq = (last.objective - cold.objective).abs() <= 1e-6
            || (!last.objective.is_finite()
                && !cold.objective.is_finite()
                && last.objective == cold.objective);
        let vals_eq = last.values.len() == cold.values.len()
            && last
                .values
                .iter()
                .zip(&cold.values)
                .all(|(a, b)| (a - b).abs() <= 1e-6);
        // One side proving optimality while the other stops at a limit with
        // the same incumbent objective is a budget artifact of the audit's
        // cold comparator, not a correctness divergence.
        let limit_hit = |s: Status| matches!(s, Status::TimedOut | Status::Feasible);
        let status_eq = last.status == cold.status
            || (objs_eq
                && ((last.status == Status::Optimal && limit_hit(cold.status))
                    || (cold.status == Status::Optimal && limit_hit(last.status))));
        // When *both* searches hit their budget neither objective is the
        // optimum — the incumbents are artifacts of what each budget
        // bought (the seeded side inherits the prior point's incumbent,
        // the cold side starts empty), so the comparison degrades to
        // feasibility: accept as long as both assignments re-verify.
        let both_capped = limit_hit(last.status) && limit_hit(cold.status);
        // Divergent assignments are only acceptable when both re-verify as
        // feasible points of the model: tied optima on completed
        // searches, arbitrary incumbents on budget-capped ones.
        let both_feasible = !last.status.has_solution()
            || (self.model.check_feasible(&last.values, 1e-6).is_none()
                && self.model.check_feasible(&cold.values, 1e-6).is_none());
        let tied = !vals_eq && (objs_eq || both_capped) && status_eq && both_feasible;
        Ok(ResolveAudit {
            status_match: status_eq,
            objective_match: objs_eq || (both_capped && both_feasible),
            budget_capped: both_capped,
            values_match: vals_eq,
            tied_optima: tied,
            cold,
        })
    }

    /// Convenience: solve with a per-call time limit (common in sweeps).
    ///
    /// # Errors
    ///
    /// See [`ResolveContext::solve`].
    pub fn solve_with_limit(&mut self, limit: Duration) -> Result<MilpResult, MilpError> {
        self.solve(&SolverOptions::with_time_limit(limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinExpr, Model, Sense};

    fn knapsack() -> Model {
        let mut m = Model::new("knap");
        let a = m.add_binary(-5.0);
        let b = m.add_binary(-4.0);
        let c = m.add_binary(-3.0);
        let mut w = LinExpr::new();
        w.add_term(2.0, a);
        w.add_term(3.0, b);
        w.add_term(1.0, c);
        m.add_constraint(w, Sense::Le, 3.0);
        m
    }

    #[test]
    fn cached_result_on_unedited_resolve() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        let r1 = cx.solve(&opts).unwrap();
        assert_eq!(r1.status, Status::Optimal);
        let r2 = cx.solve(&opts).unwrap();
        assert_eq!(r2.objective, r1.objective);
        assert_eq!(cx.stats().cached_results, 1);
    }

    #[test]
    fn objective_delta_matches_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        cx.solve(&opts).unwrap();
        cx.set_objective_coeff(VarId::from_index(1), -9.0);
        let inc = cx.solve(&opts).unwrap();
        let audit = cx.audit(&opts).unwrap();
        assert!(audit.ok(), "incremental {inc:?} vs cold {:?}", audit.cold);
        assert!(cx.stats().incumbent_seeds >= 1);
    }

    #[test]
    fn bound_delta_matches_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        let r1 = cx.solve(&opts).unwrap();
        assert_eq!(r1.objective.round(), -8.0); // a + c
        cx.set_bounds(VarId::from_index(0), 0.0, 0.0); // forbid a
        let r2 = cx.solve(&opts).unwrap();
        assert_eq!(r2.objective.round(), -4.0); // b (b + c exceeds capacity)
        assert!(cx.audit(&opts).unwrap().ok());
        // Roll back and get the original answer again.
        cx.restore_bounds();
        let r3 = cx.solve(&opts).unwrap();
        assert_eq!(r3.objective.round(), -8.0);
    }

    #[test]
    fn added_cut_matches_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        cx.solve(&opts).unwrap();
        // At most one item.
        let mut e = LinExpr::new();
        for j in 0..3 {
            e.add_term(1.0, VarId::from_index(j));
        }
        cx.add_cut(e, Sense::Le, 1.0);
        let r = cx.solve(&opts).unwrap();
        assert_eq!(r.objective.round(), -5.0); // best single item: a
        assert!(cx.audit(&opts).unwrap().ok());
    }

    #[test]
    fn added_column_matches_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        cx.solve(&opts).unwrap();
        // A new item of weight 1, value 6: displaces c in the optimum.
        let d = cx.add_binary(-6.0);
        cx.add_coefficient(RowId::from_index(0), d, 1.0);
        let r = cx.solve(&opts).unwrap();
        assert_eq!(r.objective.round(), -11.0); // a + d
        assert!(cx.audit(&opts).unwrap().ok());
    }

    #[test]
    fn structural_edit_falls_back_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        cx.solve(&opts).unwrap();
        assert_eq!(cx.stats().cold_solves, 1);
        // Rewrite an existing coefficient: weight of a becomes 3.
        cx.add_coefficient(RowId::from_index(0), VarId::from_index(0), 1.0);
        let r = cx.solve(&opts).unwrap();
        // a alone fills the capacity.
        assert_eq!(r.objective.round(), -5.0);
        // The prior solution rides along only as an incumbent that the
        // solver re-validates against the edited model.
        assert_eq!(cx.stats().incumbent_seeds, 1);
        assert!(cx.audit(&opts).unwrap().ok());
    }

    #[test]
    fn integrality_toggle_matches_cold() {
        let mut cx = ResolveContext::new(knapsack());
        let opts = SolverOptions::default();
        cx.solve(&opts).unwrap();
        cx.relax_integrality(VarId::from_index(1));
        let r = cx.solve(&opts).unwrap();
        assert!(cx.audit(&opts).unwrap().ok());
        // a + c already fill the capacity exactly; relaxing b changes
        // nothing, which is exactly what must round-trip.
        assert_eq!(r.objective.round(), -8.0);
        cx.restore_kinds();
        let r2 = cx.solve(&opts).unwrap();
        assert_eq!(r2.objective.round(), -8.0);
    }
}
