//! The mapping-aware modulo-scheduling MILP (paper §3.2, Eqs. 2–15).
//!
//! Variables per node `v`:
//!
//! * one-hot schedule binaries `s_{v,t}` over the window `[ASAP_v, ALAP_v]`
//!   (Eqs. 5–6; `S_v` is an expression, not a variable),
//! * cut selectors `c_{v,i}` per enumerated cut (Eq. 2; `root_v = Σ c` is
//!   an expression),
//! * continuous intra-cycle start `L_v ∈ [0, T_cp − d_v]` (Eq. 8 folded
//!   into the bound),
//! * continuous lifetime `len_v ≥ 0`.
//!
//! **Register reformulation.** The paper prices registers with per-cycle
//! liveness variables (Eqs. 10–13). Expanded literally this multiplies the
//! row count by the latency bound; we instead price the *lifetime length*
//!
//! ```text
//! len_u ≥ S_w + II·dist − (S_u + lat_u) − M·(1 − c_{w,i})   ∀ u ∈ CUT_w[i]
//! ```
//!
//! whose minimized value `Σ_t live_{u,t} = max(0, last_use − avail)`
//! matches the paper's `Σ_m Reg(m)` exactly (the II-folded sum in Eq. 13
//! telescopes to the total number of live value-cycles). The per-cycle
//! def/kill/live accounting is still implemented verbatim in
//! `pipemap-netlist`'s QoR evaluation, so the objective and the reported
//! FF counts agree by construction.
//!
//! Eq. (9) is implemented with the producer's completion latency added
//! (`S_u + lat_u`) so multi-cycle black boxes chain correctly, and the
//! delay term gated by `c_{w,i}` exactly as printed — unselected cuts
//! degrade to pure `L` ordering between ancestors, matching the paper's
//! reading that interior nodes share their root's cycle.

use pipemap_cuts::{cone_nodes, CutDb};
use pipemap_ir::{Dfg, NodeId, Op, Target};
use pipemap_milp::{LinExpr, Model, Sense, VarId};
use pipemap_netlist::{Cover, Implementation, Schedule};

use crate::bounds::{absorbable_nodes, alap_optimistic, asap_optimistic};

/// The constructed model plus the variable maps needed to extract and seed
/// solutions.
#[derive(Debug)]
pub(crate) struct Formulation {
    pub model: Model,
    /// Per node: `(cycle, var)` pairs of the one-hot schedule binaries.
    s_vars: Vec<Vec<(u32, VarId)>>,
    /// Per node: cut-selector variables, aligned with `CutDb` order.
    c_vars: Vec<Vec<VarId>>,
    l_vars: Vec<Option<VarId>>,
    len_vars: Vec<Option<VarId>>,
    /// `(cut selector, LUT bit unit)` pairs: the α-weighted objective
    /// slots (0 units for pure-wire cones). Kept so a weight sweep can
    /// re-cost the objective as in-place deltas instead of rebuilding.
    alpha_units: Vec<(VarId, f64)>,
    /// `(lifetime var, FF bit unit)` pairs: the β-weighted slots.
    beta_units: Vec<(VarId, f64)>,
    /// The γ-weighted DSP-count variable, when the model was built with
    /// one (`gamma > 0.0` at build time).
    x_mult: Option<VarId>,
    ii: u32,
    m: u32,
}

fn local_delay(target: &Target, op: &Op, width: u32) -> f64 {
    let lat = target.op_latency(op, width);
    (target.op_delay(op, width) - f64::from(lat) * target.t_cp).max(0.0)
}

/// `S_v` as a linear expression (`Σ t·s_{v,t}`; 0 for inputs/constants).
fn s_expr(f: &Formulation, v: NodeId) -> LinExpr {
    let mut e = LinExpr::new();
    for &(t, var) in &f.s_vars[v.index()] {
        e.add_term(f64::from(t), var);
    }
    e
}

/// Does this node get schedule variables?
fn schedulable(op: &Op) -> bool {
    !matches!(op, Op::Input | Op::Const(_))
}

/// Does this node produce a registered value (and thus get a lifetime
/// variable)? Inputs count: a late-consumed input must be held in FFs.
fn signal_producer(op: &Op) -> bool {
    op.is_lut_mappable() || op.is_black_box() || matches!(op, Op::Input)
}

/// Build the full MILP for one graph at the given II and latency bound
/// `m` (cycles), with the paper's α/β objective weights.
pub(crate) fn build(
    dfg: &Dfg,
    target: &Target,
    db: &CutDb,
    ii: u32,
    m: u32,
    alpha: f64,
    beta: f64,
) -> Formulation {
    build_weighted(dfg, target, db, ii, m, alpha, beta, 0.0)
}

/// [`build`] plus the optional DSP-count term: a variable `X_mult` bounds
/// the per-slot multiplier usage (Eq. 14's `X_r`) and enters the
/// objective with weight γ — the resource extension §3.2 invites.
#[allow(clippy::too_many_arguments)]
pub(crate) fn build_weighted(
    dfg: &Dfg,
    target: &Target,
    db: &CutDb,
    ii: u32,
    m: u32,
    alpha: f64,
    beta: f64,
    gamma: f64,
) -> Formulation {
    let model = Model::new(format!("{}-ii{}", dfg.name(), ii));
    let mut f = Formulation {
        model,
        s_vars: vec![Vec::new(); dfg.len()],
        c_vars: vec![Vec::new(); dfg.len()],
        l_vars: vec![None; dfg.len()],
        len_vars: vec![None; dfg.len()],
        alpha_units: Vec::new(),
        beta_units: Vec::new(),
        x_mult: None,
        ii,
        m,
    };
    let t_cp = target.t_cp;
    let max_dist = dfg
        .iter()
        .flat_map(|(_, n)| n.ins.iter().map(|p| p.dist))
        .max()
        .unwrap_or(0);
    let big_m = f64::from(m + ii * max_dist + 1) * 2.0;

    let asap = asap_optimistic(dfg, target, db);
    let alap = alap_optimistic(dfg, target, m, &absorbable_nodes(dfg, db));

    // ---- variables -------------------------------------------------------
    for (id, node) in dfg.iter() {
        if schedulable(&node.op) {
            let lo = asap[id.index()].min(m - 1);
            let hi = alap[id.index()].max(lo).min(m - 1);
            for t in lo..=hi {
                let v = f.model.add_binary(0.0);
                f.s_vars[id.index()].push((t, v));
            }
            // Intra-cycle start L_v with Eq. (8) folded into the bound;
            // multi-cycle ops are pinned to the cycle boundary.
            if !matches!(node.op, Op::Output) {
                let lat = target.op_latency(&node.op, node.width);
                let ub = if lat > 0 {
                    0.0
                } else {
                    (t_cp - local_delay(target, &node.op, node.width)).max(0.0)
                };
                f.l_vars[id.index()] = Some(f.model.add_continuous(0.0, ub, 0.0));
            }
        }
        if node.op.is_lut_mappable() {
            for cut in db.cuts(id).cuts() {
                // Objective Eq. (15), LUT term: Bits(v) per selected root,
                // except cones that are pure wiring (cost nothing in
                // fabric — mirrored in the QoR evaluator).
                let cone = cone_nodes(dfg, id, cut);
                let pure_wire = cone.iter().all(|&n| dfg.node(n).op.is_wire());
                let unit = if pure_wire {
                    0.0
                } else {
                    f64::from(node.width)
                };
                let c = f.model.add_binary(alpha * unit);
                f.alpha_units.push((c, unit));
                f.c_vars[id.index()].push(c);
            }
        }
        if signal_producer(&node.op) {
            // Objective Eq. (15), register term: β · Bits(v) · len_v.
            let unit = f64::from(node.width);
            let len = f.model.add_continuous(0.0, big_m, beta * unit);
            f.beta_units.push((len, unit));
            f.len_vars[id.index()] = Some(len);
        }
    }

    // ---- Eq. 5: one-hot schedule ------------------------------------------
    for (id, node) in dfg.iter() {
        if schedulable(&node.op) {
            let e: LinExpr = f.s_vars[id.index()]
                .iter()
                .map(|&(_, v)| (1.0, v))
                .collect();
            f.model.add_constraint(e, Sense::Eq, 1.0);
        }
    }

    // ---- Eqs. 2–4: cover --------------------------------------------------
    let root_expr = |f: &Formulation, v: NodeId| -> LinExpr {
        f.c_vars[v.index()].iter().map(|&c| (1.0, c)).collect()
    };
    for (id, node) in dfg.iter() {
        if !node.op.is_lut_mappable() {
            continue;
        }
        // Eq. 2: at most one cut selected.
        f.model.add_constraint(root_expr(&f, id), Sense::Le, 1.0);
        // Eq. 4: selected-cut inputs are roots.
        for (i, cut) in db.cuts(id).cuts().iter().enumerate() {
            let ci = f.c_vars[id.index()][i];
            for sig in cut.inputs() {
                if dfg.node(sig.node).op.is_lut_mappable() {
                    let e = LinExpr::from(ci) - root_expr(&f, sig.node);
                    f.model.add_constraint(e, Sense::Le, 0.0);
                }
            }
        }
    }
    // Eq. 3 (extended): PO sources and direct-read (black box / output)
    // port producers must be roots.
    for (_, node) in dfg.iter() {
        if node.op.is_lut_mappable() {
            continue;
        }
        for p in &node.ins {
            let u = p.node;
            if dfg.node(u).op.is_lut_mappable() {
                f.model.add_constraint(root_expr(&f, u), Sense::Eq, 1.0);
            }
        }
    }

    // ---- Eq. 7: dependences (with producer latency) ------------------------
    for (id, node) in dfg.iter() {
        if !schedulable(&node.op) {
            continue;
        }
        for p in &node.ins {
            let u = p.node;
            let un = dfg.node(u);
            if matches!(un.op, Op::Input | Op::Const(_)) {
                continue; // ready at cycle 0: trivially satisfied
            }
            let lat = target.op_latency(&un.op, un.width);
            let e = s_expr(&f, u) - s_expr(&f, id) + f64::from(lat);
            f.model.add_constraint(e, Sense::Le, f64::from(ii * p.dist));
        }
    }

    // ---- Eqs. 8–9: cycle time ----------------------------------------------
    // Eq. 8 lives in the L bounds. Eq. 9: for every cut pair (w, i) and
    // signal u in the cut:
    //   T·(S_u + lat_u − S_w − II·dist) + L_u + d_u·c_{w,i} − L_w ≤ 0
    for (w, node) in dfg.iter() {
        if !node.op.is_lut_mappable() {
            continue;
        }
        let lw = f.l_vars[w.index()].expect("LUT ops have L");
        for (i, cut) in db.cuts(w).cuts().iter().enumerate() {
            let ci = f.c_vars[w.index()][i];
            for sig in cut.inputs() {
                let u = sig.node;
                let un = dfg.node(u);
                if matches!(un.op, Op::Input | Op::Const(_)) {
                    continue; // ready at time 0 of cycle 0
                }
                let lat = target.op_latency(&un.op, un.width);
                let mut e = (s_expr(&f, u) - s_expr(&f, w) + f64::from(lat)
                    - f64::from(ii * sig.dist))
                    * t_cp;
                if let Some(lu) = f.l_vars[u.index()] {
                    e.add_term(1.0, lu);
                }
                e.add_term(local_delay(target, &un.op, un.width), ci);
                e.add_term(-1.0, lw);
                f.model.add_constraint(e, Sense::Le, 0.0);
            }
        }
    }
    // Direct readers (black boxes; outputs capture at end of cycle).
    for (w, node) in dfg.iter() {
        if node.op.is_lut_mappable() || !schedulable(&node.op) {
            continue;
        }
        for p in &node.ins {
            let u = p.node;
            let un = dfg.node(u);
            if matches!(un.op, Op::Input | Op::Const(_)) {
                continue;
            }
            let lat = target.op_latency(&un.op, un.width);
            let mut e =
                (s_expr(&f, u) - s_expr(&f, w) + f64::from(lat) - f64::from(ii * p.dist)) * t_cp;
            if let Some(lu) = f.l_vars[u.index()] {
                e.add_term(1.0, lu);
            }
            e.add_constant(local_delay(target, &un.op, un.width));
            match f.l_vars[w.index()] {
                Some(lw) => {
                    e.add_term(-1.0, lw);
                }
                None => {
                    // Outputs capture at the end of the cycle.
                    e.add_constant(-t_cp);
                }
            }
            f.model.add_constraint(e, Sense::Le, 0.0);
        }
    }

    // ---- lifetimes (register objective) -------------------------------------
    for (w, node) in dfg.iter() {
        if node.op.is_lut_mappable() {
            for (i, cut) in db.cuts(w).cuts().iter().enumerate() {
                let ci = f.c_vars[w.index()][i];
                for sig in cut.inputs() {
                    let u = sig.node;
                    let un = dfg.node(u);
                    let Some(len_u) = f.len_vars[u.index()] else {
                        continue;
                    };
                    let lat = target.op_latency(&un.op, un.width);
                    // len_u ≥ S_w + II·d − S_u − lat − M(1 − c_{w,i})
                    let mut e = s_expr(&f, w) - s_expr(&f, u) + f64::from(ii * sig.dist)
                        - f64::from(lat)
                        - big_m;
                    e.add_term(big_m, ci);
                    e.add_term(-1.0, len_u);
                    f.model.add_constraint(e, Sense::Le, 0.0);
                }
            }
        } else if schedulable(&node.op) {
            for p in &node.ins {
                let u = p.node;
                let un = dfg.node(u);
                let Some(len_u) = f.len_vars[u.index()] else {
                    continue;
                };
                let lat = target.op_latency(&un.op, un.width);
                let mut e = s_expr(&f, w) - s_expr(&f, u) + f64::from(ii * p.dist) - f64::from(lat);
                e.add_term(-1.0, len_u);
                f.model.add_constraint(e, Sense::Le, 0.0);
            }
        }
    }

    // ---- Eq. 14: modulo resource constraints --------------------------------
    let mut by_resource: std::collections::BTreeMap<pipemap_ir::Resource, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for (id, node) in dfg.iter() {
        if let Some(r) = node.op.resource() {
            by_resource.entry(r).or_default().push(id);
        }
    }
    for (res, nodes) in by_resource {
        let limit = target.resource_limit(res);
        // Optional DSP-count variable X_r (Eq. 14's usage variable),
        // minimized with weight γ; without γ only the hard limit applies.
        let count_var = if gamma > 0.0 && res == pipemap_ir::Resource::Mult {
            let x = f
                .model
                .add_integer(0.0, limit.map_or(nodes.len() as f64, f64::from), gamma);
            f.x_mult = Some(x);
            Some(x)
        } else {
            None
        };
        if limit.is_none() && count_var.is_none() {
            continue;
        }
        for slot in 0..ii {
            let mut e = LinExpr::new();
            for &v in &nodes {
                for &(t, var) in &f.s_vars[v.index()] {
                    if t % ii == slot {
                        e.add_term(1.0, var);
                    }
                }
            }
            match count_var {
                Some(x) => {
                    e.add_term(-1.0, x);
                    f.model.add_constraint(e, Sense::Le, 0.0);
                }
                None => {
                    let lim = limit.expect("checked above");
                    f.model.add_constraint(e, Sense::Le, f64::from(lim));
                }
            }
        }
        // With a usage variable, the hard limit moves onto its bound.
    }

    f
}

impl Formulation {
    /// Every model variable owned by one DFG node: schedule one-hots,
    /// cut selectors, intra-cycle start, and lifetime. The subgraph
    /// decomposition uses this to free a region's variables while the
    /// complement stays frozen at the incumbent.
    pub fn node_vars(&self, v: NodeId) -> impl Iterator<Item = VarId> + '_ {
        let i = v.index();
        self.s_vars[i]
            .iter()
            .map(|&(_, var)| var)
            .chain(self.c_vars[i].iter().copied())
            .chain(self.l_vars[i])
            .chain(self.len_vars[i])
    }

    /// Objective coefficients for a new `(α, β, γ)` weighting, as
    /// `(variable, coefficient)` pairs. A weight sweep applies these as
    /// objective deltas on a `ResolveContext` instead of rebuilding the
    /// model, so each sweep point starts from the previous point's
    /// solution as its incumbent.
    ///
    /// `γ` is only honoured when the model was *built* with a DSP-count
    /// variable (`gamma > 0.0` at build time); re-weighting to `γ = 0`
    /// then just zeroes its coefficient, which is exact.
    pub fn objective_deltas(&self, alpha: f64, beta: f64, gamma: f64) -> Vec<(VarId, f64)> {
        let mut out = Vec::with_capacity(self.alpha_units.len() + self.beta_units.len() + 1);
        out.extend(self.alpha_units.iter().map(|&(v, u)| (v, alpha * u)));
        out.extend(self.beta_units.iter().map(|&(v, u)| (v, beta * u)));
        out.extend(self.x_mult.map(|x| (x, gamma)));
        out
    }

    /// Extract an [`Implementation`] from a solved assignment.
    pub fn extract(&self, dfg: &Dfg, db: &CutDb, values: &[f64]) -> Implementation {
        let mut cycles = vec![0u32; dfg.len()];
        let mut starts = vec![0.0f64; dfg.len()];
        let mut selected = vec![None; dfg.len()];
        for (id, node) in dfg.iter() {
            for &(t, var) in &self.s_vars[id.index()] {
                if values[var.index()] > 0.5 {
                    cycles[id.index()] = t;
                }
            }
            if let Some(l) = self.l_vars[id.index()] {
                starts[id.index()] = values[l.index()].max(0.0);
            }
            if node.op.is_lut_mappable() {
                for (i, &c) in self.c_vars[id.index()].iter().enumerate() {
                    if values[c.index()] > 0.5 {
                        selected[id.index()] = Some(db.cuts(id).cuts()[i].clone());
                    }
                }
            }
        }
        Implementation {
            schedule: Schedule::new(self.ii, cycles, starts),
            cover: Cover::new(selected),
        }
    }

    /// Convert a known-legal implementation (the baseline seed) into a
    /// variable assignment; `None` if it does not fit the model (e.g. a
    /// cycle outside a window or a cut not in the database).
    pub fn seed(
        &self,
        dfg: &Dfg,
        target: &Target,
        db: &CutDb,
        imp: &Implementation,
    ) -> Option<Vec<f64>> {
        let starts = seed_starts(dfg, target, db, self.ii, imp);
        let mut vals = vec![0.0; self.model.num_vars()];
        for (id, node) in dfg.iter() {
            if schedulable(&node.op) {
                let cyc = imp.schedule.cycle(id);
                if cyc >= self.m {
                    return None;
                }
                let mut hit = false;
                for &(t, var) in &self.s_vars[id.index()] {
                    if t == cyc {
                        vals[var.index()] = 1.0;
                        hit = true;
                    }
                }
                if !hit {
                    return None; // outside the window
                }
            }
            if let Some(l) = self.l_vars[id.index()] {
                let (_, ub) = self.model.bounds(l);
                let want = starts[id.index()];
                if want > ub + 1e-6 {
                    return None; // an absorbed chain does not fit Eq. 8
                }
                vals[l.index()] = want.clamp(0.0, ub);
            }
            if node.op.is_lut_mappable() {
                if let Some(cut) = imp.cover.cut(id) {
                    let idx = db.cuts(id).cuts().iter().position(|c| c == cut)?;
                    vals[self.c_vars[id.index()][idx].index()] = 1.0;
                }
            }
        }
        // Lifetimes from the same liveness math the QoR evaluator uses.
        let (avail, last_use) = pipemap_netlist::liveness(dfg, target, imp);
        for (id, _) in dfg.iter() {
            if let Some(len) = self.len_vars[id.index()] {
                let lt = match last_use[id.index()] {
                    Some(last) => f64::from(last.saturating_sub(avail[id.index()])),
                    None => 0.0,
                };
                vals[len.index()] = lt;
            }
        }
        Some(vals)
    }
}

/// Intra-cycle start times consistent with *all* of the model's Eq. 9
/// rows for a concrete implementation: a fixpoint of
///
/// * `L_w ≥ L_u + d_u` for every same-effective-cycle input `u` of `w`'s
///   **selected** cut (and of black-box ports),
/// * `L_w ≥ L_u` for every same-effective-cycle ancestor that appears in
///   any **unselected** cut (propagated transitively through ports).
fn seed_starts(dfg: &Dfg, target: &Target, db: &CutDb, ii: u32, imp: &Implementation) -> Vec<f64> {
    let order = dfg.topo_order().expect("validated graph");
    let mut l = vec![0.0f64; dfg.len()];
    let same_cycle = |u: NodeId, dist: u32, w: NodeId| -> bool {
        let un = dfg.node(u);
        if matches!(un.op, Op::Input | Op::Const(_)) {
            return false;
        }
        let lat = target.op_latency(&un.op, un.width);
        imp.schedule.cycle(u) + lat == imp.schedule.cycle(w) + ii * dist
    };
    // A couple of sweeps so loop-carried same-cycle chains settle.
    for _ in 0..3 {
        let mut changed = false;
        for &w in &order {
            let node = dfg.node(w);
            if matches!(node.op, Op::Input | Op::Const(_)) {
                continue;
            }
            let mut need = 0.0f64;
            // Ordering through direct ports (covers interior ancestors).
            for p in &node.ins {
                if same_cycle(p.node, p.dist, w) {
                    need = need.max(l[p.node.index()]);
                }
            }
            // Delay through the physical inputs of this node's cell.
            let pay = |u: NodeId, dist: u32, need: &mut f64| {
                if same_cycle(u, dist, w) {
                    let un = dfg.node(u);
                    *need = need.max(l[u.index()] + local_delay(target, &un.op, un.width));
                }
            };
            if node.op.is_lut_mappable() {
                if let Some(cut) = imp.cover.cut(w) {
                    for sig in cut.inputs() {
                        pay(sig.node, sig.dist, &mut need);
                    }
                }
            } else {
                for p in &node.ins {
                    pay(p.node, p.dist, &mut need);
                }
            }
            if need > l[w.index()] + 1e-12 {
                l[w.index()] = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let _ = db;
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipemap_cuts::CutConfig;
    use pipemap_ir::DfgBuilder;
    use pipemap_milp::SolverOptions;

    fn small() -> Dfg {
        let mut b = DfgBuilder::new("small");
        let s = b.input("s", 2);
        let t = b.input("t", 2);
        let a = b.shr(s, 1);
        let x = b.xor(t, a);
        b.output("o", x);
        b.finish().expect("valid")
    }

    #[test]
    fn model_solves_and_extracts() {
        let g = small();
        let target = Target::fig1();
        let db = CutDb::enumerate(&g, &CutConfig::for_target(&target));
        let f = build(&g, &target, &db, 1, 2, 0.5, 0.5);
        let r = f
            .model
            .solve(&SolverOptions::default())
            .expect("milp solves");
        assert!(r.status.has_solution(), "status {:?}", r.status);
        let imp = f.extract(&g, &db, &r.values);
        pipemap_netlist::verify(&g, &target, &imp).expect("legal");
    }

    #[test]
    fn mapping_aware_model_absorbs_the_shift() {
        let g = small();
        let target = Target::fig1();
        let db = CutDb::enumerate(&g, &CutConfig::for_target(&target));
        let f = build(&g, &target, &db, 1, 2, 0.5, 0.5);
        let r = f.model.solve(&SolverOptions::default()).expect("solves");
        let imp = f.extract(&g, &db, &r.values);
        // Optimal cover: one LUT rooted at the xor absorbing the shift.
        let q = pipemap_netlist::Qor::evaluate(&g, &target, &imp);
        assert_eq!(q.luts, 2, "one 2-bit LUT expected, got {q:?}");
        assert_eq!(q.ffs, 0);
    }

    #[test]
    fn seed_from_baseline_is_feasible() {
        let g = small();
        let target = Target::fig1();
        let db = CutDb::enumerate(&g, &CutConfig::for_target(&target));
        let base = crate::baseline::schedule_baseline(&g, &target, 1, &db).expect("baseline");
        let m = base.implementation.schedule.depth();
        let f = build(&g, &target, &db, base.ii, m, 0.5, 0.5);
        let seed = f
            .seed(&g, &target, &db, &base.implementation)
            .expect("seed maps into the model");
        assert!(
            f.model.check_feasible(&seed, 1e-6).is_none(),
            "seed violates a row"
        );
    }
}
