//! The output checks every workload applies to the designs it gets back.

use pipemap_ir::{Dfg, InputStreams, Target};
use pipemap_netlist::{to_verilog, verify_functional, Implementation};
use pipemap_verify::{check_implementation, lint_verilog, Diagnostics, Severity};

use crate::workload::{PassOut, Tracer, SIM_ITERATIONS};

/// Check one design three ways: legality (`verify::check_implementation`),
/// behaviour against `ir::execute` on stimuli drawn from `stim_seed`
/// (`netlist::verify_functional`) and, at II = 1, the emitted Verilog
/// (`verify::lint_verilog`; the Verilog writer supports only II = 1).
/// Every failure is recorded in `out`; returns whether all checks passed.
pub fn check_design(
    out: &mut PassOut,
    tracer: Tracer,
    label: &str,
    dfg: &Dfg,
    target: &Target,
    imp: &Implementation,
    stim_seed: u64,
) -> bool {
    let diags = tracer.span(out, "verify.check_s", || {
        check_implementation(dfg, target, imp)
    });
    if let Some(e) = first_error(&diags) {
        out.fail(format!("{label}: illegal implementation: {e}"));
        return false;
    }
    let stimuli = InputStreams::random(dfg, SIM_ITERATIONS, stim_seed);
    let sim = tracer.span(out, "netlist.sim_s", || {
        verify_functional(dfg, target, imp, &stimuli, SIM_ITERATIONS)
    });
    if let Err(e) = sim {
        out.fail(format!(
            "{label}: simulation disagrees with ir::execute: {e}"
        ));
        return false;
    }
    if imp.schedule.ii() != 1 {
        return true;
    }
    let verilog = tracer.span(out, "netlist.verilog_s", || {
        to_verilog(dfg, target, imp, "top")
    });
    let src = match verilog {
        Ok(src) => src,
        Err(e) => {
            out.fail(format!("{label}: Verilog emission failed: {e}"));
            return false;
        }
    };
    let lint = tracer.span(out, "verify.check_s", || lint_verilog(&src));
    if let Some(e) = first_error(&lint) {
        out.fail(format!("{label}: Verilog lint: {e}"));
        return false;
    }
    true
}

/// The first error-severity finding, rendered.
pub fn first_error(diags: &Diagnostics) -> Option<String> {
    diags
        .iter()
        .find(|d| d.severity == Severity::Error)
        .map(ToString::to_string)
}
