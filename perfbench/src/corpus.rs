//! The input corpus every workload's set-up loads: the nine suite
//! benchmarks plus scaled generator instances, each round-tripped through
//! `.pmir` text and linted before any workload uses it.

use pipemap_bench_suite::{all, clz, cordic, xorr, Benchmark};
use pipemap_ir::{parse_dfg, print_dfg};
use pipemap_verify::lint_dfg;

use crate::check::first_error;

/// Number of leading corpus entries that are the paper's nine benchmarks.
pub const SUITE_LEN: usize = 9;

/// Generate the corpus and check that every graph prints to text that
/// parses back to a graph of the same size and lints clean.
pub fn load() -> Result<Vec<Benchmark>, String> {
    let mut benches = all();
    benches.extend([xorr(1024, 4), xorr(512, 4), clz(64), cordic(8)]);
    for b in &benches {
        let parsed = parse_dfg(&print_dfg(&b.dfg)).map_err(|e| format!("{}: {e}", b.name))?;
        if parsed.len() != b.dfg.len() {
            return Err(format!(
                "{}: {} nodes printed, {} parsed back",
                b.name,
                b.dfg.len(),
                parsed.len()
            ));
        }
        if let Some(e) = first_error(&lint_dfg(&parsed, None)) {
            return Err(format!("{}: {e}", b.name));
        }
    }
    Ok(benches)
}
