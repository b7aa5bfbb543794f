//! Fixed-work benchmark of the pipemap compiler.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <frontend|map-exact> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! A run repeats whole passes over the workload's inputs for at most
//! `--seconds`, building the workload afresh before each pass and
//! checking every output of every pass. Every timed call runs between two
//! readings of a host-speed probe (see `calib`), and every timing is
//! scaled to the probe's reference speed, which removes the host's drift;
//! each metric is then the median of its repeats in the run. The last
//! line of standard output is one JSON object: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Every MILP
//! solve is fixed-work (one job, a time limit that cannot bind, proven
//! optimal), and every pass must repeat the first pass's exact counts,
//! or the run reports `"correct": false`. `--self-test` builds the MILP
//! workload twice and checks that both copies produce identical counts,
//! objectives, bounds and QoR.

mod calib;
mod check;
mod corpus;
mod frontend;
mod map_exact;
mod stats;
mod sweep;
mod workload;

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use stats::{geomean, median, peak_rss_mb, tail_mean};
use workload::{normalised, sample, PassOut, Tracer, Workload};

const USAGE: &str = "usage: perfbench --workload <frontend|map-exact> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test";

const WORKLOADS: [&str; 2] = ["frontend", "map-exact"];

/// Seconds of set-up timed before each pass (at least one build).
const SETUP_ROUND_S: f64 = 0.1;

/// Share of inputs, the slowest, whose mean time is `compile_s_tail`.
const TAIL_SHARE: f64 = 0.1;

/// Per-layer metrics printed by a traced run, with their units. Those in
/// seconds are layer times; the rest are counts or ratios.
const PER_LAYER: [(&str, &str); 41] = [
    ("ir.parse_s", "s"),
    ("analyze.simplify_s", "s"),
    ("analyze.nodes_removed", "count"),
    ("cuts.enumerate_s", "s"),
    ("cuts.priority_s", "s"),
    ("cuts.total", "count"),
    ("cuts.pruned", "count"),
    ("core.baseline_s", "s"),
    ("core.heuristic_s", "s"),
    ("core.formulation_s", "s"),
    ("netlist.qor_s", "s"),
    ("netlist.verilog_s", "s"),
    ("netlist.sim_s", "s"),
    ("verify.check_s", "s"),
    ("milp.solve_s", "s"),
    ("milp.lp_iterations", "count"),
    ("milp.lp_iters_per_s", "1/s"),
    ("milp.nodes", "count"),
    ("milp.nodes_per_s", "1/s"),
    ("milp.warm_hit_rate", "share"),
    ("milp.presolve_rows_removed", "count"),
    ("milp.probe_fixings", "count"),
    ("milp.cut_rounds", "count"),
    ("milp.root_cuts", "count"),
    ("milp.orbital_fixings", "count"),
    ("milp.vars", "count"),
    ("milp.rows", "count"),
    ("milp.bound_total", "obj"),
    ("resolve.solves", "count"),
    ("resolve.cached_results", "count"),
    ("resolve.incumbent_seeds", "count"),
    ("resolve.warm_hits", "count"),
    ("resolve.lu_factor_reuses", "count"),
    ("resolve.frontier_resumes", "count"),
    ("sweep.bases_deduped", "count"),
    ("sweep.solve_s", "s"),
    ("qor.luts_total", "count"),
    ("qor.ffs_total", "count"),
    ("qor.cp_ns_geomean", "ns"),
    ("trace.pass_wall_s", "s"),
    ("trace.overhead_share", "share"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok(Mode::Run(a)) => run(&a),
        Ok(Mode::SelfTest) => self_test(),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args == ["--self-test"] {
        return Ok(Mode::SelfTest);
    }
    let mut kv = BTreeMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        if kv.insert(k.as_str(), v.as_str()).is_some() {
            return Err(format!("{k} given twice"));
        }
    }
    let workload = kv
        .remove("--workload")
        .ok_or("missing --workload")?
        .to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = kv.remove("--seed").ok_or("missing --seed")?;
    let seed = seed
        .parse::<u64>()
        .map_err(|_| format!("--seed: `{seed}` is not a whole number"))?;
    let seconds = kv.remove("--seconds").ok_or("missing --seconds")?;
    let seconds = seconds
        .parse::<f64>()
        .ok()
        .filter(|x| x.is_finite() && *x >= 0.0)
        .ok_or_else(|| format!("--seconds: `{seconds}` is not a non-negative number"))?;
    let trace = match kv.remove("--trace") {
        Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace: `{v}` is not 0 or 1")),
        None => return Err("missing --trace".into()),
    };
    if let Some(k) = kv.keys().next() {
        return Err(format!("unknown option {k}"));
    }
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Load the corpus and build `workload` from it.
fn setup(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    let corpus = corpus::load()?;
    Ok(match workload {
        "frontend" => Box::new(frontend::Frontend::new(corpus, seed)),
        "map-exact" => Box::new(map_exact::MapExact::new(corpus, seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// One measured pass: whether it was traced, its wall time without the
/// probes at reference speed, its wall time as measured, its samples'
/// seconds at reference speed, its output.
struct Pass {
    traced: bool,
    wall: f64,
    raw_wall: f64,
    norm: Vec<f64>,
    out: PassOut,
}

fn run(a: &Args) -> i32 {
    // Set-up is timed several times, spread over the run: before every
    // pass the workload is built again, for at least `SETUP_ROUND_S` in
    // all, and that pass runs on the last copy. A short phase can fall
    // wholly inside a burst of host contention, so samples from one
    // moment would not describe the run.
    let mut setup_secs = Vec::new();
    let mut setup_round = || -> Result<Box<dyn Workload>, String> {
        let round = Instant::now();
        let mut samples = Vec::new();
        loop {
            let (w, s) = sample("setup", || setup(&a.workload, a.seed));
            let w = w?;
            samples.push(s);
            if round.elapsed().as_secs_f64() >= SETUP_ROUND_S {
                setup_secs.extend(normalised(&samples));
                return Ok(w);
            }
        }
    };

    // Whole passes until the next one would overrun the budget. A traced
    // run alternates untraced and traced passes, at least one of each, so
    // it can report what the spans cost.
    let budget = Duration::from_secs_f64(a.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = None;
    loop {
        let w = match setup_round() {
            Ok(w) => w,
            Err(e) => {
                eprintln!("perfbench: set-up of {} failed: {e}", a.workload);
                return 1;
            }
        };
        let traced = a.trace && passes.len() % 2 == 1;
        let probing = calib::spent();
        let t = Instant::now();
        let mut out = w.pass(Tracer { enabled: traced });
        let wall = t.elapsed();
        let probing = calib::spent() - probing;
        drop(w);
        // The pass ran at the host speed its samples saw, weighted by
        // their time; its layer times are scaled by the same factor.
        let norm = normalised(&out.samples);
        let raw: f64 = out.samples.iter().map(|s| s.secs).sum();
        let speed = norm.iter().sum::<f64>() / raw;
        out.times.values_mut().for_each(|t| *t *= speed);
        // Later passes only add allocator fragmentation, which varies
        // with how many set-ups ran between them; the memory a compile
        // session needs is fixed by set-up and one pass.
        if passes.is_empty() {
            peak_rss = peak_rss_mb();
        }
        passes.push(Pass {
            traced,
            wall: (wall.as_secs_f64() - probing) * speed,
            raw_wall: wall.as_secs_f64(),
            norm,
            out,
        });
        let min_passes = if a.trace { 2 } else { 1 };
        if passes.len() >= min_passes && start.elapsed() + wall > budget {
            break;
        }
    }

    let mut errors: BTreeSet<String> = BTreeSet::new();
    for (k, p) in passes.iter().enumerate() {
        errors.extend(p.out.errors.iter().cloned());
        let first = &passes[0].out.fingerprint;
        if p.out.fingerprint != *first {
            let diff = first
                .iter()
                .zip(&p.out.fingerprint)
                .find(|(x, y)| x != y)
                .map_or_else(
                    || "a different number of results".to_string(),
                    |(x, y)| format!("`{y}` against `{x}`"),
                );
            errors.insert(format!(
                "fixed-work guard: pass {k} did different work from pass 0: {diff}"
            ));
        }
    }
    let attempted: usize = passes.iter().map(|p| p.out.attempted).sum();
    let answered: usize = passes.iter().map(|p| p.out.answered).sum();
    let failed = attempted - answered;
    let samples: usize = passes.iter().map(|p| p.out.samples.len()).sum();
    let walls: Vec<String> = passes
        .iter()
        .map(|p| format!("{:.3}/{:.3}", p.raw_wall, p.wall))
        .collect();
    let probes: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.out.samples.iter().flat_map(|s| s.readings))
        .collect();
    eprintln!(
        "perfbench: {} {} passes (wall s as measured/at reference speed: {}), \
{samples} compile samples over {} inputs, {} set-ups, probe median {:.2} ms \
(reference {:.2} ms), {:.1} s run",
        a.workload,
        passes.len(),
        walls.join(" "),
        input_medians(&passes).len(),
        setup_secs.len(),
        median(&probes) * 1e3,
        calib::REFERENCE_S * 1e3,
        start.elapsed().as_secs_f64()
    );
    for e in &errors {
        eprintln!("perfbench: FAILED {e}");
    }

    let metrics = if a.trace {
        per_layer(&passes)
    } else {
        end_to_end(&passes, &setup_secs, peak_rss, answered, attempted)
    };
    let mut correct = errors.is_empty() && failed == 0 && attempted > 0;
    let mut fields = Vec::new();
    for (name, unit, value) in metrics {
        if !value.is_finite() {
            eprintln!("perfbench: FAILED metric {name} is {value}");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    0
}

type Metric = (&'static str, &'static str, f64);

/// Each input's median compile time at reference speed over every pass
/// of the run.
fn input_medians(passes: &[Pass]) -> Vec<f64> {
    let mut by_input: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for p in passes {
        for (s, &secs) in p.out.samples.iter().zip(&p.norm) {
            by_input.entry(&s.input).or_default().push(secs);
        }
    }
    by_input.values().map(|v| median(v)).collect()
}

fn end_to_end(
    passes: &[Pass],
    setup_secs: &[f64],
    peak_rss: Option<f64>,
    answered: usize,
    attempted: usize,
) -> Vec<Metric> {
    let per_input = input_medians(passes);
    // The median of every sample, not of the per-input medians: those
    // lie apart, and their middle one jumped from input to input.
    let every: Vec<f64> = passes.iter().flat_map(|p| p.norm.iter().copied()).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let first = &passes[0].out;
    vec![
        ("setup_s", "s", median(setup_secs)),
        ("pass_wall_s", "s", median(&walls)),
        ("compile_s_p50", "s", median(&every)),
        ("compile_s_tail", "s", tail_mean(&per_input, TAIL_SHARE)),
        ("compile_s_geomean", "s", geomean(&per_input)),
        ("objective_total", "obj", first.objective),
        (
            "answered_share",
            "share",
            answered as f64 / attempted.max(1) as f64,
        ),
        ("peak_rss_mb", "MiB", peak_rss.unwrap_or(f64::NAN)),
    ]
}

fn per_layer(passes: &[Pass]) -> Vec<Metric> {
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.wall)
        .collect();
    let traced_wall = median(&traced.iter().map(|p| p.wall).collect::<Vec<_>>());
    let time = |k: &str| {
        let v: Vec<f64> = traced
            .iter()
            .map(|p| p.out.times.get(k).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    };
    let first = &passes[0].out;
    let count = |k: &str| first.counts.get(k).copied().unwrap_or(0.0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let solve_s = time("milp.solve_s");

    // Each layer's share of the traced pass wall; what no span covers is
    // "(unattributed)".
    println!("layer                      median_s   share");
    let share = |t: f64| 100.0 * t / traced_wall.max(1e-12);
    let mut attributed = 0.0;
    for &(name, _) in PER_LAYER
        .iter()
        .filter(|(name, unit)| *unit == "s" && !name.starts_with("trace."))
    {
        let t = time(name);
        attributed += t;
        println!("{name:<26} {t:>9.4} {:>6.1}%", share(t));
    }
    let rest = traced_wall - attributed;
    println!("{:<26} {rest:>9.4} {:>6.1}%", "(unattributed)", share(rest));

    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "milp.lp_iters_per_s" => ratio(count("milp.lp_iterations"), solve_s),
                "milp.nodes_per_s" => ratio(count("milp.nodes"), solve_s),
                "milp.warm_hit_rate" => ratio(count("milp.warm_hits"), count("milp.warm_attempts")),
                "milp.bound_total" => first.bound,
                "qor.luts_total" => first.luts as f64,
                "qor.ffs_total" => first.ffs as f64,
                "qor.cp_ns_geomean" => geomean(&first.cps),
                "trace.pass_wall_s" => traced_wall,
                "trace.overhead_share" if untraced.is_empty() => 0.0,
                "trace.overhead_share" => traced_wall / median(&untraced) - 1.0,
                _ if unit == "s" => time(name),
                _ => count(name),
            };
            (name, unit, v)
        })
        .collect()
}

/// Build the MILP workload twice, with different seeds, and run one pass
/// on each copy: every exact quantity must agree, and no check or guard
/// may fail.
fn self_test() -> i32 {
    let run_once = |seed: u64| -> Result<PassOut, String> {
        Ok(setup("map-exact", seed)?.pass(Tracer { enabled: false }))
    };
    let (a, b) = match (run_once(1), run_once(2)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            println!("self-test: set-up failed: {e}");
            return 1;
        }
    };
    let mut bad: Vec<String> = a.errors.iter().chain(&b.errors).cloned().collect();
    if a.fingerprint != b.fingerprint {
        bad.push("the two runs differ in nodes, LP iterations, objective, bound or QoR".into());
    }
    if a.answered != a.attempted || b.answered != b.attempted {
        bad.push("not every compile answered".into());
    }
    for e in &bad {
        println!("self-test: FAILED {e}");
    }
    if !bad.is_empty() {
        return 1;
    }
    println!(
        "self-test: ok, {} exact results repeat across two runs",
        a.fingerprint.len()
    );
    0
}
