//! What every workload shares: the per-pass record, the layer timer and
//! the fixed solver settings.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall-clock limit handed to every MILP solve. It can never bind: a run
/// is killed long before, and the root cut loop's own sub-deadline
/// (`time_limit / 8`) is still far beyond any solve here. Every solve
/// therefore ends proven optimal.
pub const NEVER_BINDING_LIMIT: Duration = Duration::from_secs(3600);

/// Pipeline iterations simulated per design in the functional check.
pub const SIM_ITERATIONS: usize = 48;

/// Weights of the paper's Eq. 15 objective used by every flow here.
pub const ALPHA: f64 = 0.5;
pub const BETA: f64 = 0.5;

/// One timed call: which input, how long it took, the host-speed probe's
/// readings just before and just after it, and whether it is a
/// multi-second tree search, whose speed follows the probe's only in part.
#[derive(Debug, Clone)]
pub struct Sample {
    pub input: String,
    pub secs: f64,
    pub readings: [f64; 2],
    pub solver_bound: bool,
}

/// How a solver-bound call's time follows the probe's: over 15
/// `map-exact` runs, the log of the slowest compiles' time grew by 0.50
/// per unit of the log of the run's probe reading (0.54 and 0.57 in two
/// sets of runs), where the front-end code grows by about 1.
pub const SOLVER_EXPONENT: f64 = 0.5;

/// Each of `samples`' seconds at the reference host's speed. The samples
/// are consecutive calls; a call's host speed is the median reading of
/// itself and its neighbours, since one reading can catch a burst the
/// call beside it does not see.
pub fn normalised(samples: &[Sample]) -> Vec<f64> {
    (0..samples.len())
        .map(|i| {
            let near = &samples[i.saturating_sub(1)..(i + 2).min(samples.len())];
            let readings: Vec<f64> = near.iter().flat_map(|s| s.readings).collect();
            let factor = crate::calib::REFERENCE_S / crate::stats::median(&readings);
            let exponent = if samples[i].solver_bound {
                SOLVER_EXPONENT
            } else {
                1.0
            };
            samples[i].secs * factor.powf(exponent)
        })
        .collect()
}

/// Everything one pass over a workload's inputs produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// One sample per compile, in the order they ran.
    pub samples: Vec<Sample>,
    /// Compiles attempted and compiles whose every output checked out.
    pub attempted: usize,
    pub answered: usize,
    /// Failed checks and fixed-work guard violations, one line each.
    pub errors: Vec<String>,
    /// Sum of the Eq. 15 objective of every answer (lower is better).
    pub objective: f64,
    /// Sum of proven dual bounds (higher is better).
    pub bound: f64,
    /// QoR of the checked designs.
    pub luts: u64,
    pub ffs: u64,
    pub cps: Vec<f64>,
    /// Exact quantities that must repeat in every pass of a run.
    pub fingerprint: Vec<String>,
    /// Per-layer seconds (benchmark spans in traced passes, plus the
    /// solve times the program itself reports).
    pub times: BTreeMap<&'static str, f64>,
    /// Per-layer counts, read from the program's returned statistics.
    pub counts: BTreeMap<&'static str, f64>,
}

impl PassOut {
    /// Add `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// Add `secs` to the layer time `name`.
    pub fn time(&mut self, name: &'static str, secs: f64) {
        *self.times.entry(name).or_insert(0.0) += secs;
    }

    /// Record one checked design's QoR.
    pub fn design(&mut self, q: &pipemap_netlist::Qor) {
        self.luts += q.luts;
        self.ffs += q.ffs;
        self.cps.push(q.cp_ns);
    }

    /// Copy the solver statistics every MILP workload reports.
    pub fn solver_stats(&mut self, s: &pipemap_milp::SolverStats) {
        self.count("milp.warm_attempts", s.warm_attempts as f64);
        self.count("milp.warm_hits", s.warm_hits as f64);
        self.count("milp.presolve_rows_removed", s.presolve_rows_removed as f64);
        self.count("milp.probe_fixings", s.probe_fixings as f64);
        self.count("milp.cut_rounds", s.cut_rounds as f64);
        let root_cuts = s.clique_cuts + s.cover_cuts + s.implication_cuts + s.gomory_cuts;
        self.count("milp.root_cuts", root_cuts as f64);
        self.count("milp.orbital_fixings", s.orbital_fixings as f64);
    }

    /// Record a failed check or guard violation.
    pub fn fail(&mut self, what: String) {
        self.errors.push(what);
    }
}

/// The benchmark's own spans around calls into a layer. When tracing is
/// off a span is a plain call, so untraced passes pay nothing for it.
#[derive(Debug, Clone, Copy)]
pub struct Tracer {
    pub enabled: bool,
}

impl Tracer {
    /// Run `f`, charging its wall time to layer `name` when tracing.
    pub fn span<T>(self, out: &mut PassOut, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t = Instant::now();
        let r = f();
        out.time(name, t.elapsed().as_secs_f64());
        r
    }
}

/// Shortest span one compile sample covers: a compile faster than this
/// is repeated back to back and the sample is its fastest call, so
/// millisecond compiles are not timed from a single cold call.
pub const MIN_SAMPLE_S: f64 = 0.02;

/// Run `f` once between two host-speed probes.
pub fn sample<T>(input: &str, f: impl FnOnce() -> T) -> (T, Sample) {
    let before = crate::calib::probe();
    let t = Instant::now();
    let r = f();
    let secs = t.elapsed().as_secs_f64();
    let readings = [before, crate::calib::probe()];
    let s = Sample {
        input: input.to_string(),
        secs,
        readings,
        solver_bound: false,
    };
    (r, s)
}

/// Run `f` between two host-speed probes, back to back until
/// `MIN_SAMPLE_S` has passed; return the last result and a sample of the
/// fastest call.
pub fn sample_repeated<T>(input: &str, mut f: impl FnMut() -> T) -> (T, Sample) {
    let (r, mut s) = sample(input, || {
        let start = Instant::now();
        let mut fastest = f64::INFINITY;
        loop {
            let t = Instant::now();
            let r = f();
            fastest = fastest.min(t.elapsed().as_secs_f64());
            if start.elapsed().as_secs_f64() >= MIN_SAMPLE_S {
                return (r, fastest);
            }
        }
    });
    s.secs = r.1;
    (r.0, s)
}

/// One workload: built once in set-up, then run pass after pass.
pub trait Workload {
    /// Compile every input, in a fixed order, and check every output.
    fn pass(&self, tracer: Tracer) -> PassOut;
}

/// Deterministic 64-bit mixer (splitmix64) for seeds and shuffles.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seed for input `name` under workload seed `seed`.
pub fn input_seed(seed: u64, name: &str) -> u64 {
    name.bytes().fold(mix(seed), |h, b| mix(h ^ u64::from(b)))
}
