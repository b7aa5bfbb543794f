//! The host-speed probe: a fixed piece of work shaped like the compiler's
//! own (small allocations and sorted-set merges over a random DAG, as a
//! cut enumerator does), timed on the benchmark's thread between
//! compiles. On a shared host the speed of such code drifts by up to 2x
//! within seconds and between minutes, and the probe drifts with it:
//! over the `frontend` passes of a run on a 2-core Intel Xeon VM its
//! readings correlated 0.95 with the pass's time. Dividing a time by the
//! probe readings around it removes the drift, leaving the time the call
//! would take on a host as fast as the reference one. The same probe run
//! on the other core tracked almost nothing, so it stays on this thread.
//! Bursts inside a multi-second solve are not seen by the readings at
//! its ends; those only repeats in the run average out.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::workload::mix;

/// Nodes of the probe's random DAG. With 6000 nodes the probe fitted in
/// a faster cache than the compiler's data and slowed less than the
/// compiles did (time grew as probe^1.2-1.3); at 24000 nodes the two
/// grew alike (exponent 0.95, correlation 0.95 over a run's passes).
const NODES: usize = 24_000;
/// Fanins per node (fewer near the sources).
const FANIN: usize = 3;
/// Largest set kept per node, as a cut enumerator keeps its best cuts.
const KEEP: usize = 8;

/// Seconds one probe run takes on the reference host: close to a reading
/// on that 2-core Intel Xeon VM (2.1 GHz) when it is quiet. A time divided
/// by the probe readings around it and multiplied by this is in seconds
/// at reference speed.
pub const REFERENCE_S: f64 = 0.008;

/// A reading this recent is still the current one: the reading after one
/// call serves as the reading before the next.
const FRESH: Duration = Duration::from_millis(1);

thread_local! {
    /// The last reading on this thread: when it was taken, and its value.
    static LAST: Cell<Option<(Instant, f64)>> = const { Cell::new(None) };
    /// Seconds spent probing so far on this thread.
    static SPENT: Cell<f64> = const { Cell::new(0.0) };
}

/// A reading of the host's speed now: the seconds one probe run takes.
pub fn probe() -> f64 {
    static PROBE: OnceLock<Probe> = OnceLock::new();
    if let Some((at, secs)) = LAST.get() {
        if at.elapsed() < FRESH {
            return secs;
        }
    }
    let secs = PROBE.get_or_init(Probe::new).time();
    SPENT.set(SPENT.get() + secs);
    LAST.set(Some((Instant::now(), secs)));
    secs
}

/// Seconds spent in `probe` so far on this thread.
pub fn spent() -> f64 {
    SPENT.get()
}

/// The probe's fixed input: for each node, its fanins (all earlier), and
/// the checksum the work must produce.
struct Probe {
    fanins: Vec<Vec<u32>>,
    expected: u64,
}

impl Probe {
    fn new() -> Probe {
        let mut r = 0x5EED_u64;
        let fanins = (0..NODES)
            .map(|v| {
                (0..FANIN.min(v))
                    .map(|_| {
                        r = mix(r);
                        (r % v as u64) as u32
                    })
                    .collect()
            })
            .collect();
        let mut p = Probe {
            fanins,
            expected: 0,
        };
        p.expected = p.work();
        p
    }

    /// Run the probe once and return its seconds. The result of the work
    /// is checked, so the work cannot be optimised away or go wrong
    /// unnoticed.
    fn time(&self) -> f64 {
        let t = Instant::now();
        let sum = self.work();
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(
            sum, self.expected,
            "host-speed probe computed a wrong result"
        );
        secs
    }

    /// Per node, merge its fanins' sets with itself into a sorted set of
    /// at most `KEEP` members; return a checksum of every set.
    fn work(&self) -> u64 {
        let mut sets: Vec<Vec<u32>> = Vec::with_capacity(NODES);
        let mut sum = 0u64;
        for (v, fi) in self.fanins.iter().enumerate() {
            let mut s = vec![v as u32];
            for &u in fi {
                s = merge(&s, &sets[u as usize]);
            }
            s.truncate(KEEP);
            sum = mix(sum ^ s.iter().fold(0, |h, &x| mix(h ^ u64::from(x))));
            sets.push(s);
        }
        std::hint::black_box(sum)
    }
}

/// Sorted union of two sorted sets, largest members first.
fn merge(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let x = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x > y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) | (None, Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, None) => unreachable!(),
        };
        out.push(x);
    }
    out
}
