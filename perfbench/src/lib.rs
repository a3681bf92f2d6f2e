//! A steady, closed-loop benchmark of localias.
//!
//! Three workloads drive the analysis crates' public API from one
//! process on one analysis thread, with no think time between
//! operations:
//!
//! * [`sweep`] — whole 589-module tiles of the seeded §7 corpus, every
//!   module brought to its three-mode verdict;
//! * [`watch`] — single-function saves of the 300-function mega-module
//!   fed to one `IncrementalSession`;
//! * [`fuzz`] — seeded `fuzzgen` modules judged by the interpreter
//!   oracle through `run_fuzz_with`.
//!
//! Every operation's output is checked against a computation made apart
//! from the code under test, and failures are counted, not hidden. An
//! end-to-end run keeps the program's `obs` sinks off; a traced run
//! alternates untraced and traced rounds over a fixed input set, times
//! each call into a layer's public function from outside (as `layer.*`
//! spans recorded by this crate), and reads the program's own spans,
//! counters and histograms for the rest. See `README.md`.

pub mod fuzz;
pub mod layers;
pub mod stats;
pub mod sweep;
pub mod watch;

use localias_corpus::GeneratedModule;
use localias_cqual::LockReport;
use std::time::{Duration, Instant};

/// A module's error counts: (no-confine, confine, all-strong).
pub type Triple = (usize, usize, usize);

/// The triple a generator composed for `m`.
pub fn expected(m: &GeneratedModule) -> Triple {
    (m.expect.no_confine, m.expect.confine, m.expect.all_strong)
}

/// The triple of three mode reports, in `MODES` order.
pub fn triple(r: &[LockReport; 3]) -> Triple {
    (r[0].error_count(), r[1].error_count(), r[2].error_count())
}

/// One metric of a run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Every check that is not tied to a single operation passed
    /// (e.g. a corpus tile's category totals).
    pub correct: bool,
    /// Operations attempted (modules or saved edits).
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// The run's metrics, end-to-end or per-layer.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// A result with nothing attempted yet; `correct` starts as given.
    pub fn new(correct: bool) -> RunResult {
        RunResult {
            correct,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts one operation, failed unless `ok`.
    pub fn judge(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The value of the metric called `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Renders the result as the one-line JSON object the benchmark
    /// prints last. Floats use Rust's shortest round-trip form, so every
    /// digit measured is kept.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// How long a run keeps starting rounds. A run always completes at
/// least one whole round and never stops inside one, so every run
/// attempts whole rounds of the same operations.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    seconds: f64,
}

impl Budget {
    /// A budget of `seconds` starting now (`0` means exactly one round).
    pub fn new(seconds: f64) -> Budget {
        Budget {
            started: Instant::now(),
            seconds,
        }
    }

    /// `true` while another round may start, given `rounds` completed.
    pub fn another_round(&self, rounds: usize) -> bool {
        rounds == 0 || self.elapsed() < self.seconds
    }

    /// `true` when set-up number `done` of `total` is due. Set-ups are
    /// spread evenly over the run, so their median samples the machine
    /// at several moments rather than one.
    pub fn setup_due(&self, done: usize, total: usize) -> bool {
        done < total && self.elapsed() >= self.seconds * done as f64 / total as f64
    }

    fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Per-operation timings of the measured loop of one run.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// Source-to-verdict latency of each operation, in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Time spent inside the program per operation (latency plus input
    /// generation where the loop generates), summed. The benchmark's
    /// own checks are outside it.
    pub busy: Duration,
}

impl Timings {
    /// Records one operation.
    pub fn push(&mut self, latency: Duration, busy: Duration) {
        self.latency_ns.push(latency.as_nanos() as u64);
        self.busy += busy;
    }

    /// Mean busy time per operation, in milliseconds.
    pub fn mean_busy_ms(&self) -> f64 {
        if self.latency_ns.is_empty() {
            return 0.0;
        }
        self.busy.as_secs_f64() * 1e3 / self.latency_ns.len() as f64
    }
}

/// The five end-to-end metrics every workload reports.
///
/// `tail_pct` is the workload's fixed tail percentile (see the README):
/// the highest with at least ten samples beyond it in every run.
pub fn end_to_end(setups: &[Duration], t: &Timings, tail_pct: f64) -> Vec<Metric> {
    let setup: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    let mut lat = t.latency_ns.clone();
    lat.sort_unstable();
    if stats::beyond(lat.len(), tail_pct) < 10 {
        eprintln!(
            "perfbench: only {} of {} samples lie beyond p{tail_pct}; the tail is not a tail",
            stats::beyond(lat.len(), tail_pct),
            lat.len()
        );
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    vec![
        Metric {
            name: "setup_s",
            value: stats::median(&setup),
            unit: "s",
        },
        Metric {
            name: "modules_per_s",
            value: t.latency_ns.len() as f64 / t.busy.as_secs_f64().max(1e-9),
            unit: "1/s",
        },
        Metric {
            name: "module_p50_ms",
            value: ms(stats::percentile_sorted(&lat, 50.0)),
            unit: "ms",
        },
        Metric {
            name: "module_tail_ms",
            value: ms(stats::percentile_sorted(&lat, tail_pct)),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mib",
            value: localias_obs::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
            unit: "MiB",
        },
    ]
}

/// SplitMix64's output function: derives well-spread per-tile and
/// per-module seeds from the workload seed.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times `f`, returning its result and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}
