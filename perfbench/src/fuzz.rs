//! `fuzz_oracle`: seeded `fuzzgen` modules judged one at a time by
//! `run_fuzz_with`. Each entry function runs under the `interp`
//! reference semantics, then the module is checked statically under
//! both alias backends and all three modes.
//!
//! Module `j` of a run is `fuzz_module(mix64(seed) ^ j, 0)`, judged by a
//! one-iteration `run_fuzz_with` call so each module is timed on its
//! own; a round is [`ROUND`] consecutive modules. The oracle must find
//! zero soundness divergences and zero Theorem-1 violations.

use crate::layers::{self, TraceTally};
use crate::{end_to_end, mix64, timed, Budget, RunResult, Timings};
use localias_alias::Backend;
use localias_ast::Module;
use localias_bench::fuzz::{run_fuzz_with, FuzzConfig, FuzzReport, StaticMatrix};
use localias_corpus::fuzz_module;
use localias_obs as obs;
use std::cell::RefCell;
use std::hint::black_box;

/// Default workload seed (the fuzzer's own default).
pub const DEFAULT_SEED: u64 = 42;
/// `module_tail_ms` percentile: a 30 s run judges 45–65 thousand
/// modules, leaving hundreds of samples beyond p99.
pub const TAIL_PCT: f64 = 99.0;
/// Modules per round.
pub const ROUND: u64 = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Modules each set-up judges.
const WARMUP: u64 = 256;
/// Top-level span of one traced module.
const MAIN: &str = "fuzz.module";

/// The static checker under test, as `run_fuzz_with` takes it.
pub type Checker<'a> = dyn Fn(&Module) -> StaticMatrix + 'a;

/// The `run_fuzz_with` seed that makes module `j` of the run.
pub fn module_seed(seed: u64, j: u64) -> u64 {
    mix64(seed) ^ j
}

/// Judges module `j`: generation, parse, interpretation of every entry
/// and the static matrix, exactly as `localias fuzz` does per module.
fn judge(seed: u64, j: u64, checker: &Checker<'_>) -> FuzzReport {
    let cfg = FuzzConfig {
        seed: module_seed(seed, j),
        iterations: 1,
        shrink: false,
        ..FuzzConfig::default()
    };
    run_fuzz_with(&cfg, checker)
}

/// Counts module `j` as failed unless the oracle found nothing and the
/// checker's matrix `agrees` with the from-scratch one.
fn check(run: &mut RunResult, j: u64, r: &FuzzReport, agrees: bool) {
    let ok = r.modules == 1 && r.clean() && agrees;
    run.judge(ok);
    if !ok {
        let lines: Vec<&str> = r.stream.lines().filter(|l| l.starts_with("!!")).collect();
        eprintln!(
            "fuzz_oracle: module {j}: {} divergences{} {}",
            r.divergences.len(),
            if agrees {
                ""
            } else {
                ", reference matrix differs"
            },
            lines.join("; ")
        );
    }
}

/// One set-up: the first [`WARMUP`] modules of the stream judged.
fn setup(seed: u64, checker: &Checker<'_>) {
    for j in 0..WARMUP {
        black_box(judge(seed, j, checker));
    }
}

/// The end-to-end run: `obs` off, whole rounds until `seconds` elapse,
/// with [`SETUPS`] set-ups spread over the run.
pub fn run(seed: u64, seconds: f64, checker: &Checker<'_>) -> RunResult {
    let budget = Budget::new(seconds);
    let mut setups = Vec::new();
    let mut t = Timings::default();
    let mut checks = RunResult::new(true);
    let mut rounds = 0;
    while budget.another_round(rounds as usize) {
        if budget.setup_due(setups.len(), SETUPS) {
            setups.push(timed(|| setup(seed, checker)).1);
        }
        for j in rounds * ROUND..(rounds + 1) * ROUND {
            let (r, d) = timed(|| judge(seed, j, checker));
            t.push(d, d);
            check(&mut checks, j, &r, true);
        }
        rounds += 1;
    }
    while setups.len() < SETUPS {
        setups.push(timed(|| setup(seed, checker)).1);
    }
    RunResult {
        metrics: end_to_end(&setups, &t, TAIL_PCT),
        ..checks
    }
}

/// The traced run: the first round's modules judged repeatedly,
/// alternating untraced and traced passes. A traced pass times the
/// checker seam, reads the program's spans, counters and the
/// interpreter's histogram, and recomputes each module's static matrix
/// from scratch beside the measured path, which must agree with what
/// the checker returned. Generation, parsing and the freezes happen
/// inside `run_fuzz_with` and the checker, so their metrics read 0.
pub fn run_traced(seed: u64, seconds: f64, checker: &Checker<'_>) -> RunResult {
    setup(seed, checker);
    let budget = Budget::new(seconds);
    let mut tally = TraceTally::default();
    let mut checks = RunResult::new(true);
    let returned: RefCell<Option<StaticMatrix>> = RefCell::new(None);
    let timed_checker = |m: &Module| {
        let _s = obs::span!(layers::STATIC);
        let matrix = checker(m);
        *returned.borrow_mut() = Some(matrix.clone());
        matrix
    };
    let mut passes = 0;
    while budget.another_round(passes) || passes < 2 {
        if passes % 2 == 0 {
            for j in 0..ROUND {
                let (r, d) = timed(|| judge(seed, j, checker));
                tally.untraced.push(d, d);
                check(&mut checks, j, &r, true);
            }
        } else {
            layers::trace_on();
            for j in 0..ROUND {
                let (r, d) = timed(|| {
                    let _s = obs::span!(MAIN);
                    judge(seed, j, &timed_checker)
                });
                tally.traced.push(d, d);
                tally.modules += 1;
                let agrees = layers::side(|| {
                    let fm = {
                        let _s = obs::span!(layers::GENERATE);
                        fuzz_module(module_seed(seed, j), 0)
                    };
                    let Ok(reference) = layers::from_source(&fm.name, &fm.source, &Backend::ALL)
                    else {
                        return false;
                    };
                    returned.borrow().as_ref().is_some_and(|got| {
                        Backend::ALL
                            .iter()
                            .zip(&reference)
                            .all(|(b, want)| got.0[b.index()] == *want)
                    })
                });
                check(&mut checks, j, &r, agrees);
            }
            layers::trace_off();
        }
        passes += 1;
    }
    let trace = obs::drain();
    RunResult {
        metrics: layers::per_layer(&trace, &tally, MAIN),
        ..checks
    }
}
