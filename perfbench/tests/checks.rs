//! The benchmark's own checks can fail: a wrong answer from the program
//! is counted as a failed operation, never passed silently. Also pins
//! that traced runs report every per-layer metric and that their exact
//! counts repeat. Tests that run a workload hold the `obs` test lock:
//! the program's counters are process-global.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (a debug build passes too, slowly).

use localias_ast::Module;
use localias_bench::fuzz::{real_static_matrix, StaticMatrix};
use localias_corpus::{mega_module, GeneratedModule};
use localias_cqual::IncrementalSession;
use localias_perfbench::sweep::{self, Population, PAPER, TILE};
use localias_perfbench::{fuzz, watch, RunResult};

/// A small mega-module keeps the watch tests quick.
const FUNS: usize = 40;

fn benchmark_json() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory")
}

/// Metric names listed under `key` in BENCHMARK.json, in order.
fn listed(key: &str) -> Vec<String> {
    let json = benchmark_json();
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let block = &json[start..];
    let block = &block[..block.find(']').expect("array closes")];
    block
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(r: &RunResult) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn the_real_program_passes_every_check() {
    let _obs = localias_obs::test_lock();
    let r = sweep::run(sweep::DEFAULT_SEED, 0.0, &sweep::program);
    assert!(r.correct);
    assert_eq!((r.attempted, r.failed), (TILE as u64, 0));
    assert_eq!(names(&r), listed("end_to_end"));

    let r = fuzz::run(fuzz::DEFAULT_SEED, 0.0, &real_static_matrix);
    assert!(r.correct);
    assert_eq!((r.attempted, r.failed), (fuzz::ROUND, 0));

    let r = watch::run(7, FUNS, 0.0, &mut watch::program);
    assert!(r.correct);
    assert_eq!((r.attempted, r.failed), (watch::ROUND.len() as u64, 0));
}

#[test]
fn a_tampered_triple_is_a_failed_operation() {
    let _obs = localias_obs::test_lock();
    // One module's confine count is off by one: that module fails, and
    // its tile's population is not judged a second time.
    let first = sweep::tile(sweep::DEFAULT_SEED, 0).module_at(0).name;
    let tampered = |m: &GeneratedModule| {
        let (nc, cf, st) = sweep::program(m);
        if m.name == first {
            (nc, cf + 1, st)
        } else {
            (nc, cf, st)
        }
    };
    let r = sweep::run(sweep::DEFAULT_SEED, 0.0, &tampered);
    assert_eq!((r.attempted, r.failed), (TILE as u64, 1));
    assert!(r.correct);
}

#[test]
fn the_tile_population_is_the_papers_and_a_moved_module_breaks_it() {
    let stream = sweep::tile(7, 3);
    let mut pop = Population::default();
    let mut triples = Vec::new();
    for p in 0..TILE {
        let m = stream.module_at(p);
        let t = (m.expect.no_confine, m.expect.confine, m.expect.all_strong);
        triples.push(t);
        pop.add(t);
    }
    assert_eq!(
        pop, PAPER,
        "a tile of any seed carries the paper's population"
    );
    // A clean module reported as a real bug moves one module between
    // categories: the totals no longer match.
    let clean = triples
        .iter()
        .position(|t| t.0 == 0)
        .expect("a clean module");
    let mut moved = Population::default();
    for (i, &t) in triples.iter().enumerate() {
        moved.add(if i == clean { (1, 1, 1) } else { t });
    }
    assert_ne!(moved, PAPER);
}

#[test]
fn a_tampered_incremental_report_is_a_failed_operation() {
    let _obs = localias_obs::test_lock();
    let seed = 7;
    let base = mega_module(seed, FUNS).source;
    // The cold analyses of the set-ups stay honest; every save's
    // no-confine report loses the function name of its first error. The
    // error count — and so the triple — is unchanged, so only the
    // comparison with from-scratch checking can catch it.
    let mut tampered = |s: &mut IncrementalSession, src: &str| {
        let mut out = watch::program(s, src)?;
        if src != base {
            if let Some(e) = out.reports[0].errors.first_mut() {
                e.fun.push_str("_renamed");
            }
        }
        Ok(out)
    };
    let r = watch::run(seed, FUNS, 0.0, &mut tampered);
    let saves = watch::ROUND.len() as u64;
    assert_eq!((r.attempted, r.failed), (saves, saves));
    assert!(r.correct);

    // A wrong cold analysis makes the whole run incorrect.
    let mut wrong_cold = |s: &mut IncrementalSession, src: &str| {
        let mut out = watch::program(s, src)?;
        if src == base {
            out.reports[1].errors.clear();
            out.reports[0].errors.clear();
        }
        Ok(out)
    };
    assert!(!watch::run(seed, FUNS, 0.0, &mut wrong_cold).correct);
}

#[test]
fn an_injected_unsound_verdict_is_a_failed_operation() {
    let _obs = localias_obs::test_lock();
    // A checker that blesses every module: each module whose entries
    // fault at run time is a soundness divergence.
    let unsound = |_: &Module| StaticMatrix::default();
    let r = fuzz::run(fuzz::DEFAULT_SEED, 0.0, &unsound);
    assert_eq!(r.attempted, fuzz::ROUND);
    assert!(r.failed > 0, "the oracle must catch a blessed bug");

    // Traced, the checker's matrix is also compared with a from-scratch
    // one, so even a spurious extra error — sound, and invisible to the
    // oracle — fails.
    let noisy = |m: &Module| {
        let mut s = real_static_matrix(m);
        let extra = s.0[0][0].errors.first().cloned();
        s.0[0][0].errors.extend(extra);
        s
    };
    assert_eq!(fuzz::run(fuzz::DEFAULT_SEED, 0.0, &noisy).failed, 0);
    assert!(fuzz::run_traced(fuzz::DEFAULT_SEED, 0.0, &noisy).failed > 0);
}

/// The per-layer metrics that are exact counts.
const COUNTS: [&str; 9] = [
    "effects.deliver_ops",
    "effects.vars",
    "effects.constraint_edges",
    "alias.find_ops",
    "core.analyses_per_module",
    "cqual.graph_builds_per_module",
    "cqual.functions_checked_per_module",
    "incr.rechecked_slots",
    "fuzz.runs_per_module",
];

fn counts(r: &RunResult) -> Vec<f64> {
    COUNTS
        .iter()
        .map(|c| r.metric(c).expect("count reported"))
        .collect()
}

#[test]
fn traced_runs_report_every_layer_and_repeat_their_counts() {
    let _obs = localias_obs::test_lock();
    let layers = listed("per_layer");
    let runs: [fn() -> RunResult; 3] = [
        || sweep::run_traced(sweep::DEFAULT_SEED, 0.0, &sweep::program),
        || watch::run_traced(7, FUNS, 0.0, &mut watch::program),
        || fuzz::run_traced(fuzz::DEFAULT_SEED, 0.0, &real_static_matrix),
    ];
    for run in runs {
        let a = run();
        assert!(a.correct && a.failed == 0);
        assert_eq!(names(&a), layers);
        let b = run();
        assert_eq!(counts(&a), counts(&b));
    }
}
