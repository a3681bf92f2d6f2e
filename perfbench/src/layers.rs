//! Per-layer measurement: the from-scratch reference pipeline, timed
//! call by call from outside, and the per-layer metrics a traced run
//! derives from it and from the program's own spans and counters.
//!
//! Each call into a layer's public function is wrapped in a `layer.*`
//! span recorded by this crate. Spans only record while a traced round
//! has switched the `obs` sinks on, so the same code serves untraced
//! rounds at no cost beyond one relaxed load per guard. Spans under
//! [`SIDE`] are never read: every figure comes from the measured path.

use crate::{Metric, Timings};
use localias_alias::Backend;
use localias_ast::{parse_module, Module, ParseError};
use localias_core::{propose_confines, SharedAnalysis};
use localias_cqual::{check_locks_frozen, LockReport, Mode, MODES};
use localias_obs as obs;

/// Input generation (`CorpusStream::module_at`, `mega_edit`, `fuzz_module`).
pub const GENERATE: &str = "layer.generate";
/// `parse_module`.
pub const PARSE: &str = "layer.parse";
/// `core::check`, through `SharedAnalysis::base`.
pub const BASE: &str = "layer.base";
/// `core::propose_confines`, called on its own.
pub const PROPOSE: &str = "layer.propose";
/// `core::infer_confines`, through `SharedAnalysis::confine`.
pub const CONFINE: &str = "layer.confine";
/// `Analysis::freeze_with`, through the `SharedAnalysis` snapshots.
pub const FREEZE: &str = "layer.freeze";
/// `real_static_matrix`, through the `run_fuzz_with` checker seam.
pub const STATIC: &str = "layer.static";
/// Reference verdicts computed beside the measured path.
pub const SIDE: &str = "side.reference";
/// A workload's set-up, when a traced run records it.
pub const SETUP: &str = "setup";

/// Switches every `obs` sink on (a traced round).
pub fn trace_on() {
    obs::enable_all();
}

/// Switches every `obs` sink off (an untraced round).
pub fn trace_off() {
    obs::disable_metrics();
    obs::disable_spans();
    obs::disable_hists();
}

/// Runs `f` under a [`SIDE`] span with the program's counters and
/// histograms paused, so work the benchmark does beside the measured
/// path adds no count and no time to any per-layer metric.
pub fn side<T>(f: impl FnOnce() -> T) -> T {
    let (metrics, hists) = (obs::metrics_enabled(), obs::hists_enabled());
    obs::disable_metrics();
    obs::disable_hists();
    let out = {
        let _s = obs::span!(SIDE);
        f()
    };
    if metrics {
        obs::enable_metrics();
    }
    if hists {
        obs::enable_hists();
    }
    out
}

/// `parse_module`, timed as [`PARSE`].
pub fn parse(name: &str, source: &str) -> Result<Module, ParseError> {
    let _s = obs::span!(PARSE);
    parse_module(name, source)
}

/// `core::propose_confines`, timed as [`PROPOSE`]. It also runs inside
/// `infer_confines`; this separate call is how its share is measured.
pub fn propose(m: &Module) -> usize {
    let _s = obs::span!(PROPOSE);
    propose_confines(m).len()
}

/// The three-mode reports of `m` under each of `backends`, computed
/// from scratch one layer call at a time: the base analysis, confine
/// inference, the frozen snapshots, then the checks. This is the
/// per-module path of a `--no-cache --jobs 1` sweep.
pub fn reference(m: &Module, backends: &[Backend]) -> Vec<[LockReport; 3]> {
    let mut shared = SharedAnalysis::new(m);
    {
        let _s = obs::span!(BASE);
        shared.base();
    }
    {
        let _s = obs::span!(CONFINE);
        shared.confine();
    }
    {
        let _s = obs::span!(FREEZE);
        for &b in backends {
            shared.set_backend(b);
            shared.both_frozen();
        }
    }
    backends
        .iter()
        .map(|&b| {
            shared.set_backend(b);
            MODES.map(|mode| {
                let (analysis, frozen) = match mode {
                    Mode::Confine => shared.confine_frozen(),
                    Mode::NoConfine | Mode::AllStrong => shared.base_frozen(),
                };
                check_locks_frozen(m, analysis, frozen, mode, 1)
            })
        })
        .collect()
}

/// [`parse`], [`propose`] and [`reference`] in a row: a module
/// version's from-scratch reports, every layer timed.
pub fn from_source(
    name: &str,
    source: &str,
    backends: &[Backend],
) -> Result<Vec<[LockReport; 3]>, ParseError> {
    let m = parse(name, source)?;
    propose(&m);
    Ok(reference(&m, backends))
}

/// `IncrStats` of a watch run's traced edits, summed.
#[derive(Debug, Clone, Default)]
pub struct IncrTally {
    /// `parse_seconds`.
    pub parse_s: f64,
    /// `analysis_seconds`.
    pub analysis_s: f64,
    /// `check_seconds`.
    pub check_s: f64,
    /// `total_seconds`.
    pub total_s: f64,
    /// Wall time of each `analyze` call measured from outside.
    pub outer_s: f64,
    /// `rechecked` slots.
    pub rechecked: u64,
}

/// What a traced run tallies beside the drained `obs` trace.
#[derive(Debug, Clone, Default)]
pub struct TraceTally {
    /// Module versions on the measured path of traced rounds: the
    /// denominator of every per-module count and self time.
    pub modules: u64,
    /// Source bytes parsed on the measured path of traced rounds.
    pub parse_bytes: u64,
    /// Per-operation times of traced rounds.
    pub traced: Timings,
    /// Per-operation times of untraced rounds over the same inputs.
    pub untraced: Timings,
    /// Incremental-session statistics (watch only).
    pub incr: IncrTally,
}

/// Whether span `path` lies under the top-level span `top`.
fn under(path: &str, top: &str) -> bool {
    path.strip_prefix(top)
        .is_some_and(|rest| rest.starts_with('/'))
}

/// `(count, total_ns, self_ns)` over spans named `name` — anywhere on
/// the measured path, or only under the top-level span `main`. Spans
/// under [`SIDE`] never count.
fn spans(t: &obs::Trace, name: &str, main: Option<&str>) -> (u64, u64, u64) {
    let mut acc = (0, 0, 0);
    for s in &t.spans {
        let last = s.path.rsplit('/').next().unwrap_or("");
        let inside = main.is_none_or(|m| under(&s.path, m)) && !under(&s.path, SIDE);
        if last == name && inside {
            acc.0 += s.count;
            acc.1 += s.total_ns;
            acc.2 += s.self_ns;
        }
    }
    acc
}

/// Mean milliseconds per call of the `layer.*` span `name`.
fn per_call_ms(t: &obs::Trace, name: &str) -> f64 {
    let (n, total, _) = spans(t, name, None);
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64 / 1e6
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order. `main` names the
/// top-level span around each measured operation; program spans and
/// counters are read under it only. A layer the measured path never
/// calls, or calls only inside a program function it cannot be timed
/// around, reads 0.
pub fn per_layer(t: &obs::Trace, tally: &TraceTally, main: &str) -> Vec<Metric> {
    let modules = tally.modules.max(1) as f64;
    let per_module = |c: obs::Counter| t.counter(c) as f64 / modules;
    let self_ms = |name: &str| spans(t, name, Some(main)).2 as f64 / 1e6 / modules;
    let total_ms = |name: &str| spans(t, name, Some(main)).1 as f64 / 1e6 / modules;
    let (confine_calls, _, confine_self) = spans(t, CONFINE, None);
    let incr = &tally.incr;
    // Parsing is timed around `parse_module` on the sweep and by the
    // session's own stopwatch on watch.
    let parse_s = spans(t, PARSE, None).1 as f64 / 1e9 + incr.parse_s;
    let ms_per_module = |s: f64| s * 1e3 / modules;
    let execute_ns = t.hist(obs::Hist::FuzzExecute).map_or(0, |h| h.sum_ns);
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        m("corpus.generate_ms", per_call_ms(t, GENERATE), "ms"),
        m("ast.parse_ms", ms_per_module(parse_s), "ms"),
        m(
            "ast.parse_mb_per_s",
            if parse_s == 0.0 {
                0.0
            } else {
                tally.parse_bytes as f64 / 1e6 / parse_s
            },
            "MB/s",
        ),
        m("core.base_ms", per_call_ms(t, BASE), "ms"),
        m("core.confine_ms", per_call_ms(t, CONFINE), "ms"),
        m(
            "core.confine_unspanned_ms",
            if confine_calls == 0 {
                0.0
            } else {
                confine_self as f64 / confine_calls as f64 / 1e6
            },
            "ms",
        ),
        m("core.propose_ms", per_call_ms(t, PROPOSE), "ms"),
        m("core.analyze_ms", total_ms("core.analyze"), "ms"),
        m("core.alias_ms", self_ms("core.alias"), "ms"),
        m("effects.solve_ms", self_ms("core.solve"), "ms"),
        m("core.outcomes_ms", self_ms("core.outcomes"), "ms"),
        m(
            "effects.deliver_ops",
            per_module(obs::Counter::DeliverOps),
            "count/module",
        ),
        m(
            "effects.vars",
            per_module(obs::Counter::EffectVars),
            "count/module",
        ),
        m(
            "effects.constraint_edges",
            per_module(obs::Counter::ConstraintEdges),
            "count/module",
        ),
        m(
            "alias.find_ops",
            per_module(obs::Counter::AliasFindOps),
            "count/module",
        ),
        m(
            "core.analyses_per_module",
            per_module(obs::Counter::ModulesAnalyzed),
            "count/module",
        ),
        m("alias.freeze_ms", per_call_ms(t, FREEZE), "ms"),
        m("cqual.check_ms", total_ms("cqual.check"), "ms"),
        m(
            "cqual.graph_builds_per_module",
            spans(t, "cqual.graph", Some(main)).0 as f64 / modules,
            "count/module",
        ),
        m(
            "cqual.functions_checked_per_module",
            per_module(obs::Counter::CqualFunctionsChecked),
            "count/module",
        ),
        m("incr.parse_ms", ms_per_module(incr.parse_s), "ms"),
        m("incr.analysis_ms", ms_per_module(incr.analysis_s), "ms"),
        m("incr.check_ms", ms_per_module(incr.check_s), "ms"),
        m(
            "incr.unattributed_ms",
            ms_per_module(incr.outer_s - incr.parse_s - incr.analysis_s - incr.check_s),
            "ms",
        ),
        m(
            "incr.outside_total_ms",
            ms_per_module(incr.outer_s - incr.total_s),
            "ms",
        ),
        m(
            "incr.rechecked_slots",
            incr.rechecked as f64 / modules,
            "count/module",
        ),
        m("interp.execute_ms", execute_ns as f64 / 1e6 / modules, "ms"),
        m(
            "fuzz.runs_per_module",
            per_module(obs::Counter::FuzzRuns),
            "count/module",
        ),
        m("fuzz.static_ms", per_call_ms(t, STATIC), "ms"),
        m(
            "obs.overhead_ms",
            tally.traced.mean_busy_ms() - tally.untraced.mean_busy_ms(),
            "ms",
        ),
    ]
}
