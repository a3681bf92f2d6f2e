//! `watch_edit`: one `IncrementalSession` on the mega-module receives a
//! seeded sequence of single-function saves and reports after each.
//!
//! A round is the [`ROUND`] sequence of `mega_edit` saves, each applied
//! to the base module; a run replays whole rounds. The last save of a
//! round is a whitespace edit, canonically the base module the session
//! started from, so every round meets the session in the same state.
//! Each save's three reports must equal from-scratch checking of the
//! same source, and its error triple must equal `mega_edit`'s closed
//! form.

use crate::layers::{self, TraceTally};
use crate::{end_to_end, expected, mix64, timed, triple, Budget, RunResult, Timings};
use localias_alias::Backend;
use localias_corpus::{mega_edit, mega_module, MegaEdit, MegaEditKind};
use localias_cqual::{IncrOutcome, IncrementalSession, LockReport};
use localias_obs as obs;
use MegaEditKind::{BreakLock as B, Compute as C, Whitespace as W};

/// Default workload seed (the mega-module seed).
pub const DEFAULT_SEED: u64 = 20030609;
/// Functions in the mega-module.
pub const FUNS: usize = localias_corpus::DEFAULT_MEGA_FUNS;
/// `module_tail_ms` percentile: a 30 s run saves 288–410 edits, leaving
/// at least ten samples beyond p95.
pub const TAIL_PCT: f64 = 95.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Top-level span of one traced save.
const MAIN: &str = "watch.edit";

/// One round of saves, in order: five constant tweaks, five lock-pair
/// breaks and two whitespace saves (the last one returns the session to
/// the base module's canonical text).
pub const ROUND: [MegaEditKind; 12] = [C, B, C, B, C, W, B, C, B, C, B, W];

/// The program under test: one save's incremental reports.
pub type Analyzer<'a> =
    dyn FnMut(&mut IncrementalSession, &str) -> Result<IncrOutcome, String> + 'a;

/// The program's own path, `IncrementalSession::analyze`.
pub fn program(session: &mut IncrementalSession, source: &str) -> Result<IncrOutcome, String> {
    session.analyze(source).map_err(|e| e.to_string())
}

/// The inputs and session a run measures.
struct Setup {
    /// The saves of one round, in [`ROUND`] order.
    edits: Vec<MegaEdit>,
    /// A session that has analysed the base module cold.
    session: IncrementalSession,
    /// The cold analysis matched the base module's closed-form triple.
    cold_ok: bool,
}

/// Builds the round's saves and a session warmed by one cold analysis
/// of the base module.
fn setup(seed: u64, funs: usize, analyze: &mut Analyzer<'_>) -> Setup {
    let base = mega_module(seed, funs);
    let edits = ROUND
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let _s = obs::span!(layers::GENERATE);
            mega_edit(seed, funs, mix64(seed ^ mix64(i as u64)), kind)
        })
        .collect();
    let mut session = IncrementalSession::new(&base.name, 1);
    let cold_ok = analyze(&mut session, &base.source)
        .is_ok_and(|out| triple(&out.reports) == expected(&base));
    if !cold_ok {
        eprintln!("watch_edit: cold analysis of {} is wrong", base.name);
    }
    Setup {
        edits,
        session,
        cold_ok,
    }
}

/// The checks of a run, with each distinct save's from-scratch reports
/// computed once.
struct Checks {
    run: RunResult,
    refs: Vec<Option<Result<[LockReport; 3], String>>>,
}

impl Checks {
    fn new(cold_ok: bool) -> Checks {
        Checks {
            run: RunResult::new(cold_ok),
            refs: vec![None; ROUND.len()],
        }
    }

    /// Judges save `i`'s outcome.
    fn save(&mut self, i: usize, e: &MegaEdit, got: &Result<IncrOutcome, String>) {
        if self.refs[i].is_none() {
            let m = &e.module;
            let want =
                layers::side(|| layers::from_source(&m.name, &m.source, &[Backend::Steensgaard]));
            self.refs[i] = Some(want.map(|mut r| r.remove(0)).map_err(|e| e.to_string()));
        }
        let want = self.refs[i].as_ref().expect("reference computed");
        let ok = match (got, want) {
            (Ok(out), Ok(want)) => {
                out.reports == *want && triple(&out.reports) == expected(&e.module)
            }
            _ => false,
        };
        self.run.judge(ok);
        if !ok {
            eprintln!(
                "watch_edit: save {i} ({:?} in {:?}) disagrees with from-scratch checking or its closed form",
                e.kind, e.function
            );
        }
    }

    fn result(self, metrics: Vec<crate::Metric>) -> RunResult {
        RunResult {
            metrics,
            ..self.run
        }
    }
}

/// The end-to-end run: `obs` off, whole rounds until `seconds` elapse,
/// with [`SETUPS`] set-ups spread over the run. The first set-up's
/// session is the one measured; later ones are timed and dropped.
pub fn run(seed: u64, funs: usize, seconds: f64, analyze: &mut Analyzer<'_>) -> RunResult {
    let budget = Budget::new(seconds);
    let (first, took) = timed(|| setup(seed, funs, analyze));
    let mut setups = vec![took];
    let Setup {
        edits,
        mut session,
        cold_ok,
    } = first;
    let mut t = Timings::default();
    let mut checks = Checks::new(cold_ok);
    let mut rounds = 0;
    while budget.another_round(rounds) {
        if budget.setup_due(setups.len(), SETUPS) {
            setups.push(timed(|| drop(setup(seed, funs, analyze))).1);
        }
        for (i, e) in edits.iter().enumerate() {
            let (got, d) = timed(|| analyze(&mut session, &e.module.source));
            t.push(d, d);
            checks.save(i, e, &got);
        }
        rounds += 1;
    }
    while setups.len() < SETUPS {
        setups.push(timed(|| drop(setup(seed, funs, analyze))).1);
    }
    checks.result(end_to_end(&setups, &t, TAIL_PCT))
}

/// The traced run: rounds alternate untraced and traced over the same
/// saves. Per-layer times come from the session's own `IncrStats` and
/// the program's spans under each save; parse, analysis and checking
/// happen inside `analyze`, so the metrics timed around those calls
/// from outside read 0.
pub fn run_traced(seed: u64, funs: usize, seconds: f64, analyze: &mut Analyzer<'_>) -> RunResult {
    // Set-up with spans on records the generator's time per save; its
    // cold analysis sits under the set-up span, apart from the saves.
    layers::trace_on();
    obs::disable_metrics();
    obs::disable_hists();
    let Setup {
        edits,
        mut session,
        cold_ok,
    } = {
        let _s = obs::span!(layers::SETUP);
        setup(seed, funs, analyze)
    };
    layers::trace_off();
    let budget = Budget::new(seconds);
    let mut tally = TraceTally::default();
    let mut checks = Checks::new(cold_ok);
    let mut rounds = 0;
    while budget.another_round(rounds) || rounds < 2 {
        let traced = rounds % 2 == 1;
        if traced {
            layers::trace_on();
        }
        for (i, e) in edits.iter().enumerate() {
            let (got, d) = timed(|| {
                let _s = obs::span!(MAIN);
                analyze(&mut session, &e.module.source)
            });
            if traced {
                tally.traced.push(d, d);
                tally.modules += 1;
                if let Ok(out) = &got {
                    let st = &out.stats;
                    tally.incr.parse_s += st.parse_seconds;
                    tally.incr.analysis_s += st.analysis_seconds;
                    tally.incr.check_s += st.check_seconds;
                    tally.incr.total_s += st.total_seconds;
                    tally.incr.rechecked += st.rechecked as u64;
                    if !st.module_hit {
                        tally.parse_bytes += e.module.source.len() as u64;
                    }
                }
                tally.incr.outer_s += d.as_secs_f64();
            } else {
                tally.untraced.push(d, d);
            }
            checks.save(i, e, &got);
        }
        if traced {
            layers::trace_off();
        }
        rounds += 1;
    }
    let trace = obs::drain();
    checks.result(layers::per_layer(&trace, &tally, MAIN))
}
