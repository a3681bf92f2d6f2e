//! `corpus_sweep`: whole 589-module tiles of the seeded §7 corpus, each
//! module generated, parsed, base-analysed, confine-inferred and
//! lock-checked in all three modes — the per-module path of
//! `localias experiment --no-cache --jobs 1`.
//!
//! Tile `t` of a run is `CorpusStream::paper(tile_seed(seed, t))`, so a
//! run's modules are all distinct and every tile carries exactly the
//! paper's population. Each module's measured triple must equal the
//! triple its generator composed, and each tile's category totals must
//! equal the paper's.

use crate::layers::{self, TraceTally};
use crate::{end_to_end, expected, mix64, timed, triple, Budget, RunResult, Timings, Triple};
use localias_alias::Backend;
use localias_bench::ModuleResult;
use localias_corpus::{CorpusStream, GeneratedModule};
use localias_obs as obs;
use std::hint::black_box;
use std::time::Instant;

/// Modules per tile: the paper's corpus size.
pub const TILE: usize = 589;
/// Default workload seed: the paper corpus seed.
pub const DEFAULT_SEED: u64 = 20030609;
/// `module_tail_ms` percentile: a 30 s run sweeps 60–90 tiles, leaving
/// hundreds of samples beyond p99.
pub const TAIL_PCT: f64 = 99.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Top-level span of one traced module.
const MAIN: &str = "sweep.module";

/// The program under test: one module's three-mode verdict.
pub type Analyzer<'a> = dyn Fn(&GeneratedModule) -> Triple + 'a;

/// The §7 population of one tile, as the paper reports it (written out
/// here rather than read from the generator's plan).
pub const PAPER: Population = Population {
    clean: 352,
    real: 85,
    recovered: 138,
    partial: 14,
    other: 0,
    potential: 3277,
    eliminated: 3116,
};

/// Category counts and spurious-error totals over a set of modules,
/// classified from measured triples the way the paper's §7 table does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Population {
    /// No errors without confine.
    pub clean: usize,
    /// Errors that strong updates cannot remove.
    pub real: usize,
    /// Confine recovers everything all-strong does.
    pub recovered: usize,
    /// Confine recovers less than all-strong (Figure 7).
    pub partial: usize,
    /// Triples no category admits (all-strong above no-confine).
    pub other: usize,
    /// Spurious errors strong updates could remove.
    pub potential: usize,
    /// Spurious errors confine inference removed.
    pub eliminated: usize,
}

impl Population {
    /// Classifies one measured triple.
    pub fn add(&mut self, (nc, cf, st): Triple) {
        if nc == 0 {
            self.clean += 1;
        } else if nc == st {
            self.real += 1;
        } else if nc > st && cf == st {
            self.recovered += 1;
        } else if nc > st && cf > st {
            self.partial += 1;
        } else {
            self.other += 1;
        }
        self.potential += nc - st.min(nc);
        self.eliminated += nc - cf.min(nc);
    }
}

/// The program's own per-module path, `ModuleResult::measure`.
pub fn program(m: &GeneratedModule) -> Triple {
    let r = ModuleResult::measure(m);
    (r.no_confine, r.confine, r.all_strong)
}

/// The corpus tile `t` of a run with workload seed `seed`; tile 0 is the
/// paper corpus of `seed` itself.
pub fn tile(seed: u64, t: usize) -> CorpusStream {
    let s = if t == 0 {
        seed
    } else {
        mix64(seed ^ mix64(t as u64))
    };
    CorpusStream::paper(s)
}

/// Checks of one run: per-module triples and per-tile populations.
struct Checks {
    run: RunResult,
    tile_failed: bool,
    tile_pop: Population,
}

impl Checks {
    fn new() -> Checks {
        Checks {
            run: RunResult::new(true),
            tile_failed: false,
            tile_pop: Population::default(),
        }
    }

    fn module(&mut self, m: &GeneratedModule, got: Triple) {
        let ok = got == expected(m);
        self.run.judge(ok);
        if !ok {
            self.tile_failed = true;
            eprintln!(
                "corpus_sweep: {} measured {got:?}, generator composed {:?}",
                m.name,
                expected(m)
            );
        }
        self.tile_pop.add(got);
    }

    /// Closes a tile. Its population is only judged when every module
    /// in it passed, so a failed operation is never counted twice.
    fn end_tile(&mut self) {
        if !self.tile_failed && self.tile_pop != PAPER {
            self.run.correct = false;
            eprintln!(
                "corpus_sweep: tile population {:?} differs from the paper's {PAPER:?}",
                self.tile_pop
            );
        }
        self.tile_failed = false;
        self.tile_pop = Population::default();
    }

    fn result(self, metrics: Vec<crate::Metric>) -> RunResult {
        RunResult {
            metrics,
            ..self.run
        }
    }
}

/// One set-up: the tile-0 stream built and every module of it
/// generated and brought to a verdict once, cold.
fn setup(seed: u64, analyze: &Analyzer<'_>) -> CorpusStream {
    let stream = tile(seed, 0);
    for p in 0..TILE {
        black_box(analyze(&stream.module_at(p)));
    }
    stream
}

/// Sweeps `stream` once through `analyze`, untraced.
fn sweep_tile(stream: &CorpusStream, analyze: &Analyzer<'_>, t: &mut Timings, checks: &mut Checks) {
    for p in 0..TILE {
        let (m, gen) = timed(|| stream.module_at(p));
        let (got, verdict) = timed(|| analyze(&m));
        t.push(verdict, gen + verdict);
        checks.module(&m, got);
    }
    checks.end_tile();
}

/// The end-to-end run: `obs` off, whole tiles until `seconds` elapse,
/// with [`SETUPS`] set-ups spread over the run.
pub fn run(seed: u64, seconds: f64, analyze: &Analyzer<'_>) -> RunResult {
    let budget = Budget::new(seconds);
    let mut setups = Vec::new();
    let mut t = Timings::default();
    let mut checks = Checks::new();
    let mut tiles = 0;
    while budget.another_round(tiles) {
        if budget.setup_due(setups.len(), SETUPS) {
            setups.push(timed(|| black_box(setup(seed, analyze))).1);
        }
        let (stream, built) = timed(|| tile(seed, tiles));
        t.busy += built;
        sweep_tile(&stream, analyze, &mut t, &mut checks);
        tiles += 1;
    }
    while setups.len() < SETUPS {
        setups.push(timed(|| black_box(setup(seed, analyze))).1);
    }
    checks.result(end_to_end(&setups, &t, TAIL_PCT))
}

/// The traced run: tile 0 swept repeatedly, alternating an untraced
/// pass through `analyze` with a traced pass that calls each layer from
/// outside. Counts per module repeat exactly for a given seed.
pub fn run_traced(seed: u64, seconds: f64, analyze: &Analyzer<'_>) -> RunResult {
    let stream = setup(seed, analyze);
    let budget = Budget::new(seconds);
    let mut tally = TraceTally::default();
    let mut checks = Checks::new();
    let mut passes = 0;
    while budget.another_round(passes) || passes < 2 {
        if passes % 2 == 0 {
            sweep_tile(&stream, analyze, &mut tally.untraced, &mut checks);
        } else {
            layers::trace_on();
            for p in 0..TILE {
                let t0 = Instant::now();
                let (m, got, proposing) = {
                    let _s = obs::span!(MAIN);
                    let m = {
                        let _s = obs::span!(layers::GENERATE);
                        stream.module_at(p)
                    };
                    tally.parse_bytes += m.source.len() as u64;
                    let parsed = layers::parse(&m.name, &m.source)
                        .unwrap_or_else(|e| panic!("generated module {} must parse: {e}", m.name));
                    let got = triple(&layers::reference(&parsed, &[Backend::Steensgaard])[0]);
                    let proposing = timed(|| layers::propose(&parsed)).1;
                    (m, got, proposing)
                };
                let busy = t0.elapsed() - proposing;
                tally.traced.push(busy, busy);
                tally.modules += 1;
                checks.module(&m, got);
            }
            checks.end_tile();
            layers::trace_off();
        }
        passes += 1;
    }
    let trace = obs::drain();
    checks.result(layers::per_layer(&trace, &tally, MAIN))
}
