//! Shared helpers for the benchmark harness: the experiment runner that
//! the figure/table binaries and the complexity benches build on, plus
//! synthetic program generators for those benches and a small in-repo
//! timing harness ([`harness`]) standing in for criterion.

pub mod cache;
pub mod cli;
pub mod diff;
pub mod fuzz;
pub mod harness;
pub mod json;
pub mod merge;

pub use cache::{
    AnalysisCache, CachePolicy, CacheStats, CachedValues, PrecisionOutcome, ANALYSIS_VERSION,
    DEFAULT_SHARDS, MAX_SHARDS,
};
pub use cli::CliOpts;
pub use diff::{diff_benches, DiffReport, DEFAULT_THRESHOLD_PCT};
pub use localias_corpus::{partition_range, CorpusStream};
pub use localias_obs::text_histogram;
pub use merge::merge_partitions;

use cache::CachedOutcome;
use localias_ast::Module;
use localias_core::SharedAnalysis;
use localias_corpus::GeneratedModule;
use localias_cqual::{check_locks_shared_jobs, Mode};
use localias_obs as obs;
use std::fmt::Write as _;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Per-module measured error counts under the three modes.
#[derive(Debug, Clone)]
pub struct ModuleResult {
    /// Module name.
    pub name: String,
    /// Errors without confine inference.
    pub no_confine: usize,
    /// Errors with confine inference.
    pub confine: usize,
    /// Errors assuming all updates strong.
    pub all_strong: usize,
}

/// Wall-clock time one module spent in each pipeline phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimes {
    /// Lexing + parsing.
    pub parse: Duration,
    /// Base analysis plus the no-confine and all-strong checks (the two
    /// modes that share one analysis).
    pub check: Duration,
    /// Confine inference plus its check.
    pub confine: Duration,
}

impl PhaseTimes {
    fn accumulate(&mut self, other: PhaseTimes) {
        self.parse += other.parse;
        self.check += other.check;
        self.confine += other.confine;
    }
}

impl ModuleResult {
    /// Measures one corpus module under all three modes.
    ///
    /// The no-confine and all-strong modes share one base analysis
    /// through [`SharedAnalysis`], so this parses once and runs two (not
    /// three) analysis pipelines.
    pub fn measure(m: &GeneratedModule) -> ModuleResult {
        Self::measure_timed(m).0
    }

    /// [`ModuleResult::measure`], also reporting per-phase times.
    pub fn measure_timed(m: &GeneratedModule) -> (ModuleResult, PhaseTimes) {
        let t0 = Instant::now();
        let parsed = m.parse();
        let parse = t0.elapsed();
        Self::measure_parsed(&m.name, &parsed, parse, 1)
    }

    /// Runs the analysis pipelines on an already-parsed module (the cache
    /// parses first to canonicalize, so the miss path must not re-parse).
    /// `intra_jobs` fans each lock check out across the module's call-graph
    /// waves; reports are byte-identical for every value, so cached results
    /// are valid whatever `intra_jobs` produced them.
    fn measure_parsed(
        name: &str,
        parsed: &Module,
        parse: Duration,
        intra_jobs: usize,
    ) -> (ModuleResult, PhaseTimes) {
        let mut shared = SharedAnalysis::new(parsed);
        let t1 = Instant::now();
        let no_confine =
            check_locks_shared_jobs(&mut shared, Mode::NoConfine, intra_jobs).error_count();
        let all_strong =
            check_locks_shared_jobs(&mut shared, Mode::AllStrong, intra_jobs).error_count();
        let check = t1.elapsed();

        let t2 = Instant::now();
        let confine = check_locks_shared_jobs(&mut shared, Mode::Confine, intra_jobs).error_count();
        let confine_time = t2.elapsed();

        (
            ModuleResult {
                name: name.to_string(),
                no_confine,
                confine,
                all_strong,
            },
            PhaseTimes {
                parse,
                check,
                confine: confine_time,
            },
        )
    }

    /// Spurious errors that strong updates could eliminate.
    pub fn potential(&self) -> usize {
        self.no_confine - self.all_strong.min(self.no_confine)
    }

    /// Spurious errors confine inference eliminated.
    pub fn eliminated(&self) -> usize {
        self.no_confine - self.confine.min(self.no_confine)
    }
}

/// The machine's available parallelism (≥ 1).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Aggregate timing and error statistics for one corpus sweep, ready to
/// serialize as `BENCH_experiment.json`.
#[derive(Debug, Clone)]
pub struct ExperimentBench {
    /// Corpus seed.
    pub seed: u64,
    /// Modules measured.
    pub modules: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock time of the sweep (excluding cache store
    /// I/O, which is reported separately in [`ExperimentBench::cache`]).
    pub wall: Duration,
    /// Per-phase CPU time, summed over all modules (and threads). Cache
    /// hits replay the phase times of the run that produced them, so this
    /// keeps describing the analysis cost the results represent even when
    /// `wall` collapses on a warm sweep.
    pub phases: PhaseTimes,
    /// Total error counts per mode, summed over all modules.
    pub errors: (usize, usize, usize),
    /// Total spurious errors strong updates could eliminate.
    pub potential: usize,
    /// Total spurious errors confine inference eliminated.
    pub eliminated: usize,
    /// Result-cache statistics (`None` when the sweep ran uncached).
    pub cache: Option<CacheStats>,
    /// Observability snapshot of the sweep (`None` unless the caller
    /// enabled obs collection and attached a drained [`obs::Trace`]).
    pub profile: Option<obs::Trace>,
    /// Latency histograms recorded during the sweep (empty when the
    /// caller did not attach the drained snapshots). Unlike `profile`,
    /// histograms are always collected — see [`init_obs`].
    pub hist: Vec<obs::HistSnapshot>,
    /// Which slice of the corpus this sweep covered (`None` for a full,
    /// unpartitioned run).
    pub partition: Option<PartitionInfo>,
    /// Per-module `(name, no-confine, confine, all-strong)` rows, in
    /// sweep order. `None` unless the caller opts in — partition
    /// artifacts carry them so `bench-merge` can union disjoint sweeps
    /// into one result set.
    pub results: Option<Vec<ModuleResult>>,
}

/// Which disjoint slice of a seeded corpus one partitioned sweep covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionInfo {
    /// Partition index, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of cooperating partitions.
    pub count: usize,
    /// Total modules in the *whole* corpus the partitions split.
    pub total: usize,
}

/// Formats an `f64` as a JSON number that parses back to the same value:
/// Rust's shortest-round-trip representation, which is locale-independent
/// and always a valid JSON literal for finite inputs. Non-finite values
/// (which JSON cannot represent) degrade to `0.0`.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

/// Renders a counter slice as a JSON array of integers.
fn json_usize_array(xs: &[usize]) -> String {
    let mut out = String::with_capacity(2 + xs.len() * 4);
    out.push('[');
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{x}");
    }
    out.push(']');
    out
}

/// Escapes a string for embedding in a JSON document.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an [`obs::Trace`] as a JSON object: a `spans` array (path,
/// count, total/self nanoseconds) plus a `counters` object keyed by the
/// registry's dotted names, non-zero entries only. Public so bench
/// binaries with their own report schemas (e.g. `watch`) can embed the
/// same profile block the experiment schema uses.
pub fn json_trace(t: &obs::Trace) -> String {
    let mut out = String::from("{\n    \"spans\": [");
    for (i, s) in t.spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n      {{\"path\": {}, \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
            json_str(&s.path),
            s.count,
            s.total_ns,
            s.self_ns
        );
    }
    if !t.spans.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("],\n    \"counters\": {");
    for (i, (name, value)) in t.counters.iter_nonzero().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n      {}: {value}", json_str(name));
    }
    if !t.counters.is_empty() {
        out.push_str("\n    ");
    }
    out.push_str("}\n  }");
    out
}

/// Renders the latency-histogram block every bench schema embeds: one
/// entry per *registered* histogram (zero-sample histograms included, so
/// the block's shape is identical across cold and warm runs), keyed by
/// dotted name, carrying the exact aggregate plus the p50/p90/p95/p99
/// percentiles and the sparse `[bucket_index, count]` pairs. Public so
/// bench binaries with their own report schemas embed the same block.
pub fn json_hists(hists: &[obs::HistSnapshot]) -> String {
    let mut out = String::from("{");
    for (i, name) in obs::ALL_HISTS
        .iter()
        .map(|&h| obs::hist_name(h))
        .enumerate()
    {
        let empty = obs::HistSnapshot::empty(name);
        let h = hists.iter().find(|h| h.name == name).unwrap_or(&empty);
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {}: {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
             \"p50_ns\": {}, \"p90_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \"buckets\": [",
            json_str(name),
            h.count,
            h.sum_ns,
            h.min_ns,
            h.max_ns,
            h.percentile(50),
            h.percentile(90),
            h.percentile(95),
            h.percentile(99),
        );
        for (j, (idx, count)) in h.buckets.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{idx},{count}]");
        }
        out.push_str("]}");
    }
    out.push_str("\n  }");
    out
}

impl ExperimentBench {
    /// Sweep throughput in modules per wall-clock second.
    pub fn modules_per_sec(&self) -> f64 {
        self.modules as f64 / self.wall.as_secs_f64().max(1e-9)
    }

    /// Renders the stats as a small, stable JSON document
    /// (schema `localias-bench-experiment/v6`).
    ///
    /// v2 extended v1 with the `cache` block (`null` on uncached sweeps)
    /// and switched every float to a shortest-round-trip rendering, so
    /// each number parses back to the exact measured value. v3 extends
    /// the `cache` block with the sharded-store observability fields:
    /// `shards`, per-shard `shard_hits`/`shard_misses`, `quarantined`,
    /// and the lock-contention counters `lock_retries`/`lock_skips`.
    /// v4 adds the `profile` block (`null` unless the run collected an
    /// obs trace): aggregated spans plus non-zero counter totals.
    /// v5 adds `partition` (`{"index", "count", "total"}` for a
    /// partitioned sweep, else `null`) and `results` (per-module
    /// `[name, nc, cf, as]` rows when the caller opts in, else `null`) —
    /// the fields `bench-merge` unions disjoint partition sweeps with.
    /// v6 adds the `hist` block ([`json_hists`]): per-operation latency
    /// histograms with exact p50/p90/p95/p99 percentiles, one entry per
    /// registered histogram on every run.
    pub fn to_json(&self) -> String {
        let (nc, cf, st) = self.errors;
        let profile = match &self.profile {
            None => "null".to_string(),
            Some(t) => json_trace(t),
        };
        let partition = match &self.partition {
            None => "null".to_string(),
            Some(p) => format!(
                "{{\"index\": {}, \"count\": {}, \"total\": {}}}",
                p.index, p.count, p.total
            ),
        };
        let results = match &self.results {
            None => "null".to_string(),
            Some(rows) => {
                let mut out = String::from("[");
                for (i, r) in rows.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "\n    [{}, {}, {}, {}]",
                        json_str(&r.name),
                        r.no_confine,
                        r.confine,
                        r.all_strong
                    );
                }
                if !rows.is_empty() {
                    out.push_str("\n  ");
                }
                out.push(']');
                out
            }
        };
        let cache = match &self.cache {
            None => "null".to_string(),
            Some(c) => format!(
                "{{\n    \"hits\": {},\n    \"misses\": {},\n    \"dir\": {},\n    \
                 \"shards\": {},\n    \"shard_hits\": {},\n    \"shard_misses\": {},\n    \
                 \"quarantined\": {},\n    \"lock_retries\": {},\n    \"lock_skips\": {},\n    \
                 \"load_seconds\": {},\n    \"store_seconds\": {}\n  }}",
                c.hits,
                c.misses,
                json_str(&c.dir),
                c.shards,
                json_usize_array(&c.shard_hits),
                json_usize_array(&c.shard_misses),
                c.quarantined,
                c.lock_retries,
                c.lock_skips,
                json_f64(c.load.as_secs_f64()),
                json_f64(c.store.as_secs_f64()),
            ),
        };
        let hist = json_hists(&self.hist);
        format!(
            "{{\n  \"schema\": \"localias-bench-experiment/v6\",\n  \
             \"seed\": {},\n  \
             \"modules\": {},\n  \
             \"threads\": {},\n  \
             \"wall_seconds\": {},\n  \
             \"modules_per_second\": {},\n  \
             \"phase_cpu_seconds\": {{\n    \
             \"parse\": {},\n    \
             \"check\": {},\n    \
             \"confine\": {}\n  }},\n  \
             \"errors\": {{\n    \
             \"no_confine\": {nc},\n    \
             \"confine\": {cf},\n    \
             \"all_strong\": {st}\n  }},\n  \
             \"spurious\": {{\n    \
             \"potential\": {},\n    \
             \"eliminated\": {}\n  }},\n  \
             \"cache\": {cache},\n  \
             \"partition\": {partition},\n  \
             \"results\": {results},\n  \
             \"hist\": {hist},\n  \
             \"profile\": {profile}\n}}\n",
            self.seed,
            self.modules,
            self.threads,
            json_f64(self.wall.as_secs_f64()),
            json_f64(self.modules_per_sec()),
            json_f64(self.phases.parse.as_secs_f64()),
            json_f64(self.phases.check.as_secs_f64()),
            json_f64(self.phases.confine.as_secs_f64()),
            self.potential,
            self.eliminated,
        )
    }
}

/// Measures every module of `corpus` across `jobs` worker threads
/// (`jobs == 0` → [`default_jobs`]). Results come back in corpus order
/// regardless of thread count or scheduling.
pub fn measure_corpus(corpus: &[GeneratedModule], jobs: usize) -> Vec<ModuleResult> {
    measure_corpus_timed(corpus, jobs, 0).0
}

/// [`measure_corpus`] plus aggregate timing statistics (uncached).
pub fn measure_corpus_timed(
    corpus: &[GeneratedModule],
    jobs: usize,
    seed: u64,
) -> (Vec<ModuleResult>, ExperimentBench) {
    measure_corpus_cached(corpus, jobs, 1, seed, None)
}

/// What a worker learned about one module, beyond its result.
enum CacheNote {
    /// Sweep ran uncached.
    Uncached,
    /// The raw source fingerprint was already known — served without
    /// even parsing.
    RawHit { fp: u128 },
    /// Raw source changed but the canonical fingerprint still hit; the
    /// new raw fingerprint should alias it for the next sweep.
    CanonHit { fp: u128, raw: u128 },
    /// True miss: record the fresh measurement under this fingerprint.
    Miss { fp: u128, raw: u128 },
}

/// One worker's verdict on one module.
struct SweepOutcome {
    slot: usize,
    result: ModuleResult,
    times: PhaseTimes,
    note: CacheNote,
}

/// Corpus size above which the default shard count starts to contend.
const LARGE_CORPUS_SHARD_WARN: usize = 10_000;

/// The concrete `--cache-shards` value to suggest for a corpus of
/// `modules` modules currently running on `shards` shards.
///
/// Targets roughly one shard per thousand modules (shards hold whole
/// result records, so a thousand records per shard file keeps each file
/// small enough to rewrite cheaply), rounded up to a power of two to
/// match the sharding hash's mixing; never suggests less than doubling
/// the current count (the warning only fires when the current count
/// contends, so any useful suggestion is a strict increase) and never
/// more than [`MAX_SHARDS`].
fn suggest_cache_shards(modules: usize, shards: usize) -> usize {
    (modules / 1_000)
        .next_power_of_two()
        .max(shards.saturating_mul(2))
        .min(MAX_SHARDS)
}

/// The streaming sweep engine every `measure_*` entry point feeds.
///
/// `modules` yields `(slot, module)` pairs; `slot` is the module's index
/// in the returned result vector (`0..out_len`). With more than one
/// worker the iterator is drained by a producer thread into a *bounded*
/// channel (capacity `2·threads`), so no matter how large the corpus is,
/// only `O(threads)` modules are ever alive at once — each worker drops
/// its module as soon as the result (or cache note) is extracted.
/// Results are merged back into slot order afterwards, so output is
/// byte-identical for every `jobs` value and for the sequential path.
///
/// With a cache, each worker first resolves the module's raw source
/// fingerprint against an immutable cache snapshot — a hit skips the
/// parse entirely. Otherwise it parses and checks the canonical
/// fingerprint, so a formatting-only change is still a hit and only
/// genuine content changes pay for analysis. Cache mutations (aliases,
/// fresh records) are applied on the calling thread after the sweep;
/// persisting the store is the caller's job (see
/// [`measure_corpus_with_cache`]).
fn sweep_modules<M, I>(
    modules: I,
    out_len: usize,
    jobs: usize,
    intra_jobs: usize,
    seed: u64,
    mut cache: Option<&mut AnalysisCache>,
) -> (Vec<ModuleResult>, ExperimentBench)
where
    M: std::borrow::Borrow<GeneratedModule> + Send,
    I: Iterator<Item = (usize, M)> + Send,
{
    let threads = if jobs == 0 { default_jobs() } else { jobs };
    let _sweep_span = obs::span!("bench.sweep");
    let start = Instant::now();

    let shards = cache.as_deref().map_or(0, AnalysisCache::shard_count);
    if shards > 0 && shards <= DEFAULT_SHARDS && out_len > LARGE_CORPUS_SHARD_WARN {
        obs::warn!(
            "localias-bench: {out_len} modules over {shards} cache shards will contend; \
             consider --cache-shards {} (max {MAX_SHARDS})",
            suggest_cache_shards(out_len, shards),
        );
    }

    let outcomes: Vec<SweepOutcome> = {
        let snapshot: Option<&AnalysisCache> = cache.as_deref();
        let work = |slot: usize, m: &GeneratedModule| -> SweepOutcome {
            if let Some(c) = snapshot {
                let raw = cache::source_fingerprint(&m.source);
                let served = c
                    .resolve_raw(raw)
                    .and_then(|fp| Some((fp, c.lookup_fp(fp)?)));
                if let Some((fp, e)) = served {
                    return SweepOutcome {
                        slot,
                        result: e.to_result(&m.name),
                        times: e.times,
                        note: CacheNote::RawHit { fp },
                    };
                }
                let t0 = Instant::now();
                let parsed = m.parse();
                let parse = t0.elapsed();
                let fp = cache::module_fingerprint(&parsed);
                if let Some(e) = c.lookup_fp(fp) {
                    return SweepOutcome {
                        slot,
                        result: e.to_result(&m.name),
                        times: e.times,
                        note: CacheNote::CanonHit { fp, raw },
                    };
                }
                let (r, t) = ModuleResult::measure_parsed(&m.name, &parsed, parse, intra_jobs);
                SweepOutcome {
                    slot,
                    result: r,
                    times: t,
                    note: CacheNote::Miss { fp, raw },
                }
            } else {
                let t0 = Instant::now();
                let parsed = m.parse();
                let parse = t0.elapsed();
                let (r, t) = ModuleResult::measure_parsed(&m.name, &parsed, parse, intra_jobs);
                SweepOutcome {
                    slot,
                    result: r,
                    times: t,
                    note: CacheNote::Uncached,
                }
            }
        };

        if threads <= 1 {
            // Sequential path: generate, measure, drop — one module live.
            modules.map(|(slot, m)| work(slot, m.borrow())).collect()
        } else {
            // Bounded in-flight set: the producer blocks once the channel
            // holds 2·threads undrained modules.
            let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, M)>(threads * 2);
            let rx = std::sync::Mutex::new(rx);
            // Workers inherit the sweep's span path, so the span tree is
            // identical whatever the thread count.
            let span_cx = obs::fork();
            std::thread::scope(|s| {
                let producer = s.spawn(move || {
                    for item in modules {
                        if tx.send(item).is_err() {
                            break; // workers gone (a worker panicked)
                        }
                    }
                });
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let span_cx = span_cx.clone();
                        let (rx, work) = (&rx, &work);
                        s.spawn(move || {
                            let _attached = span_cx.attach();
                            let mut out = Vec::new();
                            loop {
                                let item = rx.lock().expect("receiver poisoned").recv();
                                match item {
                                    Ok((slot, m)) => out.push(work(slot, m.borrow())),
                                    Err(_) => break out, // producer done, channel drained
                                }
                            }
                        })
                    })
                    .collect();
                producer.join().expect("producer thread panicked");
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("worker thread panicked"))
                    .collect()
            })
        }
    };

    let mut slots: Vec<Option<(ModuleResult, PhaseTimes)>> = (0..out_len).map(|_| None).collect();
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut shard_hits = vec![0usize; shards];
    let mut shard_misses = vec![0usize; shards];
    for o in outcomes {
        match o.note {
            CacheNote::Uncached => {}
            CacheNote::RawHit { fp } => {
                hits += 1;
                if let Some(c) = cache.as_deref() {
                    shard_hits[c.shard_of(fp)] += 1;
                    obs::count(obs::Counter::CacheShardHits, 1);
                }
            }
            CacheNote::CanonHit { fp, raw } => {
                hits += 1;
                if let Some(c) = cache.as_deref_mut() {
                    shard_hits[c.shard_of(fp)] += 1;
                    obs::count(obs::Counter::CacheShardHits, 1);
                    c.alias_raw(raw, fp);
                }
            }
            CacheNote::Miss { fp, raw } => {
                misses += 1;
                if let Some(c) = cache.as_deref_mut() {
                    shard_misses[c.shard_of(fp)] += 1;
                    obs::count(obs::Counter::CacheShardMisses, 1);
                    c.record(fp, raw, CachedOutcome::of(&o.result, o.times));
                }
            }
        }
        slots[o.slot] = Some((o.result, o.times));
    }

    let mut phases = PhaseTimes::default();
    let results: Vec<ModuleResult> = slots
        .into_iter()
        .map(|s| {
            let (r, t) = s.expect("every module measured exactly once");
            phases.accumulate(t);
            r
        })
        .collect();

    let errors = results.iter().fold((0, 0, 0), |(nc, cf, st), r| {
        (nc + r.no_confine, cf + r.confine, st + r.all_strong)
    });
    let cache_stats = cache.as_deref().map(|c| CacheStats {
        hits,
        misses,
        dir: c.dir_display(),
        shards,
        shard_hits,
        shard_misses,
        quarantined: c.quarantined(),
        lock_retries: 0, // lock counters are filled in after persist
        lock_skips: 0,
        load: c.load_time(),
        store: Duration::ZERO, // filled in after persist
    });
    let bench = ExperimentBench {
        seed,
        modules: results.len(),
        threads,
        wall: start.elapsed(),
        phases,
        errors,
        potential: results.iter().map(ModuleResult::potential).sum(),
        eliminated: results.iter().map(ModuleResult::eliminated).sum(),
        cache: cache_stats,
        profile: None,
        hist: Vec::new(),
        partition: None,
        results: None,
    };
    (results, bench)
}

/// The streaming sweep over an already-materialized corpus slice,
/// optionally backed by an [`AnalysisCache`]. Results come back in slice
/// order, byte-identical for every `jobs` value.
pub fn measure_corpus_cached(
    corpus: &[GeneratedModule],
    jobs: usize,
    intra_jobs: usize,
    seed: u64,
    cache: Option<&mut AnalysisCache>,
) -> (Vec<ModuleResult>, ExperimentBench) {
    sweep_modules(
        corpus.iter().enumerate(),
        corpus.len(),
        jobs,
        intra_jobs,
        seed,
        cache,
    )
}

/// Sweeps stream positions `range` of a [`CorpusStream`] without ever
/// materializing the corpus: modules are generated one at a time (by the
/// producer thread when `jobs > 1`) and dropped as soon as they are
/// measured or served from cache, so peak memory is `O(jobs)` modules
/// however large the range is. Results come back in stream order.
pub fn measure_stream_cached(
    stream: &CorpusStream,
    range: Range<usize>,
    jobs: usize,
    intra_jobs: usize,
    cache: Option<&mut AnalysisCache>,
) -> (Vec<ModuleResult>, ExperimentBench) {
    let base = range.start;
    sweep_modules(
        range.clone().map(|p| (p - base, stream.module_at(p))),
        range.len(),
        jobs,
        intra_jobs,
        stream.seed(),
        cache,
    )
}

/// One full streamed sweep under a [`CachePolicy`]: loads the store,
/// runs [`measure_stream_cached`], and atomically persists the store
/// back. Cache I/O failures degrade to warnings — results are never
/// affected.
pub fn measure_stream_with_cache(
    stream: &CorpusStream,
    range: Range<usize>,
    jobs: usize,
    intra_jobs: usize,
    policy: &CachePolicy,
) -> (Vec<ModuleResult>, ExperimentBench) {
    match policy {
        CachePolicy::Disabled => measure_stream_cached(stream, range, jobs, intra_jobs, None),
        CachePolicy::Dir { dir, shards } => {
            let mut c = AnalysisCache::load_sharded(dir, *shards);
            let (results, mut bench) =
                measure_stream_cached(stream, range, jobs, intra_jobs, Some(&mut c));
            if let Err(e) = c.persist() {
                obs::warn!(
                    "localias-bench: warning: cache not fully written to {}: {e}",
                    dir.display()
                );
            }
            if let Some(stats) = bench.cache.as_mut() {
                stats.store = c.store_time();
                stats.quarantined = c.quarantined();
                stats.lock_retries = c.lock_retries();
                stats.lock_skips = c.lock_skips();
            }
            (results, bench)
        }
    }
}

/// One full cached sweep under a [`CachePolicy`]: loads the store, runs
/// [`measure_corpus_cached`], and atomically persists the store back.
/// Cache I/O failures degrade to warnings — results are never affected.
pub fn measure_corpus_with_cache(
    corpus: &[GeneratedModule],
    jobs: usize,
    intra_jobs: usize,
    seed: u64,
    policy: &CachePolicy,
) -> (Vec<ModuleResult>, ExperimentBench) {
    match policy {
        CachePolicy::Disabled => measure_corpus_cached(corpus, jobs, intra_jobs, seed, None),
        CachePolicy::Dir { dir, shards } => {
            let mut c = AnalysisCache::load_sharded(dir, *shards);
            let (results, mut bench) =
                measure_corpus_cached(corpus, jobs, intra_jobs, seed, Some(&mut c));
            if let Err(e) = c.persist() {
                obs::warn!(
                    "localias-bench: warning: cache not fully written to {}: {e}",
                    dir.display()
                );
            }
            if let Some(stats) = bench.cache.as_mut() {
                stats.store = c.store_time();
                stats.quarantined = c.quarantined();
                stats.lock_retries = c.lock_retries();
                stats.lock_skips = c.lock_skips();
            }
            (results, bench)
        }
    }
}

/// What [`finish_obs`] drained from the run's observability sinks.
#[derive(Debug, Default)]
pub struct ObsReport {
    /// The full span/counter trace — `Some` only when the run asked for
    /// obs output (`--trace-out`, `--trace-chrome`, or `--profile`).
    pub trace: Option<obs::Trace>,
    /// Merged latency histograms. Always populated (histograms are
    /// cheap enough to collect unconditionally), so every bench
    /// artifact carries its `hist` block even without `--profile`.
    pub hists: Vec<obs::HistSnapshot>,
}

/// Applies the CLI's logging options and installs the obs sinks
/// (clearing any stale state so the trace covers exactly the run that
/// follows). Latency histograms are always enabled — they cost one TLS
/// array update per sample — while spans and counters only turn on
/// when `--trace-out`, `--trace-chrome`, or `--profile` asks for them.
/// Call once, right after argument parsing.
pub fn init_obs(opts: &CliOpts) {
    opts.apply_log_level();
    if opts.wants_obs() {
        obs::enable_all();
    } else {
        obs::enable_hists();
    }
    let _ = obs::drain();
}

/// Drains the obs sinks after the run: writes the JSON-lines trace to
/// `--trace-out`, the Chrome trace-event file to `--trace-chrome`,
/// prints the `--profile` table to stderr, and returns the drained
/// snapshots so callers can embed them (see [`ExperimentBench::profile`]
/// and [`ExperimentBench::hist`]). The report's histograms are populated
/// on every run; its trace only when the run asked for obs output.
pub fn finish_obs(opts: &CliOpts) -> Result<ObsReport, String> {
    if !opts.wants_obs() {
        let trace = obs::drain();
        obs::disable_hists();
        return Ok(ObsReport {
            trace: None,
            hists: trace.hists,
        });
    }
    // Flush the memory gauges exactly once, here — not inside the sweep,
    // so the trace shape stays invariant across thread counts.
    obs::gauge_max(obs::Counter::MemPeakRssBytes, obs::peak_rss_bytes());
    let arena = localias_ast::intern::stats();
    obs::gauge_max(obs::Counter::MemArenaBytes, arena.arena_bytes);
    obs::gauge_max(obs::Counter::MemArenaSavedBytes, arena.saved_bytes);
    let trace = obs::drain();
    obs::disable_hists();
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, trace.to_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }
    if let Some(path) = &opts.trace_chrome {
        let counters: Vec<(String, u64)> = trace
            .counters
            .iter_nonzero()
            .map(|(n, v)| (n.to_string(), v))
            .collect();
        let chrome = obs::chrome_trace(&trace.spans, &counters, &trace.hists);
        // The exporter promises well-formed JSON; hold it to that before
        // the file lands where a browser will load it.
        crate::json::parse(&chrome).map_err(|e| format!("{path}: generated trace invalid: {e}"))?;
        std::fs::write(path, chrome).map_err(|e| format!("{path}: {e}"))?;
    }
    if opts.profile {
        eprint!("{}", trace.render_profile());
    }
    Ok(ObsReport {
        hists: trace.hists.clone(),
        trace: Some(trace),
    })
}

/// Runs the whole Section 7 experiment (all available cores, no cache)
/// and returns per-module results in corpus order.
pub fn run_experiment(seed: u64) -> Vec<ModuleResult> {
    run_experiment_timed(seed, 0).0
}

/// [`run_experiment`] with an explicit thread count (`0` = auto) and
/// aggregate timing statistics.
pub fn run_experiment_timed(seed: u64, jobs: usize) -> (Vec<ModuleResult>, ExperimentBench) {
    let corpus = localias_corpus::generate(seed);
    measure_corpus_timed(&corpus, jobs, seed)
}

/// [`run_experiment_timed`] under a [`CachePolicy`]: the incremental
/// entry point the `experiment`, `summary`, and `fig6` binaries use.
/// Streams the paper corpus rather than materializing it.
pub fn run_experiment_cached(
    seed: u64,
    jobs: usize,
    intra_jobs: usize,
    policy: &CachePolicy,
) -> (Vec<ModuleResult>, ExperimentBench) {
    let stream = CorpusStream::paper(seed);
    let range = 0..stream.len();
    measure_stream_with_cache(&stream, range, jobs, intra_jobs, policy)
}

/// Generates a synthetic program of roughly `n` statements with `k`
/// explicit `restrict` annotations, for the §4 `O(kn)` checking bench.
pub fn checking_workload(n: usize, k: usize) -> Module {
    let mut src = String::from("int g;\nextern void work();\n");
    let funs = n.max(1) / 10 + 1;
    let per_fun = n / funs + 1;
    let mut annotated = 0;
    for f in 0..funs {
        let _ = writeln!(src, "void f{f}(int *q{f}) {{");
        for s in 0..per_fun {
            match s % 5 {
                0 => {
                    let _ = writeln!(src, "    int *a{s} = q{f};");
                }
                1 if annotated < k => {
                    // Each annotation restricts its own fresh location
                    // (two restricts of one location in one scope are
                    // correctly rejected by the checker).
                    annotated += 1;
                    let _ = writeln!(src, "    int *s{s} = new (0);");
                    let _ = writeln!(src, "    restrict int *r{s} = s{s};");
                    let _ = writeln!(src, "    *r{s} = {s};");
                }
                2 => {
                    let _ = writeln!(src, "    int x{s} = g + {s};");
                }
                3 => {
                    let _ = writeln!(src, "    int *h{s} = new ({s});");
                    let _ = writeln!(src, "    *h{s} = {s};");
                }
                _ => {
                    let _ = writeln!(src, "    work();");
                }
            }
        }
        let _ = writeln!(src, "}}");
    }
    localias_ast::parse_module("workload", &src).expect("workload parses")
}

/// Generates a driver-like program with `pairs` confinable lock regions,
/// for the inference scaling benches.
pub fn confine_workload(pairs: usize) -> Module {
    let mut src = String::from("extern void work();\n");
    for p in 0..pairs {
        let _ = writeln!(src, "lock locks{p}[8];");
        let _ = writeln!(src, "void f{p}(int i) {{");
        let _ = writeln!(src, "    spin_lock(&locks{p}[i]);");
        let _ = writeln!(src, "    work();");
        let _ = writeln!(src, "    spin_unlock(&locks{p}[i]);");
        let _ = writeln!(src, "}}");
    }
    localias_ast::parse_module("confine-workload", &src).expect("workload parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use localias_cqual::check_locks;

    #[test]
    fn checking_workload_scales_and_checks() {
        let m = checking_workload(100, 5);
        let a = localias_core::check(&m);
        assert_eq!(a.restricts.len(), 5);
        assert!(a.restricts.iter().all(|r| r.ok()), "{:?}", a.restricts);
    }

    #[test]
    fn confine_workload_is_fully_recoverable() {
        let m = confine_workload(4);
        let nc = check_locks(&m, Mode::NoConfine).error_count();
        let cf = check_locks(&m, Mode::Confine).error_count();
        assert_eq!(nc, 4);
        assert_eq!(cf, 0);
    }

    #[test]
    fn shard_suggestion_tracks_corpus_size() {
        // ~1k modules per shard, rounded up to a power of two.
        assert_eq!(suggest_cache_shards(50_000, DEFAULT_SHARDS), 64);
        assert_eq!(suggest_cache_shards(100_000, DEFAULT_SHARDS), 128);
        assert_eq!(suggest_cache_shards(200_000, DEFAULT_SHARDS), MAX_SHARDS);
        // Huge corpora clamp at the store's shard-count ceiling.
        assert_eq!(suggest_cache_shards(10_000_000, DEFAULT_SHARDS), MAX_SHARDS);
        // The suggestion is always a strict increase over a contending
        // count (the warning's precondition: shards <= DEFAULT_SHARDS).
        for shards in 1..=DEFAULT_SHARDS {
            for modules in [LARGE_CORPUS_SHARD_WARN + 1, 20_000, 500_000] {
                let s = suggest_cache_shards(modules, shards);
                assert!(s > shards, "modules={modules} shards={shards} -> {s}");
                assert!(s <= MAX_SHARDS);
            }
        }
    }

    /// Every float in the JSON report must be locale-independent and
    /// parse back to the exact measured value (shortest round trip) —
    /// pinned before the schema grew the v2 cache fields.
    #[test]
    fn json_floats_round_trip_exactly() {
        for x in [
            0.0,
            0.1,
            0.313788,
            1.0 / 3.0,
            1e-9,
            1877.06,
            f64::MAX,
            f64::MIN_POSITIVE,
            -2.5,
        ] {
            let s = json_f64(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "{s}");
            assert!(!s.contains(','), "locale-dependent rendering: {s}");
        }
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
    }

    #[test]
    fn bench_json_parses_back_field_for_field() {
        let bench = ExperimentBench {
            seed: 7,
            modules: 2,
            threads: 1,
            wall: Duration::from_nanos(313_788_123),
            phases: PhaseTimes {
                parse: Duration::from_nanos(41_000_001),
                check: Duration::from_nanos(3),
                confine: Duration::from_nanos(148_000_000),
            },
            errors: (3, 2, 1),
            potential: 2,
            eliminated: 1,
            cache: Some(CacheStats {
                hits: 589,
                misses: 0,
                dir: ".localias-cache".into(),
                shards: 4,
                shard_hits: vec![147, 148, 147, 147],
                shard_misses: vec![0, 0, 0, 0],
                quarantined: 1,
                lock_retries: 2,
                lock_skips: 0,
                load: Duration::from_nanos(1_234_567),
                store: Duration::from_nanos(89),
            }),
            profile: None,
            hist: Vec::new(),
            partition: None,
            results: None,
        };
        let json = bench.to_json();
        assert!(json.contains("\"schema\": \"localias-bench-experiment/v6\""));
        assert!(json.contains("\"hist\": {"));
        assert!(json.contains("\"analyze.module\""));
        assert!(json.contains("\"check.function\""));
        assert!(json.contains("\"profile\": null"));
        assert!(json.contains("\"partition\": null"));
        assert!(json.contains("\"results\": null"));
        assert!(json.contains("\"hits\": 589"));
        assert!(json.contains("\"dir\": \".localias-cache\""));
        assert!(json.contains("\"shards\": 4"));
        assert!(json.contains("\"shard_hits\": [147,148,147,147]"));
        assert!(json.contains("\"shard_misses\": [0,0,0,0]"));
        assert!(json.contains("\"quarantined\": 1"));
        assert!(json.contains("\"lock_retries\": 2"));
        assert!(json.contains("\"lock_skips\": 0"));
        // Extract a float field and check exact parse-back.
        let wall = json
            .lines()
            .find(|l| l.contains("\"wall_seconds\""))
            .and_then(|l| l.split(": ").nth(1))
            .map(|v| v.trim_end_matches(','))
            .unwrap();
        assert_eq!(wall.parse::<f64>().unwrap(), bench.wall.as_secs_f64());

        let uncached = ExperimentBench {
            cache: None,
            ..bench
        };
        assert!(uncached.to_json().contains("\"cache\": null"));
    }

    /// The v4 `profile` block carries the trace's spans and non-zero
    /// counters, and the rendered JSON stays machine-parseable.
    #[test]
    fn profile_block_serializes_spans_and_counters() {
        let mut trace = obs::Trace::default();
        trace.spans.push(obs::SpanAgg {
            path: "bench.sweep".into(),
            count: 1,
            total_ns: 5_000,
            self_ns: 2_000,
        });
        let json = json_trace(&trace);
        assert!(json.contains("\"path\": \"bench.sweep\""));
        assert!(json.contains("\"count\": 1"));
        assert!(json.contains("\"total_ns\": 5000"));
        assert!(json.contains("\"self_ns\": 2000"));
        assert!(json.contains("\"counters\": {}"));

        let (results, mut bench) = {
            let corpus = localias_corpus::generate(1);
            measure_corpus_cached(&corpus[..1], 1, 1, 1, None)
        };
        assert_eq!(results.len(), 1);
        bench.profile = Some(trace);
        let json = bench.to_json();
        assert!(json.contains("\"profile\": {"));
        assert!(json.contains("\"spans\": ["));
    }

    /// The v6 `hist` block names every registered histogram — zeros
    /// included — so cold and warm artifacts share a shape, and renders
    /// exact percentiles for the ones that saw samples.
    #[test]
    fn hist_block_renders_all_registered_names() {
        let empty = json_hists(&[]);
        for h in obs::ALL_HISTS {
            assert!(
                empty.contains(&format!("\"{}\"", obs::hist_name(h))),
                "{empty}"
            );
        }
        let parsed = crate::json::parse(&empty).unwrap();
        assert!(matches!(parsed, crate::json::Value::Obj(_)));

        let mut snap = obs::HistSnapshot::empty("analyze.module");
        for v in [10u64, 20, 30, 40] {
            snap.count += 1;
            snap.sum_ns += v;
        }
        snap.min_ns = 10;
        snap.max_ns = 40;
        // Samples 10, 20, 30, 40 land in log2 buckets 4, 5, 5, 6.
        snap.buckets = vec![(4, 1), (5, 2), (6, 1)];
        let json = json_hists(&[snap.clone()]);
        assert!(json.contains("\"count\": 4"));
        assert!(json.contains(&format!("\"p50_ns\": {}", snap.percentile(50))));
        assert!(json.contains(&format!("\"p99_ns\": {}", snap.percentile(99))));
        assert!(json.contains("\"buckets\": [[4,1],[5,2],[6,1]]"));
        crate::json::parse(&json).unwrap();
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\ny"), "\"x\\u000ay\"");
    }

    #[test]
    fn histogram_renders() {
        let h = text_histogram(&[("1".to_string(), 10), ("2".to_string(), 5)], 20);
        assert!(h.contains("####"));
        assert!(h.contains(" 10"));
    }
}
