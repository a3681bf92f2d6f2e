//! Runs one workload of the localias benchmark and prints its result as
//! the last line of standard output:
//!
//! ```text
//! perfbench --workload corpus_sweep|watch_edit|fuzz_oracle
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--seconds` defaults to 30, the run length of `BENCHMARK.json`.
//! `--trace 0` (the default) prints the end-to-end metrics, `--trace 1`
//! the per-layer ones. See `README.md`.

use localias_perfbench::{fuzz, sweep, watch};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("a u64"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad("a number of seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (seconds, trace) = (args.seconds, args.trace);
    let result = match args.workload.as_str() {
        "corpus_sweep" => {
            let seed = args.seed.unwrap_or(sweep::DEFAULT_SEED);
            if trace {
                sweep::run_traced(seed, seconds, &sweep::program)
            } else {
                sweep::run(seed, seconds, &sweep::program)
            }
        }
        "watch_edit" => {
            let seed = args.seed.unwrap_or(watch::DEFAULT_SEED);
            let mut program = watch::program;
            if trace {
                watch::run_traced(seed, watch::FUNS, seconds, &mut program)
            } else {
                watch::run(seed, watch::FUNS, seconds, &mut program)
            }
        }
        "fuzz_oracle" => {
            let seed = args.seed.unwrap_or(fuzz::DEFAULT_SEED);
            let checker = localias_bench::fuzz::real_static_matrix;
            if trace {
                fuzz::run_traced(seed, seconds, &checker)
            } else {
                fuzz::run(seed, seconds, &checker)
            }
        }
        other => {
            eprintln!(
                "perfbench: unknown workload `{other}` \
                 (expected corpus_sweep, watch_edit or fuzz_oracle)"
            );
            return ExitCode::from(2);
        }
    };
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
