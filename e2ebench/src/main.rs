//! End-to-end benchmark of the DISCO mediator.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload scan_wide|join_selective|serving_fanout|all \
//!     --seed <n> --seconds <n> --trace 0|1
//! ```
//!
//! `all` runs every workload, each in its own process.  For one
//! workload, the benchmark builds the workload's tables and query texts from the seed, sets the
//! program up, runs a closed loop for the given seconds (longer if too
//! few queries completed for a p90), checks every answer against an
//! oracle computed from the generated tables, and prints one JSON object
//! as the last line of standard output.  `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics of a
//! traced run.  See `README.md` in this directory for the definitions.

mod json;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use json::Json;
use run::Options;
use workload::Workload;

/// The program's environment switches.  They are cleared before the
/// program is first called, so every run uses its defaults.
const PROGRAM_ENV: [&str; 6] = [
    "DISCO_THREADS",
    "DISCO_COLUMNAR",
    "DISCO_BATCH_ROWS",
    "DISCO_MEM_BUDGET",
    "DISCO_ADAPTIVE",
    "DISCO_SPILL_DIR",
];

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: e2ebench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

/// One `Options` per workload to run (all of them for `--workload all`).
fn parse_args(args: &[String]) -> Result<Vec<Options>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => workload = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let one =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?;
                workload = Some(vec![one]);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let (seed, seconds, trace) = (
        seed.unwrap_or(0),
        seconds.unwrap_or(10),
        trace.unwrap_or(false),
    );
    Ok(workload
        .ok_or("--workload is required")?
        .into_iter()
        .map(|workload| Options {
            workload,
            seed,
            seconds,
            trace,
        })
        .collect())
}

/// Runs each workload in a child process of this program, one after the
/// other; fails if any of them failed.
fn run_each(all: &[Options]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this program to rerun it: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for opts in all {
        let status = std::process::Command::new(&exe)
            .args(["--workload", opts.workload.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("{}: {status:?}", opts.workload.name());
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args).as_deref() {
        Ok([one]) => *one,
        Ok(all) => return run_each(all),
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cleared: Vec<&str> = PROGRAM_ENV
        .into_iter()
        .filter(|var| std::env::var_os(var).is_some())
        .collect();
    for var in PROGRAM_ENV {
        std::env::remove_var(var);
    }
    let result = match run::run(&opts) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    for m in result.mismatches.iter().take(5) {
        eprintln!("WRONG ANSWER {m}");
    }
    // A sum over nothing is -0.0; print it as 0.
    let metrics: Vec<(&str, f64, &str)> = result
        .metrics
        .iter()
        .map(|&(name, value, unit)| (name, value + 0.0, unit))
        .collect();
    for (name, value, unit) in &metrics {
        eprintln!("{:<34} {value:>14.4} {unit}", name);
    }
    let Json::Obj(mut detail) = result.detail else {
        unreachable!("the detail is an object")
    };
    detail.push((
        "cleared_env".into(),
        Json::Arr(cleared.into_iter().map(Json::str).collect()),
    ));
    println!("{}", Json::obj([("detail", Json::Obj(detail))]));
    let metrics = Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(result.correct)),
            ("attempted", Json::count(result.attempted)),
            ("failed", Json::count(result.failed)),
            ("metrics", metrics),
        ])
    );
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
