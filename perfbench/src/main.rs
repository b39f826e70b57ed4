//! End-to-end placement benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//!
//! * `place_ispd06`: the full flow on the `newblue5` stand-in at 2
//!   engine threads, checked bit-identical to a 1-thread placement;
//! * `place_highfanout`: the full flow on a 16-pins-per-net circuit at 1
//!   thread, where the Moreau water-filling kernel dominates;
//! * `serve_open_loop`: a seeded open-loop job mix sent to
//!   `mep serve --stdio --workers 2 --engine-threads 1`.
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it records the
//! host fingerprint and seed. Any failed check makes the exit code 1.

mod host;
mod inputs;
mod place;
mod report;
mod serve;
mod trace;

use inputs::Scale;
use mep_netlist::synth::SynthSpec;
use report::{END_TO_END, PER_LAYER};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["place_ispd06", "place_highfanout", "serve_open_loop"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    mep: PathBuf,
    work: PathBuf,
    scale: Scale,
    print_inputs: bool,
    write_inputs: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        mep: PathBuf::from(".bench_build/release/mep"),
        work: PathBuf::from(".bench_build/perfbench-work"),
        scale: Scale::Full,
        print_inputs: false,
        write_inputs: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                };
            }
            "--mep" => args.mep = PathBuf::from(value()?),
            "--work" => args.work = PathBuf::from(value()?),
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale must be full or tiny, not {other}")),
                };
            }
            "--print-inputs" => args.print_inputs = true,
            "--write-inputs" => args.write_inputs = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".to_string());
    }
    Ok(args)
}

/// The circuit recipe of a placement workload (`None` for serve).
fn place_spec(args: &Args) -> Option<Result<SynthSpec, String>> {
    match args.workload.as_str() {
        "place_ispd06" => {
            Some(inputs::ispd06_spec(args.scale).ok_or("newblue5 spec missing".into()))
        }
        "place_highfanout" => Some(Ok(inputs::highfanout_spec(args.scale))),
        _ => None,
    }
}

/// A digest of the generated inputs (the self-test compares these
/// across seeds).
fn input_digest(args: &Args) -> Result<String, String> {
    match place_spec(args) {
        Some(spec) => Ok(format!("{:?}", inputs::place_files(&spec?, args.seed))),
        None => Ok(inputs::serve_schedule(args.seed, args.seconds, args.scale)
            .iter()
            .map(|j| format!("{:.17e} {}", j.due_s, j.body))
            .collect::<Vec<_>>()
            .join("\n")),
    }
}

/// Set-up of a placement workload: its Bookshelf files are written by a
/// child process, so generating them does not count toward the peak RSS
/// of the process that places.
fn place_workload(
    args: &Args,
    spec: SynthSpec,
    work: &Path,
) -> Result<place::PlaceWorkload, String> {
    let dir = work.join("input");
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let status = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--scale", args.scale.name(), "--write-inputs"])
        .arg(&dir)
        .status()
        .map_err(|e| format!("writing inputs: {e}"))?;
    if !status.success() {
        return Err(format!("writing inputs: {status}"));
    }
    let (threads, check_threads) = match args.workload.as_str() {
        "place_ispd06" => (2, Some(1)),
        _ => (1, None),
    };
    Ok(place::PlaceWorkload {
        aux: dir.join(format!("{}.aux", spec.name)),
        target_density: spec.target_density,
        threads,
        check_threads,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_inputs || args.write_inputs.is_some() {
        let done = match (&args.write_inputs, place_spec(&args)) {
            (Some(dir), Some(spec)) => spec.and_then(|spec| {
                inputs::write_place_files(&spec, args.seed, dir)
                    .map_err(|e| format!("writing {}: {e}", dir.display()))
            }),
            (Some(_), None) => Err("only placement workloads have input files".to_string()),
            (None, _) => input_digest(&args).map(|d| println!("{d}")),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let work = args.work.join(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        return ExitCode::from(2);
    }

    let mut outcome = match place_spec(&args) {
        Some(spec) => match spec.and_then(|spec| place_workload(&args, spec, &work)) {
            Ok(w) => place::run(&w, args.seconds, args.trace, &work),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        },
        None => serve::run(
            &serve::ServeWorkload {
                mep: &args.mep,
                workers: 2,
                engine_threads: 1,
                schedule: inputs::serve_schedule(args.seed, args.seconds, args.scale),
            },
            args.trace,
            &work,
        ),
    };

    let set = if args.trace {
        // a layer this workload does not run reads 0
        for (name, _) in PER_LAYER {
            outcome.values.entry(name).or_insert(0.0);
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    let result = outcome.result_line(set);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# FAILED: {problem}");
        eprintln!("perfbench: FAILED: {problem}");
    }
    let record = format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"host":{}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::fingerprint()
    );
    println!("{record}");
    let log = work.join("runs.jsonl");
    let logged = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| writeln!(f, "{{\"run\":{record},\"result\":{result}}}"));
    if let Err(e) = logged {
        eprintln!("perfbench: appending to {}: {e}", log.display());
    }
    println!("{result}");
    if outcome.is_correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
