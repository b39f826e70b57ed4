//! Harness self-test: seeded inputs, metric names against
//! `BENCHMARK.json`, and a minimal-size pass of every workload.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! The minimal-size passes go through `perfbench/run.sh`, so they build
//! `mep` and the harness into `.bench_build` like a benchmark run does.
//! The repository's linter reads this file as library code, so failures
//! are `Err` values rather than panics.

use mep_obs::parse::{parse_json, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: &[&str] = &["place_ispd06", "place_highfanout", "serve_open_loop"];

fn repo_root() -> Result<PathBuf, String> {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "perfbench must sit inside the repository".to_string())
}

fn inputs(workload: &str, seed: u64) -> Result<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "30", "--scale", "tiny", "--print-inputs"])
        .output()
        .map_err(|e| format!("running the harness: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: {out:?}"));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("{workload}: {e}"))
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() -> Result<(), String> {
    for w in WORKLOADS {
        let a = inputs(w, 7)?;
        assert!(!a.is_empty(), "{w}: empty inputs");
        assert_eq!(a, inputs(w, 7)?, "{w}: seed 7 twice gave different inputs");
        assert_ne!(a, inputs(w, 8)?, "{w}: seeds 7 and 8 gave the same inputs");
    }
    Ok(())
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let path = repo_root()?.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse_json(&text)?;
    let list = doc
        .get(section)
        .and_then(JsonValue::as_arr)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{section} entry without {k}"))
            };
            Ok((field("name")?, field("unit")?))
        })
        .collect()
}

/// Runs one minimal-size pass through the benchmark command and returns
/// its parsed result line.
fn tiny_pass(workload: &str, trace: bool) -> Result<JsonValue, String> {
    let root = repo_root()?;
    let out = Command::new("bash")
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", root.join(".bench_build"))
        .args(["perfbench/run.sh", "--workload", workload, "--seed", "3"])
        .args(["--seconds", "3", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny", "--work"])
        .arg(root.join(".bench_build").join("perfbench-selftest"))
        .output()
        .map_err(|e| format!("running the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{workload} trace={trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    parse_json(stdout.lines().last().unwrap_or(""))
}

#[test]
fn minimal_pass_is_correct_and_prints_the_declared_metrics() -> Result<(), String> {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let mut want = declared(section)?;
        want.sort();
        for w in WORKLOADS {
            let result = tiny_pass(w, trace)?;
            let field = |k: &str| result.get(k).cloned().unwrap_or(JsonValue::Null);
            assert_eq!(field("correct").as_bool(), Some(true), "{w}");
            assert_eq!(field("failed").as_u64(), Some(0), "{w}");
            assert!(field("attempted").as_u64() >= Some(1), "{w}");
            let metrics = field("metrics");
            let mut got = Vec::new();
            for (name, m) in metrics.as_obj().ok_or(format!("{w}: no metrics"))? {
                let unit = m.get("unit").and_then(JsonValue::as_str).unwrap_or("");
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{w}: {name}"
                );
                got.push((name.clone(), unit.to_string()));
            }
            got.sort();
            assert_eq!(
                got, want,
                "{w}: printed {section} metrics differ from BENCHMARK.json"
            );
        }
    }
    Ok(())
}
