//! Host fingerprint recorded with every run, so numbers from different
//! hosts are never compared silently.

use mep_obs::json::escape_into;
use std::process::Command;

/// One JSON object: available parallelism, CPU model, rustc version and
/// the `target-cpu` the repository builds with.
pub(crate) fn fingerprint() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let target_cpu = std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|text| {
            let at = text.find("target-cpu=")? + "target-cpu=".len();
            let rest = &text[at..];
            let end = rest.find(|c: char| c == '"' || c.is_whitespace())?;
            Some(rest[..end].to_string())
        })
        .unwrap_or_else(|| "default".to_string());
    let mut out = format!(r#"{{"available_parallelism":{parallelism}"#);
    for (key, value) in [("cpu", cpu), ("rustc", rustc), ("target_cpu", target_cpu)] {
        out.push_str(&format!(r#","{key}":""#));
        escape_into(&mut out, &value);
        out.push('"');
    }
    out.push('}');
    out
}
