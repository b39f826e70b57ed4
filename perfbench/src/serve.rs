//! The open-loop serve workload: one client sends the seeded schedule of
//! `place` requests to a `mep serve --stdio` daemon, each at its due
//! time whether or not earlier jobs have finished, and times every job
//! from when it was due to its `done` event.

use crate::inputs::ServeJob;
use crate::place::vm_hwm_kib;
use crate::report::{median, tail, Outcome};
use crate::trace::{now, Open, Tracer};
use mep_serve::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon start-ups timed before the schedule and again after it;
/// `setup_s` is their median. Splitting them keeps a momentary host
/// slowdown from setting the figure.
const SETUP_REPEATS: usize = 8;

/// Ids of warm-up jobs start here, far above the schedule's ids.
const WARMUP_ID: u64 = 1_000_000;

/// How long the client waits for stragglers after the last send.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(90);

/// The serve workload.
#[derive(Debug)]
pub(crate) struct ServeWorkload<'a> {
    /// The `mep` binary.
    pub(crate) mep: &'a Path,
    /// Worker threads of the daemon.
    pub(crate) workers: usize,
    /// Evaluation-engine threads of the daemon.
    pub(crate) engine_threads: usize,
    /// The arrival schedule.
    pub(crate) schedule: Vec<ServeJob>,
}

/// A running `mep serve --stdio` with a reader thread that timestamps
/// every event line as it arrives.
struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    events: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(w: &ServeWorkload) -> Result<Self, String> {
        let mut child = Command::new(w.mep)
            .args(["serve", "--stdio", "--workers"])
            .arg(w.workers.to_string())
            .arg("--engine-threads")
            .arg(w.engine_threads.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", w.mep.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().ok_or("daemon has no stdout")?;
        let (tx, events) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Self {
            child,
            stdin,
            events,
            reader: Some(reader),
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.write_all(b"\n"))
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("writing to the daemon: {e}"))
    }

    /// Next event before `deadline`, parsed.
    fn next_event(&self, deadline: Instant) -> Result<(Instant, JsonValue), String> {
        let wait = deadline.saturating_duration_since(now());
        match self.events.recv_timeout(wait) {
            Ok((at, line)) => parse_json(&line)
                .map(|v| (at, v))
                .map_err(|e| format!("unparsable event {line:?}: {e}")),
            Err(RecvTimeoutError::Timeout) => Err("timed out waiting for the daemon".into()),
            Err(RecvTimeoutError::Disconnected) => Err("daemon closed its output".into()),
        }
    }

    /// Waits for the first event of kind `event`.
    fn wait_for(&self, event: &str, deadline: Instant) -> Result<(Instant, JsonValue), String> {
        loop {
            let (at, v) = self.next_event(deadline)?;
            if v.get("event").and_then(JsonValue::as_str) == Some(event) {
                return Ok((at, v));
            }
        }
    }

    /// Asks for a drained shutdown and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.send(r#"{"op":"shutdown"}"#)?;
        self.wait_for("shutdown_complete", now() + Duration::from_secs(30))?;
        self.stdin = None;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "event reader thread panicked")?;
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // a daemon still running here is left over from an error path
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Per-job record of the client's view.
#[derive(Debug, Default)]
struct JobView {
    due: Option<Instant>,
    sent: Option<Instant>,
    done: Option<(Instant, JsonValue)>,
    refused: Option<String>,
}

/// Runs the workload: daemon set-up, the open-loop schedule, the drain,
/// and the output checks.
pub(crate) fn run(w: &ServeWorkload, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome {
        attempted: w.schedule.len() as u64,
        ..Outcome::default()
    };
    if let Err(e) = run_inner(w, trace, work, &mut out) {
        // the daemon or the client broke: no job's result can be trusted
        out.problems.push(e);
        out.failed = out.attempted;
    }
    out
}

fn run_inner(w: &ServeWorkload, trace: bool, work: &Path, out: &mut Outcome) -> Result<(), String> {
    // set-up: spawn -> first `accepted`, on throwaway daemons
    let time_setup = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_REPEATS {
            let t0 = now();
            let mut d = Daemon::spawn(w)?;
            d.send(r#"{"op":"place","id":1,"circuit":"smoke","max_iters":1}"#)?;
            let (at, _) = d.wait_for("accepted", t0 + Duration::from_secs(30))?;
            setup.push(at.duration_since(t0).as_secs_f64());
            d.shutdown()?;
        }
        Ok(())
    };
    let mut setup = Vec::new();
    time_setup(&mut setup)?;

    // warm-up: one job of every class, so lazily built plans and caches
    // (a daemon pays for them once, not per request) are in place
    let mut d = Daemon::spawn(w)?;
    let mut classes: Vec<&str> = Vec::new();
    for job in &w.schedule {
        if !classes.contains(&job.body.as_str()) {
            classes.push(&job.body);
        }
    }
    for (k, body) in classes.iter().enumerate() {
        d.send(&format!(
            r#"{{"op":"place","id":{},{body}}}"#,
            WARMUP_ID + k as u64
        ))?;
    }
    let deadline = now() + Duration::from_secs(60);
    for _ in &classes {
        d.wait_for("done", deadline)?;
    }

    // open loop: every request goes out at its due time
    let mut tr = Tracer::new(trace);
    let start = now();
    let mut jobs: Vec<JobView> = (0..w.schedule.len()).map(|_| JobView::default()).collect();
    let mut lag_ms = Vec::with_capacity(w.schedule.len());
    for (i, job) in w.schedule.iter().enumerate() {
        let due = start + Duration::from_secs_f64(job.due_s);
        std::thread::sleep(due.saturating_duration_since(now()));
        d.send(&format!(r#"{{"op":"place","id":{},{}}}"#, i + 1, job.body))?;
        let sent = now();
        lag_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
        jobs[i].due = Some(due);
        jobs[i].sent = Some(sent);
    }

    // drain: collect every job's terminal event
    let deadline = now() + DRAIN_TIMEOUT;
    let mut terminal = 0;
    while terminal < jobs.len() {
        let (at, v) = match d.next_event(deadline) {
            Ok(e) => e,
            Err(e) => {
                out.notes
                    .push(format!("{} jobs unfinished: {e}", jobs.len() - terminal));
                break;
            }
        };
        let event = v.get("event").and_then(JsonValue::as_str).unwrap_or("");
        let id = v.get("id").and_then(JsonValue::as_u64).unwrap_or(0) as usize;
        let Some(view) = id.checked_sub(1).and_then(|k| jobs.get_mut(k)) else {
            continue;
        };
        match event {
            "done" => {
                view.done = Some((at, v));
                terminal += 1;
            }
            "failed" | "rejected" => {
                view.refused = Some(format!(
                    "{event}: {}",
                    v.get("detail")
                        .or(v.get("reason"))
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                ));
                terminal += 1;
            }
            _ => {}
        }
    }

    d.send(r#"{"op":"metrics"}"#)?;
    let (_, metrics) = d.wait_for("metrics", now() + Duration::from_secs(30))?;
    let peak_kib = vm_hwm_kib(&d.child.id().to_string()).unwrap_or(0);
    d.shutdown()?;
    time_setup(&mut setup)?;
    out.set("setup_s", median(&setup));

    // output checks, and the latency of every job from its due time
    let mut hashes: BTreeMap<&str, &str> = BTreeMap::new();
    let mut latency = Vec::new();
    let mut solve_ms = Vec::new();
    let mut queue_ms = Vec::new();
    let mut hpwl = 0.0;
    let mut last_done = start;
    for (i, (view, job)) in jobs.iter().zip(&w.schedule).enumerate() {
        let (Some(due), Some(sent), Some((done_at, v))) = (view.due, view.sent, &view.done) else {
            let why = view.refused.as_deref().unwrap_or("no terminal event");
            out.fail(format!("job {} ({}): {why}", i + 1, job.class));
            continue;
        };
        let field = |k: &str| v.get(k);
        let termination = field("termination")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        let violations = field("violations")
            .and_then(JsonValue::as_u64)
            .unwrap_or(u64::MAX);
        let hash = field("placement_hash")
            .and_then(JsonValue::as_str)
            .unwrap_or("");
        let elapsed_ms = field("elapsed_ms")
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN);
        let first_hash = *hashes.entry(job.body.as_str()).or_insert(hash);
        let problem = if termination != "converged" {
            Some(format!("terminated `{termination}`"))
        } else if violations != 0 {
            Some(format!("{violations} legality violations"))
        } else if first_hash != hash {
            Some(format!(
                "hash {hash} differs from {first_hash} for the same request"
            ))
        } else {
            None
        };
        if let Some(p) = problem {
            out.fail(format!("job {} ({}): {p}", i + 1, job.class));
            continue;
        }
        hpwl += field("hpwl")
            .and_then(JsonValue::as_f64)
            .unwrap_or(f64::NAN);
        latency.push(done_at.duration_since(due).as_secs_f64());
        solve_ms.push(elapsed_ms);
        queue_ms.push(done_at.duration_since(sent).as_secs_f64() * 1e3 - elapsed_ms);
        last_done = last_done.max(*done_at);

        let id = i as u64 + 1;
        let span = tr.record("serve.job", id, Open::NONE, due, *done_at);
        tr.record("loadgen.lag", id, span, due, sent);
        let solve_start = Duration::try_from_secs_f64(elapsed_ms / 1e3)
            .ok()
            .and_then(|d| done_at.checked_sub(d))
            .unwrap_or(sent);
        tr.record("serve.solve", id, span, solve_start.max(sent), *done_at);
    }
    let (tail_s, tail_pct) = tail(&latency);
    let report = metrics.get("report");
    let gauge = |k: &str| report.and_then(|r| r.get(k)).and_then(JsonValue::as_f64);
    out.set("place_s", median(&solve_ms) / 1e3);
    out.set("hpwl", hpwl);
    out.set("peak_rss_mb", peak_kib as f64 / 1024.0);
    out.set("job_p50_s", median(&latency));
    out.set("job_tail_s", tail_s);
    out.set(
        "jobs_per_min",
        60.0 * latency.len() as f64 / last_done.duration_since(start).as_secs_f64().max(1e-9),
    );
    out.notes.push(format!(
        "jobs {} completed {}  job_tail_s is p{tail_pct:.0} of {} samples  max lag {:.2} ms",
        w.schedule.len(),
        latency.len(),
        latency.len(),
        lag_ms.iter().copied().fold(0.0, f64::max)
    ));

    if trace {
        out.set("serve.queue_wait_ms", median(&queue_ms));
        out.set("serve.solve_ms", median(&solve_ms));
        out.set(
            "serve.rejected",
            gauge("serve.jobs.rejected").unwrap_or(f64::NAN),
        );
        out.set(
            "serve.queue.peak_depth",
            gauge("serve.queue.peak_depth").unwrap_or(f64::NAN),
        );
        out.set("loadgen.lag_ms", lag_ms.iter().copied().fold(0.0, f64::max));
        let path = work.join("spans.jsonl");
        tr.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}
