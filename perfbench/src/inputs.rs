//! Workload inputs, generated from the workload seed alone.
//!
//! The placement workloads get a synthetic circuit as Bookshelf files in
//! a seeded order; the serve workload gets an open-loop arrival schedule
//! of JSONL `place` requests. The same seed always yields the same
//! inputs, bit for bit.

use mep_netlist::bookshelf::{self, BookshelfFiles};
use mep_netlist::synth::{self, Suite, SynthSpec};
use std::path::Path;

/// Input size: `Full` is what the benchmark measures; `Tiny` is the
/// minimal-size pass the harness self-test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scale {
    /// The benchmark's real workload size.
    Full,
    /// A few hundred cells per circuit; seconds per workload.
    Tiny,
}

impl Scale {
    /// The `--scale` argument that selects this size.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Tiny => "tiny",
        }
    }
}

/// SplitMix64: a tiny, fully specified generator, so the schedule does
/// not depend on any library's RNG stream.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed` mixed with a per-purpose `salt`.
    pub(crate) fn new(seed: u64, salt: u64) -> Self {
        let mut s = SplitMix(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// `place_ispd06`: the ISPD2006 `newblue5` stand-in (~12k movable cells,
/// ~3.8 pins per net, 128x128 bins, target density 0.5).
pub(crate) fn ispd06_spec(scale: Scale) -> Option<SynthSpec> {
    let mut spec = synth::spec_by_name("newblue5")?;
    if scale == Scale::Tiny {
        spec.movable /= 20;
        spec.fixed = (spec.fixed / 20).max(8);
        spec.nets /= 20;
        spec.pins /= 20;
    }
    Some(spec)
}

/// `place_highfanout`: ~4k movable cells on 4000 nets with 16 pins per
/// net on average (64x64 bins). 4000 nets stays below the engine's
/// 4096-net parallel threshold, so the run is serial by construction.
pub(crate) fn highfanout_spec(scale: Scale) -> SynthSpec {
    let (movable, nets) = match scale {
        Scale::Full => (4_000, 4_000),
        Scale::Tiny => (400, 400),
    };
    SynthSpec {
        name: "highfanout".to_string(),
        suite: Suite::Ispd2006,
        movable,
        fixed: movable / 100,
        nets,
        pins: 16 * nets,
        movable_macros: 0,
        target_density: 0.8,
        utilization: 0.45,
        seed: 2006,
        regions: 0,
        clusters: 0,
    }
}

/// The Bookshelf files of `spec`'s circuit with a seeded order: cells,
/// nets, and the pins of every net are shuffled. The circuit is the same
/// for every seed, so work and quality stay comparable across seeds,
/// while each seed hands the placer differently ordered input (its
/// arithmetic, and so its result bits, follow the order).
pub(crate) fn place_files(spec: &SynthSpec, seed: u64) -> BookshelfFiles {
    let mut rng = SplitMix::new(seed, 1);
    let mut files = bookshelf::to_strings(&synth::generate(spec));
    files.nodes = shuffle_lines(&files.nodes, 4, &mut rng);
    files.pl = shuffle_lines(&files.pl, 2, &mut rng);

    // .nets: a 4-line header, then `NetDegree : k name` blocks of k pins
    let lines: Vec<&str> = files.nets.lines().collect();
    let (header, body) = lines.split_at(4.min(lines.len()));
    let mut blocks: Vec<Vec<&str>> = Vec::new();
    for line in body {
        match blocks.last_mut() {
            Some(block) if !line.starts_with("NetDegree") => block.push(line),
            _ => blocks.push(vec![line]),
        }
    }
    for block in &mut blocks {
        shuffle(&mut block[1..], &mut rng);
    }
    shuffle(&mut blocks, &mut rng);
    let mut nets = header.join("\n");
    for line in blocks.iter().flatten() {
        nets.push('\n');
        nets.push_str(line);
    }
    nets.push('\n');
    files.nets = nets;
    files
}

/// Writes [`place_files`] as `<dir>/<name>.{aux,nodes,nets,pl,scl,wts}`.
pub(crate) fn write_place_files(spec: &SynthSpec, seed: u64, dir: &Path) -> std::io::Result<()> {
    let files = place_files(spec, seed);
    std::fs::create_dir_all(dir)?;
    for (ext, text) in [
        ("aux", &files.aux),
        ("nodes", &files.nodes),
        ("nets", &files.nets),
        ("pl", &files.pl),
        ("scl", &files.scl),
        ("wts", &files.wts),
    ] {
        std::fs::write(dir.join(format!("{}.{ext}", spec.name)), text)?;
    }
    Ok(())
}

/// `text` with every line after the first `header` lines shuffled.
fn shuffle_lines(text: &str, header: usize, rng: &mut SplitMix) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let at = header.min(lines.len());
    shuffle(&mut lines[at..], rng);
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// Fisher-Yates with the seeded generator.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// One scheduled serve request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ServeJob {
    /// Seconds after the schedule start at which the request is due.
    pub(crate) due_s: f64,
    /// Job class (for reporting).
    pub(crate) class: &'static str,
    /// The `place` request body without its `"id"` field; identical
    /// bodies must produce identical placement hashes.
    pub(crate) body: String,
}

/// Job classes of the serve mix, with their share of the jobs.
///
/// The shares put the median inside the `ispd19_test5` class and the
/// tail (11th-largest latency at 40 jobs) inside the large-job classes,
/// so neither statistic sits on a class boundary.
const SERVE_MIX: &[(&str, f64)] = &[
    ("smoke", 0.2),
    ("peko_600", 0.2),
    ("ispd19_test5", 0.3),
    ("flat", 0.15),
    ("multilevel", 0.15),
];

/// Requests per second of schedule at full scale: ~55% of what two
/// single-threaded workers can complete on this mix.
const SERVE_RATE: f64 = 4.0 / 3.0;

/// Jobs per block of the schedule; every block holds the mix in its
/// fixed proportions.
const SERVE_BLOCK: usize = 20;

/// The open-loop schedule: `round(rate * seconds)` jobs, one per equal
/// time slot at a seeded offset within the slot. The jobs come in blocks
/// of [`SERVE_BLOCK`] that each hold the mix in fixed proportions, in a
/// seeded order: big jobs cannot clump by chance, so the load is the same
/// in every part of every run. Flat and multilevel jobs place fixed
/// `{"scaled":[3000, k]}` circuits, like the named built-ins: the seed
/// varies the traffic, not the job sizes. Every class repeats one
/// circuit, so hashes are compared across repeats.
pub(crate) fn serve_schedule(seed: u64, seconds: f64, scale: Scale) -> Vec<ServeJob> {
    let mut rng = SplitMix::new(seed, 3);
    let (n, movable) = match scale {
        Scale::Full => (((SERVE_RATE * seconds).round() as usize).max(10), 3_000),
        Scale::Tiny => (7, 1_000),
    };
    let mut bodies: Vec<(&'static str, String)> = Vec::with_capacity(n);
    while bodies.len() < n {
        let size = (n - bodies.len()).min(SERVE_BLOCK);
        let block_start = bodies.len();
        let mut assigned = 0usize;
        for (k, (class, share)) in SERVE_MIX.iter().enumerate() {
            let count = if k + 1 == SERVE_MIX.len() {
                size - assigned
            } else {
                ((share * size as f64).round() as usize).min(size - assigned)
            };
            assigned += count;
            let body = match *class {
                "flat" => format!(r#""circuit":{{"scaled":[{movable},1]}}"#),
                "multilevel" => {
                    format!(r#""circuit":{{"scaled":[{movable},2]}},"levels":2"#)
                }
                name => format!(r#""circuit":"{name}""#),
            };
            for _ in 0..count {
                bodies.push((class, body.clone()));
            }
        }
        shuffle(&mut bodies[block_start..], &mut rng);
    }
    let slot = seconds / n as f64;
    bodies
        .into_iter()
        .enumerate()
        .map(|(i, (class, body))| ServeJob {
            due_s: slot * (i as f64 + 0.8 * rng.unit()),
            class,
            body,
        })
        .collect()
}
