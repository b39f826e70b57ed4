//! Golden pin: the global-placement result of two small built-in circuits
//! is fixed bit for bit, at every thread count.
//!
//! The first three fingerprints were computed before the density kernel
//! was fused (per-rect splat and gather), the `newblue2` one before the
//! Moreau lane kernel and the two-pass wirelength evaluation. Any later
//! rewrite of a hot kernel must reproduce them exactly; a change that is
//! meant to move the placement must update them and say why.

use mep_serve::placement_fingerprint;
use moreau_placer::netlist::synth;
use moreau_placer::placer::global::{place, GlobalConfig};

/// `(circuit, GP iteration cap, GP placement fingerprint)`. `newblue1`
/// has enough movable cells for the density kernel's parallel path;
/// `newblue2` (4,652 nets) is the smallest with enough nets for the
/// wirelength evaluator's parallel path (4,096).
const PINNED: [(&str, usize, u64); 4] = [
    ("smoke", 200, 0xa567b7da1fb3c95d),
    ("ispd19_test5", 200, 0xa299a4191451f3a9),
    ("newblue1", 40, 0x819ee73664871081),
    ("newblue2", 40, 0x2612faa6fad6feec),
];

fn fingerprint(name: &str, max_iters: usize, threads: usize) -> u64 {
    let spec = match name {
        "smoke" => synth::smoke_spec(),
        _ => synth::spec_by_name(name).expect("built-in circuit"),
    };
    let circuit = synth::generate(&spec);
    let config = GlobalConfig {
        max_iters,
        threads,
        ..GlobalConfig::default()
    };
    let gp = place(&circuit, &config).expect("global placement");
    placement_fingerprint(&gp.placement)
}

#[test]
fn gp_placement_is_pinned_at_every_thread_count() {
    let mut wrong = Vec::new();
    for (name, iters, want) in PINNED {
        for threads in [1, 2, 8] {
            let got = fingerprint(name, iters, threads);
            if got != want {
                wrong.push(format!("{name} at {threads} threads: {got:#018x}"));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "fingerprints moved off the pin: {wrong:?}"
    );
}
