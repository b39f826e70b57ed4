//! Criterion macrobench: one full objective evaluation (wirelength
//! gradient + density solve) per wirelength model on the smoke circuit —
//! the per-iteration cost underlying the RT columns of Tables II/III.
//!
//! The objective reuses its density result when evaluated twice at the
//! same point, so the iterations alternate between two distinct
//! parameter vectors: every timed `eval` solves the density term.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mep_netlist::synth;
use mep_optim::Problem;
use mep_placer::objective::PlacementProblem;
use mep_wirelength::ModelKind;
use std::hint::black_box;

fn bench_iteration(c: &mut Criterion) {
    let circuit = synth::generate(&synth::smoke_spec());
    let mut group = c.benchmark_group("objective_eval");
    for kind in ModelKind::contestants() {
        let mut problem = PlacementProblem::with_threads(
            &circuit.design,
            &circuit.placement,
            kind.instantiate(1.0),
            1,
        );
        problem.lambda = 1.0;
        let a = problem.pack_params(&circuit.placement);
        let mut b = a.clone();
        let shift = 1e-3 * circuit.design.die.width();
        for v in b.iter_mut() {
            *v += shift;
        }
        problem.project(&mut b);
        let points = [a, b];
        let mut grad = vec![0.0; problem.dim()];
        let mut turn = 0usize;
        group.bench_with_input(
            BenchmarkId::new(kind.label(), "smoke"),
            &points,
            |bench, points| {
                bench.iter(|| {
                    turn ^= 1;
                    let f = problem.eval(black_box(&points[turn]), &mut grad);
                    black_box(f)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_iteration);
criterion_main!(benches);
