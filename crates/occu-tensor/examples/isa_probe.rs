//! Quick per-ISA GEMM probe: times the blocked kernel under each
//! available ISA at a few cube sizes. Dev utility for eyeballing the
//! dispatch ladder; the committed numbers live in
//! `reports/kernel_perf.json` via `repro kernels`.

use occu_tensor::{Isa, Matrix, SeededRng};
use std::time::Instant;

fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn main() {
    println!("active isa: {}", occu_tensor::active_isa().name());
    let mut rng = SeededRng::new(7);
    for dim in [64usize, 128, 256] {
        let a = Matrix::randn(dim, dim, 1.0, &mut rng);
        let b = Matrix::randn(dim, dim, 1.0, &mut rng);
        let mut out = Matrix::zeros(dim, dim);
        let gflops = |ms: f64| (2.0 * (dim * dim * dim) as f64) / (ms * 1e6);
        for isa in [Isa::Scalar, Isa::Avx2, Isa::Avx512] {
            let ms = best_ms(5, || {
                a.matmul_into_isa(std::hint::black_box(&b), std::hint::black_box(&mut out), isa);
            });
            println!("{dim}^3 {:>9}: {ms:8.3} ms  {:7.2} GFLOP/s", isa.name(), gflops(ms));
        }
    }
}
