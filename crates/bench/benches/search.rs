//! Search-algorithm cost on synthetic upper-bound curves (Table IV's
//! evaluation-count story at micro scale).

use criterion::{criterion_group, criterion_main, Criterion};
use gridtuner_core::search::{try_brute_force, try_iterative_method, try_ternary_search};
use gridtuner_core::CoreError;
use std::time::Duration;

/// A cheap convex oracle with its minimum at `opt`.
fn oracle(opt: f64) -> impl FnMut(u32) -> Result<f64, CoreError> {
    move |s: u32| {
        let s = s as f64;
        Ok(s * 2.0 + opt * opt * 2.0 / s)
    }
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("grid_size_search");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    g.bench_function("brute_force_76", |b| {
        b.iter(|| try_brute_force(oracle(23.0), 4, 76))
    });
    g.bench_function("ternary_76", |b| {
        b.iter(|| try_ternary_search(oracle(23.0), 4, 76))
    });
    g.bench_function("iterative_76", |b| {
        b.iter(|| try_iterative_method(oracle(23.0), 4, 76, 16, 4))
    });
    g.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
