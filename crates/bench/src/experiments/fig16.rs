//! Fig. 16 — cost and accuracy of the expression-error algorithms as `K`
//! grows (naive `O(mK³)` vs Algorithm 1 `O(mK²)` vs Algorithm 2 `O(mK)`).
//!
//! Paper shape: naive explodes, Algorithm 1 is quadratic-ish, Algorithm 2
//! stays flat; accuracy saturates around `K ≈ 250`.

use crate::{fmt, header, timing_header, RunCfg};
use gridtuner_core::expression::{
    expression_error_alg1, expression_error_alg2, expression_error_naive, expression_error_windowed,
};
use std::time::Instant;

fn time_one(f: impl Fn() -> f64, reps: u32) -> (f64, f64) {
    let t0 = Instant::now();
    let mut v = 0.0;
    for _ in 0..reps {
        v = std::hint::black_box(f());
    }
    (t0.elapsed().as_secs_f64() / reps as f64, v)
}

/// Runs the Fig. 16 sweep at the paper's operating point
/// (`n = 16²`, `m = 8²`: one HGrid with `α_ij = 2`, rest of the MGrid 30).
pub fn run(cfg: &RunCfg) {
    let (a, b, m) = (2.0, 30.0, 64usize);
    let reference = expression_error_windowed(a, b, m);
    header(
        "fig16",
        &format!("expression-error algorithms vs K (alpha={a}, rest={b}, m={m})"),
        &["K", "alg2_value", "abs_err_vs_Kinf"],
    );
    timing_header("fig16", &["K", "naive_s", "alg1_s", "alg2_s"]);
    let ks = cfg.sweep(&[5usize, 10, 25, 50, 100, 250], &[5usize, 25, 100]);
    for &k in ks {
        // The naive algorithm is cubic: cap it where it stays sub-second.
        let naive_s = if k <= 25 {
            let (t, _) = time_one(|| expression_error_naive(a, b, m, k), 3);
            fmt(t)
        } else {
            "-".into()
        };
        let (t1, _) = time_one(|| expression_error_alg1(a, b, m, k), 5);
        let (t2, v2) = time_one(|| expression_error_alg2(a, b, m, k), 20);
        println!("{k}\t{}\t{}", fmt(v2), fmt((v2 - reference).abs()));
        eprintln!("{k}\t{naive_s}\t{}\t{}", fmt(t1), fmt(t2));
    }
    println!("# windowed reference value: {}", fmt(reference));
}
