//! Expression-error explorer: the three algorithms of Sec. III-B side by
//! side (accuracy and cost), plus the D_α(N) curve that selects N.
//!
//! ```text
//! cargo run --release --example expression_explorer
//! ```

use gridtuner::core::dalpha::{d_alpha, select_hgrid_side};
use gridtuner::core::expression::{
    expression_error_alg1, expression_error_alg2, expression_error_naive, expression_error_windowed,
};
use gridtuner::datagen::City;
use gridtuner::spatial::GridSpec;
use std::time::Instant;

fn main() {
    // One HGrid with mean 2.0 inside an MGrid of m = 16 HGrids whose other
    // cells hold 10 events in total.
    let (a, b, m) = (2.0, 10.0, 16);
    println!("E_e(i,j) for α_ij = {a}, Σ_g≠j α_ig = {b}, m = {m}");
    println!("{:>6} {:>12} {:>12} {:>12}", "K", "naive", "alg1", "alg2");
    for k in [5usize, 10, 20, 40] {
        let naive = expression_error_naive(a, b, m, k);
        let alg1 = expression_error_alg1(a, b, m, k);
        let alg2 = expression_error_alg2(a, b, m, k);
        println!("{k:>6} {naive:>12.8} {alg1:>12.8} {alg2:>12.8}");
    }
    println!(
        "windowed (K→∞): {:.8}\n",
        expression_error_windowed(a, b, m)
    );

    // Cost comparison at the paper's operating point.
    println!("time per call at K = 120:");
    for (name, f) in [
        (
            "naive",
            expression_error_naive as fn(f64, f64, usize, usize) -> f64,
        ),
        ("alg1", expression_error_alg1),
        ("alg2", expression_error_alg2),
    ] {
        let t = Instant::now();
        let reps = if name == "naive" { 3 } else { 100 };
        for _ in 0..reps {
            std::hint::black_box(f(a, b, m, 120));
        }
        println!("  {name:>6}: {:>10.3?}", t.elapsed() / reps);
    }

    // D_α(N) across HGrid resolutions for the three city presets.
    println!("\nD_α(N) of the analytic mean field (slot 16, weekday):");
    print!("{:>10}", "side");
    let sides = [8u32, 16, 32, 64, 96, 128];
    for s in sides {
        print!("{s:>10}");
    }
    println!();
    for city in City::all_presets() {
        print!("{:>10}", city.name());
        let slot = city.clock().slot_at(7, 16);
        let mut curve = Vec::new();
        for s in sides {
            let field = city.mean_field(GridSpec::new(s), slot);
            let d = d_alpha(&field);
            curve.push((s, d));
            print!("{d:>10.1}");
        }
        match select_hgrid_side(&curve, 0.05) {
            Ok(knee) => println!("   knee ≈ {knee}"),
            Err(e) => println!("   no knee: {e}"),
        }
    }
}
