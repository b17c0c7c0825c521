//! The experiment harness: one module per table/figure of the paper.
//!
//! The `repro` binary (`cargo run --release -p gridtuner-bench --bin repro
//! -- <id> [--quick]`) regenerates the data series behind every figure and
//! table in the paper's evaluation; the Criterion benches under `benches/`
//! time the algorithmic kernels (expression-error algorithms, search,
//! matching, the NN substrate).
//!
//! Output convention: every experiment prints a TSV block to stdout —
//! a `# <experiment>: <description>` header, a column-name row, then data
//! rows. `EXPERIMENTS.md` records a run of each block next to the paper's
//! reported shape. Every stdout write goes through [`outln!`], so an
//! experiment returns a failed write (a reader that closed the pipe) as an
//! error instead of panicking.

/// Writes one line to stdout, returning a failed write from the calling
/// function (an `std::io::Result`) instead of panicking the way `println!`
/// does. Every stdout write of the experiments and of `repro` goes through
/// this macro.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        writeln!(std::io::stdout().lock(), $($arg)*)?
    }};
}

pub mod ctx;
pub mod experiments;
pub mod flags;
pub mod kernel_timing;
pub mod measure;

/// Schema tag of `BENCH_tune.json`, written by `tune_bench` and required by
/// `bench_check` — bump when fields change meaning. v3 adds `kernel`,
/// `thread_rows` and the `expr_*` counters. v4 extends `thread_rows` with
/// `speedup_vs_1t` and the pool/lock counters, and adds the top-level
/// `pool` object. v5 added a `simd` backend-isolation object and
/// `expr_simd_*` counters; v6 drops them with the one-path kernel.
pub const TUNE_BENCH_SCHEMA: &str = "gridtuner.bench_tune/6";

use gridtuner_datagen::City;

/// Harness-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunCfg {
    /// Volume scale applied to every city (1.0 = the paper's full
    /// volumes). Experiments that train neural models or run dispatch use
    /// `volume_scale`; pure-analytic experiments (Figs. 3, 13, 14, 16) run
    /// at full volume regardless.
    pub volume_scale: f64,
    /// Shrinks sweeps/epochs for smoke runs.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Restricts multi-city sweeps to one preset (canonical name from
    /// [`City::PRESET_NAMES`]); `None` sweeps all three.
    pub city: Option<&'static str>,
}

impl Default for RunCfg {
    fn default() -> Self {
        RunCfg {
            volume_scale: 0.01,
            quick: false,
            seed: 2022,
            city: None,
        }
    }
}

impl RunCfg {
    /// Quick-mode variant.
    pub fn quick() -> Self {
        RunCfg {
            quick: true,
            volume_scale: 0.004,
            ..RunCfg::default()
        }
    }

    /// Picks between a full and a quick sweep list.
    pub fn sweep<'a, T: Copy>(&self, full: &'a [T], quick: &'a [T]) -> &'a [T] {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// The city presets a multi-city experiment should sweep: all three,
    /// or just the one selected by `--city`. Unscaled — experiments apply
    /// their own volume policy.
    pub fn city_sweep(&self) -> Vec<City> {
        City::all_presets()
            .into_iter()
            .filter(|c| self.city.is_none_or(|name| c.name() == name))
            .collect()
    }
}

/// Prints a TSV header block.
pub fn header(id: &str, description: &str, columns: &[&str]) -> std::io::Result<()> {
    outln!("# {id}: {description}");
    outln!("{}", columns.join("\t"));
    Ok(())
}

/// Prints the header of an experiment's wall-time table to stderr. Wall
/// times change from run to run, so they stay off stdout, and two runs of
/// one commit print the same stdout.
pub fn timing_header(id: &str, columns: &[&str]) {
    eprintln!("# {id}: wall times");
    eprintln!("{}", columns.join("\t"));
}

/// Formats a float with sensible width for TSV output.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_picks_by_mode() {
        let full = [1, 2, 3];
        let quick = [1];
        assert_eq!(RunCfg::default().sweep(&full, &quick), &full);
        assert_eq!(RunCfg::quick().sweep(&full, &quick), &quick);
    }

    #[test]
    fn quick_mode_shrinks_volume() {
        assert!(RunCfg::quick().volume_scale < RunCfg::default().volume_scale);
        assert!(RunCfg::quick().quick);
    }

    #[test]
    fn fmt_widths() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(1234.56), "1234.6");
        assert_eq!(fmt(4.32109), "4.321");
        assert_eq!(fmt(0.001234), "0.00123");
    }
}
