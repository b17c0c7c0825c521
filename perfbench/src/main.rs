//! The GridTuner benchmark: two workloads over the paper's tuning
//! workflow, end-to-end metrics by default and per-layer metrics from a
//! separate traced run. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-mlp --seed 2022 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod batch;
mod check;
mod layers;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Seed used when `--seed` is not given. Claimed gains are re-checked on
/// the held-out seed 7919 (see README.md).
const DEFAULT_SEED: u64 = 2022;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("decision_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("model_trainings", "count"),
    ("bound", "events"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics, printed with `--trace 1`. A layer a workload never
/// enters reads 0 there.
const PER_LAYER: [(&str, &str); 36] = [
    ("session.ingest_s", "s"),
    ("session.delta_ingest_s", "s"),
    ("session.ingest_matched", "count"),
    ("session.invalidations", "count"),
    ("alpha_cache.scan_s", "s"),
    ("alpha_cache.append_s", "s"),
    ("alpha_cache.derive_s", "s"),
    ("expr_kernel.sweep_cold_s", "s"),
    ("expr_kernel.sweep_warm_s", "s"),
    ("expr_kernel.cell_evals", "count"),
    ("expr_kernel.dedup_hits", "count"),
    ("expr_kernel.pmf_memo_hit_ratio", "ratio"),
    ("par.dispatches", "count"),
    ("par.lock_waits", "count"),
    ("par.sweep_speedup", "ratio"),
    ("par.cpu_per_wall", "ratio"),
    ("search.probes", "count"),
    ("search.non_model_s", "s"),
    ("uncertainty.s", "s"),
    ("uncertainty.resample_s", "s"),
    ("uncertainty.replicates", "count"),
    ("partition_search.s", "s"),
    ("partition_search.evals", "count"),
    ("partition_search.splits", "count"),
    ("partition_search.merges", "count"),
    ("partition_search.regions", "count"),
    ("model_leg.s", "s"),
    ("predict.fit_s", "s"),
    ("predict.eval_s", "s"),
    ("datagen.sample_s", "s"),
    ("nn.sample_epochs", "count"),
    ("nn.us_per_sample_epoch", "us"),
    ("obs.trace_overhead_pct", "%"),
    ("trace.decision_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.attributed_pct", "%"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Traced run: exclusive rows that, with `unattributed`, sum to the
    /// traced decision time.
    pub ledger: Vec<(&'static str, f64)>,
    /// Provenance: input sizes and counts.
    pub facts: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Sets the metrics of layers this workload never enters to 0.
    pub fn set_zero(&mut self, names: &[&'static str]) {
        for &name in names {
            self.set(name, 0.0);
        }
    }

    /// Counts one decision and whether its check passed.
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
    }

    /// Sets the ledger from its named rows and the traced decision time;
    /// the remainder becomes the `unattributed` row.
    pub fn set_ledger(&mut self, decision_s: f64, rows: &[&'static str]) {
        self.ledger = rows.iter().map(|&r| (r, self.metrics[r])).collect();
        let named: f64 = self.ledger.iter().map(|r| r.1).sum();
        self.ledger.push(("unattributed", decision_s - named));
        self.set("trace.decision_s", decision_s);
        self.set("trace.unattributed_s", decision_s - named);
        self.set("trace.attributed_pct", 100.0 * named / decision_s);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <search-mlp|refine-boot> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&a.workload.as_str()) {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // One process, one session at a time, the pool pinned to every core.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("GRIDTUNER_THREADS", nproc.to_string());

    let steal0 = stats::steal_seconds();
    let tracer = Rc::new(trace::Tracer::new());
    let report = match args.workload.as_str() {
        "search-mlp" => batch::search_mlp(args.seed, args.seconds, args.trace, &tracer),
        _ => batch::refine_boot(args.seed, args.seconds, args.trace, &tracer),
    };

    let mut provenance = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc.to_string()),
        (
            "gridtuner_threads",
            gridtuner_par::max_threads().to_string(),
        ),
        ("simd", gridtuner_engine::simd_diagnostics().to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", git_commit()),
        (
            "steal_s",
            format!("{:.2}", stats::steal_seconds().total - steal0.total),
        ),
    ];
    provenance.extend(report.facts.iter().cloned());
    let provenance = json_object(provenance.iter().map(|(k, v)| (*k, format!("{v:?}"))));

    for f in &report.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if args.trace {
        write_trace(&args, &tracer, &provenance);
        println!("ledger ({}):", args.workload);
        for (row, s) in &report.ledger {
            println!("  {row:<28} {s:>12.6} s");
        }
    }
    println!("provenance {provenance}");

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(report.metrics.len(), table.len(), "metric set mismatch");
    let metrics = json_object(table.iter().map(|&(name, unit)| {
        let v = report.metrics[name];
        assert!(v.is_finite(), "{name} is not finite");
        (name, format!("{{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
    }));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.failed == 0,
        report.attempted,
        report.failed
    );
}

/// The checked-out commit, read when the benchmark runs, with `-dirty`
/// when tracked files differ from it; `unknown` when the working directory
/// is not the root of a git checkout. Git does not look above it, so a
/// checkout that sits inside another repository is not given that one's
/// commit.
fn git_commit() -> String {
    let cwd = std::env::current_dir().ok();
    let ceiling = cwd.as_deref().and_then(std::path::Path::parent);
    let git = |args: &[&str]| {
        let mut cmd = std::process::Command::new("git");
        if let Some(c) = ceiling {
            cmd.env("GIT_CEILING_DIRECTORIES", c);
        }
        cmd.args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(commit) if !commit.is_empty() => {
            let status = git(&[
                "--no-optional-locks",
                "status",
                "--porcelain",
                "--untracked-files=no",
            ]);
            let dirty = status.map_or(false, |s| !s.is_empty());
            format!("{commit}{}", if dirty { "-dirty" } else { "" })
        }
        _ => "unknown".into(),
    }
}

fn json_object<'a>(fields: impl Iterator<Item = (&'a str, String)>) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.enumerate() {
        let _ = write!(out, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" });
    }
    out.push('}');
    out
}

/// Writes the traced run's spans, once, under `.bench_out/` in the
/// working directory.
fn write_trace(args: &Args, tracer: &trace::Tracer, provenance: &str) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    let body = format!("{{\"provenance\":{provenance}}}\n{}", tracer.to_jsonl());
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}
