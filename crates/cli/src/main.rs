//! `gridtuner` — the command-line face of the library.
//!
//! ```text
//! gridtuner tune       --city nyc --scale 0.05 --strategy iterative --budget 64 --range 2:24
//! gridtuner expression --alpha 2 --rest 30 --m 64 [--k 250]
//! gridtuner generate   --city chengdu --scale 0.01 --day 0
//! gridtuner simulate   --city xian --algorithm polar --side 16 --scale 0.01
//! ```
//!
//! `tune` finds the optimal MGrid side for a synthetic city; `expression`
//! evaluates one HGrid's expression error; `generate` streams a day of
//! trip records as TSV; `simulate` runs a dispatcher on a generated test
//! day; `heatmap` renders a city's mean demand field in the terminal.
//! Everything is deterministic per `--seed`.
//!
//! All commands route through the engine's session API; failures exit
//! with the engine's error taxonomy — 2 for usage/config errors, 3 for
//! data errors, 4 for internal pipeline failures, 5 for malformed
//! environment variables.

mod args;

use args::{ArgError, Args};
use gridtuner::core::expression::{expression_error_alg2, expression_error_windowed};
use gridtuner::datagen::{City, DataSplit, TripGenerator};
use gridtuner::dispatch::daif::DaifConfig;
use gridtuner::dispatch::{Daif, DemandView, FleetConfig, Ls, Nearest, Order, Polar, SimConfig};
use gridtuner::engine::{
    AlphaWindow, EngineConfig, EngineError, PartitionKind, PartitionLayout, SearchStrategy,
    TuningSession,
};
use gridtuner::obs;
use gridtuner::predict::{CityModelError, HistoricalAverage, Predictor};
use gridtuner::spatial::Partition;
use rand::{rngs::StdRng, SeedableRng};

const USAGE: &str = "\
usage: gridtuner <command> [--flag value]...

global flags (any command):
  --trace PATH           stream a trace of the run to PATH
  --trace-format jsonl|chrome
                         wire format for --trace (default jsonl; chrome
                         opens in Perfetto / chrome://tracing)
  --report               print an end-of-run observability report to stderr

commands:
  tune        find the optimal MGrid side for a city
              --city nyc|chengdu|xian  --scale F  --seed N
              --strategy brute|ternary|iterative  --budget SIDE  --range LO:HI
              --partition uniform|rect|quadtree: refine beyond square grids
              (rect hill-climb / exact tree-DP quadtree) and print the
              refined bound next to the uniform baseline
              --bootstrap B  --bootstrap-seed S  (or GRIDTUNER_BOOTSTRAP[_SEED]):
              B replicate tunes -> confidence set + stability verdict
  profile     tune under the profiler and print self-time / worker
              utilization / critical-path tables
              --city C  --scale F  --seed N  --strategy S  --budget SIDE
              --range LO:HI  --top N  [--input TRACE.jsonl: analyze an
              existing JSONL trace instead of running a tune]
  expression  expression error of one HGrid (alpha, rest-of-MGrid, m)
              --alpha F  --rest F  --m N  [--k N: fixed-K Algorithm 2]
  generate    stream one day of trip records as TSV
              --city C  --scale F  --day N  --seed N
  simulate    run a dispatcher over a generated test day
              --city C  --scale F  --algorithm polar|ls|daif|nearest
              --side N  --budget SIDE  --drivers N  --seed N
  heatmap     ASCII heat map of a city's mean demand field
              --city C  --side N  --hour H

exit codes: 2 usage/config, 3 data, 4 internal, 5 environment
";

/// A CLI failure: either a usage error (bad flags) or an engine error
/// carrying the workspace taxonomy. Exit codes follow the engine's
/// mapping, with usage errors sharing the config code.
enum CliError {
    Usage(ArgError),
    Engine(EngineError),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Engine(e) => e.exit_code(),
        }
    }

    /// Usage/config errors get the usage text appended; pipeline errors
    /// don't (the flags were fine).
    fn show_usage(&self) -> bool {
        self.exit_code() == 2
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Engine(e) => write!(f, "{} error: {e}", e.kind()),
        }
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Usage(e)
    }
}

impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError::Engine(e)
    }
}

impl From<gridtuner::datagen::UnknownCity> for CliError {
    fn from(e: gridtuner::datagen::UnknownCity) -> Self {
        CliError::Engine(EngineError::from(e))
    }
}

fn cmd_tune(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "city",
        "scale",
        "seed",
        "strategy",
        "budget",
        "range",
        "partition",
        "bootstrap",
        "bootstrap-seed",
        "trace",
        "trace-format",
        "report",
    ])?;
    let city = City::by_name(&a.str_or("city", "xian"))?.scaled(a.get_or("scale", 0.05)?);
    let partition_kind = {
        let s = a.str_or("partition", "uniform");
        PartitionKind::parse(&s).ok_or_else(|| {
            ArgError(format!(
                "--partition must be uniform, rect or quadtree, got {s:?}"
            ))
        })?
    };
    let seed: u64 = a.get_or("seed", 2022u64)?;
    let budget: u32 = a.get_or("budget", 64u32)?;
    let range = a.range_or("range", (2, 24))?;
    // Bootstrap knobs: flags first, validated env overrides second (a
    // malformed GRIDTUNER_BOOTSTRAP[_SEED] is exit 5, not a default).
    let bootstrap: u32 = match a.has("bootstrap") {
        true => a.get_or("bootstrap", 0u32)?,
        false => gridtuner::engine::env_bootstrap_replicates()?.unwrap_or(0),
    };
    let boot_seed: u64 = match a.has("bootstrap-seed") {
        true => a.get_or("bootstrap-seed", seed)?,
        false => gridtuner::engine::env_bootstrap_seed()?.unwrap_or(seed),
    };
    let strategy = match a.str_or("strategy", "iterative").as_str() {
        "brute" => SearchStrategy::BruteForce,
        "ternary" => SearchStrategy::Ternary,
        "iterative" => SearchStrategy::Iterative { init: 16, bound: 4 },
        other => return Err(ArgError(format!("unknown strategy {other:?}")).into()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let events = city.sample_history_events(16, 0..28, &mut rng);
    eprintln!(
        "tuning {} (volume {:.0}/day, {} history events, sides {}..{})",
        city.name(),
        city.daily_volume(),
        events.len(),
        range.0,
        range.1
    );
    let split = DataSplit {
        train_days: (0, 28),
        val_days: (28, 30),
        test_day: 30,
    };
    let model = CityModelError::new(city.clone(), split, seed, || {
        Box::new(HistoricalAverage::new()) as Box<dyn Predictor>
    })
    .with_max_eval_slots(24);
    let mut builder = EngineConfig::builder()
        .hgrid_budget_side(budget)
        .side_range(range.0, range.1)
        .strategy(strategy)
        .alpha_window(AlphaWindow::default())
        .clock(*city.clock());
    if bootstrap > 0 {
        builder = builder.bootstrap(bootstrap, boot_seed);
    }
    let config = builder.build()?;
    let mut session = TuningSession::new(config, model)?;
    session.ingest(&events)?;
    // Non-uniform families run the PartitionSearch stage, which embeds the
    // 1-D uniform tune as its baseline — so the standard report lines below
    // stay bit-identical to a plain `tune` either way. The bootstrap's
    // pmf-memo hits are telemetry, read as the change in their counter.
    let boot_hits_before = obs::counter!("boot.cache_hits").get();
    let (result, refined) = match partition_kind {
        PartitionKind::Uniform => (session.tune()?, None),
        kind => {
            let pr = session.tune_partition(kind)?;
            (pr.uniform.clone(), Some(pr))
        }
    };
    // Thread diagnostics read back the pool, not `available_parallelism`:
    // `threads` is the effective ceiling, `pool_workers` the count of
    // persistent workers actually spawned by this run (0 means the whole
    // tune stayed inline).
    let (ceiling, live) = gridtuner::engine::thread_diagnostics();
    eprintln!("threads: ceiling {ceiling}, pool workers live {live}");
    eprintln!(
        "simd: backend {} (bit-identical either way)",
        gridtuner::engine::simd_diagnostics()
    );
    println!("optimal_side\t{}", result.outcome.side);
    println!("optimal_n\t{0}x{0}", result.outcome.side);
    println!("upper_bound_error\t{:.2}", result.outcome.error);
    println!("model_trainings\t{}", result.outcome.evals);
    println!(
        "partition\tm={} hgrid_lattice={}",
        result.partition.m(),
        result.partition.hgrid_spec().side()
    );
    if let Some(pr) = &refined {
        let layout = match &pr.layout {
            PartitionLayout::Uniform { side } => format!("{side}x{side} uniform"),
            PartitionLayout::Rect { nx, ny } => format!("{nx}x{ny} rect"),
            PartitionLayout::QuadTree(q) => format!(
                "quadtree lattice {} ({} leaves)",
                q.lattice_side(),
                q.leaves().len()
            ),
        };
        println!("refined_partition\t{} [{layout}]", pr.kind);
        println!("refined_regions\t{} (cap {})", pr.n_regions, pr.region_cap);
        println!(
            "refined_bound\t{:.6} = expression {:.6} + model {:.6}",
            pr.bound, pr.expression_error, pr.model_error
        );
        println!(
            "refined_search\tsplits={} merges={} evals={}",
            pr.splits, pr.merges, pr.evals
        );
        println!(
            "uniform_baseline\tn={} bound={:.6}",
            pr.uniform_regions(),
            pr.uniform_bound()
        );
        println!(
            "refined_vs_uniform\t{}",
            if pr.improves_on_uniform() {
                "bound <= uniform at <= regions"
            } else {
                "no improvement (uniform baseline kept)"
            }
        );
    }
    if let Some(unc) = &result.uncertainty {
        let set: Vec<String> = unc.confidence_set.iter().map(u32::to_string).collect();
        println!(
            "bootstrap\tB={} seed={} cache_hits={}",
            unc.replicates,
            unc.seed,
            obs::counter!("boot.cache_hits")
                .get()
                .saturating_sub(boot_hits_before)
        );
        println!("confidence_set\t{{{}}}", set.join(","));
        println!("stability\t{}", unc.verdict);
        if unc.verdict != gridtuner::engine::StabilityVerdict::Stable {
            eprintln!(
                "warning: side {} is {} under resampling ({} distinct argmins over {} replicates)",
                unc.point_side, unc.verdict, unc.distinct_argmins, unc.replicates
            );
        }
    }
    Ok(())
}

/// Counter values for the profile tables: the `report` record's counters
/// when the trace carries one (`--input` mode), empty otherwise.
fn report_counters(records: &[obs::json::Val]) -> Vec<(String, u64)> {
    let Some(metrics) = records
        .iter()
        .find(|r| r.get("t").and_then(|v| v.as_str()) == Some("report"))
        .and_then(|r| r.get("metrics"))
        .and_then(|m| m.get("counters"))
    else {
        return Vec::new();
    };
    match metrics {
        obs::json::Val::Obj(entries) => entries
            .iter()
            .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f as u64)))
            .collect(),
        _ => Vec::new(),
    }
}

fn cmd_profile(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "city",
        "scale",
        "seed",
        "strategy",
        "budget",
        "range",
        "top",
        "input",
        "trace",
        "trace-format",
        "report",
    ])?;
    let top: usize = a.get_or("top", 12usize)?;
    let input = a.str_or("input", "");
    if !input.is_empty() {
        // Offline mode: analyze a previously captured JSONL trace.
        let text = std::fs::read_to_string(&input)
            .map_err(|e| CliError::Engine(EngineError::Data(format!("--input {input:?}: {e}"))))?;
        let records = obs::json::parse_jsonl(&text)
            .map_err(|e| CliError::Engine(EngineError::Data(format!("--input {input:?}: {e}"))))?;
        let profile = obs::profile::Profile::from_records(&records);
        print!("{}", profile.render(top, &report_counters(&records)));
        return Ok(());
    }
    if a.str_or("trace-format", "jsonl") == "chrome" {
        return Err(ArgError(
            "profile analyzes the JSONL format; use `tune --trace-format chrome` for a \
             Perfetto trace"
                .into(),
        )
        .into());
    }
    // Live mode: run a tune with recording on, captured to a buffer.
    let city = City::by_name(&a.str_or("city", "nyc"))?.scaled(a.get_or("scale", 0.05)?);
    let seed: u64 = a.get_or("seed", 2022u64)?;
    let budget: u32 = a.get_or("budget", 64u32)?;
    let range = a.range_or("range", (2, 24))?;
    let strategy = match a.str_or("strategy", "brute").as_str() {
        "brute" => SearchStrategy::BruteForce,
        "ternary" => SearchStrategy::Ternary,
        "iterative" => SearchStrategy::Iterative { init: 16, bound: 4 },
        other => return Err(ArgError(format!("unknown strategy {other:?}")).into()),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let events = city.sample_history_events(16, 0..28, &mut rng);
    eprintln!(
        "profiling a {} tune ({} history events, sides {}..{}, strategy {})",
        city.name(),
        events.len(),
        range.0,
        range.1,
        a.str_or("strategy", "brute"),
    );
    let split = DataSplit {
        train_days: (0, 28),
        val_days: (28, 30),
        test_day: 30,
    };
    let model = CityModelError::new(city.clone(), split, seed, || {
        Box::new(HistoricalAverage::new()) as Box<dyn Predictor>
    })
    .with_max_eval_slots(24);
    let config = EngineConfig::builder()
        .hgrid_budget_side(budget)
        .side_range(range.0, range.1)
        .strategy(strategy)
        .alpha_window(AlphaWindow::default())
        .clock(*city.clock())
        .build()?;
    obs::enable();
    let buffer = obs::trace::capture_to_buffer();
    let result = (|| -> Result<_, CliError> {
        let mut session = TuningSession::new(config, model)?;
        session.ingest(&events)?;
        Ok(session.tune()?)
    })();
    obs::trace::flush();
    obs::trace::clear_sink();
    let report = result?;
    let text =
        String::from_utf8_lossy(&buffer.lock().unwrap_or_else(|p| p.into_inner())).into_owned();
    // Honor --trace by saving the captured stream for later re-analysis.
    let trace_path = a.str_or("trace", "");
    if !trace_path.is_empty() {
        std::fs::write(&trace_path, &text)
            .map_err(|e| ArgError(format!("--trace: cannot write {trace_path:?}: {e}")))?;
    }
    let profile = obs::profile::Profile::from_jsonl(&text)
        .map_err(|e| CliError::Engine(EngineError::Internal(format!("captured trace: {e}"))))?;
    let counters = obs::metrics::snapshot().counters;
    eprintln!(
        "tuned: side {} (error {:.2}), {} probes",
        report.outcome.side, report.outcome.error, report.outcome.evals
    );
    print!("{}", profile.render(top, &counters));
    Ok(())
}

fn cmd_expression(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["alpha", "rest", "m", "k", "trace", "trace-format", "report"])?;
    let alpha: f64 = a.get_or("alpha", 2.0)?;
    let rest: f64 = a.get_or("rest", 30.0)?;
    let m: usize = a.get_or("m", 64usize)?;
    let k: usize = a.get_or("k", 0usize)?;
    let value = if k > 0 {
        expression_error_alg2(alpha, rest, m, k)
    } else {
        expression_error_windowed(alpha, rest, m)
    };
    println!("expression_error\t{value:.9}");
    Ok(())
}

fn cmd_generate(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "city",
        "scale",
        "day",
        "seed",
        "trace",
        "trace-format",
        "report",
    ])?;
    let city = City::by_name(&a.str_or("city", "xian"))?.scaled(a.get_or("scale", 0.01)?);
    let day: u32 = a.get_or("day", 0u32)?;
    let seed: u64 = a.get_or("seed", 2022u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let trips = TripGenerator::default().trips_for_day(&city, day, &mut rng);
    println!("minute\tpickup_lon\tpickup_lat\tdropoff_lon\tdropoff_lat\trevenue");
    for t in &trips {
        let (plon, plat) = city.geo().to_geo(&t.pickup);
        let (dlon, dlat) = city.geo().to_geo(&t.dropoff);
        println!(
            "{}\t{plon:.6}\t{plat:.6}\t{dlon:.6}\t{dlat:.6}\t{:.2}",
            t.minute, t.revenue
        );
    }
    eprintln!(
        "generated {} trips for {} day {day}",
        trips.len(),
        city.name()
    );
    Ok(())
}

fn cmd_simulate(a: &Args) -> Result<(), CliError> {
    a.expect_only(&[
        "city",
        "scale",
        "algorithm",
        "side",
        "budget",
        "drivers",
        "seed",
        "trace",
        "trace-format",
        "report",
    ])?;
    let city = City::by_name(&a.str_or("city", "xian"))?.scaled(a.get_or("scale", 0.01)?);
    let side: u32 = a.get_or("side", 16u32)?;
    let budget: u32 = a.get_or("budget", 64u32)?;
    let seed: u64 = a.get_or("seed", 2022u64)?;
    let n_drivers: usize = a.get_or("drivers", ((city.daily_volume() / 22.0) as usize).max(10))?;
    let algorithm = a.str_or("algorithm", "polar");
    let mut rng = StdRng::seed_from_u64(seed);
    let trips = TripGenerator::default().trips_for_day(&city, 0, &mut rng);
    let orders = Order::from_trips(&trips);
    // Demand view: the true mean field at the chosen MGrid resolution
    // (plug a trained model here in library use; the CLI keeps it simple).
    let partition = Partition::for_budget(side, budget);
    let mut demand = |slot| {
        let mgrid = city.mean_field(partition.mgrid_spec(), slot);
        DemandView::from_mgrid(&mgrid, &partition)
    };
    let outcome = if algorithm == "daif" {
        let daif = Daif::new(DaifConfig {
            n_workers: n_drivers,
            seed,
            ..DaifConfig::default()
        });
        daif.run(city.geo(), &orders, &mut demand)
    } else {
        // Fleet/sim parameters go through the engine config so they are
        // validated with everything else; the session hands the simulator
        // out as its dispatch stage.
        let config = EngineConfig::builder()
            .side_range(side, side)
            .strategy(SearchStrategy::BruteForce)
            .hgrid_budget_side(budget)
            .clock(*city.clock())
            .sim(SimConfig {
                fleet: FleetConfig {
                    n_drivers,
                    seed,
                    ..FleetConfig::default()
                },
                geo: *city.geo(),
                unserved_penalty_km: 10.0,
            })
            .build()?;
        let mut session = TuningSession::new(config, |_s: u32| 0.0)?;
        let sim = session.simulator()?;
        match algorithm.as_str() {
            "polar" => sim.run(&orders, &mut Polar::new(), &mut demand),
            "ls" => sim.run(&orders, &mut Ls::new(), &mut demand),
            "nearest" => sim.run(&orders, &mut Nearest::new(), &mut demand),
            other => return Err(ArgError(format!("unknown algorithm {other:?}")).into()),
        }
    };
    println!("algorithm\t{algorithm}");
    println!("orders\t{}", outcome.total_orders);
    println!("served\t{}", outcome.served);
    println!("service_rate\t{:.4}", outcome.service_rate());
    println!("revenue\t{:.2}", outcome.revenue);
    println!("travel_km\t{:.1}", outcome.travel_km);
    println!("unified_cost\t{:.1}", outcome.unified_cost);
    Ok(())
}

fn cmd_heatmap(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["city", "side", "hour", "trace", "trace-format", "report"])?;
    let city = City::by_name(&a.str_or("city", "nyc"))?;
    let side: u32 = a.get_or("side", 32u32)?;
    let hour: u32 = a.get_or("hour", 8u32)?;
    if hour >= 24 {
        return Err(ArgError("--hour must be 0..24".into()).into());
    }
    let clock = *city.clock();
    let slot = clock.slot_at(7, clock.slot_of_day_at(hour, 0));
    let field = city.mean_field(gridtuner::spatial::GridSpec::new(side), slot);
    eprintln!(
        "{} mean demand at {hour:02}:00 ({:.0} events/slot, north up)",
        city.name(),
        field.total()
    );
    print!("{}", gridtuner::spatial::io::ascii_heatmap(&field));
    Ok(())
}

/// Wires up observability from the global flags (and, failing that, the
/// `GRIDTUNER_TRACE`/`GRIDTUNER_OBS` environment). Returns whether an
/// end-of-run report was requested.
fn setup_obs(args: &Args) -> Result<bool, ArgError> {
    let trace_path = args.str_or("trace", "");
    let format = match args.str_or("trace-format", "jsonl").as_str() {
        "jsonl" => obs::trace::Format::Jsonl,
        "chrome" => obs::trace::Format::Chrome,
        other => {
            return Err(ArgError(format!(
                "--trace-format must be jsonl or chrome, got {other:?}"
            )))
        }
    };
    if !trace_path.is_empty() {
        let f = std::fs::File::create(&trace_path)
            .map_err(|e| ArgError(format!("--trace: cannot open {trace_path:?}: {e}")))?;
        obs::trace::set_sink_with_format(Box::new(std::io::BufWriter::new(f)), format);
        obs::enable();
    } else {
        obs::init_from_env();
    }
    let report = args.has("report");
    if report {
        obs::enable();
    }
    Ok(report)
}

fn fail(e: &CliError) -> ! {
    if e.show_usage() {
        eprintln!("error: {e}\n\n{USAGE}");
    } else {
        eprintln!("error: {e}");
    }
    std::process::exit(e.exit_code());
}

fn main() {
    // A malformed GRIDTUNER_THREADS or GRIDTUNER_SIMD is a diagnostic,
    // not a silent fallback: surface it before any work starts.
    if let Err(e) = gridtuner::engine::thread_override() {
        fail(&CliError::Engine(e));
    }
    if let Err(e) = gridtuner::engine::simd_override() {
        fail(&CliError::Engine(e));
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse_with_switches(&argv, &["report"]) {
        Ok(a) => a,
        Err(e) => fail(&CliError::Usage(e)),
    };
    let want_report = match setup_obs(&args) {
        Ok(r) => r,
        Err(e) => fail(&CliError::Usage(e)),
    };
    let result = match args.command.as_str() {
        "tune" => cmd_tune(&args),
        "profile" => cmd_profile(&args),
        "expression" => cmd_expression(&args),
        "generate" => cmd_generate(&args),
        "simulate" => cmd_simulate(&args),
        "heatmap" => cmd_heatmap(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(ArgError(format!("unknown command {other:?}")).into()),
    };
    if result.is_ok() && want_report {
        let report = obs::report::RunReport::capture();
        report.emit(); // appended to the trace stream, if any (JSONL only)
        eprintln!("{report}");
    }
    // Closing the sink flushes it and, in Chrome mode, writes the array
    // terminator so the file is complete JSON.
    obs::trace::clear_sink();
    if let Err(e) = result {
        fail(&e);
    }
}
