//! `gridtuner` — the command-line face of the library.
//!
//! ```text
//! gridtuner tune       --city nyc --scale 0.05 --strategy iterative --budget 64 --range 2:24
//! gridtuner expression --alpha 2 --rest 30 --m 64 [--k 250]
//! gridtuner generate   --city chengdu --scale 0.01 --day 0
//! gridtuner simulate   --city xian --algorithm polar --side 16 --scale 0.01
//! gridtuner profile    --input run.jsonl [--top 12] [--chrome run.chrome.json] [--require tune,probe]
//! ```
//!
//! `tune` finds the optimal MGrid side for a synthetic city; `expression`
//! evaluates one HGrid's expression error; `generate` streams a day of
//! trip records as TSV; `simulate` runs a dispatcher on a generated test
//! day; `heatmap` renders a city's mean demand field in the terminal;
//! `profile` validates and summarises a captured JSONL trace. Everything
//! is deterministic per `--seed`.
//!
//! All commands route through the engine's session API; failures exit
//! with the engine's error taxonomy — 2 for usage/config errors, 3 for
//! data errors, 4 for internal pipeline failures, 5 for malformed
//! environment variables. A reader that closes stdout early ends the run
//! quietly with exit 0.

mod args;

use args::{ArgError, Args};
use gridtuner::core::expression::{expression_error_alg2, expression_error_windowed};
use gridtuner::core::poisson::MAX_POISSON_MEAN;
use gridtuner::datagen::{City, DataSplit, TripGenerator};
use gridtuner::dispatch::daif::DaifConfig;
use gridtuner::dispatch::{Daif, DemandView, FleetConfig, Ls, Nearest, Order, Polar, SimConfig};
use gridtuner::engine::{
    AlphaWindow, EngineConfig, EngineError, PartitionKind, PartitionLayout, SearchStrategy,
    TuningSession, MAX_LATTICE_SIDE,
};
use gridtuner::obs;
use gridtuner::predict::{CityModelError, HistoricalAverage, Predictor};
use gridtuner::spatial::Partition;
use rand::{rngs::StdRng, SeedableRng};
use std::io::Write as _;

const USAGE: &str = "\
usage: gridtuner <command> [--flag value]...

global flags (any command):
  --trace PATH           stream a JSONL trace of the run to PATH
  --report               print the run's profile to stderr at exit (self
                         time, workers, counters, critical path, per-n
                         error decomposition, warnings)

commands:
  tune        find the optimal MGrid side for a city
              --city nyc|chengdu|xian  --scale F  --seed N
              --strategy brute|ternary|iterative  --budget SIDE  --range LO:HI
              --partition uniform|quadtree: refine beyond square grids
              (exact tree-DP quadtree) and print the refined bound next
              to the uniform baseline
              --bootstrap B  --bootstrap-seed S: B replicate tunes ->
              confidence set + stability verdict
  profile     validate a captured JSONL trace and print its profile (the
              block `--report` prints for a live run); an invalid trace
              exits 3
              --input TRACE.jsonl  --top N
              [--chrome OUT.json: also write the trace as a Chrome
              Trace Event array for Perfetto / chrome://tracing]
              [--require NAME,NAME: exit 3 unless each name occurs as a
              span or event]
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

/// A CLI failure: a usage error (bad flags), an engine error carrying
/// the workspace taxonomy, or a failed write of the command's output.
/// Exit codes follow the engine's mapping, with usage errors sharing the
/// config code and output errors the internal one.
enum CliError {
    Usage(ArgError),
    Engine(EngineError),
    Stdout(std::io::Error),
}

impl CliError {
    fn exit_code(&self) -> i32 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Engine(e) => e.exit_code(),
            CliError::Stdout(_) => 4,
        }
    }

    /// The reader closed stdout early (`| head`, `| grep -q`): the run
    /// ends quietly, as if it had finished.
    fn is_broken_pipe(&self) -> bool {
        matches!(self, CliError::Stdout(e) if e.kind() == std::io::ErrorKind::BrokenPipe)
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
            CliError::Stdout(e) => write!(f, "cannot write to stdout: {e}"),
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

/// Writes command output to stdout. Every stdout write of the CLI goes
/// through these two macros: a failed write returns
/// [`CliError::Stdout`] from the calling command instead of panicking the
/// way `print!` does.
macro_rules! out {
    ($($arg:tt)*) => {
        write!(std::io::stdout().lock(), $($arg)*).map_err(CliError::Stdout)?
    };
}

/// [`out!`] with a trailing newline.
macro_rules! outln {
    ($($arg:tt)*) => {
        writeln!(std::io::stdout().lock(), $($arg)*).map_err(CliError::Stdout)?
    };
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
        "report",
    ])?;
    let city = City::by_name(&a.str_or("city", "xian"))?.scaled(a.positive_f64_or("scale", 0.05)?);
    let partition_kind = {
        let s = a.str_or("partition", "uniform");
        PartitionKind::parse(&s).ok_or_else(|| {
            ArgError(format!(
                "--partition must be uniform or quadtree, got {s:?}"
            ))
        })?
    };
    let seed: u64 = a.get_or("seed", 2022u64)?;
    let budget: u32 = a.get_or("budget", 64u32)?;
    let range = a.range_or("range", (2, 24))?;
    let bootstrap: u32 = a.get_or("bootstrap", 0u32)?;
    let boot_seed: u64 = a.get_or("bootstrap-seed", seed)?;
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
    outln!("optimal_side\t{}", result.outcome.side);
    outln!("optimal_n\t{0}x{0}", result.outcome.side);
    outln!("upper_bound_error\t{:.2}", result.outcome.error);
    // Every side the model leg measured, bootstrap replicates included.
    outln!("model_trainings\t{}", session.memoised_sides());
    outln!(
        "partition\tm={} hgrid_lattice={}",
        result.partition.m(),
        result.partition.hgrid_spec().side()
    );
    if let Some(pr) = &refined {
        let layout = match &pr.layout {
            PartitionLayout::Uniform { side } => format!("{side}x{side} uniform"),
            PartitionLayout::QuadTree(q) => format!(
                "quadtree lattice {} ({} leaves)",
                q.lattice_side(),
                q.leaves().len()
            ),
        };
        outln!("refined_partition\t{} [{layout}]", pr.kind);
        outln!("refined_regions\t{} (cap {})", pr.n_regions, pr.region_cap);
        outln!(
            "refined_bound\t{:.6} = expression {:.6} + model {:.6}",
            pr.bound,
            pr.expression_error,
            pr.model_error
        );
        outln!(
            "refined_search\tsplits={} merges={} evals={}",
            pr.splits,
            pr.merges,
            pr.evals
        );
        outln!(
            "uniform_baseline\tn={} bound={:.6}",
            pr.uniform_regions(),
            pr.uniform_bound()
        );
        outln!(
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
        outln!(
            "bootstrap\tB={} seed={} cache_hits={}",
            unc.replicates,
            unc.seed,
            obs::counter!("boot.cache_hits")
                .get()
                .saturating_sub(boot_hits_before)
        );
        outln!("confidence_set\t{{{}}}", set.join(","));
        outln!("stability\t{}", unc.verdict);
        if unc.verdict != gridtuner::engine::StabilityVerdict::Stable {
            eprintln!(
                "warning: side {} is {} under resampling ({} distinct argmins over {} replicates)",
                unc.point_side, unc.verdict, unc.distinct_argmins, unc.replicates
            );
        }
    }
    Ok(())
}

fn cmd_profile(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["top", "input", "chrome", "require", "trace", "report"])?;
    let top: usize = a.get_or("top", obs::profile::DEFAULT_TOP)?;
    let input = a.str_or("input", "");
    if input.is_empty() {
        return Err(ArgError(
            "profile needs --input TRACE.jsonl (`tune --report` profiles a live tune)".into(),
        )
        .into());
    }
    let data_err =
        |e: String| CliError::Engine(EngineError::Data(format!("--input {input:?}: {e}")));
    let text = std::fs::read_to_string(&input).map_err(|e| data_err(e.to_string()))?;
    let records = obs::json::parse_jsonl(&text).map_err(data_err)?;
    let profile = obs::profile::Profile::from_records(&records).map_err(data_err)?;
    let required = a.str_or("require", "");
    if !required.is_empty() {
        let names: Vec<&str> = required.split(',').collect();
        profile.require(&names).map_err(data_err)?;
    }
    let chrome_path = a.str_or("chrome", "");
    if !chrome_path.is_empty() {
        std::fs::write(&chrome_path, obs::profile::to_chrome(&records))
            .map_err(|e| ArgError(format!("--chrome: cannot write {chrome_path:?}: {e}")))?;
    }
    out!("{}", profile.render(top));
    Ok(())
}

/// The most rest-count terms `(m−1)·K` of Algorithm 2 that `--k` may ask
/// for: the 2²⁴-entry pmf window [`MAX_POISSON_MEAN`] keeps the windowed
/// path within.
const MAX_ALG2_TERMS: usize = 1 << 24;

fn cmd_expression(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["alpha", "rest", "m", "k", "trace", "report"])?;
    let alpha = a.non_negative_f64_or("alpha", 2.0)?;
    let rest = a.non_negative_f64_or("rest", 30.0)?;
    let m: usize = a.positive_or("m", 64usize)?;
    let k: usize = a.get_or("k", 0usize)?;
    if alpha + rest > MAX_POISSON_MEAN {
        let msg = format!("--alpha + --rest must be at most {MAX_POISSON_MEAN}");
        return Err(ArgError(msg).into());
    }
    if (m - 1).checked_mul(k).is_none_or(|t| t > MAX_ALG2_TERMS) {
        let msg = format!("(--m - 1) * --k must be at most {MAX_ALG2_TERMS}");
        return Err(ArgError(msg).into());
    }
    let value = if k > 0 {
        expression_error_alg2(alpha, rest, m, k)
    } else {
        expression_error_windowed(alpha, rest, m)
    };
    outln!("expression_error\t{value:.9}");
    Ok(())
}

fn cmd_generate(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["city", "scale", "day", "seed", "trace", "report"])?;
    let city = City::by_name(&a.str_or("city", "xian"))?.scaled(a.positive_f64_or("scale", 0.01)?);
    let day: u32 = a.get_or("day", 0u32)?;
    let seed: u64 = a.get_or("seed", 2022u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let trips = TripGenerator::default().trips_for_day(&city, day, &mut rng);
    outln!("minute\tpickup_lon\tpickup_lat\tdropoff_lon\tdropoff_lat\trevenue");
    for t in &trips {
        let (plon, plat) = city.geo().to_geo(&t.pickup);
        let (dlon, dlat) = city.geo().to_geo(&t.dropoff);
        outln!(
            "{}\t{plon:.6}\t{plat:.6}\t{dlon:.6}\t{dlat:.6}\t{:.2}",
            t.minute,
            t.revenue
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
        "report",
    ])?;
    let city = City::by_name(&a.str_or("city", "xian"))?.scaled(a.positive_f64_or("scale", 0.01)?);
    let side: u32 = a.positive_or("side", 16u32)?;
    let budget: u32 = a.positive_or("budget", 64u32)?;
    let seed: u64 = a.get_or("seed", 2022u64)?;
    let n_drivers: usize = a.get_or("drivers", ((city.daily_volume() / 22.0) as usize).max(10))?;
    let algorithm = a.str_or("algorithm", "polar");
    // Fleet/sim parameters go through the engine config so they are
    // validated with everything else (the HGrid lattice limit included)
    // before any algorithm allocates a lattice; the session hands the
    // simulator out as its dispatch stage.
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
        let session = TuningSession::new(config, |_s: u32| 0.0)?;
        let sim = session.simulator()?;
        match algorithm.as_str() {
            "polar" => sim.run(&orders, &mut Polar::new(), &mut demand),
            "ls" => sim.run(&orders, &mut Ls::new(), &mut demand),
            "nearest" => sim.run(&orders, &mut Nearest::new(), &mut demand),
            other => return Err(ArgError(format!("unknown algorithm {other:?}")).into()),
        }
    };
    outln!("algorithm\t{algorithm}");
    outln!("orders\t{}", outcome.total_orders);
    outln!("served\t{}", outcome.served);
    outln!("service_rate\t{:.4}", outcome.service_rate());
    outln!("revenue\t{:.2}", outcome.revenue);
    outln!("travel_km\t{:.1}", outcome.travel_km);
    outln!("unified_cost\t{:.1}", outcome.unified_cost);
    Ok(())
}

fn cmd_heatmap(a: &Args) -> Result<(), CliError> {
    a.expect_only(&["city", "side", "hour", "trace", "report"])?;
    let city = City::by_name(&a.str_or("city", "nyc"))?;
    let side: u32 = a.positive_or("side", 32u32)?;
    if side > MAX_LATTICE_SIDE {
        return Err(ArgError(format!("--side must be at most {MAX_LATTICE_SIDE}")).into());
    }
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
    out!("{}", gridtuner::spatial::io::ascii_heatmap(&field));
    Ok(())
}

/// Wires up observability from the global flags (and, failing that, the
/// `GRIDTUNER_TRACE` environment) and starts the run's recording.
fn setup_obs(args: &Args) -> Result<obs::Recording, ArgError> {
    let trace_path = args.str_or("trace", "");
    if !trace_path.is_empty() {
        obs::trace::set_file_sink(std::path::Path::new(&trace_path))
            .map_err(|e| ArgError(format!("--trace: cannot open {trace_path:?}: {e}")))?;
        obs::enable();
    } else {
        obs::init_from_env();
    }
    Ok(obs::Recording::start(args.has("report")))
}

fn cmd_help() -> Result<(), CliError> {
    outln!("{USAGE}");
    Ok(())
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
    // A malformed GRIDTUNER_THREADS is a diagnostic, not a silent
    // fallback: surface it before any work starts.
    if let Err(e) = gridtuner::engine::thread_override() {
        fail(&CliError::Engine(e));
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse_with_switches(&argv, &["report"]) {
        Ok(a) => a,
        Err(e) => fail(&CliError::Usage(e)),
    };
    let recording = match setup_obs(&args) {
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
        "help" | "--help" | "-h" => cmd_help(),
        other => Err(ArgError(format!("unknown command {other:?}")).into()),
    };
    // Ends the trace with its counters and closes it, whatever happened.
    let profile = recording.finish();
    match result {
        Err(e) if e.is_broken_pipe() => {}
        Err(e) => fail(&e),
        Ok(()) => match profile {
            Some(Ok(profile)) => eprint!("{}", profile.render(obs::profile::DEFAULT_TOP)),
            Some(Err(e)) => fail(&CliError::Engine(EngineError::Internal(format!(
                "--report: cannot read the run's trace back: {e}"
            )))),
            None => {}
        },
    }
}
