//! The experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p gridtuner-bench --bin repro -- <id> [--quick] [--scale X] [--seed S] [--report]
//! cargo run --release -p gridtuner-bench --bin repro -- all --quick
//! ```
//!
//! Where `<id>` is one of: fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
//! fig13 fig14 fig15 fig16 fig17 fig18 fig19 tab3 tab4 all.
//!
//! Observability: set `GRIDTUNER_TRACE=path` to stream a JSON-lines trace
//! of the whole run (validate it with the `trace_check` bin), or pass
//! `--report` to print the run's profile on stderr at exit (the same
//! block `gridtuner profile --input` prints for the trace). See
//! `OBSERVABILITY.md`.

use gridtuner_bench::{experiments as ex, outln, RunCfg};
use gridtuner_obs as obs;
use std::time::Instant;

const IDS: &[&str] = &[
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19",
    "tab3",
    "tab4",
    "abl-matching",
    "abl-reposition",
    "abl-kselect",
];

fn usage() -> ! {
    eprintln!("usage: repro <id>|all [--quick] [--scale X] [--seed S] [--city C] [--report]");
    eprintln!("ids: {}", IDS.join(" "));
    eprintln!(
        "cities: {}",
        gridtuner_datagen::City::PRESET_NAMES.join(" ")
    );
    std::process::exit(2);
}

fn run_one(id: &str, cfg: &RunCfg) -> std::io::Result<()> {
    let t0 = Instant::now();
    match id {
        "fig3" => ex::fig3::run(cfg)?,
        "fig4" => ex::fig4::run(cfg)?,
        "fig5" => ex::fig5::run(cfg)?,
        "fig6" => ex::task_assignment::run_city(cfg, 0, "fig6")?,
        "fig7" => ex::task_assignment::run_city(cfg, 1, "fig7")?,
        "fig8" => ex::task_assignment::run_city(cfg, 2, "fig8")?,
        "fig9" => ex::task_assignment::run_daif(cfg)?,
        "fig10" => ex::fig10_11::run_fig10(cfg)?,
        "fig11" => ex::fig10_11::run_fig11(cfg)?,
        "fig13" => ex::fig13::run(cfg)?,
        "fig14" => ex::fig14::run(cfg)?,
        "fig15" => ex::fig15::run(cfg)?,
        "fig16" => ex::fig16::run(cfg)?,
        "fig17" => ex::search_experiments::run_fig17(cfg)?,
        "fig18" => ex::search_experiments::run_fig18(cfg)?,
        "fig19" => ex::fig19::run(cfg)?,
        "tab3" => ex::tab3::run(cfg)?,
        "tab4" => ex::search_experiments::run_tab4(cfg)?,
        "abl-matching" => ex::ablations::run_matching(cfg)?,
        "abl-reposition" => ex::ablations::run_reposition(cfg)?,
        "abl-kselect" => ex::ablations::run_kselect(cfg)?,
        other => {
            eprintln!("unknown experiment id: {other}");
            usage();
        }
    }
    eprintln!("[{id} done in {:.1?}]", t0.elapsed());
    outln!();
    Ok(())
}

/// Parses `<id> [--quick] [--scale X] [--seed S] [--city C] [--report]`
/// into a run plan. `--quick` replaces the config but keeps any seed given
/// before it.
fn parse_args(args: &[String]) -> Result<(String, RunCfg, bool), String> {
    let id = args.first().ok_or("missing experiment id")?.clone();
    if id != "all" && !IDS.contains(&id.as_str()) {
        return Err(format!("unknown experiment id: {id}"));
    }
    let mut cfg = RunCfg::default();
    let mut report = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                let seed = cfg.seed;
                let city = cfg.city;
                cfg = RunCfg::quick();
                cfg.seed = seed;
                cfg.city = city;
            }
            "--report" => report = true,
            "--scale" => {
                i += 1;
                cfg.volume_scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--scale needs a number")?;
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or("--seed needs an integer")?;
            }
            "--city" => {
                i += 1;
                let name = args.get(i).ok_or("--city needs a name")?;
                // Validate through the shared front door, then pin the
                // canonical `'static` preset name into the Copy config.
                let city = gridtuner_datagen::City::by_name(name).map_err(|e| e.to_string())?;
                cfg.city = gridtuner_datagen::City::PRESET_NAMES
                    .into_iter()
                    .find(|&n| n == city.name());
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    Ok((id, cfg, report))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (id, cfg, report) = match parse_args(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("{e}");
            usage();
        }
    };
    obs::init_from_env();
    let recording = obs::Recording::start(report);
    let result = if id == "all" {
        IDS.iter().try_for_each(|id| run_one(id, &cfg))
    } else {
        run_one(&id, &cfg)
    };
    // Ends the trace with its counters and closes it, whatever happened.
    let profile = recording.finish();
    match result {
        // The reader closed stdout early (`| head`, `| grep -q`): the run
        // ends quietly, as if it had finished.
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("repro: cannot write to stdout: {e}");
            std::process::exit(4);
        }
        Ok(()) => match profile {
            Some(Ok(profile)) => eprint!("{}", profile.render(obs::profile::DEFAULT_TOP)),
            Some(Err(e)) => {
                eprintln!("repro: --report cannot read the run's trace back: {e}");
                std::process::exit(4);
            }
            None => {}
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn ids_are_unique_and_cover_the_paper_artifacts() {
        let mut sorted = IDS.to_vec();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len(), "duplicate experiment ids");
        for required in ["fig3", "fig16", "tab3", "tab4"] {
            assert!(IDS.contains(&required), "missing {required}");
        }
    }

    #[test]
    fn parse_defaults() {
        let (id, cfg, report) = parse_args(&argv("fig3")).unwrap();
        assert_eq!(id, "fig3");
        assert_eq!(cfg, RunCfg::default());
        assert!(!report);
    }

    #[test]
    fn parse_quick_keeps_earlier_seed() {
        let (_, cfg, _) = parse_args(&argv("tab4 --seed 99 --quick")).unwrap();
        assert!(cfg.quick);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.volume_scale, RunCfg::quick().volume_scale);
    }

    #[test]
    fn parse_scale_and_seed() {
        let (id, cfg, report) = parse_args(&argv("all --scale 0.25 --seed 7")).unwrap();
        assert_eq!(id, "all");
        assert_eq!(cfg.volume_scale, 0.25);
        assert_eq!(cfg.seed, 7);
        assert!(!cfg.quick);
        assert!(!report);
    }

    #[test]
    fn parse_report_flag() {
        let (_, cfg, report) = parse_args(&argv("fig3 --report --seed 5")).unwrap();
        assert!(report);
        assert_eq!(cfg.seed, 5);
    }

    #[test]
    fn parse_city_filter() {
        let (_, cfg, _) = parse_args(&argv("fig3 --city chengdu")).unwrap();
        assert_eq!(cfg.city, Some("chengdu"));
        assert_eq!(cfg.city_sweep().len(), 1);
        // Case-insensitive, canonicalised; survives a later --quick.
        let (_, cfg, _) = parse_args(&argv("fig3 --city NYC --quick")).unwrap();
        assert_eq!(cfg.city, Some("nyc"));
        assert!(cfg.quick);
        let (_, cfg, _) = parse_args(&argv("fig3")).unwrap();
        assert_eq!(cfg.city_sweep().len(), 3);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(parse_args(&argv("")).is_err());
        assert!(parse_args(&argv("fig99")).is_err());
        assert!(parse_args(&argv("fig3 --scale")).is_err());
        assert!(parse_args(&argv("fig3 --seed x")).is_err());
        assert!(parse_args(&argv("fig3 --frobnicate")).is_err());
        let err = parse_args(&argv("fig3 --city gotham")).unwrap_err();
        assert!(err.contains("nyc, chengdu, xian"), "{err}");
    }
}
