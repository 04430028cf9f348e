//! The campaign driver: runs a scenario file through the campaign engine,
//! prints the per-cell table, optionally persists/serves results through
//! a content-addressed store, and gates on regressions.
//!
//! ```text
//! campaign <scenario.toml> [options]
//!   --store <path>            persistent result store directory, created
//!                             if missing (a single-file store from an
//!                             older release is migrated in place);
//!                             re-runs skip already-computed cells
//!   --baseline <path>         diff this run against a stored report and
//!                             exit 1 on accuracy regressions / changed
//!                             or missing cells
//!   --write-baseline <path>   write this run's cells as a baseline
//!   --workers <N>             worker-pool width (scenario [executor]
//!                             wins for its own run)
//!   --expect-hit-ratio <R>    exit 1 if fewer than R of the cells were
//!                             served from the store (CI warm-run gate)
//!   --profile-out <path>      enable kernel-execution profiling and dump
//!                             the per-kind profile (JSON lines) after
//!                             the run; results are unchanged
//!   --store-shards <N>        segment count of a new --store (default 8;
//!                             an existing store keeps its own count)
//!   --population-size <N>     override (or create) the scenario's
//!                             [population] with N synthetic workloads
//!   --population-seed <S>     override the population base seed
//!                             (decimal or 0x-prefixed hex)
//!   --population-family <F>   override the population topology family
//!                             (chain | fork-join | diamond | layered |
//!                             mixed)
//!   --population-budget-secs <B>
//!                             override the population duration budget;
//!                             members beyond the modeled budget are
//!                             truncated deterministically by rank
//!   --describe-population     print the budgeted population as JSON
//!                             lines (one member per line) and exit
//!                             without running the campaign
//!
//! campaign --compact-store <path>
//!   standalone maintenance mode: rewrites every segment of the store
//!   dropping records shadowed by first-wins dedup (across shards) and
//!   torn tails, re-routes misrouted records home, rebuilds the sidecar
//!   index atomically, prints per-shard stats and exits.  A single-file
//!   store is migrated into a directory first.
//! ```
//!
//! Exit codes: 0 success, 1 gate failure (regression or hit-ratio miss),
//! 2 usage / file / parse errors.

use std::process::ExitCode;

use dmpb_population::{PopulationGenerator, TopologyFamily};
use dmpb_scenario::{
    compact_sharded_store, read_records, CampaignRunner, ResultStore, Scenario,
    DEFAULT_STORE_SHARDS,
};

struct Options {
    scenario_path: String,
    store: Option<String>,
    baseline: Option<String>,
    write_baseline: Option<String>,
    workers: Option<usize>,
    store_shards: Option<usize>,
    expect_hit_ratio: Option<f64>,
    profile_out: Option<String>,
    compact_store: Option<String>,
    describe_population: bool,
    population_size: Option<u32>,
    population_seed: Option<u64>,
    population_family: Option<TopologyFamily>,
    population_budget_secs: Option<f64>,
}

/// Seeds arrive as decimal or `0x`-prefixed hex (the form the campaign
/// itself prints digests and fingerprints in).
fn parse_seed(raw: &str) -> Option<u64> {
    match raw.strip_prefix("0x").or_else(|| raw.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => raw.parse().ok(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: campaign <scenario.toml> [--store <path>] [--store-shards <N>] \
         [--baseline <path>] [--write-baseline <path>] [--workers <N>] \
         [--expect-hit-ratio <R>] [--profile-out <path>] \
         [--population-size <N>] [--population-seed <S>] [--population-family <F>] \
         [--population-budget-secs <B>] [--describe-population]\n\
         \u{20}      campaign --compact-store <path>"
    );
    ExitCode::from(2)
}

/// Parses the value of a flag that takes a positive integer; zero and
/// non-numbers are usage errors.
fn positive(flag: &str, value: String) -> Result<usize, ExitCode> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => {
            eprintln!("campaign: {flag} needs a positive integer");
            Err(usage())
        }
    }
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut args = std::env::args().skip(1);
    let mut options = Options {
        scenario_path: String::new(),
        store: None,
        baseline: None,
        write_baseline: None,
        workers: None,
        store_shards: None,
        expect_hit_ratio: None,
        profile_out: None,
        compact_store: None,
        describe_population: false,
        population_size: None,
        population_seed: None,
        population_family: None,
        population_budget_secs: None,
    };
    while let Some(arg) = args.next() {
        let mut value_for = |flag: &str| {
            args.next().ok_or_else(|| {
                eprintln!("campaign: {flag} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--store" => options.store = Some(value_for("--store")?),
            "--baseline" => options.baseline = Some(value_for("--baseline")?),
            "--write-baseline" => options.write_baseline = Some(value_for("--write-baseline")?),
            "--workers" => options.workers = Some(positive("--workers", value_for("--workers")?)?),
            "--store-shards" => {
                options.store_shards =
                    Some(positive("--store-shards", value_for("--store-shards")?)?)
            }
            "--compact-store" => options.compact_store = Some(value_for("--compact-store")?),
            "--expect-hit-ratio" => {
                let ratio: f64 = value_for("--expect-hit-ratio")?.parse().map_err(|_| {
                    eprintln!("campaign: --expect-hit-ratio needs a number in [0, 1]");
                    usage()
                })?;
                // NaN fails `contains` too — `hit_ratio() < NaN` is never
                // true, which would silently disable the gate.
                if !(0.0..=1.0).contains(&ratio) {
                    eprintln!("campaign: --expect-hit-ratio needs a number in [0, 1]");
                    return Err(usage());
                }
                options.expect_hit_ratio = Some(ratio);
            }
            "--profile-out" => options.profile_out = Some(value_for("--profile-out")?),
            "--describe-population" => options.describe_population = true,
            "--population-size" => {
                let n: u32 = value_for("--population-size")?.parse().unwrap_or(0);
                if n == 0 {
                    eprintln!("campaign: --population-size needs a positive integer");
                    return Err(usage());
                }
                options.population_size = Some(n);
            }
            "--population-seed" => {
                options.population_seed =
                    Some(parse_seed(&value_for("--population-seed")?).ok_or_else(|| {
                        eprintln!("campaign: --population-seed needs a decimal or 0x-prefixed u64");
                        usage()
                    })?)
            }
            "--population-family" => {
                options.population_family = Some(
                    value_for("--population-family")?
                        .parse()
                        .map_err(|e: String| {
                            eprintln!("campaign: --population-family: {e}");
                            usage()
                        })?,
                )
            }
            "--population-budget-secs" => {
                let budget: f64 = value_for("--population-budget-secs")?
                    .parse()
                    .map_err(|_| {
                        eprintln!("campaign: --population-budget-secs needs a positive number");
                        usage()
                    })?;
                if !(budget > 0.0 && budget.is_finite()) {
                    eprintln!("campaign: --population-budget-secs needs a positive number");
                    return Err(usage());
                }
                options.population_budget_secs = Some(budget);
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                eprintln!("campaign: unknown flag `{other}`");
                return Err(usage());
            }
            path if options.scenario_path.is_empty() => options.scenario_path = path.to_string(),
            _ => return Err(usage()),
        }
    }
    if options.scenario_path.is_empty() && options.compact_store.is_none() {
        return Err(usage());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(code) => return code,
    };

    if let Some(path) = &options.compact_store {
        match compact_sharded_store(std::path::Path::new(path)) {
            Ok(stats) => {
                for (shard, stats) in stats.iter().enumerate() {
                    println!(
                        "campaign: compacted {path} segment {shard}: {} record(s) kept, \
                         {} record(s) dropped",
                        stats.kept, stats.dropped
                    );
                }
                let kept: usize = stats.iter().map(|s| s.kept).sum();
                let dropped: usize = stats.iter().map(|s| s.dropped).sum();
                println!(
                    "campaign: compacted {path}: {kept} record(s) kept, {dropped} \
                     record(s) dropped across {} segment(s); sidecar index rebuilt",
                    stats.len()
                );
            }
            Err(e) => {
                eprintln!("campaign: cannot compact {path}: {e}");
                return ExitCode::from(2);
            }
        }
        if options.scenario_path.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    let source = match std::fs::read_to_string(&options.scenario_path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("campaign: cannot read {}: {e}", options.scenario_path);
            return ExitCode::from(2);
        }
    };
    let mut scenario = match Scenario::parse(&source) {
        Ok(scenario) => scenario,
        Err(e) => {
            eprintln!("campaign: {}: {e}", options.scenario_path);
            return ExitCode::from(2);
        }
    };

    // The --population-* flags override (or, for a scenario without a
    // [population] section, create from defaults) the synthetic
    // population spec; the merged spec is re-validated so flag
    // combinations obey the same rules as the DSL.
    if options.population_size.is_some()
        || options.population_seed.is_some()
        || options.population_family.is_some()
        || options.population_budget_secs.is_some()
    {
        let mut spec = scenario.population.unwrap_or_default();
        if let Some(size) = options.population_size {
            spec.size = size;
        }
        if let Some(seed) = options.population_seed {
            spec.base_seed = seed;
        }
        if let Some(family) = options.population_family {
            spec.family = family;
        }
        if let Some(budget) = options.population_budget_secs {
            spec.duration_budget_secs = Some(budget);
        }
        if let Err(e) = spec.validate() {
            eprintln!("campaign: invalid population overrides: {e}");
            return ExitCode::from(2);
        }
        scenario.population = Some(spec);
    }

    if options.describe_population {
        let Some(plan) = scenario.population_plan() else {
            eprintln!(
                "campaign: --describe-population needs a [population] section in the \
                 scenario or --population-* flags"
            );
            return ExitCode::from(2);
        };
        // Budget truncation keeps a rank prefix, and a member's identity
        // is independent of the budget, so the original spec's generator
        // reproduces exactly the members the campaign would run.
        let generator = PopulationGenerator::new(plan.spec)
            .expect("population spec was validated at parse/override time");
        for rank in 0..plan.planned {
            println!("{}", generator.member(rank).describe_json());
        }
        eprintln!(
            "campaign: described {} of {} population member(s) across {} axis \
             combination(s){}",
            plan.planned,
            plan.full_size,
            plan.combos,
            if plan.truncated() {
                " [duration budget truncated]"
            } else {
                ""
            }
        );
        return ExitCode::SUCCESS;
    }

    // No pool is built here: the runner builds its cell pool on the
    // first campaign wider than one cell.
    let store = match &options.store {
        None => ResultStore::in_memory(),
        Some(path) => match ResultStore::open_sharded(
            path,
            options.store_shards.unwrap_or(DEFAULT_STORE_SHARDS),
        ) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("campaign: cannot open store: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let preloaded = store.stats().entries;
    let mut runner = CampaignRunner::with_store(store);
    if let Some(workers) = options.workers {
        runner = runner.with_workers(workers);
    }
    if options.profile_out.is_some() {
        runner = runner.with_kernel_profiling(true);
    }

    println!(
        "campaign `{}`: {}{}",
        scenario.name,
        if scenario.description.is_empty() {
            "(no description)"
        } else {
            &scenario.description
        },
        match &options.store {
            Some(path) => format!(" [store: {path}, {preloaded} preloaded]"),
            None => String::new(),
        }
    );
    let matrix = scenario.matrix_size();
    let report = match runner.try_run(&scenario) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("campaign: {e}");
            return ExitCode::from(1);
        }
    };
    if report.outcomes.is_empty() {
        // A fully filtered campaign is legitimate (a sweep axis can
        // exclude everything on some configurations): report it and skip
        // the gates that are meaningless without cells, don't fail.
        println!(
            "campaign: scenario expanded to zero cells ({matrix} before filters) — \
             nothing to run, gates skipped"
        );
    }
    if !report.outcomes.is_empty() && report.outcomes.len() != matrix {
        println!(
            "{} of {} matrix cells kept by include/exclude filters",
            report.outcomes.len(),
            matrix
        );
    }
    println!("{}", report.summary_table().render());
    println!(
        "result store: {} of {} cells served (hit ratio {:.2}); campaign digest {:016x}",
        report.cache_hits(),
        report.outcomes.len(),
        report.hit_ratio(),
        report.digest(),
    );

    let mut failed = false;
    if let Some(path) = &options.baseline {
        match read_records(std::path::Path::new(path)) {
            Ok(baseline) => {
                let diff = report.diff(&baseline);
                println!("{}", diff.summary());
                for (cell, was, now) in &diff.regressed {
                    println!(
                        "  REGRESSED {} on {} ({}): accuracy {:.4} -> {:.4}",
                        cell.workload, cell.cluster, cell.architecture, was, now
                    );
                }
                for (cell, _) in &diff.changed {
                    println!(
                        "  CHANGED   {} on {} ({}): result differs from baseline (fingerprint {:016x})",
                        cell.workload, cell.cluster, cell.architecture, cell.fingerprint
                    );
                }
                for cell in &diff.missing {
                    println!(
                        "  MISSING   {} on {} ({}): baseline cell not produced by this run",
                        cell.workload, cell.cluster, cell.architecture
                    );
                }
                if diff.is_regression() {
                    eprintln!("campaign: baseline gate failed");
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("campaign: cannot read baseline: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(expected) = options.expect_hit_ratio {
        if report.outcomes.is_empty() {
            // Zero cells means zero store lookups: there is no hit ratio
            // to gate on, and failing would misreport an empty (fully
            // filtered) campaign as a cold store.
            println!(
                "campaign: hit-ratio gate skipped: no cells ran, so the store saw no lookups \
                 (0 hits, 0 misses)"
            );
        } else if report.hit_ratio() < expected {
            eprintln!(
                "campaign: hit-ratio gate failed: {} of {} cells store-served \
                 ({} hits, {} misses; ratio {:.2}) < expected {expected:.2}",
                report.cache_hits(),
                report.outcomes.len(),
                runner.store_stats().hits,
                runner.store_stats().misses,
                report.hit_ratio()
            );
            failed = true;
        }
    }

    if let Some(path) = &options.profile_out {
        let profile = runner.kernel_profile();
        if let Err(e) = std::fs::write(path, profile.to_jsonl()) {
            eprintln!("campaign: cannot write profile {path}: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote kernel profile {path} ({} kernel invocations across {} kinds)",
            profile.total_invocations(),
            profile.kinds.iter().filter(|k| k.invocations > 0).count()
        );
    }

    if let Some(path) = &options.write_baseline {
        if let Err(e) = std::fs::write(path, report.to_lines()) {
            eprintln!("campaign: cannot write baseline {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote baseline {path} ({} cells)", report.outcomes.len());
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
