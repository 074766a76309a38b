//! Regenerates the paper's figures and claims as plain-text tables.
//!
//! ```text
//! cargo run -p pathix-bench --release --bin run_experiments -- [experiment]
//! ```
//!
//! [`EXPERIMENTS`] is the one place experiments are named: dispatch, `all`
//! (the default), the usage text and the unknown-name error are all driven
//! from it. An unknown name prints the usage text and exits with status 2.
//!
//! The dataset scale is `PATHIX_BENCH_SCALE` (default
//! [`pathix_bench::datasets::DEFAULT_SCALE`] of the real Advogato); the
//! Datalog/automaton/SQL comparisons automatically use a smaller graph
//! because the baselines are orders of magnitude slower.

use pathix_bench::{
    automaton_comparison, bench_scale, datalog_speedup, fig2, histogram_ablation,
    index_construction, scaling, sql_comparison,
};
use std::process::ExitCode;

/// The graph scales of one invocation.
#[derive(Debug, Clone, Copy)]
struct Scales {
    /// `PATHIX_BENCH_SCALE`, for the experiments that only run the index.
    main: f64,
    /// The baselines recompute everything per query, so they run on a
    /// smaller sample to keep the harness finishing in minutes.
    baseline: f64,
}

struct Experiment {
    name: &'static str,
    about: &'static str,
    run: fn(Scales),
}

const KS: [usize; 3] = [1, 2, 3];

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "fig2",
        about: "Figure 2: 8 Advogato queries × 4 strategies × k ∈ {1,2,3}",
        run: |s| {
            fig2(s.main, &KS);
        },
    },
    Experiment {
        name: "datalog",
        about: "§6 claim: speedup over Datalog-based evaluation",
        run: |s| {
            datalog_speedup(s.baseline);
        },
    },
    Experiment {
        name: "automaton",
        about: "extension: speedup over the automaton product-BFS baseline",
        run: |s| {
            automaton_comparison(s.baseline);
        },
    },
    Experiment {
        name: "index",
        about: "extension: index construction cost/size vs k",
        run: |s| {
            index_construction(s.main, &KS);
        },
    },
    Experiment {
        name: "scaling",
        about: "extension: query time vs graph size",
        run: |s| {
            scaling(&scaling_sizes(s.main));
        },
    },
    Experiment {
        name: "ablation",
        about: "extension: equi-depth histogram vs exact statistics",
        run: |s| {
            histogram_ablation(s.main);
        },
    },
    Experiment {
        name: "sql",
        about: "§5: native pipeline vs the SQL translation vs recursive SQL views",
        run: |s| {
            sql_comparison(s.baseline);
        },
    },
];

/// Node counts for the scaling experiment: 500 to 4 000 at the default
/// scale, shrinking and growing with it like every other dataset.
fn scaling_sizes(scale: f64) -> [usize; 4] {
    let base = ((5_000.0 * scale).round() as usize).max(50);
    [base, 2 * base, 4 * base, 8 * base]
}

/// The experiments `name` selects: one table entry, or the whole table for
/// `all`.
fn select(name: &str) -> Option<&'static [Experiment]> {
    if name == "all" {
        return Some(EXPERIMENTS);
    }
    let at = EXPERIMENTS.iter().position(|e| e.name == name)?;
    Some(&EXPERIMENTS[at..=at])
}

fn usage() -> String {
    let mut text = String::from("usage: run_experiments [experiment]\n\nexperiments:\n");
    for e in EXPERIMENTS {
        text.push_str(&format!("  {:<10} {}\n", e.name, e.about));
    }
    text.push_str("  all        everything above (default)\n");
    text
}

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let Some(selected) = select(&name) else {
        eprintln!("unknown experiment `{name}`\n\n{}", usage());
        return ExitCode::from(2);
    };
    let main = bench_scale();
    let scales = Scales {
        main,
        baseline: (main * 0.2).clamp(0.005, 0.02),
    };
    println!(
        "pathix experiment harness — scale {} (set PATHIX_BENCH_SCALE to change), \
         baseline comparisons at scale {}\n",
        scales.main, scales.baseline
    );
    for experiment in selected {
        (experiment.run)(scales);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_entry_runs_at_tiny_scale() {
        let tiny = Scales {
            main: 0.01,
            baseline: 0.005,
        };
        for experiment in EXPERIMENTS {
            let name = experiment.name;
            assert_eq!(select(name).map(<[_]>::len), Some(1), "{name}");
            assert_eq!(
                EXPERIMENTS.iter().filter(|e| e.name == name).count(),
                1,
                "`{name}` names two table entries"
            );
            (experiment.run)(tiny);
        }
    }

    #[test]
    fn all_selects_the_whole_table_and_usage_names_every_entry() {
        let all: Vec<&str> = select("all").unwrap().iter().map(|e| e.name).collect();
        assert_eq!(all, EXPERIMENTS.iter().map(|e| e.name).collect::<Vec<_>>());
        assert!(select("nope").is_none());
        let usage = usage();
        for name in EXPERIMENTS.iter().map(|e| e.name).chain(["all"]) {
            assert!(
                usage.contains(&format!("\n  {name} ")),
                "usage omits `{name}`:\n{usage}"
            );
        }
    }
}
