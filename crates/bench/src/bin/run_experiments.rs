//! Regenerates the paper's figures and claims as plain-text tables.
//!
//! ```text
//! cargo run -p pathix-bench --release --bin run_experiments -- [experiment] [--json]
//!
//! experiments:
//!   fig2       Figure 2: 8 Advogato queries × 4 strategies × k ∈ {1,2,3}
//!   datalog    §6 claim: speedup over Datalog-based evaluation
//!   automaton  extension: speedup over the automaton product-BFS baseline
//!   index      extension: index construction cost/size vs k
//!   scaling    extension: query time vs graph size
//!   ablation   extension: equi-depth histogram vs exact statistics
//!   incremental extension: incremental index maintenance vs rebuild
//!   amortization extension: parse-per-call vs plan-cache vs prepared throughput
//!   updates    extension: live PathDb::apply throughput vs full rebuild
//!   scan-join  extension: vectorized scan/join engine vs pair-at-a-time
//!   ingest     extension: streaming ingest from an empty database
//!   serving    extension: serving-tier read latency under write load
//!   all        everything above (default)
//! ```
//!
//! The dataset scale is `PATHIX_BENCH_SCALE` (default 0.15 of the real
//! Advogato); the Datalog/automaton comparisons automatically use a smaller
//! graph because the baselines are orders of magnitude slower.
//!
//! `--json` additionally writes the `updates`, `scan-join`, `ingest` and
//! `serving` experiments' machine-readable results to `BENCH_updates.json`,
//! `BENCH_scan_join.json`, `BENCH_ingest.json` and `BENCH_serving.json` in
//! the current directory (apply throughput, publish latency, per-backend
//! scan/join speedups and skip counters, streaming-ingest throughput and
//! append-latency flatness, serving-tier p50/p99 read latency vs write rate
//! and group-commit batch) so CI can archive the perf trajectory run over
//! run.

use pathix_bench::report::ToJson;
use pathix_bench::{
    amortization, automaton_comparison, backend_comparison, bench_scale, datalog_speedup, fig2,
    histogram_ablation, incremental_maintenance, index_construction, ingest, live_updates,
    paged_index, scaling, scan_join, serving, sql_comparison,
};

/// Writes a report to `name` in the current directory (best effort).
fn write_bench_json<T: ToJson>(name: &str, report: &T) {
    match std::fs::write(name, report.to_json()) {
        Ok(()) => println!("(machine-readable results written to {name})"),
        Err(e) => eprintln!("warning: could not write {name}: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let arg = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_owned());
    let scale = bench_scale();
    // The baselines recompute everything per query, so run them on a smaller
    // sample to keep the harness finishing in minutes.
    let baseline_scale = (scale * 0.2).clamp(0.005, 0.02);
    println!(
        "pathix experiment harness — scale {scale} (set PATHIX_BENCH_SCALE to change), \
         baseline comparisons at scale {baseline_scale}\n"
    );
    let ks = [1usize, 2, 3];

    match arg.as_str() {
        "fig2" => {
            fig2(scale, &ks);
        }
        "datalog" => {
            datalog_speedup(baseline_scale);
        }
        "automaton" => {
            automaton_comparison(baseline_scale);
        }
        "index" => {
            index_construction(scale, &ks);
        }
        "scaling" => {
            scaling(&[500, 1_000, 2_000, 4_000]);
        }
        "ablation" => {
            histogram_ablation(scale);
        }
        "sql" => {
            sql_comparison(baseline_scale);
        }
        "paged" => {
            paged_index(scale);
        }
        "backends" => {
            backend_comparison(scale, 2);
        }
        "amortization" => {
            amortization(scale, 2);
        }
        "incremental" => {
            incremental_maintenance(scale);
        }
        "updates" => {
            let report = live_updates(scale, 2);
            if json {
                write_bench_json("BENCH_updates.json", &report);
            }
        }
        "scan-join" => {
            let report = scan_join(scale, 2);
            if json {
                write_bench_json("BENCH_scan_join.json", &report);
            }
        }
        "ingest" => {
            let report = ingest(scale, 2);
            if json {
                write_bench_json("BENCH_ingest.json", &report);
            }
        }
        "serving" => {
            let report = serving(scale, 2);
            if json {
                write_bench_json("BENCH_serving.json", &report);
            }
        }
        "all" => {
            fig2(scale, &ks);
            datalog_speedup(baseline_scale);
            automaton_comparison(baseline_scale);
            index_construction(scale, &ks);
            scaling(&[500, 1_000, 2_000, 4_000]);
            histogram_ablation(scale);
            sql_comparison(baseline_scale);
            paged_index(scale);
            backend_comparison(scale, 2);
            amortization(scale, 2);
            incremental_maintenance(scale);
            let report = live_updates(scale, 2);
            if json {
                write_bench_json("BENCH_updates.json", &report);
            }
            let report = scan_join(scale, 2);
            if json {
                write_bench_json("BENCH_scan_join.json", &report);
            }
            let report = ingest(scale, 2);
            if json {
                write_bench_json("BENCH_ingest.json", &report);
            }
            let report = serving(scale, 2);
            if json {
                write_bench_json("BENCH_serving.json", &report);
            }
        }
        other => {
            eprintln!(
                "unknown experiment `{other}`; expected one of: fig2, datalog, automaton, \
                 index, scaling, ablation, sql, paged, backends, amortization, \
                 incremental, updates, scan-join, ingest, serving, all"
            );
            std::process::exit(2);
        }
    }
}
