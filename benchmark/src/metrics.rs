//! The names, units and directions of every metric the benchmark prints.
//! `BENCHMARK.json` repeats the end-to-end rows with their bounds and the
//! per-layer rows without; a unit test keeps the two in step.

use crate::stats::{percentile, Percentile};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median; `None` for
    /// per-layer metrics.
    pub bound: Option<f64>,
    pub help: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    help: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        help,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    help: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        help,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Measured with tracing off. A bound is
/// max(10 %, 2 x the widest spread, the largest drift of a median between
/// two sets) over the calibration runs in README.md, capped at the
/// contract's 25 % — which every time-based metric reaches on this sandbox.
pub const END_TO_END: [Metric; 13] = [
    e2e("setup_s", "s", Lower, 0.25, "data set generation + PathDb::try_build (+ Server::new) of the workload's own database, median of the fresh builds"),
    e2e("rss_peak_mb", "MiB", Lower, 0.10, "VmHWM when the workload's own phase ends, before any reference phase runs"),
    e2e("db_disk_mb", "MiB", Lower, 0.15, "page file + graph checkpoint + log after the update stream and the reopens"),
    e2e("card_geomean_ms", "ms", Lower, 0.25, "geometric mean over A1-A8 of each query's median latency"),
    e2e("card_total_ms", "ms", Lower, 0.25, "sum over A1-A8 of each query's median latency"),
    e2e("lookup_p50_ms", "ms", Lower, 0.25, "median PathDb::run latency of the lookup mix, on-disk, pool 256"),
    e2e("lookup_p95_ms", "ms", Lower, 0.25, "95th percentile of the same"),
    e2e("lookups_per_s", "1/s", Higher, 0.25, "lookups completed per second of the closed loop: weight on the heavy queries"),
    e2e("apply_p50_ms", "ms", Lower, 0.25, "median PathDb::apply latency per 4-update durable batch, first batch excluded"),
    e2e("updates_per_s", "1/s", Higher, 0.25, "effective acknowledged updates per second of the closed-loop stream"),
    e2e("first_apply_ms", "ms", Lower, 0.25, "latency of the first apply on a freshly built database, median of the fresh builds"),
    e2e("disk_bytes_per_update", "B", Lower, 0.10, "(page write-backs x page size + log bytes + checkpoint bytes) per effective update"),
    e2e("reopen_ms", "ms", Lower, 0.25, "PathDb::open after abandoning the writer with 2 unreplayed commit records, median of 3 cycles"),
];

/// What single layers do, from the traced pass. No bounds.
pub const PER_LAYER: [Metric; 73] = [
    layer("rpq.parse_us", "us", Lower, "PathDb::compile (parse + bind) per pool text"),
    layer("rpq.rewrite_us", "us", Lower, "PathDb::disjuncts (rewrite to label paths) per pool text"),
    layer("rpq.disjuncts_per_query", "count", Lower, "label-path disjuncts per pool text"),
    layer("plan.plan_us", "us", Lower, "plan_query under the default strategy per pool text"),
    layer("plan.joins_per_query", "count", Lower, "joins in the default plan per pool text"),
    layer("plan.merge_join_frac", "ratio", Higher, "share of those joins that are merge joins"),
    layer("plan.strategy_regret", "ratio", Lower, "card time under the default strategy / sum of per-query best of the four strategies"),
    layer("exec.drain_ms", "ms", Lower, "open_stream + next_batch loop, summed over the card's per-query medians"),
    layer("exec.join_self_ms", "ms", Lower, "drain minus the time the plan's leaf scans take drained alone"),
    layer("exec.finalize_ms", "ms", Lower, "sort + dedup of the drained pairs, summed over the card"),
    layer("exec.pairs_per_s", "1/s", Higher, "pairs pulled per second of drain on the card"),
    layer("exec.card_pairs_pulled", "count", Lower, "pairs pulled by one round of the card (exact)"),
    layer("exec.card_pulled_per_result", "ratio", Lower, "pairs pulled per answer pair on the card: duplicates only"),
    layer("exec.pairs_pulled", "count", Lower, "pairs pulled per lookup (exact)"),
    layer("exec.result_pairs", "count", Higher, "answer pairs per lookup (exact)"),
    layer("exec.pulled_per_result", "ratio", Lower, "pairs pulled per answer pair over the lookups: the cost of the un-pushed-down binding"),
    layer("index.scan_pairs_per_s", "1/s", Higher, "memory backend: pairs per second of full batched scans over every indexed path"),
    layer("index.probe_us", "us", Lower, "memory backend: scan_path_from per probe"),
    layer("index.contains_us", "us", Lower, "memory backend: contains per probe"),
    layer("index.chunks_skipped_per_probe", "count", Higher, "memory backend: chunks bypassed by fences and blooms per probe"),
    layer("index.bytes_per_entry", "B", Lower, "memory backend: approximate bytes per index entry"),
    layer("index.build_ms", "ms", Lower, "PathDb::try_build on the memory backend"),
    layer("index.apply_us_per_batch", "us", Lower, "memory-backend apply with manual histogram refresh: resolve + counting delta + chunk publish + graph commit"),
    layer("index.delta_entries_per_update", "count", Lower, "index-entry transitions per effective update (exact)"),
    layer("index.histogram_us_per_batch", "us", Lower, "apply with EveryUpdates(1) minus apply with Manual, memory backend"),
    layer("graph.commit_us_per_batch", "us", Lower, "Graph::commit_batch of one batch on the pre-batch graph"),
    layer("graph.chunks_rebuilt_per_batch", "count", Lower, "adjacency chunks rebuilt per batch"),
    layer("pagestore.pool_hit_rate", "ratio", Higher, "buffer-pool hits / requests over the lookups"),
    layer("pagestore.misses_per_lookup", "count", Lower, "buffer-pool misses per lookup (exact)"),
    layer("pagestore.evictions_per_lookup", "count", Lower, "buffer-pool evictions per lookup (exact)"),
    layer("pagestore.read_ahead_pages_per_lookup", "count", Lower, "pages staged by leaf read-ahead per lookup (exact)"),
    layer("pagestore.scan_pairs_per_s", "1/s", Higher, "paged backend: pairs per second of full batched scans"),
    layer("pagestore.probe_us", "us", Lower, "paged backend: scan_path_from per probe"),
    layer("pagestore.page_bytes_per_entry", "B", Lower, "paged backend: page-file bytes per index entry"),
    layer("pagestore.compressed_scan_pairs_per_s", "1/s", Higher, "compressed backend: pairs per second of full batched scans"),
    layer("pagestore.compressed_bytes_per_entry", "B", Lower, "compressed backend: bytes per index entry"),
    layer("pagestore.tree_us_per_batch", "us", Lower, "apply on PagedInMemory minus apply on Memory: B+tree replay with copy-on-write"),
    layer("pagestore.durable_us_per_batch", "us", Lower, "apply on OnDisk minus apply on PagedInMemory: log, write-back, fsync"),
    layer("pagestore.wal_append_sync_us", "us", Lower, "Wal::append + sync of a record of the observed size on a scratch log"),
    layer("pagestore.wal_bytes_per_update", "B", Lower, "log bytes appended per effective update (exact)"),
    layer("pagestore.write_backs_per_batch", "count", Lower, "dirty pages written back per batch (repeats to 0.06 %: delta order comes out of a randomly seeded HashMap)"),
    layer("pagestore.cow_copies_per_batch", "count", Lower, "pages relocated by copy-on-write per batch"),
    layer("pagestore.apply_p95_us", "us", Lower, "95th percentile on-disk apply latency of the traced stream; demoted from end to end: 4-22 % spread at reference size"),
    layer("pagestore.checkpoint_stall_ms", "ms", Lower, "median latency of checkpointing batches minus the overall median"),
    layer("core.q_A1_ms", "ms", Lower, "median latency of A1 behind the card"),
    layer("core.q_A2_ms", "ms", Lower, "median latency of A2"),
    layer("core.q_A3_ms", "ms", Lower, "median latency of A3"),
    layer("core.q_A4_ms", "ms", Lower, "median latency of A4"),
    layer("core.q_A5_ms", "ms", Lower, "median latency of A5"),
    layer("core.q_A6_ms", "ms", Lower, "median latency of A6"),
    layer("core.q_A7_ms", "ms", Lower, "median latency of A7"),
    layer("core.q_A8_ms", "ms", Lower, "median latency of A8"),
    layer("core.plan_cache_hit_rate", "ratio", Higher, "plan-cache hits / lookups"),
    layer("core.compilations_per_lookup", "count", Lower, "parse + rewrite runs per lookup"),
    layer("core.lookup_p99_ms", "ms", Lower, "99th percentile PathDb::run latency of the traced pass's untraced lookups; too seed-sensitive for a bound"),
    layer("core.front_end_share", "ratio", Lower, "(compilations x (parse + rewrite) + plans x plan) / lookup time"),
    layer("core.first_apply_stall_ms", "ms", Lower, "first_apply_ms minus apply_p50_ms: seeding the writer's shadow index"),
    layer("core.apply_residual_us", "us", Lower, "on-disk apply minus (memory apply + histogram + tree + log append/sync): page write-back and meta flip"),
    layer("core.open_replay_us_per_record", "us", Lower, "reopen time per replayed commit record"),
    layer("serve.queue_wait_p50_us", "us", Lower, "median QueryReply::queued_for"),
    layer("serve.queue_wait_p99_us", "us", Lower, "99th percentile of the same"),
    layer("serve.service_p50_us", "us", Lower, "median read time from dequeue to reply"),
    layer("serve.read_p50_us", "us", Lower, "median served read latency from the scheduled arrival, open loop; demoted from end to end: 11-36 % spread"),
    layer("serve.read_p90_us", "us", Lower, "90th percentile of the same; demoted: 20-90 % spread"),
    layer("serve.read_p99_us", "us", Lower, "99th percentile of the same; demoted: 45-110 % spread"),
    layer("serve.write_ack_p50_us", "us", Lower, "median served write latency from the scheduled arrival to the durable ack; demoted: 8-23 % spread"),
    layer("serve.overhead_us", "us", Lower, "idle served lookup minus direct PathDb::run, medians over the same operations"),
    layer("serve.shed_frac", "ratio", Lower, "requests shed by admission control / submitted"),
    layer("serve.deadline_frac", "ratio", Lower, "requests that exceeded the 1 s deadline / submitted"),
    layer("serve.max_in_flight", "count", Lower, "peak queued + executing requests"),
    layer("serve.generator_lag_p99_us", "us", Lower, "99th percentile of (actual - scheduled) submission time"),
    layer("trace.overhead_frac", "ratio", Lower, "traced over untraced time of the workload's own operations, minus one"),
    layer("trace.coverage", "ratio", Higher, "sum of layer self times / untraced operation time; outside [0.8, 1.2] is a warning"),
];

/// `BENCHMARK.json`, written from the registry so the two cannot drift.
pub fn benchmark_json(command: &[&str], run_seconds: u32, workloads: &[(&str, &str)]) -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows = |registry: &[Metric]| {
        registry
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b}"));
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let workloads = workloads
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(command),
        rows(&END_TO_END),
        rows(&PER_LAYER)
    )
}

/// The metric glossary as a Markdown table, for README.md.
pub fn glossary() -> String {
    let mut out =
        String::from("| metric | unit | better | bound | what it is |\n|---|---|---|---|---|\n");
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let bound = m
            .bound
            .map_or("—".to_owned(), |b| format!("{:.0} %", b * 100.0));
        out += &format!(
            "| `{}` | {} | {} | {bound} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.help
        );
    }
    out
}

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// Values gathered during a run, by metric name, and for percentiles the
/// sample counts behind them.
#[derive(Debug, Default, Clone)]
pub struct Values {
    values: BTreeMap<&'static str, f64>,
    evidence: BTreeMap<&'static str, Percentile>,
}

impl Values {
    /// Records `value`; naming a metric outside the registry, or one
    /// twice, is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "unregistered metric {name}");
        assert!(
            self.values.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Records percentile `p` of `samples` (0 when there are none) and
    /// keeps the sample count to print beside it.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: f64) {
        let percentile = percentile(samples, p);
        self.set(name, percentile.map_or(0.0, |p| p.value));
        self.evidence.extend(percentile.map(|p| (name, p)));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn evidence(&self, name: &str) -> Option<Percentile> {
        self.evidence.get(name).copied()
    }

    /// The values of `registry`, in its order; `Err` names what is missing.
    pub fn in_order(
        &self,
        registry: &'static [Metric],
    ) -> Result<Vec<(&'static Metric, f64)>, String> {
        registry
            .iter()
            .map(|m| {
                self.get(m.name)
                    .map(|v| (m, v))
                    .ok_or_else(|| format!("metric {} was not measured", m.name))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"key": "value"` pairs of a JSON object that holds only strings and
    /// numbers, good enough for the rows of BENCHMARK.json.
    fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
        let at = object.find(&format!("\"{key}\""))?;
        let rest = object[at..].split_once(':')?.1.trim_start();
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"'))
    }

    fn rows<'a>(json: &'a str, section: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{section}\"")).expect(section);
        let open = start + json[start..].find('[').unwrap();
        let close = open + json[open..].find(']').unwrap();
        json[open + 1..close]
            .split('}')
            .filter(|row| row.contains("\"name\""))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let json = include_str!("../../BENCHMARK.json");
        for (section, registry) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let rows = rows(json, section);
            assert_eq!(rows.len(), registry.len(), "{section}");
            for (row, metric) in rows.iter().zip(registry) {
                assert_eq!(field(row, "name"), Some(metric.name));
                assert_eq!(field(row, "unit"), Some(metric.unit), "{}", metric.name);
                assert_eq!(
                    field(row, "better"),
                    Some(metric.better.as_str()),
                    "{}",
                    metric.name
                );
                let bound = field(row, "bound").map(|b| b.parse::<f64>().unwrap());
                assert_eq!(bound, metric.bound, "{}", metric.name);
            }
        }
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
