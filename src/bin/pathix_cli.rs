//! `pathix_cli` — an interactive shell for the path-index RPQ engine.
//!
//! This is the "hands-on overview of the life of a regular path query" of the
//! paper's Section 6 packaged as a command-line tool: load or generate a
//! graph, build the k-path index, then submit RPQs and inspect how each
//! strategy parses, rewrites, plans and executes them.
//!
//! ```text
//! # the paper's running example graph, k = 3
//! cargo run --release --bin pathix_cli
//!
//! # a synthetic Advogato-like graph at 10% scale, one-shot query
//! cargo run --release --bin pathix_cli -- --dataset advogato --scale 0.1 \
//!     -q "knows/(knows/worksFor){2,4}/worksFor"
//!
//! # your own edge list (one `source label target` triple per line)
//! cargo run --release --bin pathix_cli -- --graph my_graph.tsv --k 2
//! ```
//!
//! Inside the shell, lines starting with `\` are commands (`\help` lists
//! them); every other line is evaluated as a regular path query.

use pathix::datagen::{
    advogato_like, paper_example_graph, social_network, AdvogatoConfig, SocialConfig,
};
use pathix::graph::load_edge_list;
use pathix::serve::{ServeConfig, Server};
use pathix::{BackendChoice, Graph, GraphUpdate, PathDb, PathDbConfig, QueryOptions, Strategy};
use std::io::{self, BufRead, Write};
use std::sync::Arc;
use std::time::Instant;

/// A parsed shell input line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Command {
    /// Show the command reference.
    Help,
    /// Show graph / index / histogram statistics.
    Stats,
    /// Run the structural invariant audit over every live structure.
    Audit,
    /// Change the default evaluation strategy.
    SetStrategy(String),
    /// Rebuild the database with a different locality parameter k.
    SetK(usize),
    /// Change how many answer pairs are printed per query.
    SetLimit(usize),
    /// Show the physical plan for a query under the current strategy.
    Explain(String),
    /// Show the physical plans for a query under all four strategies.
    Plans(String),
    /// Run a query under all strategies and the two baselines, with timings.
    Compare(String),
    /// Insert a labeled edge (`\update src label dst`) through the live
    /// update path.
    Update(String),
    /// Insert a labeled edge by name (`\add-edge src label dst`), interning
    /// any node or label names the database has never seen.
    AddEdge(String),
    /// Delete a labeled edge (`\delete-edge src label dst`).
    DeleteEdge(String),
    /// Show the database's serving health: mode, epoch, sticky flush
    /// failures and the durability section of the audit.
    Health,
    /// Drill `n` requests through an embedded serving tier and report
    /// latency percentiles plus the tier's counters.
    ServeStats(usize),
    /// Evaluate a regular path query under the current strategy.
    Query(String),
    /// Leave the shell.
    Quit,
    /// Ignore the line (blank input or comment).
    Nothing,
    /// The line looked like a command but could not be parsed.
    Invalid(String),
}

/// Parses one input line into a [`Command`].
fn parse_command(line: &str) -> Command {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Command::Nothing;
    }
    let Some(rest) = line.strip_prefix('\\') else {
        return Command::Query(line.to_owned());
    };
    let (name, arg) = match rest.split_once(char::is_whitespace) {
        Some((name, arg)) => (name, arg.trim()),
        None => (rest, ""),
    };
    match (name, arg) {
        ("help" | "h" | "?", _) => Command::Help,
        ("stats", _) => Command::Stats,
        ("audit", _) => Command::Audit,
        ("quit" | "q" | "exit", _) => Command::Quit,
        ("strategy", s) if !s.is_empty() => Command::SetStrategy(s.to_owned()),
        ("k", n) => match n.parse() {
            Ok(k) if k >= 1 => Command::SetK(k),
            _ => Command::Invalid("usage: \\k <positive integer>".to_owned()),
        },
        ("limit", n) => match n.parse() {
            Ok(l) => Command::SetLimit(l),
            Err(_) => Command::Invalid("usage: \\limit <non-negative integer>".to_owned()),
        },
        ("explain", q) if !q.is_empty() => Command::Explain(q.to_owned()),
        ("plans", q) if !q.is_empty() => Command::Plans(q.to_owned()),
        ("compare", q) if !q.is_empty() => Command::Compare(q.to_owned()),
        ("health", _) => Command::Health,
        ("serve-stats", "") => Command::ServeStats(32),
        ("serve-stats", n) => match n.parse() {
            Ok(n) if n >= 1 => Command::ServeStats(n),
            _ => Command::Invalid("usage: \\serve-stats [positive request count]".to_owned()),
        },
        ("update", e) if !e.is_empty() => Command::Update(e.to_owned()),
        ("add-edge", e) if !e.is_empty() => Command::AddEdge(e.to_owned()),
        ("delete-edge", e) if !e.is_empty() => Command::DeleteEdge(e.to_owned()),
        _ => Command::Invalid(format!(
            "unknown or incomplete command `\\{rest}` — try \\help"
        )),
    }
}

/// Parses a strategy name as accepted by `\strategy`.
fn parse_strategy(name: &str) -> Option<Strategy> {
    match name.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
        "naive" => Some(Strategy::Naive),
        "seminaive" => Some(Strategy::SemiNaive),
        "minsupport" => Some(Strategy::MinSupport),
        "minjoin" => Some(Strategy::MinJoin),
        _ => None,
    }
}

const HELP: &str = "\
commands:
  <rpq>                 evaluate a regular path query, e.g. knows/worksFor-
  \\explain <rpq>        show the physical plan under the current strategy
  \\plans <rpq>          show the plans of all four strategies
  \\compare <rpq>        time all strategies and the automaton/Datalog baselines
  \\update <s> <l> <t>   insert the edge l(s, t) live (existing vocabulary only)
  \\add-edge <s> <l> <t> insert l(s, t) live, interning unseen node/label names
  \\delete-edge <s> <l> <t>  delete the edge l(s, t) live
  \\strategy <name>      set the strategy: naive | semi-naive | minSupport | minJoin
  \\k <n>                rebuild the index with locality parameter n
  \\limit <n>            print at most n answer pairs per query
  \\stats                graph, index and histogram statistics
  \\audit                verify every structural invariant of the live index
  \\health               serving health: mode, epoch, durability status
  \\serve-stats [n]      drill n requests through an embedded serving tier
  \\help                 this text
  \\quit                 leave the shell

query syntax: `/` composition, `|` union, `label-` inverse, `{i,j}` bounded
recursion, plus `*` `+` `?` sugar; parentheses group.";

/// The interactive shell state: a database plus the shell's mutable settings.
/// The database lives behind an [`Arc`] so `\serve-stats` can lend it to an
/// embedded serving tier without rebuilding it.
struct Shell {
    db: Arc<PathDb>,
    strategy: Strategy,
    limit: usize,
    backend: BackendChoice,
}

impl Shell {
    /// A memory-backend shell (the `--backend` default); used by the tests.
    #[cfg(test)]
    fn new(graph: Graph, k: usize) -> Self {
        Self::with_backend(graph, k, BackendChoice::Memory)
    }

    fn with_backend(graph: Graph, k: usize, backend: BackendChoice) -> Self {
        Shell {
            db: Arc::new(PathDb::build(
                graph,
                PathDbConfig::with_k(k).with_backend(backend.clone()),
            )),
            strategy: Strategy::MinSupport,
            limit: 10,
            backend,
        }
    }

    /// Executes one command and returns the text to print.
    fn run(&mut self, command: Command) -> String {
        match command {
            Command::Help => HELP.to_owned(),
            Command::Nothing => String::new(),
            Command::Quit => String::new(),
            Command::Invalid(message) => message,
            Command::Stats => self.stats(),
            Command::Audit => self.audit(),
            Command::SetStrategy(name) => match parse_strategy(&name) {
                Some(strategy) => {
                    self.strategy = strategy;
                    format!("strategy set to {strategy}")
                }
                None => format!(
                    "unknown strategy `{name}` — expected naive, semi-naive, minSupport or minJoin"
                ),
            },
            Command::SetK(k) => {
                let graph = self.db.graph().as_ref().clone();
                self.db = Arc::new(PathDb::build(
                    graph,
                    PathDbConfig::with_k(k).with_backend(self.backend.clone()),
                ));
                format!("rebuilt index with k = {k}\n{}", self.stats())
            }
            Command::SetLimit(limit) => {
                self.limit = limit;
                format!("printing at most {limit} pairs per query")
            }
            Command::Explain(query) => match self.db.explain(&query, self.strategy) {
                Ok(plan) => format!("-- {} plan\n{plan}", self.strategy),
                Err(e) => format!("error: {e}"),
            },
            Command::Plans(query) => {
                let mut out = String::new();
                for strategy in Strategy::all() {
                    match self.db.explain(&query, strategy) {
                        Ok(plan) => {
                            out.push_str(&format!("-- {strategy} plan\n{plan}\n"));
                        }
                        Err(e) => return format!("error: {e}"),
                    }
                }
                out
            }
            Command::Compare(query) => self.compare(&query),
            Command::Health => self.health(),
            Command::ServeStats(n) => self.serve_stats(n),
            Command::Update(edge) => self.update(&edge, true),
            Command::AddEdge(edge) => self.add_edge(&edge),
            Command::DeleteEdge(edge) => self.update(&edge, false),
            Command::Query(query) => self.query(&query),
        }
    }

    /// Parses `src label dst` against the graph's vocabulary and applies the
    /// edge insertion or deletion live.
    fn update(&mut self, edge: &str, insert: bool) -> String {
        let parts: Vec<&str> = edge.split_whitespace().collect();
        let [src_name, label_name, dst_name] = parts[..] else {
            return format!(
                "usage: \\{} <source> <label> <target>",
                if insert { "update" } else { "delete-edge" }
            );
        };
        let graph = self.db.graph();
        let Some(src) = graph.node_id(src_name) else {
            return format!("unknown node `{src_name}` — live updates use existing nodes");
        };
        let Some(dst) = graph.node_id(dst_name) else {
            return format!("unknown node `{dst_name}` — live updates use existing nodes");
        };
        let Some(label) = graph.label_id(label_name) else {
            return format!(
                "unknown label `{label_name}` — live updates use the existing vocabulary"
            );
        };
        drop(graph);
        let update = if insert {
            GraphUpdate::InsertEdge { src, label, dst }
        } else {
            GraphUpdate::DeleteEdge { src, label, dst }
        };
        match self.db.apply(&[update]) {
            Ok(stats) if stats.inserted + stats.deleted == 0 => format!(
                "no-op: the edge {label_name}({src_name}, {dst_name}) was {}",
                if insert { "already present" } else { "absent" }
            ),
            Ok(stats) => format!(
                "{} {label_name}({src_name}, {dst_name}) — now at epoch {}, histogram {}",
                if insert { "inserted" } else { "deleted" },
                stats.epoch,
                if stats.histogram_refreshed {
                    "refreshed"
                } else {
                    "unchanged"
                }
            ),
            Err(e) => format!("error: {e}"),
        }
    }

    /// Parses `src label dst` and inserts the edge through the streaming
    /// ingest path: node and label names the database has never seen are
    /// interned live instead of rejected.
    fn add_edge(&mut self, edge: &str) -> String {
        let parts: Vec<&str> = edge.split_whitespace().collect();
        let [src, label, dst] = parts[..] else {
            return "usage: \\add-edge <source> <label> <target>".to_owned();
        };
        let before = self.db.stats();
        match self.db.apply(&[GraphUpdate::insert_named(src, label, dst)]) {
            Ok(stats) if stats.inserted == 0 => {
                format!("no-op: the edge {label}({src}, {dst}) was already present")
            }
            Ok(stats) => {
                let after = self.db.stats();
                format!(
                    "inserted {label}({src}, {dst}) — interned {} new node(s) and {} new \
                     label(s), now at epoch {}",
                    after.nodes - before.nodes,
                    after.labels - before.labels,
                    stats.epoch
                )
            }
            Err(e) => format!("error: {e}"),
        }
    }

    fn stats(&self) -> String {
        let stats = self.db.stats();
        let epoch = self.db.epoch();
        let mut out = format!(
            "graph     : {} nodes, {} edges, {} labels (epoch {epoch})\n\
             index     : {} backend, k = {}, {} entries over {} label paths, ~{} KiB\n\
             histogram : {} paths summarized in {} buckets\n\
             strategy  : {} (answers capped at {} printed pairs)",
            stats.nodes,
            stats.edges,
            stats.labels,
            stats.index.backend,
            stats.index.k,
            stats.index.entries,
            stats.index.distinct_paths,
            stats.index.approx_bytes / 1024,
            stats.histogram_paths,
            stats.histogram_buckets,
            self.strategy,
            self.limit
        );
        // The paged backends additionally report the storage layer: buffer
        // pool behaviour plus the copy-on-write page lifecycle.
        let storage = &stats.storage;
        if let Some(pool) = &storage.pool {
            out.push_str(&format!(
                "\npool      : {} hits, {} misses, {} evictions, {} write-backs",
                pool.hits, pool.misses, pool.evictions, pool.write_backs
            ));
        }
        if let Some(cow) = &storage.cow {
            out.push_str(&format!(
                "\ncow       : {} page copies, {} retired ({} pending), {} reclaimed, {} live snapshots",
                cow.page_copies,
                cow.pages_retired,
                cow.retired_pending,
                cow.pages_reclaimed,
                cow.live_snapshots
            ));
        }
        // A failed flush is sticky: the persisted tree may lag the in-memory
        // one, so the operator should know before trusting a clean shutdown.
        if storage.flush_failed {
            out.push_str(
                "\ndurability: WARNING — a flush failed; on-disk state may lag (recover by reopen)",
            );
        }
        // Every backend counts what its bound probes and range scans managed
        // to bypass or stage ahead of time.
        out.push_str(&format!(
            "\nscan      : {} chunks skipped, {} pages read ahead",
            storage.chunks_skipped, storage.read_ahead_pages
        ));
        // Graph adjacency sharing: what the last committed graph epoch
        // rebuilt versus re-shared behind Arcs (all zeros on a bulk build).
        let publish = &stats.graph_publish;
        out.push_str(&format!(
            "\ngraph-pub : last batch rebuilt {} labels / {} chunks, re-shared {} labels / {} \
             chunks ({} adjacency chunks total)",
            publish.labels_rebuilt,
            publish.chunks_rebuilt,
            publish.labels_shared,
            publish.chunks_shared,
            stats.graph_chunks
        ));
        // The chunk-run backends (memory, compressed) report what their last
        // publish shared vs rebuilt.
        let snapshot = self.db.snapshot();
        let index = snapshot.index();
        let runs = index
            .as_memory()
            .map(|m| (m.last_publish_stats(), m.chunk_count()))
            .or_else(|| {
                let c = index.as_compressed()?;
                Some((c.last_publish_stats(), c.chunk_count()))
            });
        if let Some((publish, chunks)) = runs {
            out.push_str(&format!(
                "\npublish   : last batch rebuilt {} runs / {} chunks, shared {} runs / {} chunks ({chunks} chunks total)",
                publish.runs_rebuilt,
                publish.chunks_rebuilt,
                publish.runs_shared,
                publish.chunks_shared,
            ));
        }
        out
    }

    fn audit(&self) -> String {
        let report = self.db.audit();
        let mut out = String::new();
        for section in report.sections() {
            out.push_str(&format!(
                "{:<20} {:>7} checks  {:>3} violations  {:>10.3?}\n",
                section.backend, section.checks, section.violations, section.elapsed
            ));
        }
        if report.is_clean() {
            out.push_str(&format!(
                "clean: all {} invariant checks passed",
                report.checks()
            ));
        } else {
            for violation in report.violations() {
                out.push_str(&format!("VIOLATION {violation}\n"));
            }
            out.push_str(&format!(
                "CORRUPT: {} violation(s) across {} checks",
                report.violations().len(),
                report.checks()
            ));
        }
        out
    }

    /// The serving-health view: mode, epoch, sticky flush failures, and the
    /// durability section of the structural audit — what an operator checks
    /// before trusting this database behind a serving tier.
    fn health(&self) -> String {
        let stats = self.db.stats();
        let report = self.db.audit();
        let flush_failed = stats.storage.flush_failed;
        let writer_dead = report
            .violations()
            .iter()
            .any(|v| v.invariant == "writer accepts further updates");
        let mode = if flush_failed || writer_dead {
            "read-only (degraded) — writes will be rejected; reopen from durable state to recover"
        } else {
            "normal — reads and writes accepted"
        };
        let (checks, violations) = report
            .sections()
            .iter()
            .filter(|section| section.backend == "durability")
            .fold((0, 0), |(c, v), s| (c + s.checks, v + s.violations));
        let mut out = format!(
            "mode       : {mode}\n\
             epoch      : {}\n\
             flush      : {}\n\
             durability : {}",
            self.db.epoch(),
            if flush_failed {
                "FAILED (sticky) — durable state stopped advancing"
            } else {
                "ok"
            },
            if violations == 0 {
                format!("clean ({checks} checks)")
            } else {
                format!("{violations} violation(s) across {checks} checks")
            },
        );
        for violation in report.violations() {
            out.push_str(&format!("\nVIOLATION {violation}"));
        }
        out
    }

    /// Drills `n` point lookups (plus a quarter as many unbound scans)
    /// through an embedded two-worker serving tier over this database and
    /// reports latency percentiles and the tier's counters. The drill is
    /// read-only and the tier is dropped afterwards — the shell's database
    /// keeps serving.
    fn serve_stats(&self, n: usize) -> String {
        let graph = self.db.graph();
        let Some(label) = graph
            .labels()
            .next()
            .and_then(|l| graph.label_name(l).map(str::to_owned))
        else {
            return "the graph has no labels to drill queries through".to_owned();
        };
        let nodes = graph.node_count().max(1);
        drop(graph);

        let server = Server::new(
            Arc::clone(&self.db),
            ServeConfig {
                workers: 2,
                ..ServeConfig::default()
            },
        );
        let scans = n.div_ceil(4);
        let mut tickets = Vec::with_capacity(n + scans);
        for i in 0..n {
            let options = QueryOptions::with_strategy(self.strategy)
                .source(pathix::NodeId((i % nodes) as u32))
                .limit(16);
            if let Ok(ticket) = server.submit_query(&label, options) {
                tickets.push((Instant::now(), ticket));
            }
        }
        for _ in 0..scans {
            let options = QueryOptions::with_strategy(self.strategy);
            if let Ok(ticket) = server.submit_query(&label, options) {
                tickets.push((Instant::now(), ticket));
            }
        }

        let mut latencies_ms: Vec<f64> = Vec::with_capacity(tickets.len());
        for (submitted, ticket) in tickets {
            match ticket.wait() {
                Ok(reply) => latencies_ms
                    .push(reply.finished_at.duration_since(submitted).as_secs_f64() * 1e3),
                Err(e) => return format!("drill request failed: {e}"),
            }
        }
        latencies_ms.sort_by(|a, b| a.total_cmp(b));
        let percentile = |p: f64| -> f64 {
            if latencies_ms.is_empty() {
                return 0.0;
            }
            latencies_ms[((latencies_ms.len() - 1) as f64 * p).round() as usize]
        };
        let health = server.health();
        let counters = &health.counters;
        // Dropping the tier stops its workers without closing the shared
        // database (an owned `shutdown` would).
        drop(server);
        format!(
            "drill      : {n} point lookups + {scans} unbound scans on `{label}` through an \
             embedded 2-worker tier\n\
             latency    : p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms ({} answered)\n\
             counters   : {} submitted, {} answered, {} shed, {} deadline-exceeded, {} cancelled\n\
             in flight  : peak {} (queue now {}, executing {}), mode {:?}",
            percentile(0.50),
            percentile(0.99),
            percentile(1.0),
            latencies_ms.len(),
            counters.submitted,
            counters.queries_ok,
            counters.shed_overload,
            counters.deadline_exceeded,
            counters.cancelled,
            counters.max_in_flight,
            health.queue_depth,
            health.executing,
            health.mode,
        )
    }

    fn query(&self, query: &str) -> String {
        // Each line compiles and plans afresh: a few microseconds against
        // the evaluation, so the REPL keeps no prepared handles.
        match self
            .db
            .run(query, QueryOptions::with_strategy(self.strategy))
        {
            Ok(result) => {
                let mut out = format!(
                    "{} pairs in {:?} ({} joins, {} merge) under {}\n",
                    result.len(),
                    result.stats.elapsed,
                    result.stats.joins,
                    result.stats.merge_joins,
                    self.strategy
                );
                for (a, b) in result.named_pairs(&self.db).iter().take(self.limit) {
                    out.push_str(&format!("  ({a}, {b})\n"));
                }
                if result.len() > self.limit {
                    out.push_str(&format!("  … and {} more\n", result.len() - self.limit));
                }
                out
            }
            Err(e) => format!("error: {e}"),
        }
    }

    fn compare(&self, query: &str) -> String {
        // One compilation for all four strategies: prepare once, run each.
        let prepared = match self.db.prepare(query) {
            Ok(prepared) => prepared,
            Err(e) => return format!("error: {e}"),
        };
        let mut out = format!("{:<12} {:>12} {:>10}\n", "method", "time", "answers");
        let mut reference: Option<usize> = None;
        for strategy in Strategy::all() {
            match prepared.run(&self.db, QueryOptions::with_strategy(strategy)) {
                Ok(result) => {
                    out.push_str(&format!(
                        "{:<12} {:>12?} {:>10}\n",
                        strategy.to_string(),
                        result.stats.elapsed,
                        result.len()
                    ));
                    if let Some(expected) = reference {
                        if expected != result.len() {
                            out.push_str("  ^ answer count diverges from the previous strategy!\n");
                        }
                    }
                    reference = Some(result.len());
                }
                Err(e) => return format!("error: {e}"),
            }
        }
        for name in ["automaton", "datalog"] {
            let start = std::time::Instant::now();
            let outcome = if name == "automaton" {
                self.db.query_automaton(query)
            } else {
                self.db.query_datalog(query)
            };
            match outcome {
                Ok(pairs) => {
                    out.push_str(&format!(
                        "{:<12} {:>12?} {:>10}\n",
                        name,
                        start.elapsed(),
                        pairs.len()
                    ));
                }
                Err(e) => return format!("error: {e}"),
            }
        }
        out
    }
}

/// Command-line options (hand-rolled; the binary has no CLI dependency).
struct Options {
    dataset: String,
    graph_file: Option<String>,
    scale: f64,
    k: usize,
    backend: String,
    one_shot: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        dataset: "paper".to_owned(),
        graph_file: None,
        scale: 0.05,
        k: 3,
        backend: "memory".to_owned(),
        one_shot: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} expects a value"))
        };
        match arg.as_str() {
            "--dataset" => options.dataset = value("--dataset")?,
            "--graph" => options.graph_file = Some(value("--graph")?),
            "--scale" => {
                options.scale = value("--scale")?
                    .parse()
                    .map_err(|_| "--scale expects a number".to_owned())?;
            }
            "--k" => {
                options.k = value("--k")?
                    .parse()
                    .map_err(|_| "--k expects a positive integer".to_owned())?;
            }
            "--backend" => options.backend = value("--backend")?,
            "-q" | "--query" => options.one_shot.push(value("--query")?),
            "--help" | "-h" => {
                return Err(format!(
                    "usage: pathix_cli [--dataset paper|advogato|social] [--scale f] \
                     [--graph FILE] [--k n] [--backend memory|paged|compressed] [-q RPQ]...\n\n\
                     {HELP}"
                ));
            }
            other => return Err(format!("unknown option `{other}` — try --help")),
        }
    }
    if options.k == 0 {
        return Err("--k must be at least 1".to_owned());
    }
    Ok(options)
}

fn build_graph(options: &Options) -> Result<Graph, String> {
    if let Some(path) = &options.graph_file {
        return load_edge_list(path).map_err(|e| format!("cannot load {path}: {e}"));
    }
    match options.dataset.as_str() {
        "paper" => Ok(paper_example_graph()),
        "advogato" => Ok(advogato_like(AdvogatoConfig {
            scale: options.scale,
            ..Default::default()
        })),
        "social" => Ok(social_network(SocialConfig {
            people: ((options.scale * 10_000.0) as usize).max(50),
            companies: ((options.scale * 500.0) as usize).max(5),
            ..Default::default()
        })),
        other => Err(format!(
            "unknown dataset `{other}` — expected paper, advogato or social"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let graph = match build_graph(&options) {
        Ok(graph) => graph,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };

    println!(
        "pathix — RPQ evaluation with k-path indexes (k = {}, {} nodes, {} edges)",
        options.k,
        graph.node_count(),
        graph.edge_count()
    );
    let backend = match options.backend.as_str() {
        "memory" => BackendChoice::Memory,
        "paged" => BackendChoice::PagedInMemory { pool_frames: 256 },
        "compressed" => BackendChoice::Compressed,
        other => {
            eprintln!("unknown backend `{other}` — expected memory, paged or compressed");
            std::process::exit(2);
        }
    };
    let mut shell = Shell::with_backend(graph, options.k, backend);

    // One-shot mode: run the -q queries and exit.
    if !options.one_shot.is_empty() {
        for query in &options.one_shot {
            println!("> {query}");
            println!("{}", shell.run(Command::Query(query.clone())));
        }
        return;
    }

    println!("type \\help for commands, \\quit to leave\n");
    let stdin = io::stdin();
    loop {
        print!("pathix> ");
        io::stdout().flush().expect("stdout is writable");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let command = parse_command(&line);
        if command == Command::Quit {
            break;
        }
        let output = shell.run(command);
        if !output.is_empty() {
            println!("{output}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_parse_into_commands() {
        assert_eq!(parse_command("  "), Command::Nothing);
        assert_eq!(parse_command("# comment"), Command::Nothing);
        assert_eq!(parse_command("\\help"), Command::Help);
        assert_eq!(parse_command("\\quit"), Command::Quit);
        assert_eq!(parse_command("\\stats"), Command::Stats);
        assert_eq!(parse_command("\\k 2"), Command::SetK(2));
        assert_eq!(parse_command("\\limit 3"), Command::SetLimit(3));
        assert_eq!(
            parse_command("\\strategy minJoin"),
            Command::SetStrategy("minJoin".to_owned())
        );
        assert_eq!(
            parse_command("\\explain knows/worksFor"),
            Command::Explain("knows/worksFor".to_owned())
        );
        assert_eq!(
            parse_command("knows/(knows|worksFor)*"),
            Command::Query("knows/(knows|worksFor)*".to_owned())
        );
        assert_eq!(
            parse_command("\\update kim knows sue"),
            Command::Update("kim knows sue".to_owned())
        );
        assert_eq!(
            parse_command("\\add-edge ann likes bob"),
            Command::AddEdge("ann likes bob".to_owned())
        );
        assert_eq!(
            parse_command("\\delete-edge kim supervisor liz"),
            Command::DeleteEdge("kim supervisor liz".to_owned())
        );
        assert_eq!(parse_command("\\audit"), Command::Audit);
        assert_eq!(parse_command("\\health"), Command::Health);
        assert_eq!(parse_command("\\serve-stats"), Command::ServeStats(32));
        assert_eq!(parse_command("\\serve-stats 8"), Command::ServeStats(8));
        assert!(matches!(
            parse_command("\\serve-stats zero"),
            Command::Invalid(_)
        ));
        assert!(matches!(parse_command("\\k zero"), Command::Invalid(_)));
        assert!(matches!(parse_command("\\bogus"), Command::Invalid(_)));
        assert!(matches!(parse_command("\\explain"), Command::Invalid(_)));
        assert!(matches!(parse_command("\\update"), Command::Invalid(_)));
        assert!(matches!(parse_command("\\add-edge"), Command::Invalid(_)));
    }

    #[test]
    fn add_edge_interns_new_vocabulary_live() {
        let mut shell = Shell::new(paper_example_graph(), 2);
        // `\update` keeps rejecting unseen names; `\add-edge` interns them.
        let out = shell.run(Command::Update("ann likes bob".to_owned()));
        assert!(out.contains("unknown"), "{out}");
        let out = shell.run(Command::AddEdge("ann likes bob".to_owned()));
        assert!(
            out.contains("interned 2 new node(s) and 1 new label(s)"),
            "{out}"
        );
        let answers = shell.run(Command::Query("likes".to_owned()));
        assert!(answers.contains("(ann, bob)"), "{answers}");

        // Mixing existing and freshly interned vocabulary interns nothing
        // new, and duplicate inserts are no-ops.
        let out = shell.run(Command::AddEdge("kim likes bob".to_owned()));
        assert!(
            out.contains("interned 0 new node(s) and 0 new label(s)"),
            "{out}"
        );
        let out = shell.run(Command::AddEdge("ann likes bob".to_owned()));
        assert!(out.contains("no-op"), "{out}");
        let out = shell.run(Command::AddEdge("ann likes".to_owned()));
        assert!(out.contains("usage"), "{out}");

        // Once interned, the names work through the strict id-based path
        // too, and the audit stays clean.
        let out = shell.run(Command::DeleteEdge("kim likes bob".to_owned()));
        assert!(out.contains("deleted"), "{out}");
        let out = shell.run(Command::Audit);
        assert!(out.contains("clean"), "{out}");

        // `\stats` reports what the last graph publish re-shared vs rebuilt.
        let stats = shell.run(Command::Stats);
        assert!(stats.contains("graph-pub : "), "{stats}");
        assert!(!stats.contains("rebuilt 0 labels"), "{stats}");
    }

    #[test]
    fn live_updates_change_answers_in_the_shell() {
        let mut shell = Shell::new(paper_example_graph(), 2);
        let before = shell.run(Command::Query("supervisor/worksFor-".to_owned()));
        assert!(before.contains("(kim, sue)"), "{before}");

        let out = shell.run(Command::DeleteEdge("kim supervisor liz".to_owned()));
        assert!(out.contains("deleted") && out.contains("epoch 1"), "{out}");
        let after = shell.run(Command::Query("supervisor/worksFor-".to_owned()));
        assert!(after.contains("0 pairs"), "{after}");

        let out = shell.run(Command::Update("kim supervisor liz".to_owned()));
        assert!(out.contains("inserted") && out.contains("epoch 2"), "{out}");
        let restored = shell.run(Command::Query("supervisor/worksFor-".to_owned()));
        assert!(restored.contains("(kim, sue)"), "{restored}");

        // No-ops, bad names and bad arity are reported, not applied.
        let out = shell.run(Command::Update("kim supervisor liz".to_owned()));
        assert!(out.contains("no-op"), "{out}");
        let out = shell.run(Command::Update("kim likes liz".to_owned()));
        assert!(out.contains("unknown label"), "{out}");
        let out = shell.run(Command::Update("kim supervisor nobody".to_owned()));
        assert!(out.contains("unknown node"), "{out}");
        let out = shell.run(Command::Update("kim supervisor".to_owned()));
        assert!(out.contains("usage"), "{out}");
        let stats = shell.run(Command::Stats);
        assert!(stats.contains("epoch 2"), "{stats}");
    }

    #[test]
    fn compressed_shell_prints_the_publish_line_memory_prints() {
        let publish_line = |stats: &str| {
            stats
                .lines()
                .find(|line| line.starts_with("publish   : "))
                .map(str::to_owned)
        };
        let mut compressed =
            Shell::with_backend(paper_example_graph(), 2, BackendChoice::Compressed);
        let mut memory = Shell::new(paper_example_graph(), 2);
        for shell in [&mut compressed, &mut memory] {
            let out = shell.run(Command::Update("tim knows zoe".to_owned()));
            assert!(out.contains("inserted"), "{out}");
        }
        let stats = compressed.run(Command::Stats);
        assert!(stats.contains("compressed backend"), "{stats}");
        assert!(!stats.contains("overlay"), "{stats}");
        let line = publish_line(&stats);
        assert!(
            line.as_ref().is_some_and(|l| !l.contains("rebuilt 0 runs")),
            "{stats}"
        );
        // Same chunks, same publish: the line reads as memory's does.
        assert_eq!(line, publish_line(&memory.run(Command::Stats)));
    }

    #[test]
    fn paged_shell_reports_pool_and_cow_stats() {
        let mut shell = Shell::with_backend(
            paper_example_graph(),
            2,
            BackendChoice::PagedInMemory { pool_frames: 8 },
        );
        let stats = shell.run(Command::Stats);
        assert!(stats.contains("paged backend"), "{stats}");
        assert!(stats.contains("pool      : "), "{stats}");
        assert!(stats.contains("cow       : "), "{stats}");
        assert!(stats.contains("live snapshots"), "{stats}");

        // An update under a live snapshot copies pages; the counters move.
        let out = shell.run(Command::Update("tim knows zoe".to_owned()));
        assert!(out.contains("inserted"), "{out}");
        let stats = shell.run(Command::Stats);
        assert!(!stats.contains("cow       : 0 page copies"), "{stats}");

        // The memory backend prints publish sharing instead of pool lines.
        let mut memory = Shell::new(paper_example_graph(), 2);
        let mem_stats = memory.run(Command::Stats);
        assert!(!mem_stats.contains("pool      : "), "{mem_stats}");
        assert!(mem_stats.contains("publish   : "), "{mem_stats}");
        memory.run(Command::Update("tim knows zoe".to_owned()));
        let mem_stats = memory.run(Command::Stats);
        assert!(
            mem_stats.contains("shared") && !mem_stats.contains("shared 0 runs"),
            "an update must re-share untouched runs: {mem_stats}"
        );
    }

    #[test]
    fn audit_reports_clean_on_every_backend_after_updates() {
        for backend in [
            BackendChoice::Memory,
            BackendChoice::PagedInMemory { pool_frames: 8 },
            BackendChoice::Compressed,
        ] {
            let mut shell = Shell::with_backend(paper_example_graph(), 2, backend.clone());
            let out = shell.run(Command::Audit);
            assert!(out.contains("clean"), "{backend:?}: {out}");
            shell.run(Command::Update("tim knows zoe".to_owned()));
            let out = shell.run(Command::Audit);
            assert!(out.contains("clean"), "{backend:?} after update: {out}");
            assert!(out.contains("writer/"), "{backend:?}: {out}");
            assert!(out.contains("snapshot/"), "{backend:?}: {out}");
        }
    }

    #[test]
    fn health_reports_a_normal_mode_and_clean_durability() {
        let mut shell = Shell::new(paper_example_graph(), 2);
        let out = shell.run(Command::Health);
        assert!(out.contains("mode       : normal"), "{out}");
        assert!(out.contains("durability : clean"), "{out}");
        assert!(!out.contains("VIOLATION"), "{out}");
        // Health reflects the live epoch, not the build-time state.
        shell.run(Command::Update("tim knows zoe".to_owned()));
        let out = shell.run(Command::Health);
        assert!(out.contains("epoch      : 1"), "{out}");
    }

    #[test]
    fn serve_stats_drills_requests_through_an_embedded_tier() {
        let mut shell = Shell::new(paper_example_graph(), 2);
        let out = shell.run(Command::ServeStats(8));
        assert!(out.contains("8 point lookups + 2 unbound scans"), "{out}");
        assert!(out.contains("10 submitted, 10 answered, 0 shed"), "{out}");
        assert!(out.contains("mode Normal"), "{out}");
        // The drill borrowed the database; the shell still serves queries
        // and applies updates afterwards.
        let answers = shell.run(Command::Query("supervisor/worksFor-".to_owned()));
        assert!(answers.contains("(kim, sue)"), "{answers}");
        let out = shell.run(Command::Update("tim knows zoe".to_owned()));
        assert!(out.contains("inserted"), "{out}");
    }

    #[test]
    fn strategy_names_are_recognized_loosely() {
        assert_eq!(parse_strategy("naive"), Some(Strategy::Naive));
        assert_eq!(parse_strategy("semi-naive"), Some(Strategy::SemiNaive));
        assert_eq!(parse_strategy("semi_naive"), Some(Strategy::SemiNaive));
        assert_eq!(parse_strategy("MINSUPPORT"), Some(Strategy::MinSupport));
        assert_eq!(parse_strategy("minjoin"), Some(Strategy::MinJoin));
        assert_eq!(parse_strategy("greedy"), None);
    }

    #[test]
    fn session_answers_queries_and_commands() {
        let mut shell = Shell::new(paper_example_graph(), 2);
        let out = shell.run(Command::Query("supervisor/worksFor-".to_owned()));
        assert!(out.contains("1 pairs"), "unexpected output: {out}");
        assert!(out.contains("(kim, sue)"), "unexpected output: {out}");

        let out = shell.run(Command::SetStrategy("semi-naive".to_owned()));
        assert!(out.contains("semi-naive"));
        let out = shell.run(Command::Stats);
        assert!(out.contains("9 nodes") && out.contains("k = 2"), "{out}");

        let out = shell.run(Command::Explain("knows/knows/worksFor".to_owned()));
        assert!(out.contains("plan"), "{out}");
        let out = shell.run(Command::Plans("knows/knows".to_owned()));
        assert!(
            out.contains("naive plan") && out.contains("minJoin plan"),
            "{out}"
        );

        let out = shell.run(Command::Compare("knows/worksFor".to_owned()));
        assert!(
            out.contains("automaton") && out.contains("datalog"),
            "{out}"
        );

        let out = shell.run(Command::Query("not a query ///".to_owned()));
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn rebuilding_with_a_new_k_keeps_answers_correct() {
        let mut shell = Shell::new(paper_example_graph(), 1);
        let before = shell.run(Command::Query("knows/knows/worksFor".to_owned()));
        shell.run(Command::SetK(3));
        let after = shell.run(Command::Query("knows/knows/worksFor".to_owned()));
        let count = |s: &str| s.split(" pairs").next().unwrap().to_owned();
        assert_eq!(count(&before), count(&after));
    }

    #[test]
    fn options_parse_and_reject_unknown_flags() {
        let ok = parse_options(&[
            "--dataset".into(),
            "social".into(),
            "--scale".into(),
            "0.2".into(),
            "--k".into(),
            "2".into(),
            "-q".into(),
            "knows".into(),
        ])
        .unwrap();
        assert_eq!(ok.dataset, "social");
        assert_eq!(ok.k, 2);
        assert_eq!(ok.one_shot, vec!["knows".to_owned()]);
        assert!(parse_options(&["--nope".into()]).is_err());
        assert!(parse_options(&["--k".into(), "0".into()]).is_err());
        assert!(build_graph(&Options {
            dataset: "unknown".into(),
            graph_file: None,
            scale: 1.0,
            k: 1,
            backend: "memory".into(),
            one_shot: vec![],
        })
        .is_err());
    }
}
