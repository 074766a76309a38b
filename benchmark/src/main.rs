//! The pathix benchmark.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` makes one run
//! and ends with one JSON result line (end-to-end metrics untraced,
//! per-layer metrics traced). Without `--workload` the command re-executes
//! itself once per workload and pass, sequentially, and prints every metric
//! of the four workloads by name; `--repeat N` does that N times over N
//! seeds and prints the noise calibration; `--smoke` shrinks everything to
//! a few seconds. See README.md.

mod card;
mod env;
mod ingest;
mod inputs;
mod layers;
mod metrics;
mod phase;
mod probe;
mod report;
mod rng;
mod run;
mod serve;
mod sizing;
mod stats;
mod sut;
mod trace;

use run::{RunSpec, Workload};
use std::process::ExitCode;

/// `run_seconds` of BENCHMARK.json: what the sizing was calibrated for.
const DEFAULT_SECONDS: f64 = 24.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: usize,
    describe: Option<Describe>,
}

/// `--describe`: print the registry as BENCHMARK.json or as README's
/// glossary instead of measuring, so neither is maintained by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Describe {
    Json,
    Markdown,
}

/// `command` of BENCHMARK.json.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

const USAGE: &str =
    "usage: pathix-benchmark [--workload <fig2-enumerate|probe-disk|ingest-durable|serve-mixed>] \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <n>] [--smoke] [--describe <json|markdown>]";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: 1,
        describe: None,
    };
    let mut args = args;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(Workload::parse(&value("a workload name")?)?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if parsed.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => parsed.smoke = true,
            "--describe" => {
                parsed.describe = Some(match value("json or markdown")?.as_str() {
                    "json" => Describe::Json,
                    "markdown" => Describe::Markdown,
                    other => {
                        return Err(format!("--describe takes json or markdown, not {other:?}"))
                    }
                })
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// One run in this process; the result line is the last thing printed.
fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let spec = RunSpec {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let started = std::time::Instant::now();
    let outcome = match run::run(spec) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(2);
        }
    };
    let registry: &'static [metrics::Metric] = if args.trace {
        &metrics::PER_LAYER
    } else {
        &metrics::END_TO_END
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores, {:.1} s wall)",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        started.elapsed().as_secs_f64()
    );
    println!(
        "inputs {:016x} (equal seeds give equal inputs)",
        outcome.inputs
    );
    let phases: Vec<String> = outcome
        .phase_seconds
        .iter()
        .map(|(name, s)| format!("{name} {s:.1} s"))
        .collect();
    println!("phases: {}", phases.join(", "));
    print!("{}", report::table(&outcome.values, registry));
    if let Some(file) = &outcome.trace_file {
        println!("self time by span (span minus its children), ms:");
        for (name, ns) in &outcome.self_ns {
            println!("  {name:<40} {:>14.3}", *ns as f64 / 1e6);
        }
        println!("spans written to {}", file.display());
    }
    if let Some(coverage) = outcome.values.get("trace.coverage") {
        if !(0.8..=1.2).contains(&coverage) {
            println!(
                "warning: trace.coverage {coverage:.3} is outside [0.8, 1.2] on {}",
                workload.name()
            );
        }
    }
    if let Some(lag) = outcome.values.get("serve.generator_lag_p99_us") {
        if lag > sizing::MAX_GENERATOR_LAG_US {
            println!("warning: the open-loop generator ran {lag:.0} us late at its 99th percentile; read latencies include that wait");
        }
    }
    for note in &outcome.tally.notes {
        println!("failed: {note}");
    }
    match report::result_line(&outcome, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(2);
        }
    }
    if outcome.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Re-executes this program for one run and reads its result line back.
/// One process per run keeps one workload's memory peak out of the next.
fn run_child(
    args: &Args,
    workload: Workload,
    seed: u64,
    trace: bool,
) -> Result<report::Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // Failure notes and warnings of the run, not its per-run table.
    for line in stdout
        .lines()
        .filter(|l| l.starts_with("failed:") || l.starts_with("warning:"))
    {
        println!("  [{} seed {seed}] {line}", workload.name());
    }
    let last = stdout.lines().last().unwrap_or_default();
    report::parse_result_line(last)
        .map_err(|e| format!("{} exited with {}: {e}", workload.name(), output.status))
}

/// All four workloads, untraced then traced, `repeat` times over
/// consecutive seeds.
fn run_all(args: &Args) -> ExitCode {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let mut samples = report::Samples::new();
    let (mut attempted, mut failed, mut incorrect) = (0u64, 0u64, 0usize);
    for rep in 0..args.repeat {
        let seed = args.seed + rep as u64;
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            for trace in [false, true] {
                match run_child(args, workload, seed, trace) {
                    Ok(parsed) => {
                        attempted += parsed.attempted;
                        failed += parsed.failed;
                        incorrect += usize::from(!parsed.correct);
                        for (name, value) in parsed.values {
                            samples.entry((w, name)).or_default().push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("benchmark failed: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
        }
    }
    println!(
        "pathix benchmark: seed {}{} seconds {} repeat {} ({} cores)",
        args.seed,
        if args.smoke { " smoke" } else { "" },
        args.seconds,
        args.repeat,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if args.repeat > 1 {
        print!("{}", report::calibration(&samples, &names));
    } else {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            println!("\n== {} — {}", workload.name(), workload.why());
            for (title, registry) in [
                ("end to end (untraced)", &metrics::END_TO_END[..]),
                ("per layer (traced)", &metrics::PER_LAYER[..]),
            ] {
                println!("-- {title}");
                for metric in registry {
                    if let Some(v) = samples.get(&(w, metric.name.to_owned())) {
                        println!("  {:<40} {:>16} {}", metric.name, v[0], metric.unit);
                    }
                }
            }
        }
    }
    println!(
        "\nattempted {attempted} failed {failed} failed_frac {}",
        failed as f64 / attempted.max(1) as f64
    );
    if failed == 0 && incorrect == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match (args.describe, args.workload) {
        (Some(Describe::Json), _) => {
            let workloads: Vec<_> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
            print!(
                "{}",
                metrics::benchmark_json(&COMMAND, DEFAULT_SECONDS as u32, &workloads)
            );
            ExitCode::SUCCESS
        }
        (Some(Describe::Markdown), _) => {
            print!("{}", metrics::glossary());
            ExitCode::SUCCESS
        }
        (None, Some(workload)) => run_one(&args, workload),
        (None, None) => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn driver_arguments_select_one_run() {
        let args = parse("--workload ingest-durable --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(args.workload, Some(Workload::IngestDurable));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 7.0, true));
        assert!(!args.smoke);
    }

    #[test]
    fn defaults_run_everything_once() {
        let args = parse("--seed 3").unwrap();
        assert_eq!(args.workload, None);
        assert_eq!(
            (args.repeat, args.seconds, args.trace),
            (1, DEFAULT_SECONDS, false)
        );
        assert!(parse("--smoke --repeat 5").unwrap().smoke);
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--repeat 0").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}
