//! One run of one workload: its own phase at full size and the other
//! phases at reference size, so that every metric is measured on every
//! workload and a workload is a traffic mix, not a different program.

use crate::env::{rss_peak_mb, Env, Tally};
use crate::metrics::Values;
use crate::phase::{Phase, PASSES};
use crate::sizing::{PhaseSize, Role, QUERY_POOL};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{card, ingest, inputs, layers, probe, serve};
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig2Enumerate,
    ProbeDisk,
    IngestDurable,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fig2Enumerate,
        Workload::ProbeDisk,
        Workload::IngestDurable,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Enumerate => "fig2-enumerate",
            Workload::ProbeDisk => "probe-disk",
            Workload::IngestDurable => "ingest-durable",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; known: {}", known.join(", "))
            })
    }

    /// Why the workload exists, as `BENCHMARK.json` words it.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig2Enumerate => "The paper's Figure 2: A1-A8 prepared, memory backend, full materialization; joins and scans do all the work, front end, storage and write path none",
            Workload::ProbeDisk => "Example 3.1's lookup shapes through PathDb::run on an on-disk index 12x its pool: pool misses, plan-cache misses and the un-pushed-down binding dominate, joins do little",
            Workload::IngestDurable => "The whole apply path with real durability over several checkpoint cycles, then an abandoned writer and a reopen: the only workload that writes index, pages and graph",
            Workload::ServeMixed => "Both mixes at once, open loop, through the 2-worker serving tier on an index that fits its pool: a write-path gain that costs readers, or the reverse, shows only here",
        }
    }
}

/// Settings of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Outcome {
    pub values: Values,
    pub tally: Tally,
    /// Fingerprint of the generated inputs: equal for equal seeds.
    pub inputs: u64,
    pub trace_file: Option<PathBuf>,
    /// Traced runs: self time per span name, ns.
    pub self_ns: Vec<(&'static str, u64)>,
    /// Wall seconds of each phase, verification included, in first-run order.
    pub phase_seconds: Vec<(&'static str, f64)>,
}

/// Wall seconds per phase, accumulated over its slices, in first-run order.
#[derive(Default)]
struct Clock(Vec<(&'static str, f64)>);

impl Clock {
    fn time<T>(
        &mut self,
        name: &'static str,
        work: impl FnOnce() -> Result<T, String>,
    ) -> Result<T, String> {
        let started = Instant::now();
        let out = work().map_err(|e| format!("{name}: {e}"));
        let elapsed = started.elapsed().as_secs_f64();
        match self.0.iter_mut().find(|(known, _)| *known == name) {
            Some((_, total)) => *total += elapsed,
            None => self.0.push((name, elapsed)),
        }
        out
    }
}

fn phase_size(spec: &RunSpec, native: bool) -> PhaseSize {
    PhaseSize::new(
        spec.seconds,
        if native {
            Role::Native
        } else {
            Role::Reference
        },
        spec.smoke,
    )
}

pub fn run(spec: RunSpec) -> Result<Outcome, String> {
    let env =
        Env::new(spec.seed, spec.smoke).map_err(|e| format!("creating benchmark/out: {e}"))?;
    let inputs = inputs::hash_lookups(&inputs::lookup_ops(
        &env.dataset,
        spec.seed,
        "lookups",
        QUERY_POOL,
        1_000,
    )) ^ inputs::hash_batches(&inputs::update_batches(
        &env.dataset,
        spec.seed,
        "ingest",
        100,
        &[],
    ));
    let mut outcome = Outcome {
        values: Values::default(),
        tally: Tally::default(),
        inputs,
        trace_file: None,
        self_ns: Vec::new(),
        phase_seconds: Vec::new(),
    };
    if spec.trace {
        traced(&spec, &env, &mut outcome)?;
    } else {
        untraced(&spec, &env, &mut outcome)?;
    }
    Ok(outcome)
}

/// The end-to-end pass: the workload's own phase and the other closed-loop
/// phases, in interleaved slices (see [`crate::phase`]).
fn untraced(spec: &RunSpec, env: &Env, outcome: &mut Outcome) -> Result<(), String> {
    let Outcome { values, tally, .. } = outcome;
    let mut clock = Clock::default();
    let start = |phase: Workload| -> Result<Box<dyn Phase>, String> {
        let native = phase == spec.workload;
        let size = phase_size(spec, native);
        Ok(match phase {
            Workload::Fig2Enumerate => Box::new(card::CardPhase::start(env, &size, native)?),
            Workload::ProbeDisk => Box::new(probe::ProbePhase::start(env, &size)?),
            Workload::IngestDurable => Box::new(ingest::IngestPhase::start(env, &size)?),
            Workload::ServeMixed => return Err("the served phase has no slices".into()),
        })
    };
    // The workload's own phase starts alone, so that the memory peak after
    // its first slice is its own (`VmHWM` never falls).
    let mut phases: Vec<(Workload, Box<dyn Phase>)> = Vec::new();
    let own = spec.workload;
    if own == Workload::ServeMixed {
        // No end-to-end metric lives in the served phase (its latencies do
        // not repeat): the open loop runs in one piece, at reference length,
        // for `failed`, the tier's set-up time and its memory peak.
        let mut size = phase_size(spec, true);
        size.serve_seconds = phase_size(spec, false).serve_seconds;
        let setups = clock.time(own.name(), || serve::measure(env, &size, tally))?;
        values.set("setup_s", median(&setups));
        values.set("rss_peak_mb", rss_peak_mb());
    } else {
        let mut phase = clock.time(own.name(), || start(own))?;
        clock.time(own.name(), || phase.pass(env, 0, tally))?;
        values.set("rss_peak_mb", phase.rss_mark().unwrap_or_else(rss_peak_mb));
        phases.push((own, phase));
    }
    for other in [
        Workload::Fig2Enumerate,
        Workload::ProbeDisk,
        Workload::IngestDurable,
    ] {
        if other != own {
            let mut phase = clock.time(other.name(), || start(other))?;
            clock.time(other.name(), || phase.pass(env, 0, tally))?;
            phases.push((other, phase));
        }
    }
    for i in 1..PASSES {
        for (workload, phase) in &mut phases {
            clock.time(workload.name(), || phase.pass(env, i, tally))?;
        }
    }
    for (workload, phase) in phases {
        let setups = clock.time(workload.name(), || phase.finish(env, values, tally))?;
        if workload == own {
            values.set("setup_s", median(&setups));
        }
    }
    outcome.phase_seconds = clock.0;
    Ok(())
}

/// The per-layer pass: all four phases decomposed, one after the other, the
/// workload's own first and at full size, then the storage layers alone.
fn traced(spec: &RunSpec, env: &Env, outcome: &mut Outcome) -> Result<(), String> {
    let Outcome { values, tally, .. } = outcome;
    let mut clock = Clock::default();
    let mut tracer = Tracer::default();
    let mut order = vec![spec.workload];
    order.extend(Workload::ALL.into_iter().filter(|&w| w != spec.workload));
    for phase in order {
        let native = phase == spec.workload;
        let size = phase_size(spec, native);
        clock.time(phase.name(), || match phase {
            Workload::Fig2Enumerate => card::trace(env, &size, native, &mut tracer, values, tally),
            Workload::ProbeDisk => probe::trace(env, &size, native, &mut tracer, values, tally),
            Workload::IngestDurable => {
                ingest::trace(env, &size, native, &mut tracer, values, tally)
            }
            Workload::ServeMixed => serve::trace(env, &size, native, &mut tracer, values, tally),
        })?;
    }
    clock.time("layers", || layers::trace(env, &mut tracer, values, tally))?;
    let trace_file = crate::env::out_dir().join(format!("trace-{}.json", spec.workload.name()));
    tracer
        .write_json(&trace_file)
        .map_err(|e| format!("writing {}: {e}", trace_file.display()))?;
    outcome.trace_file = Some(trace_file);
    outcome.self_ns = tracer.self_ns_by_name().into_iter().collect();
    outcome.phase_seconds = clock.0;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_selection_by_name() {
        for workload in Workload::ALL {
            assert_eq!(Workload::parse(workload.name()), Ok(workload));
            assert!(workload.why().len() <= 200, "{}", workload.name());
        }
        assert_eq!(Workload::parse("probe-disk"), Ok(Workload::ProbeDisk));
        let err = Workload::parse("probe").unwrap_err();
        assert!(err.contains("serve-mixed"), "{err}");
    }
}
