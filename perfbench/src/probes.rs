//! Layer probes for the traced run: small fixed programs that load one
//! layer each, so a per-layer number does not depend on which workload
//! the run was asked for.

use crate::stats::median;
use crate::trace::Spans;
use crate::Metric;
use mpi_sections::{
    CommRecorder, PvarRegistry, SectionProfiler, SectionRuntime, SummaryTool, VerifyMode,
};
use mpisim::{Engine, EventKind, EventMask, MpiEvent, Tool, WorldBuilder};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PING_PONG_ROUND_TRIPS: usize = 100_000;
const SECTION_PAIRS: usize = 200_000;
const PARALLEL_FOR_CALLS: usize = 200_000;
/// Elements of one LULESH rank's block at p = 512 (6^3).
const PARALLEL_FOR_ITEMS: usize = 216;
const DISPATCH_STEPS: usize = 1000;
const DISPATCH_REPS: usize = 3;

/// The tools the dispatch probe attaches one at a time, with the metric
/// each one's cost is reported under.
const TOOLS: [(Attached, &str); 4] = [
    (
        Attached::Profiler,
        "mpisim.tool.dispatch_ns_per_event.profiler",
    ),
    (
        Attached::Recorder,
        "mpisim.tool.dispatch_ns_per_event.recorder",
    ),
    (Attached::Pvar, "mpisim.tool.dispatch_ns_per_event.pvar"),
    (
        Attached::Summary,
        "mpisim.tool.dispatch_ns_per_event.summary",
    ),
];

#[derive(Clone, Copy)]
enum Attached {
    Bare,
    Profiler,
    Recorder,
    Pvar,
    Summary,
}

/// Run every probe. `attempt` counts each probe as an operation and
/// turns a failed one into NaN.
pub fn measure(
    seed: u64,
    spans: &Spans,
    attempt: &mut dyn FnMut(&str, Result<f64, String>) -> f64,
) -> Vec<Metric> {
    let empty = |p, reps| {
        median_of(reps, || {
            spans.span("probe.world.empty", || timed_world(p, seed, false))
        })
    };
    let one_allreduce = |p, reps| {
        median_of(reps, || {
            spans.span("probe.collective.allreduce", || timed_world(p, seed, true))
        })
    };
    let w1k = attempt("empty world", empty(1024, 5));
    let w4k = attempt("empty world", empty(4096, 3));
    let w16k = attempt("empty world", empty(16384, 2));
    let a4k = attempt("allreduce", one_allreduce(4096, 3)) - w4k;
    let a16k = attempt("allreduce", one_allreduce(16384, 2)) - w16k;
    let mut m = vec![
        ("mpisim.world.empty_s.p1024", w1k, "s"),
        ("mpisim.world.empty_s.p4096", w4k, "s"),
        ("mpisim.world.empty_s.p16384", w16k, "s"),
        ("mpisim.world.growth_16k_4k", w16k / w4k, "ratio"),
        ("mpisim.collective.allreduce_s.p4096", a4k, "s"),
        ("mpisim.collective.allreduce_s.p16384", a16k, "s"),
        (
            "mpisim.collective.allreduce_growth_16k_4k",
            a16k / a4k,
            "ratio",
        ),
        (
            "mpisim.fiber.switch_ns",
            attempt(
                "ping-pong",
                spans.span("probe.fiber.ping_pong", ping_pong_ns),
            ),
            "ns",
        ),
        (
            "core.section.pair_ns.bare",
            attempt(
                "section pairs",
                spans.span("probe.section.pair", || section_pair_ns(false)),
            ),
            "ns",
        ),
        (
            "core.section.pair_ns.profiled",
            attempt(
                "section pairs",
                spans.span("probe.section.pair", || section_pair_ns(true)),
            ),
            "ns",
        ),
        (
            "shmem.parallel_for_ns",
            attempt(
                "parallel_for",
                spans.span("probe.shmem.parallel_for", parallel_for_ns),
            ),
            "ns",
        ),
    ];
    let per_tool = match spans.span("probe.tool.dispatch", || dispatch(seed)) {
        Ok(per_tool) => {
            attempt("tool dispatch", Ok(0.0));
            per_tool.map(Some)
        }
        Err(e) => {
            attempt("tool dispatch", Err(e));
            [None; 4]
        }
    };
    for ((_, name), cost) in TOOLS.iter().zip(per_tool) {
        m.push((name, cost.map_or(f64::NAN, |c| c.0), "ns"));
    }
    let clamped = per_tool.iter().flatten().filter(|c| c.1).count();
    m.push(("mpisim.tool.dispatch_clamped", clamped as f64, "count"));
    m
}

/// Median of `reps` runs of `f`.
fn median_of(reps: usize, mut f: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut t = (0..reps).map(|_| f()).collect::<Result<Vec<_>, _>>()?;
    Ok(median(&mut t))
}

/// Seconds of one world of `p` ranks doing nothing, or one scalar
/// allreduce whose result every rank checks.
fn timed_world(p: usize, seed: u64, allreduce: bool) -> Result<f64, String> {
    let start = Instant::now();
    let report = WorldBuilder::new(p)
        .engine(Engine::Des)
        .seed(seed)
        .run(move |pr| {
            if allreduce {
                pr.world().allreduce_sum_f64(pr, 1.0)
            } else {
                p as f64
            }
        })
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();
    if report.results.iter().any(|&r| r != p as f64) {
        return Err(format!("allreduce over {p} ranks returned a wrong sum"));
    }
    Ok(elapsed)
}

/// Host ns per hop of a two-rank ping-pong: one fiber switch plus one
/// matched message.
fn ping_pong_ns() -> Result<f64, String> {
    let start = Instant::now();
    let report = WorldBuilder::new(2)
        .engine(Engine::Des)
        .run(|pr| {
            let world = pr.world();
            let me = pr.world_rank();
            let mut got = 0u64;
            for i in 0..PING_PONG_ROUND_TRIPS as u64 {
                if me == 0 {
                    world.send(pr, 1, 0, &[i]);
                    got += world
                        .recv::<u64>(pr, mpisim::Src::Rank(1), mpisim::TagSel::Is(0))
                        .data[0];
                } else {
                    let m = world.recv::<u64>(pr, mpisim::Src::Rank(0), mpisim::TagSel::Is(0));
                    world.send(pr, 0, 0, &[m.data[0] + 1]);
                }
            }
            got
        })
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_nanos() as f64;
    let n = PING_PONG_ROUND_TRIPS as u64;
    if report.results[0] != n * (n + 1) / 2 {
        return Err("ping-pong returned a wrong sum".into());
    }
    Ok(elapsed / (2 * PING_PONG_ROUND_TRIPS) as f64)
}

/// Host ns per empty section enter/exit pair on one rank.
fn section_pair_ns(profiled: bool) -> Result<f64, String> {
    let sections = SectionRuntime::new(VerifyMode::Off);
    let profiler = SectionProfiler::new();
    if profiled {
        sections.attach(profiler.clone());
    }
    let s = sections.clone();
    let start = Instant::now();
    WorldBuilder::new(1)
        .engine(Engine::Des)
        .tool(sections)
        .run(move |pr| {
            let world = pr.world();
            for _ in 0..SECTION_PAIRS {
                s.scoped(pr, &world, "PAIR", |_| {});
            }
        })
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_nanos() as f64;
    if profiled {
        let instances = profiler.snapshot().get_world("PAIR").map(|s| s.instances);
        if instances != Some(SECTION_PAIRS as u64) {
            return Err(format!("profiler saw {instances:?} section pairs"));
        }
    }
    Ok(elapsed / SECTION_PAIRS as f64)
}

/// Host ns per timing-only `parallel_for` region over one LULESH block at
/// four threads.
fn parallel_for_ns() -> Result<f64, String> {
    let start = Instant::now();
    WorldBuilder::new(1)
        .engine(Engine::Des)
        .machine(machine::presets::knl())
        .run(|pr| {
            let team = shmem::Team::new(4);
            let work = lulesh_proxy::physics::elem_work(100.0);
            let mut total = 0.0;
            for _ in 0..PARALLEL_FOR_CALLS {
                total += team.for_cost_uniform(pr, PARALLEL_FOR_ITEMS, work);
            }
            std::hint::black_box(total)
        })
        .map_err(|e| e.to_string())?;
    Ok(start.elapsed().as_nanos() as f64 / PARALLEL_FOR_CALLS as f64)
}

const KINDS: [EventKind; 13] = [
    EventKind::Init,
    EventKind::Finalize,
    EventKind::CallEnter,
    EventKind::CallExit,
    EventKind::SectionEnter,
    EventKind::SectionLeave,
    EventKind::Pcontrol,
    EventKind::SendEnqueued,
    EventKind::RecvBlocked,
    EventKind::RecvMatched,
    EventKind::CollectiveEnter,
    EventKind::CollectiveExit,
    EventKind::Compute,
];

/// Counts every event by kind.
struct Counter([AtomicU64; 13]);

impl Tool for Counter {
    fn on_event(&self, _world_rank: usize, event: &MpiEvent) {
        self.0[event.kind() as usize].fetch_add(1, Ordering::Relaxed);
    }
}

/// Seconds of the dispatch probe's convolution with `attached` alone (the
/// section runtime is always there: the program needs it).
fn conv_with(attached: Attached, seed: u64, extra: Option<Arc<dyn Tool>>) -> Result<f64, String> {
    let sections = SectionRuntime::new(VerifyMode::Active);
    let mut builder = WorldBuilder::new(crate::workloads::CONV64_P)
        .engine(Engine::Des)
        .machine(machine::presets::nehalem_cluster())
        .seed(seed)
        .tool(sections.clone());
    let tool: Option<Arc<dyn Tool>> = match attached {
        Attached::Bare => extra,
        Attached::Profiler => {
            sections.attach(SectionProfiler::new());
            None
        }
        Attached::Recorder => Some(CommRecorder::new()),
        Attached::Pvar => Some(PvarRegistry::new()),
        Attached::Summary => Some(SummaryTool::new()),
    };
    if let Some(tool) = tool {
        builder = builder.tool(tool);
    }
    let cfg = Arc::new(convolution::ConvConfig::paper(DISPATCH_STEPS));
    let start = Instant::now();
    builder
        .run(move |pr| {
            convolution::run_convolution(pr, &sections, &cfg);
        })
        .map_err(|e| e.to_string())?;
    Ok(start.elapsed().as_secs_f64())
}

/// The events a tool subscribing to `mask` is delivered, from per-kind
/// counts.
fn delivered(counts: &[u64; 13], mask: EventMask) -> u64 {
    KINDS
        .iter()
        .filter(|&&k| mask.contains(k))
        .map(|&k| counts[k as usize])
        .sum()
}

/// Per-tool dispatch cost: the wall-time delta of attaching each tool
/// alone to the p = 64 convolution, over the events that tool receives,
/// clamped at 0, and whether it was clamped.
fn dispatch(seed: u64) -> Result<[(f64, bool); 4], String> {
    let counter = Arc::new(Counter(Default::default()));
    conv_with(Attached::Bare, seed, Some(counter.clone()))?;
    let counts: [u64; 13] = std::array::from_fn(|i| counter.0[i].load(Ordering::Relaxed));

    let mut bare = Vec::new();
    let mut with: [Vec<f64>; 4] = Default::default();
    for _ in 0..DISPATCH_REPS {
        bare.push(conv_with(Attached::Bare, seed, None)?);
        for (i, (tool, _)) in TOOLS.iter().enumerate() {
            with[i].push(conv_with(*tool, seed, None)?);
        }
    }
    let bare = median(&mut bare);
    let sections = EventMask::of(&[EventKind::SectionEnter, EventKind::SectionLeave]);
    let mut out = [(0.0, false); 4];
    for (i, (tool, _)) in TOOLS.iter().enumerate() {
        let mask = match tool {
            Attached::Profiler => sections,
            Attached::Recorder => CommRecorder::new().interests(),
            Attached::Pvar => PvarRegistry::new().interests(),
            _ => SummaryTool::new().interests(),
        };
        let delta_ns = (median(&mut with[i]) - bare) * 1e9;
        let per_event = delta_ns / delivered(&counts, mask).max(1) as f64;
        out[i] = (per_event.max(0.0), per_event < 0.0);
    }
    Ok(out)
}
