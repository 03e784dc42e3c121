//! The four workloads, each driven through the public entry points the
//! `profile` and `study` commands use.
//!
//! Every world is pinned to the DES engine, so `MPISIM_ENGINE` cannot
//! switch it. All times are host time; simulated time is only fingerprinted.

use crate::stats::median;
use crate::trace::{GapTool, Spans};
use machine::MachineModel;
use mpi_sections::{
    classify, critpath, fasthash, render, render_bounds, timeline, CommRecorder, PvarRegistry,
    ReportOptions, SectionProfiler, SectionRuntime, SummaryTool, VerifyMode, WhatIfSpec, Windowing,
    MPI_MAIN,
};
use mpisim::{Engine, RunError, RunReport, Tool, WorldBuilder};
use mpistudy::config::{machine_fingerprint, resolve_machine, GridSpec};
use mpistudy::{report, run_sweep, CellConfig, RunDoc, RunStore};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

pub const CONV64_P: usize = 64;
const CONV64_WINDOWS: usize = 8;
const LULESH_P: usize = 512;
const LULESH_THREADS: usize = 4;
const STUDY_MACHINE: &str = "nehalem_cluster";
const STUDY_PS: &str = "1,2,4,8,16,32,64,128,256";
const STUDY_STEPS: usize = 400;
const STUDY_SEEDS: u64 = 16;
const STUDY_JOBS: usize = 2;
/// Where temporary stores live, relative to the working directory.
const TMP_DIR: &str = ".perfbench_tmp";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Conv16k,
    Conv64Analyze,
    Lulesh512x4,
    StudySweep,
}

/// One workload invocation: its host times and what it simulated.
pub struct Invocation {
    /// The simulation phase: `WorldBuilder::run` (world build included),
    /// or store set-up plus the cold sweep.
    pub run_s: f64,
    /// Everything after the simulation phase returns: the median of
    /// [`Workload::analysis_reps`] passes when untraced.
    pub analysis_s: f64,
    /// The simulation phase plus one analysis pass.
    pub wall_s: f64,
    /// Simulated rank-steps (p x steps or iterations, summed over worlds).
    pub rank_steps: f64,
    /// Simulated makespan in ns (summed over cells for the sweep).
    pub makespan_ns: u64,
    /// FNV-1a over the makespan, the per-section totals and the summary,
    /// metrics or report JSON.
    pub fingerprint: String,
    pub recorder_events: u64,
    pub summary_state_bytes: u64,
    /// Filled by a traced sweep only.
    pub study: Option<StudyStats>,
}

/// What the traced sweep measured inside `mpistudy`.
pub struct StudyStats {
    pub executed: usize,
    pub cache_hit_ratio: f64,
    pub cached_s: f64,
    pub busy_ratio: f64,
    pub insert_ms: f64,
    pub load_ms: f64,
}

/// A simulation workload: one world and its tools.
struct Sim {
    p: usize,
    /// Convolution steps or LULESH iterations.
    steps: usize,
    machine: MachineModel,
    lulesh: bool,
    summary: bool,
    recorder: bool,
}

/// The tools one simulation workload attaches.
struct Tools {
    sections: Arc<SectionRuntime>,
    profiler: Arc<SectionProfiler>,
    summary: Option<Arc<SummaryTool>>,
    recorder: Option<Arc<CommRecorder>>,
    pvar: Option<Arc<PvarRegistry>>,
}

/// What one post-run analysis pass produced.
struct PostRun {
    /// The per-section totals and the summary or metrics JSON.
    output: String,
    recorder_events: u64,
    summary_state_bytes: u64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Conv16k,
        Workload::Conv64Analyze,
        Workload::Lulesh512x4,
        Workload::StudySweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Conv16k => "conv-16k",
            Workload::Conv64Analyze => "conv-64-analyze",
            Workload::Lulesh512x4 => "lulesh-512x4",
            Workload::StudySweep => "study-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn sim(self) -> Option<Sim> {
        let (p, steps, machine) = match self {
            Workload::Conv16k => (16384, 60, machine::presets::ideal()),
            Workload::Conv64Analyze => (CONV64_P, 3000, machine::presets::nehalem_cluster()),
            Workload::Lulesh512x4 => (LULESH_P, 60, machine::presets::knl()),
            Workload::StudySweep => return None,
        };
        Some(Sim {
            p,
            steps,
            machine,
            lulesh: self == Workload::Lulesh512x4,
            summary: self == Workload::Conv16k,
            recorder: self == Workload::Conv64Analyze,
        })
    }

    /// Set-up measurements per round, so that a sub-millisecond set-up
    /// still has a stable median.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Conv16k => 1,
            Workload::Lulesh512x4 => 40,
            _ => 100,
        }
    }

    /// Post-run analysis passes per untraced invocation, for the same
    /// reason.
    fn analysis_reps(self) -> usize {
        match self {
            Workload::Conv16k => 5,
            Workload::Conv64Analyze => 1,
            Workload::Lulesh512x4 => 50,
            Workload::StudySweep => 10,
        }
    }

    /// One set-up measurement: an empty-body `WorldBuilder::run` with the
    /// workload's p, machine and tools, or for the sweep the store open,
    /// grid expansion and machine resolution.
    pub fn setup(self, seed: u64) -> Result<f64, String> {
        let Some(sim) = self.sim() else {
            let tmp = TempStore::new()?;
            let start = Instant::now();
            study_setup(&tmp, seed)?;
            return Ok(start.elapsed().as_secs_f64());
        };
        let start = Instant::now();
        let (builder, _tools) = sim.world(seed);
        builder.run(|_| {}).map_err(|e| e.to_string())?;
        Ok(start.elapsed().as_secs_f64())
    }

    /// Run the whole workload once, inside a span named after it. With
    /// `gap`, the attribution tool is attached to every world the workload
    /// simulates.
    pub fn invoke(
        self,
        seed: u64,
        spans: &Spans,
        gap: Option<&Arc<GapTool>>,
    ) -> Result<Invocation, String> {
        spans.span(self.name(), || self.invoke_unspanned(seed, spans, gap))
    }

    fn invoke_unspanned(
        self,
        seed: u64,
        spans: &Spans,
        gap: Option<&Arc<GapTool>>,
    ) -> Result<Invocation, String> {
        let Some(sim) = self.sim() else {
            return study_invoke(seed, spans, gap, self.analysis_reps());
        };
        let start = Instant::now();
        let (mut builder, tools) = sim.world(seed);
        if let Some(gap) = gap {
            builder = builder.tool(gap.clone() as Arc<dyn Tool>);
        }
        let report = spans
            .span("mpisim.run", || sim.run(builder, &tools))
            .map_err(|e| e.to_string())?;
        let run_s = start.elapsed().as_secs_f64();
        let makespan_ns = report.makespan.0;

        let after = Instant::now();
        let post = sim.post_run(&tools, seed, spans)?;
        let mut analysis = vec![after.elapsed().as_secs_f64()];
        let wall_s = start.elapsed().as_secs_f64();
        if !spans.on() {
            for _ in 1..self.analysis_reps() {
                let again = Instant::now();
                sim.post_run(&tools, seed, spans)?;
                analysis.push(again.elapsed().as_secs_f64());
            }
        }
        Ok(Invocation {
            run_s,
            analysis_s: median(&mut analysis),
            wall_s,
            rank_steps: (sim.p * sim.steps) as f64,
            makespan_ns,
            fingerprint: fasthash::fnv1a_hex(&format!("{makespan_ns}\n{}", post.output)),
            recorder_events: post.recorder_events,
            summary_state_bytes: post.summary_state_bytes,
            study: None,
        })
    }
}

impl Sim {
    /// The world with its tools attached, not yet run.
    fn world(&self, seed: u64) -> (WorldBuilder, Tools) {
        let sections = SectionRuntime::new(VerifyMode::Active);
        let profiler = SectionProfiler::new();
        sections.attach(profiler.clone());
        let tools = Tools {
            sections: sections.clone(),
            profiler,
            summary: self.summary.then(SummaryTool::new),
            recorder: self.recorder.then(CommRecorder::new),
            pvar: self.recorder.then(PvarRegistry::new),
        };
        let mut builder = WorldBuilder::new(self.p)
            .engine(Engine::Des)
            .machine(self.machine.clone())
            .seed(seed)
            .tool(sections);
        let extra: [Option<Arc<dyn Tool>>; 3] = [
            tools.pvar.clone().map(|t| t as Arc<dyn Tool>),
            tools.recorder.clone().map(|t| t as Arc<dyn Tool>),
            tools.summary.clone().map(|t| t as Arc<dyn Tool>),
        ];
        for tool in extra.into_iter().flatten() {
            builder = builder.tool(tool);
        }
        (builder, tools)
    }

    fn run(&self, builder: WorldBuilder, tools: &Tools) -> Result<RunReport<()>, RunError> {
        let s = tools.sections.clone();
        if self.lulesh {
            let size = lulesh_proxy::size_for(lulesh_proxy::PAPER_TOTAL_ELEMENTS, self.p)
                .expect("512 ranks is a cube dividing the paper mesh");
            let cfg = lulesh_proxy::LuleshConfig::timing(size, self.steps, LULESH_THREADS);
            builder.run(move |pr| {
                lulesh_proxy::run_lulesh(pr, &s, &cfg);
            })
        } else {
            let cfg = convolution::ConvConfig::paper(self.steps);
            builder.run(move |pr| {
                convolution::run_convolution(pr, &s, &cfg);
            })
        }
    }

    /// Everything `profile` does after the run: the section report and
    /// Eq. 6 ranking, the profile CSV, and the summary export
    /// (`conv-16k`) or the metrics analyses (`conv-64-analyze`).
    fn post_run(&self, tools: &Tools, seed: u64, spans: &Spans) -> Result<PostRun, String> {
        let profile = spans.span("core.profile.snapshot", || tools.profiler.snapshot());
        let total: f64 = profile
            .sections()
            .filter(|s| s.key.label != MPI_MAIN)
            .map(|s| s.total_excl_secs)
            .sum();
        spans.span("core.report.render", || {
            std::hint::black_box(render(&profile, &ReportOptions::default()));
            std::hint::black_box(render_bounds(&profile, total, self.p));
        });
        let mut post = PostRun {
            output: profile.to_csv(),
            recorder_events: 0,
            summary_state_bytes: 0,
        };
        if let Some(summary) = &tools.summary {
            let frozen = spans.span("core.summary.freeze", || summary.freeze());
            post.summary_state_bytes = frozen.state_bytes as u64;
            post.output += &spans.span("core.summary.to_json", || frozen.to_json());
        }
        if let Some(recorder) = &tools.recorder {
            let log = spans.span("core.recorder.freeze", || recorder.freeze());
            post.recorder_events = log.events() as u64;
            post.output += &self.analyze(tools, &log, total, seed, spans)?;
        }
        Ok(post)
    }

    /// The analyses `profile --metrics-json --what-if jitter=0` runs on a
    /// recorded log, plus an identity replay that must re-time the log
    /// bit for bit. Returns the metrics JSON.
    fn analyze(
        &self,
        tools: &Tools,
        log: &mpi_sections::CommLog,
        total: f64,
        seed: u64,
        spans: &Spans,
    ) -> Result<String, String> {
        let pvar = tools.pvar.as_ref().expect("recording worlds count pvars");
        let snapshot = spans.span("core.pvar.snapshot", || pvar.snapshot());
        let waits = spans.span("core.classify", || classify(log));
        let cp = spans.span("core.critpath", || critpath::extract(log));
        let windowing = Windowing::Fixed(CONV64_WINDOWS);
        let tl = spans.span("core.timeline", || timeline::build(log, &windowing));
        let trends = spans.span("speedup.trend", || {
            speedup::trend::detect(&tl, &speedup::trend::TrendConfig::default())
        });
        let replayed = spans.span("core.replay", || {
            mpi_sections::replay(log, &self.machine, seed, &WhatIfSpec::identity())
        })?;
        if replayed.makespan_ns() != log.makespan_ns() {
            return Err(format!(
                "identity replay moved the makespan from {} ns to {} ns",
                log.makespan_ns(),
                replayed.makespan_ns()
            ));
        }
        let spec = mpi_sections::whatif::parse("jitter=0")?;
        let scenario = spans.span("core.whatif", || {
            bench::whatif::analyze(log, &self.machine, seed, &spec, total, self.p, &windowing)
        })?;
        Ok(spans.span("core.export_json", || {
            format!(
                "{{\"config\":{{\"machine\":{}}},\"pvar\":{},\"waitstate\":{},\
                 \"critical_path\":{},\"timeline\":{},\"trends\":{},\"whatif\":{}}}\n",
                bench::whatif::machine_config_json(&self.machine),
                snapshot.to_json(),
                waits.to_json(),
                cp.to_json(),
                tl.to_json(),
                speedup::trend::to_json(&trends),
                bench::whatif::to_json(std::slice::from_ref(&scenario)),
            )
        }))
    }
}

/// A store directory under [`TMP_DIR`], removed on drop.
struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new() -> Result<TempStore, String> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(TMP_DIR).join(format!("store-{}-{n}", std::process::id()));
        std::fs::create_dir_all(TMP_DIR).map_err(|e| format!("create {TMP_DIR}: {e}"))?;
        Ok(TempStore { path })
    }

    fn open(&self) -> Result<RunStore, String> {
        RunStore::open(&self.path).map_err(|e| format!("open store {}: {e}", self.path.display()))
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds once no other temporary store is left.
        let _ = std::fs::remove_dir(TMP_DIR);
    }
}

struct StudySetup {
    store: RunStore,
    cells: Vec<CellConfig>,
    machine: MachineModel,
    machine_fp: String,
}

/// Store open, grid expansion and machine resolution. The grid is a
/// convolution over many small worlds with seeds derived from `seed`.
fn study_setup(tmp: &TempStore, seed: u64) -> Result<StudySetup, String> {
    let store = tmp.open()?;
    let seeds: Vec<String> = (0..STUDY_SEEDS)
        .map(|i| seed.wrapping_mul(STUDY_SEEDS).wrapping_add(i).to_string())
        .collect();
    let grid = GridSpec::parse(&format!(
        "workload=conv machine={STUDY_MACHINE} p={STUDY_PS} steps={STUDY_STEPS} seeds={}",
        seeds.join(",")
    ))?;
    let cells = grid.cells();
    let machine = resolve_machine(&grid.machine)?;
    let machine_fp = machine_fingerprint(&machine);
    Ok(StudySetup {
        store,
        cells,
        machine,
        machine_fp,
    })
}

/// The warm rerun (which must simulate nothing) and the report. Returns
/// the report JSON and the warm rerun's cache-hit ratio.
fn study_post_run(setup: &StudySetup, spans: &Spans) -> Result<(String, f64), String> {
    let warm = spans.span("mpistudy.sweep.warm", || {
        run_sweep(&setup.store, &setup.cells, STUDY_JOBS)
    });
    if warm.executed != 0 || warm.cached != setup.cells.len() {
        return Err(format!(
            "warm sweep of {} cells executed {} and served {}",
            setup.cells.len(),
            warm.executed,
            warm.cached
        ));
    }
    let rep = spans.span("mpistudy.report.build", || report::build(&setup.store));
    let json = spans.span("mpistudy.report.to_json", || rep.to_json());
    Ok((json, warm.cached as f64 / setup.cells.len() as f64))
}

fn study_invoke(
    seed: u64,
    spans: &Spans,
    gap: Option<&Arc<GapTool>>,
    analysis_reps: usize,
) -> Result<Invocation, String> {
    let tmp = TempStore::new()?;
    let start = Instant::now();
    let setup = spans.span("mpistudy.setup", || study_setup(&tmp, seed))?;
    let cold = spans.span("mpistudy.sweep.cold", || {
        run_sweep(&setup.store, &setup.cells, STUDY_JOBS)
    });
    let run_s = start.elapsed().as_secs_f64();
    let n = setup.cells.len();
    if cold.executed != n {
        return Err(format!(
            "cold sweep of {n} cells executed {}",
            cold.executed
        ));
    }

    let after = Instant::now();
    let (json, cache_hit_ratio) = study_post_run(&setup, spans)?;
    let mut analysis = vec![after.elapsed().as_secs_f64()];
    let wall_s = start.elapsed().as_secs_f64();
    if !spans.on() {
        for _ in 1..analysis_reps {
            let again = Instant::now();
            study_post_run(&setup, spans)?;
            analysis.push(again.elapsed().as_secs_f64());
        }
    }

    let docs: Vec<RunDoc> = setup
        .cells
        .iter()
        .map(|c| setup.store.load(&c.hash(&setup.machine_fp)))
        .collect::<Option<_>>()
        .ok_or("a swept cell is missing from the store")?;
    // Only the traced run looks inside the pool and the store.
    let study = if spans.on() {
        let (busy_s, insert_ms, load_ms) =
            spans.span("mpistudy.cells.serial", || study_layers(&setup, &docs, gap))?;
        Some(StudyStats {
            executed: cold.executed,
            cache_hit_ratio,
            cached_s: spans.total_s("mpistudy.sweep.warm"),
            busy_ratio: busy_s / (STUDY_JOBS as f64 * spans.total_s("mpistudy.sweep.cold")),
            insert_ms,
            load_ms,
        })
    } else {
        None
    };
    Ok(Invocation {
        run_s,
        analysis_s: median(&mut analysis),
        wall_s,
        rank_steps: setup.cells.iter().map(|c| c.p * STUDY_STEPS).sum::<usize>() as f64,
        makespan_ns: docs
            .iter()
            .map(|d| (d.wall_secs * 1e9).round() as u64)
            .sum(),
        fingerprint: fasthash::fnv1a_hex(&json),
        recorder_events: 0,
        summary_state_bytes: 0,
        study,
    })
}

/// Per-layer view of the sweep: each cell re-simulated serially (the
/// pool's busy time), inserted into a second store and loaded back, and
/// compared with the swept document. With `gap`, every cell is also run
/// as the world `mpistudy` builds for it with the attribution tool
/// attached, and must reach the stored makespan. Returns the busy seconds
/// and the median insert and load milliseconds.
fn study_layers(
    setup: &StudySetup,
    docs: &[RunDoc],
    gap: Option<&Arc<GapTool>>,
) -> Result<(f64, f64, f64), String> {
    let second = TempStore::new()?;
    let other = second.open()?;
    let mut busy_s = 0.0;
    let (mut insert_ms, mut load_ms) = (Vec::new(), Vec::new());
    for (cell, doc) in setup.cells.iter().zip(docs) {
        let t = Instant::now();
        let outcome = mpistudy::pool::execute_cell(cell, &setup.machine);
        busy_s += t.elapsed().as_secs_f64();
        let fresh = RunDoc::new(cell, &setup.machine_fp, &outcome);
        let t = Instant::now();
        other.insert(&fresh).map_err(|e| format!("insert: {e}"))?;
        insert_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let loaded = other
            .load(&fresh.hash)
            .ok_or("an inserted document did not load")?;
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if loaded != *doc {
            return Err(format!(
                "cell {} re-simulated to another document",
                doc.hash
            ));
        }
        if let Some(gap) = gap {
            gap.new_world();
            let sections = SectionRuntime::new(VerifyMode::Off);
            sections.attach(SectionProfiler::new());
            let s = sections.clone();
            let cfg = convolution::ConvConfig::paper(STUDY_STEPS);
            let report = WorldBuilder::new(cell.p)
                .engine(Engine::Des)
                .machine(setup.machine.clone())
                .seed(cell.seed)
                .tool(sections)
                .tool(gap.clone() as Arc<dyn Tool>)
                .run(move |pr| {
                    convolution::run_convolution(pr, &s, &cfg);
                })
                .map_err(|e| e.to_string())?;
            if report.makespan_secs() != doc.wall_secs {
                return Err(format!("traced cell {} changed its makespan", doc.hash));
            }
        }
    }
    Ok((busy_s, median(&mut insert_ms), median(&mut load_ms)))
}
