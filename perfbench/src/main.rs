//! Layered host-time benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload conv-16k --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` repeats the workload for `--seconds` and prints the
//! end-to-end metrics (medians over the repetitions). `--trace 1` runs the
//! workload once untraced and once traced, runs the workloads that own the
//! remaining per-layer metrics and the layer probes, and prints the
//! per-layer metrics. Every invocation's simulated output is fingerprinted
//! and compared with the value pinned in `expected.tsv` for this workload
//! and seed (or, for an unpinned seed, with the run's first invocation).
//! `--pin` prints the fingerprint line for `expected.tsv` instead.
//!
//! The last line of stdout is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod probes;
mod stats;
mod trace;
mod workloads;

use stats::{median, peak_rss_mb};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{GapTool, Spans};
use workloads::{Invocation, Workload};

/// Fewest measured rounds of an untraced run, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// Pinned `(workload, seed) -> (makespan ns, fingerprint)` lines.
const EXPECTED: &str = include_str!("../expected.tsv");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    pin: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <conv-16k|conv-64-analyze|lulesh-512x4|study-sweep> \
--seed N --seconds N --trace 0|1 [--pin]";

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut pin) = (None, None, None, None, false);
    let mut i = 0;
    while i < argv.len() {
        let value = || {
            argv.get(i + 1)
                .map(String::as_str)
                .unwrap_or_else(|| usage_error(&format!("{} needs a value", argv[i])))
        };
        let number = |v: &str| -> u64 {
            v.parse().unwrap_or_else(|_| {
                usage_error(&format!("{} expects a number, got '{v}'", argv[i]))
            })
        };
        match argv[i].as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    Workload::parse(name)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload '{name}'"))),
                );
            }
            "--seed" => seed = Some(number(value())),
            "--seconds" => seconds = Some(number(value())),
            "--trace" => {
                trace = Some(match value() {
                    "0" => false,
                    "1" => true,
                    other => usage_error(&format!("--trace expects 0 or 1, got '{other}'")),
                });
            }
            "--pin" => {
                pin = true;
                i += 1;
                continue;
            }
            other => usage_error(&format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    Args {
        workload: workload.unwrap_or_else(|| usage_error("--workload is required")),
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        pin,
    }
}

/// The pinned `(makespan ns, fingerprint)` of `w` at `seed`, if any.
fn expected(w: Workload, seed: u64) -> Option<(u64, String)> {
    EXPECTED
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 4 && f[0] == w.name() && f[1] == seed.to_string())
        .map(|f| {
            (
                f[2].parse().expect("expected.tsv: makespan is a number"),
                f[3].to_string(),
            )
        })
}

/// Counts attempted and failed operations and checks every invocation's
/// simulated output against the pinned or first-seen fingerprint of its
/// workload.
struct Checker {
    seed: u64,
    reference: Vec<(Workload, (u64, String))>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn new(seed: u64) -> Checker {
        Checker {
            seed,
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, what: &str, err: &str) {
        eprintln!("perfbench: {what} failed: {err}");
        self.failed += 1;
    }

    /// Run one set-up measurement.
    fn setup(&mut self, w: Workload) -> Option<f64> {
        self.attempted += 1;
        guarded(|| w.setup(self.seed))
            .map_err(|e| self.fail(&format!("{} set-up", w.name()), &e))
            .ok()
    }

    /// Run one invocation and check its output. A mismatching invocation
    /// counts as failed but its times are still returned.
    fn invoke(
        &mut self,
        w: Workload,
        spans: &Spans,
        gap: Option<&Arc<GapTool>>,
    ) -> Option<Invocation> {
        self.attempted += 1;
        let inv = match guarded(|| w.invoke(self.seed, spans, gap)) {
            Ok(inv) => inv,
            Err(e) => {
                self.fail(w.name(), &e);
                return None;
            }
        };
        let got = (inv.makespan_ns, inv.fingerprint.clone());
        let want = match self.reference.iter().find(|r| r.0 == w) {
            Some(r) => r.1.clone(),
            None => {
                let want = expected(w, self.seed).unwrap_or_else(|| {
                    eprintln!(
                        "perfbench: seed {} of {} is not pinned: checking that its invocations agree",
                        self.seed,
                        w.name()
                    );
                    got.clone()
                });
                self.reference.push((w, want.clone()));
                want
            }
        };
        if got != want {
            self.fail(
                w.name(),
                &format!(
                    "output mismatch: makespan {} ns, fingerprint {} (expected {} ns, {})",
                    got.0, got.1, want.0, want.1
                ),
            );
        }
        Some(inv)
    }
}

/// Run `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {msg}"))
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end run: repeat set-up and invocation for `seconds`.
fn untraced(args: &Args, check: &mut Checker) -> Vec<Metric> {
    let w = args.workload;
    let spans = Spans::new(false);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut setup, mut run, mut analysis, mut wall) = (vec![], vec![], vec![], vec![]);
    let (mut rank_steps, mut peak_rss) = (0.0, f64::NAN);
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        rounds += 1;
        setup.extend((0..w.setup_reps()).filter_map(|_| check.setup(w)));
        if let Some(inv) = check.invoke(w, &spans, None) {
            eprintln!(
                "round {rounds}: run_s={:.6} analysis_s={:.6} wall_s={:.6}",
                inv.run_s, inv.analysis_s, inv.wall_s
            );
            run.push(inv.run_s);
            analysis.push(inv.analysis_s);
            wall.push(inv.wall_s);
            rank_steps = inv.rank_steps;
        }
        // Heap growth depends on how many rounds ran; the peak over a fixed
        // number of them does not.
        if rounds == MIN_ROUNDS {
            peak_rss = peak_rss_mb();
        }
    }
    let setup_s = median(&mut setup);
    vec![
        ("wall_s", median(&mut wall), "s"),
        ("setup_s", setup_s, "s"),
        (
            "rank_steps_per_s",
            rank_steps / (median(&mut run) - setup_s),
            "1/s",
        ),
        ("analysis_s", median(&mut analysis), "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ]
}

/// The traced run: per-layer metrics from the workload's own traced
/// invocation, the invocations of the workloads that own the remaining
/// layers, and the layer probes.
fn traced(args: &Args, check: &mut Checker) -> Vec<Metric> {
    let w = args.workload;
    let spans = Spans::new(true);
    let gap = Arc::new(GapTool::default());
    let plain = check.invoke(w, &Spans::new(false), None);
    let own = check.invoke(w, &spans, Some(&gap));
    let overhead = match (&plain, &own) {
        (Some(p), Some(t)) => t.wall_s / p.wall_s,
        _ => f64::NAN,
    };
    let mut runs = vec![(w, own)];
    for o in [
        Workload::Conv16k,
        Workload::Conv64Analyze,
        Workload::StudySweep,
    ] {
        if o != w {
            let inv = check.invoke(o, &spans, None);
            runs.push((o, inv));
        }
    }
    let mut m = probes::measure(args.seed, &spans, &mut |what, result| {
        check.attempted += 1;
        result.unwrap_or_else(|e| {
            check.fail(what, &e);
            f64::NAN
        })
    });
    for (name, count, total, own) in spans.table() {
        eprintln!("span {name:<28} n={count:<4} total_s={total:.6} self_s={own:.6}");
    }
    m.extend(gap.metrics());

    let run_of = |o: Workload| runs.iter().find(|r| r.0 == o).and_then(|r| r.1.as_ref());
    m.push((
        "core.recorder.events",
        run_of(Workload::Conv64Analyze).map_or(f64::NAN, |i| i.recorder_events as f64),
        "count",
    ));
    m.push((
        "core.summary.state_bytes",
        run_of(Workload::Conv16k).map_or(f64::NAN, |i| i.summary_state_bytes as f64),
        "bytes",
    ));
    for (metric, span) in [
        ("core.classify_s", "core.classify"),
        ("core.critpath_s", "core.critpath"),
        ("core.timeline_s", "core.timeline"),
        ("core.replay_s", "core.replay"),
        ("core.whatif_s", "core.whatif"),
        ("core.export_json_s", "core.export_json"),
        ("core.summary.freeze_s", "core.summary.freeze"),
        ("mpistudy.report.build_s", "mpistudy.report.build"),
    ] {
        m.push((metric, spans.total_s(span), "s"));
    }
    let study = run_of(Workload::StudySweep).and_then(|i| i.study.as_ref());
    let study = |f: fn(&workloads::StudyStats) -> f64| study.map_or(f64::NAN, f);
    m.extend([
        (
            "mpistudy.sweep.executed",
            study(|s| s.executed as f64),
            "count",
        ),
        (
            "mpistudy.sweep.cache_hit_ratio",
            study(|s| s.cache_hit_ratio),
            "ratio",
        ),
        ("mpistudy.sweep.cached_s", study(|s| s.cached_s), "s"),
        ("mpistudy.pool.busy_ratio", study(|s| s.busy_ratio), "ratio"),
        ("mpistudy.store.insert_ms", study(|s| s.insert_ms), "ms"),
        ("mpistudy.store.load_ms", study(|s| s.load_ms), "ms"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]);
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    // The sweep's pool builds its worlds with the default engine; pin it
    // before any thread starts so `MPISIM_ENGINE` cannot switch it.
    std::env::set_var("MPISIM_ENGINE", "des");
    let args = parse_args();
    let mut check = Checker::new(args.seed);
    if args.pin {
        let w = args.workload;
        match guarded(|| w.invoke(args.seed, &Spans::new(false), None)) {
            Ok(inv) => println!(
                "{}\t{}\t{}\t{}",
                w.name(),
                args.seed,
                inv.makespan_ns,
                inv.fingerprint
            ),
            Err(e) => {
                eprintln!("perfbench: {} failed: {e}", w.name());
                std::process::exit(1);
            }
        }
        return;
    }
    let metrics = if args.trace {
        traced(&args, &mut check)
    } else {
        untraced(&args, &mut check)
    };
    let missing = metrics.iter().any(|m| !m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.failed == 0 && !missing,
        check.attempted,
        check.failed,
        body.join(", ")
    );
}
