//! The benchmark's own tracing: spans around public calls, and a PMPI
//! tool that charges host time between events to the layer that owned it.
//!
//! Both record into memory only. Spans are printed to stderr when the run
//! ends; the per-layer metrics are derived from both at that point.

use crate::Metric;
use mpisim::{EventKind, EventMask, MpiCall, MpiEvent, Tool};
use std::cell::RefCell;
use std::sync::Mutex;
use std::time::Instant;

/// One span: a named interval of host time and the span that was open
/// when it started.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Span recorder. A disabled recorder (the untraced run) records nothing
/// and never reads the clock.
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Total seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Per-name count, total and self time (total minus the time covered
    /// by child spans), in first-seen order.
    pub fn table(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let closed = self.spans.borrow();
        let mut child_ns = vec![0u64; closed.len()];
        for s in closed.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (i, s) in closed.iter().enumerate() {
            let total = (s.end_ns - s.start_ns) as f64 / 1e9;
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }
}

/// Which layer the host time after an event belongs to.
#[derive(Clone, Copy)]
enum Owner {
    P2p,
    Collective,
    App,
}

#[derive(Default)]
struct GapState {
    last: Option<(Instant, Owner)>,
    events: u64,
    p2p_calls: u64,
    collective_calls: u64,
    p2p_gaps_ns: Vec<u32>,
    collective_gaps_ns: Vec<u32>,
    app_ns: u64,
    total_ns: u64,
}

/// PMPI tool stamping host time at every call, section and lifecycle
/// event. The DES engine runs every rank on one scheduler thread, so the
/// gap between two consecutive events is charged to the layer named by
/// the first: after a point-to-point or collective `CallEnter` to
/// `mpisim`, after anything else to the application.
#[derive(Default)]
pub struct GapTool {
    state: Mutex<GapState>,
}

impl GapTool {
    /// The per-layer metrics of everything stamped so far.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut st = self.state.lock().expect("gap tool lock");
        vec![
            ("mpisim.events", st.events as f64, "count"),
            ("mpisim.p2p.calls", st.p2p_calls as f64, "count"),
            (
                "mpisim.p2p.host_ns.p50",
                quantile_u32(&mut st.p2p_gaps_ns, 0.50),
                "ns",
            ),
            (
                "mpisim.p2p.host_ns.p99",
                quantile_u32(&mut st.p2p_gaps_ns, 0.99),
                "ns",
            ),
            (
                "mpisim.collective.calls",
                st.collective_calls as f64,
                "count",
            ),
            (
                "mpisim.collective.host_ns.p50",
                quantile_u32(&mut st.collective_gaps_ns, 0.50),
                "ns",
            ),
            (
                "mpisim.collective.host_ns.p99",
                quantile_u32(&mut st.collective_gaps_ns, 0.99),
                "ns",
            ),
            (
                "app.host_share",
                st.app_ns as f64 / st.total_ns.max(1) as f64,
                "ratio",
            ),
        ]
    }

    /// Start a new world: the gap between the last event of the previous
    /// world and the first of the next is charged to no layer.
    pub fn new_world(&self) {
        self.state.lock().expect("gap tool lock").last = None;
    }
}

impl Tool for GapTool {
    fn interests(&self) -> EventMask {
        EventMask::of(&[
            EventKind::Init,
            EventKind::Finalize,
            EventKind::CallEnter,
            EventKind::CallExit,
            EventKind::SectionEnter,
            EventKind::SectionLeave,
        ])
    }

    fn on_event(&self, _world_rank: usize, event: &MpiEvent) {
        let now = Instant::now();
        let mut st = self.state.lock().expect("gap tool lock");
        st.events += 1;
        if let Some((then, owner)) = st.last {
            let gap = now.duration_since(then).as_nanos() as u64;
            st.total_ns += gap;
            let clamped = gap.min(u64::from(u32::MAX)) as u32;
            match owner {
                Owner::P2p => st.p2p_gaps_ns.push(clamped),
                Owner::Collective => st.collective_gaps_ns.push(clamped),
                Owner::App => st.app_ns += gap,
            }
        }
        let owner = match event {
            MpiEvent::CallEnter { call, .. } if is_p2p(*call) => {
                st.p2p_calls += 1;
                Owner::P2p
            }
            MpiEvent::CallEnter { .. } => {
                st.collective_calls += 1;
                Owner::Collective
            }
            _ => Owner::App,
        };
        st.last = Some((now, owner));
    }
}

fn is_p2p(call: MpiCall) -> bool {
    matches!(
        call,
        MpiCall::Send
            | MpiCall::Recv
            | MpiCall::Sendrecv
            | MpiCall::Isend
            | MpiCall::Irecv
            | MpiCall::Wait
    )
}

/// Nearest-rank quantile of `v` (reorders it); 0 for an empty slice.
fn quantile_u32(v: &mut [u32], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let k = ((v.len() - 1) as f64 * q).round() as usize;
    f64::from(*v.select_nth_unstable(k).1)
}
