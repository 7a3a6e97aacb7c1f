//! The traced run's span ledger.
//!
//! Every timed call into a layer opens a span (name, start, parent,
//! session) and closes it (end, allocations made inside). Spans stay in
//! memory until the run ends; then they are written out once and the
//! per-layer figures — including *self* times, a span's duration minus
//! the part of it its child spans cover — are derived from them.
//!
//! The ledger is thread-local: the traced run drives sessions one at a
//! time on one thread, and the forwarding adapters reach it without
//! threading a handle through the library's trait signatures.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

use crate::alloc;

/// Everything the traced run opens a span around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One whole session, from controller construction to `finish`.
    Session,
    /// `make_controller` + `SessionRunner::new` + `start`.
    Open,
    /// `SessionRunner::plan_segment`.
    PlanSegment,
    /// `SessionRunner::step_download`.
    StepDownload,
    /// `SessionRunner::finish`.
    Finish,
    /// `Controller::plan`.
    CtlPlan,
    /// `Controller::plan_into`.
    CtlPlanInto,
    /// `Controller::scheme`.
    CtlScheme,
    /// `Controller::observe_throughput`.
    CtlObserveThroughput,
    /// `Controller::replan_degraded`.
    CtlReplanDegraded,
    /// `Controller::reset`.
    CtlReset,
    /// `Controller::solver_stats`.
    CtlSolverStats,
    /// `Controller::robust_stats`.
    CtlRobustStats,
    /// `Controller::observe_prediction_error`.
    CtlObservePredictionError,
    /// `VideoTraces::generate` for one video.
    TraceGenerate,
    /// `VideoServer::prepare` for one video.
    ClusterPrepare,
}

impl Name {
    /// The dotted layer path the span file prints.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Session => "core.client.session",
            Name::Open => "core.client.open",
            Name::PlanSegment => "core.client.plan_segment",
            Name::StepDownload => "core.client.step_download",
            Name::Finish => "core.client.finish",
            Name::CtlPlan => "abr.plan",
            Name::CtlPlanInto => "abr.plan_into",
            Name::CtlScheme => "abr.scheme",
            Name::CtlObserveThroughput => "abr.observe_throughput",
            Name::CtlReplanDegraded => "abr.replan_degraded",
            Name::CtlReset => "abr.reset",
            Name::CtlSolverStats => "abr.solver_stats",
            Name::CtlRobustStats => "abr.robust_stats",
            Name::CtlObservePredictionError => "abr.observe_prediction_error",
            Name::TraceGenerate => "trace.generate",
            Name::ClusterPrepare => "cluster.prepare",
        }
    }
}

/// The session id of spans outside any session (set-up).
pub const NO_SESSION: u32 = u32::MAX;

/// One closed (or still open) span. Times are nanoseconds since the
/// ledger's epoch; `parent` is the index of the enclosing span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub parent: Option<u32>,
    pub session: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation events on this thread while the span was open,
    /// children included.
    pub allocs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store plus the stack of open spans.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    session: u32,
}

impl Ledger {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::with_capacity(64),
            session: NO_SESSION,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: Name) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            let grow = self.spans.len().max(1 << 16);
            alloc::uncounted(|| self.spans.reserve(grow));
        }
        let idx = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            session: self.session,
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.open.push(idx);
        let start_ns = self.now_ns();
        let span = &mut self.spans[idx as usize];
        span.allocs = alloc::count();
        span.start_ns = start_ns;
        idx
    }

    fn close(&mut self, idx: u32) {
        let end_ns = self.now_ns();
        let allocs = alloc::count();
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }
}

thread_local! {
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::new());
}

/// Runs `f` inside a span named `name` on this thread's ledger.
pub fn span<R>(name: Name, f: impl FnOnce() -> R) -> R {
    let idx = LEDGER.with(|l| l.borrow_mut().open(name));
    let out = f();
    LEDGER.with(|l| l.borrow_mut().close(idx));
    out
}

/// Tags spans opened from now on with session id `session`.
pub fn set_session(session: u32) {
    LEDGER.with(|l| l.borrow_mut().session = session);
}

/// Empties this thread's ledger, returning every span recorded since the
/// last call (or since the thread started).
pub fn take() -> Vec<Span> {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        debug_assert!(l.open.is_empty(), "take() with spans still open");
        std::mem::take(&mut l.spans)
    })
}

/// Appends `more` (a separately taken ledger) to `spans`, re-basing its
/// parent indices.
pub fn append(spans: &mut Vec<Span>, more: Vec<Span>) {
    let base = u32::try_from(spans.len()).unwrap_or(u32::MAX);
    spans.extend(more.into_iter().map(|s| Span {
        parent: s.parent.map(|p| p + base),
        ..s
    }));
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, clipped to the span. Children are visited in
/// the order they were opened — start order on one thread — so an
/// overlapping or overhanging child is still counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    let mut cursor: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for child in spans {
        let Some(p) = child.parent.map(|p| p as usize) else {
            continue;
        };
        let Some(parent) = spans.get(p) else {
            continue;
        };
        let lo = child.start_ns.max(cursor[p]);
        let hi = child.end_ns.min(parent.end_ns);
        if hi > lo {
            covered[p] += hi - lo;
            cursor[p] = hi;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(span, c)| span.dur_ns().saturating_sub(c))
        .collect()
}

/// Writes the spans as tab-separated lines, one per span, after a
/// header: `id parent session name start_ns end_ns self_ns allocs`
/// (`parent` is `-` for roots, `session` is `-` outside sessions).
pub fn write_tsv(out: &mut impl Write, spans: &[Span], self_ns: &[u64]) -> std::io::Result<()> {
    writeln!(
        out,
        "id\tparent\tsession\tname\tstart_ns\tend_ns\tself_ns\tallocs"
    )?;
    for (i, (s, own)) in spans.iter().zip(self_ns).enumerate() {
        let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
        let session = if s.session == NO_SESSION {
            "-".to_owned()
        } else {
            s.session.to_string()
        };
        writeln!(
            out,
            "{i}\t{parent}\t{session}\t{}\t{}\t{}\t{own}\t{}",
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
            s.allocs
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: Name, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            session: 0,
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_controller_spans_once() {
        // session [0,1000) ⊃ plan_segment [100,600) ⊃ {solver_stats
        // [150,160), plan_into [200,400) ⊃ (a nested plan [250,300)),
        // robust_stats [450,470)}; step_download [600,900).
        let spans = vec![
            sp(Name::Session, None, 0, 1000),
            sp(Name::PlanSegment, Some(0), 100, 600),
            sp(Name::CtlSolverStats, Some(1), 150, 160),
            sp(Name::CtlPlanInto, Some(1), 200, 400),
            sp(Name::CtlPlan, Some(3), 250, 300),
            sp(Name::CtlRobustStats, Some(1), 450, 470),
            sp(Name::StepDownload, Some(0), 600, 900),
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 1000 - 500 - 300);
        // plan_segment's children cover 10 + 200 + 20; the grandchild
        // lies inside plan_into and must not be subtracted again.
        assert_eq!(own[1], 500 - 230);
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 200 - 50);
        assert_eq!(own[4], 50);
        assert_eq!(own[6], 300);
    }

    #[test]
    fn overlapping_or_overhanging_children_are_counted_once_and_clipped() {
        let spans = vec![
            sp(Name::PlanSegment, None, 100, 200),
            sp(Name::CtlPlanInto, Some(0), 90, 130),
            sp(Name::CtlPlan, Some(0), 120, 150),
            sp(Name::CtlScheme, Some(0), 190, 260),
        ];
        let own = self_times(&spans);
        // covered: [100,150) ∪ [190,200) = 60.
        assert_eq!(own[0], 40);
    }

    #[test]
    fn append_rebases_parents() {
        let mut spans = vec![sp(Name::TraceGenerate, None, 0, 5)];
        append(
            &mut spans,
            vec![
                sp(Name::Session, None, 10, 20),
                sp(Name::Open, Some(0), 11, 12),
            ],
        );
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[2].parent, Some(1));
    }

    #[test]
    fn live_ledger_nests_and_counts_allocations() {
        let _ = take();
        set_session(7);
        let v = span(Name::PlanSegment, || {
            span(Name::CtlPlanInto, || vec![1u8; 32])
        });
        assert_eq!(v.len(), 32);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, Name::PlanSegment);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].session, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].allocs, 1);
        assert_eq!(spans[0].allocs, 1);
        let mut out = Vec::new();
        write_tsv(&mut out, &spans, &self_times(&spans)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).unwrap().contains("abr.plan_into"));
    }
}
