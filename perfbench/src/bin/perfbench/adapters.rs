//! Forwarding adapters for the traced run.
//!
//! [`TracedController`] wraps the scheme's controller and opens one
//! ledger span around every trait method it forwards; [`TracedRecord`]
//! wraps the session's recorder and counts the calls into it and the
//! time spent inside. Both forward *every* method to the inner value
//! with the caller's arguments unchanged — a method left to the trait's
//! default would silently change what the session computes (RobustMpc
//! feeds on `observe_prediction_error`, the solver on `plan_into`'s
//! recycled buffers) — so the traced run's results must equal the
//! untraced run's bit for bit, which the benchmark checks.

use std::cell::Cell;
use std::time::Instant;

use ee360_abr::controller::{Controller, RobustStats, Scheme, SolverStats};
use ee360_abr::plan::{PlanBuffers, SegmentContext, SegmentPlan};
use ee360_obs::{Event, Level, Record};

use crate::ledger::{span, Name};

/// A controller whose every call lands in the span ledger.
pub struct TracedController<C: ?Sized> {
    pub inner: Box<C>,
}

impl<C: Controller + ?Sized> Controller for TracedController<C> {
    fn plan(&mut self, ctx: &SegmentContext) -> SegmentPlan {
        span(Name::CtlPlan, || self.inner.plan(ctx))
    }

    fn plan_into(&mut self, ctx: &SegmentContext, buffers: &mut PlanBuffers) -> SegmentPlan {
        span(Name::CtlPlanInto, || self.inner.plan_into(ctx, buffers))
    }

    fn scheme(&self) -> Scheme {
        span(Name::CtlScheme, || self.inner.scheme())
    }

    fn observe_throughput(&mut self, throughput_bps: f64) {
        span(Name::CtlObserveThroughput, || {
            self.inner.observe_throughput(throughput_bps)
        });
    }

    fn replan_degraded(
        &mut self,
        ctx: &SegmentContext,
        original: &SegmentPlan,
        rungs: usize,
    ) -> SegmentPlan {
        span(Name::CtlReplanDegraded, || {
            self.inner.replan_degraded(ctx, original, rungs)
        })
    }

    fn reset(&mut self) {
        span(Name::CtlReset, || self.inner.reset());
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        span(Name::CtlSolverStats, || self.inner.solver_stats())
    }

    fn robust_stats(&self) -> Option<RobustStats> {
        span(Name::CtlRobustStats, || self.inner.robust_stats())
    }

    fn observe_prediction_error(&mut self, error_deg: f64) {
        span(Name::CtlObservePredictionError, || {
            self.inner.observe_prediction_error(error_deg)
        });
    }
}

/// A recorder wrapper that counts calls and the host time inside them.
/// The tallies live in `Cell`s so the `&self` getters count too.
pub struct TracedRecord<'r, R: Record + ?Sized> {
    inner: &'r mut R,
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl<'r, R: Record + ?Sized> TracedRecord<'r, R> {
    pub fn new(inner: &'r mut R) -> Self {
        Self {
            inner,
            calls: Cell::new(0),
            ns: Cell::new(0),
        }
    }

    /// Calls forwarded so far and the host nanoseconds spent inside them.
    pub fn tally(&self) -> (u64, u64) {
        (self.calls.get(), self.ns.get())
    }

    fn book(&self, t0: Instant) {
        let dt = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.set(self.ns.get() + dt);
        self.calls.set(self.calls.get() + 1);
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut R) -> T) -> T {
        let t0 = Instant::now();
        let out = f(self.inner);
        self.book(t0);
        out
    }
}

impl<R: Record + ?Sized> Record for TracedRecord<'_, R> {
    fn level(&self) -> Level {
        let t0 = Instant::now();
        let out = self.inner.level();
        self.book(t0);
        out
    }

    fn record(&mut self, event: Event) {
        self.timed(|r| r.record(event));
    }

    fn span_open(&mut self, name: &'static str, t_sec: f64) {
        self.timed(|r| r.span_open(name, t_sec));
    }

    fn span_close(&mut self, t_sec: f64) {
        self.timed(|r| r.span_close(t_sec));
    }

    fn count(&mut self, name: &str, n: u64) {
        self.timed(|r| r.count(name, n));
    }

    fn observe(&mut self, name: &str, v: f64) {
        self.timed(|r| r.observe(name, v));
    }

    fn count_at(&mut self, name: &str, t_sec: f64, n: u64) {
        self.timed(|r| r.count_at(name, t_sec, n));
    }

    fn observe_at(&mut self, name: &str, t_sec: f64, v: f64) {
        self.timed(|r| r.observe_at(name, t_sec, v));
    }

    fn set_gauge(&mut self, name: &str, v: f64) {
        self.timed(|r| r.set_gauge(name, v));
    }

    fn profiling(&self) -> bool {
        let t0 = Instant::now();
        let out = self.inner.profiling();
        self.book(t0);
        out
    }
}
