//! Observability: metrics registry, span timers, and per-run phase profiles.
//!
//! The paper's empirical-complexity story (Tables 7–9) hinges on *why* the
//! algorithms differ — allocation-loop iterations, placement probes, calendar
//! fit queries. This module turns every scheduler run into an explainable
//! trace while being provably inert:
//!
//! * **Primitives** ([`MetricsRegistry`], [`Histogram`], [`PhaseProfile`],
//!   [`RunReport`]) are always compiled. They have no global state;
//!   anything can own one.
//! * **Ambient collection** (the [`observe`] / [`span_enter`] /
//!   [`counter_add`] / [`record_value`] family and the
//!   [`span!`](crate::span) macro) is active only with the crate's `obs`
//!   feature. Every `cargo test` build has it (the workspace's test crates
//!   dev-depend on `resched-core` with it) and no binary built by `cargo
//!   build` or `cargo run` does; `--features resched-core/obs` compiles it
//!   into a release binary to profile one. Without the feature every
//!   ambient call compiles to a no-op (empty inline functions and a guard
//!   type with no `Drop` impl); with it, events are recorded into a
//!   thread-local stack of runs opened by [`observe`]. Outside an `observe`
//!   scope the instrumented code paths stay no-ops even with the feature
//!   on.
//!
//! Instrumentation must never perturb scheduling decisions: the schedulers
//! call the [`probe`] wrappers, which fold each query's cost into the
//! caller's `ScheduleStats` and record what no answer carries (the
//! per-query step histogram, CPA mapping-phase probes) into the ambient
//! registry. A scheduler's work travels in its answer — a `Schedule`, or a
//! `DeadlineInfeasible` — and the registry holds only the rest. A
//! differential test over the whole algorithm catalog pins byte-identical
//! schedules with and without the feature.
//!
//! Timing is collected per *span*: [`span_enter`] opens a named frame,
//! dropping the guard closes it. Frames nest; a frame's elapsed time is
//! charged to its own span as *total* time and subtracted from the enclosing
//! frame's *self* time, so a phase profile's self-times partition the run's
//! wall clock (up to measurement noise). [`RunReport`] serializes to one
//! JSON object — the unit written per line in JSONL trace files.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Whether ambient collection is compiled into this build (`obs` feature).
///
/// Runtime reporting code checks this to explain *why* a phase table is
/// empty instead of silently printing nothing.
pub const COMPILED: bool = cfg!(feature = "obs");

/// Canonical metric names recorded by the instrumented schedulers.
///
/// Collected in one place so reports and tests agree on spelling.
pub mod names {
    /// Declares every name constant and [`ALL`] from one list, so a name
    /// cannot exist without being in the list the manifest test reads.
    macro_rules! names {
        ($($(#[$doc:meta])* $id:ident = $name:literal;)*) => {
            $($(#[$doc])* pub const $id: &str = $name;)*
            /// Every name above: exactly the entries of `obs/metrics.toml`.
            pub const ALL: &[&str] = &[$($id),*];
        };
    }

    names! {
        /// Histogram: steps per individual fit query (size distribution).
        FIT_STEPS = "calendar.fit.steps";
        /// Counter: fit queries issued by the CPA mapping phase against its
        /// *virtual* platform (not folded into `slot_queries` views).
        CPA_MAP_QUERIES = "cpa.map.queries";
        /// Counter: steps spent by CPA mapping-phase fit queries.
        CPA_MAP_STEPS = "cpa.map.steps";
        /// Counter: CPA allocation-loop iterations (one processor granted).
        CPA_ALLOC_ITERS = "cpa.alloc.iterations";
        /// Histogram: allocation-loop iterations per CPA allocation run.
        CPA_ALLOC_ITERS_PER_RUN = "cpa.alloc.iterations_per_run";
        /// Counter: MCPA allocation-loop iterations.
        MCPA_ALLOC_ITERS = "mcpa.alloc.iterations";
        /// Counter: per-run CPA allocation-cache hits (an allocation reused
        /// instead of recomputed).
        CPA_CACHE_HIT = "cpa.cache.hit";
        /// Counter: per-run CPA allocation-cache misses (an allocation
        /// actually computed, then retained for the rest of the run).
        CPA_CACHE_MISS = "cpa.cache.miss";
        /// Counter: level positions recomputed by the allocation loops'
        /// incremental maintenance — the re-swept prefix per width change: a
        /// grown task in CPA and MCPA, a growth step, trial or revert in
        /// iCASLB (a full rebuild would recompute every node per change).
        CPA_ALLOC_INCR_UPDATES = "cpa.alloc.incr_updates";
        /// Counter: the CPA allocation-loop iterations among
        /// `cpa.alloc.iterations` taken inside a run along a single
        /// critical path, with no critical walk and no level propagation.
        CPA_ALLOC_RUN_STEPS = "cpa.alloc.run_steps";
        /// Counter: λ-sweep passes the hybrid deadline algorithms skipped
        /// because the previous failure provably repeats at the next λ.
        HYBRID_LAMBDA_PASSES_SAVED = "hybrid.lambda_passes_saved";
        /// Counter: deadline questions a `backward::Roster` answered
        /// "infeasible" because the deadline is below the instance floor,
        /// with no allocation, mapping or pass.
        BACKWARD_FLOOR_SKIPS = "core.backward.floor_skips";
        /// Counter: instance-floor walks (`floor::Floor::past`), however far each got.
        FLOOR_QUESTIONS = "core.floor.questions";
        /// Counter: probes the BLIND scheduler sent through its reservation desk.
        BLIND_PROBES = "blind.desk.probes";
        /// Counter: tasks whose actual runtime overran the reservation.
        EXEC_OVERRUNS = "exec.overruns";
        /// Counter: tasks re-queued (re-reserved) during execution replay.
        EXEC_REQUEUES = "exec.requeues";
        /// Histogram: per-application scheduling latency in nanoseconds.
        SERVE_LATENCY = "serve.schedule.latency_ns";
        /// Span: forward scheduling — bottom levels, ordering, allocation
        /// bounds.
        SPAN_FORWARD_PREP = "forward.prep";
        /// Span: forward scheduling — the per-task earliest-completion slot
        /// search.
        SPAN_FORWARD_PLACE = "forward.place";
        /// Span: deadline scheduling — `BL_CPAR` bottom levels and ordering.
        SPAN_DEADLINE_PREP = "deadline.prep";
        /// Span: one whole-DAG backward pass.
        SPAN_DEADLINE_PASS = "deadline.pass";
        /// Span: the CPA allocation loop.
        SPAN_CPA_ALLOC_LOOP = "cpa.alloc_loop";
        /// Span: the CPA mapping phase.
        SPAN_CPA_MAP = "cpa.map";
        /// Span: the MCPA allocation loop.
        SPAN_MCPA_ALLOC_LOOP = "mcpa.alloc_loop";
        /// Span: iCASLB-AR's initial one-processor allocation and ordering.
        SPAN_ICASLB_BUILD = "icaslb.build";
        /// Span: iCASLB-AR's allocation growth loop.
        SPAN_ICASLB_GROW_LOOP = "icaslb.grow_loop";
        /// Span: BLIND's trial-and-error placement loop.
        SPAN_BLIND_PLACE = "blind.place";
        /// Span: execution replay of a finished schedule.
        SPAN_EXEC_REPLAY = "exec.replay";
        /// Counter: applications submitted to the streaming-arrivals
        /// experiment.
        STREAM_APPS = "stream.apps";
        /// Span: the streaming-arrivals experiment's scheduling call for one
        /// application.
        SPAN_STREAM_SCHEDULE = "stream.schedule";
        /// Span: the serving loop's probe-and-commit cycle for one
        /// application.
        SPAN_SERVE_SCHEDULE = "serve.schedule";
        /// Span: the serving loop's cancellation of one application.
        SPAN_SERVE_CANCEL = "serve.cancel";
    }
}

/// Number of histogram buckets: one for zero plus one per power of two.
const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds the value 0; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i - 1]` (bucket 64 is open-ended at the top). Exact count,
/// sum, min, and max are tracked alongside the buckets, so quantiles are
/// approximate (bucket resolution) but the extremes are exact. All
/// accumulators saturate instead of wrapping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the bucket holding `v`.
    fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `i`.
    ///
    /// # Panics
    /// If `i >= 65`.
    fn bucket_bounds(i: usize) -> (u64, u64) {
        assert!(i < HIST_BUCKETS, "bucket index {i} out of range");
        if i == 0 {
            (0, 0)
        } else if i == 64 {
            (1 << 63, u64::MAX)
        } else {
            (1 << (i - 1), (1 << i) - 1)
        }
    }

    /// Record one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        // `bucket_index` is at most 64 and `counts` holds `HIST_BUCKETS` = 65.
        if let Some(c) = self.counts.get_mut(Self::bucket_index(v)) {
            *c = c.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `q`-quantile (`q` clamped to `[0, 1]`): the upper bound
    /// of the bucket containing the `⌈q·count⌉`-th smallest sample, clamped
    /// into the exact `[min, max]` range. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= target {
                let (_, hi) = Self::bucket_bounds(i);
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold another histogram into this one (min/max/sum/count and buckets).
    pub fn absorb(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// Named saturating counters and log-bucketed histograms for one run.
///
/// Keys are stored in a `BTreeMap`, so iteration (and serialization) is
/// deterministic by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to counter `name` (created at zero), saturating at `u64::MAX`.
    fn inc(&mut self, name: &str, by: u64) {
        match self.counters.get_mut(name) {
            Some(c) => *c = c.saturating_add(by),
            None => {
                self.counters.insert(name.to_string(), by);
            }
        }
    }

    /// Current value of counter `name` (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a sample into histogram `name` (created empty).
    pub fn record(&mut self, name: &str, v: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(v),
            None => {
                let mut h = Histogram::new();
                h.record(v);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Histogram `name`, if any sample was ever recorded under it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate histograms in name order.
    fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `true` when no counter or histogram was ever touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Fold another registry into this one.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for (name, v) in other.counters() {
            self.inc(name, v);
        }
        for (name, h) in other.histograms() {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.absorb(h),
                None => {
                    self.histograms.insert(name.to_string(), h.clone());
                }
            }
        }
    }
}

impl Serialize for MetricsRegistry {
    fn serialize_value(&self) -> Value {
        let mut counters = serde::Map::new();
        for (name, v) in &self.counters {
            counters.insert(name.clone(), v.serialize_value());
        }
        let mut histograms = serde::Map::new();
        for (name, h) in &self.histograms {
            histograms.insert(name.clone(), h.serialize_value());
        }
        let mut root = serde::Map::new();
        root.insert("counters".to_string(), Value::Object(counters));
        root.insert("histograms".to_string(), Value::Object(histograms));
        Value::Object(root)
    }
}

impl Deserialize for MetricsRegistry {
    fn deserialize_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object for MetricsRegistry"))?;
        let mut out = MetricsRegistry::new();
        if let Some(counters) = obj.get("counters") {
            let map = counters
                .as_object()
                .ok_or_else(|| serde::Error::expected("object for counters"))?;
            for (name, val) in map.iter() {
                out.counters
                    .insert(name.clone(), u64::deserialize_value(val)?);
            }
        }
        if let Some(histograms) = obj.get("histograms") {
            let map = histograms
                .as_object()
                .ok_or_else(|| serde::Error::expected("object for histograms"))?;
            for (name, val) in map.iter() {
                out.histograms
                    .insert(name.clone(), Histogram::deserialize_value(val)?);
            }
        }
        Ok(out)
    }
}

/// Aggregated timing of one named span within a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Span name (as passed to [`span_enter`] / [`span!`](crate::span)).
    pub name: String,
    /// Times the span was entered.
    pub calls: u64,
    /// Total wall-clock nanoseconds inside the span, children included.
    pub total_ns: u64,
    /// Nanoseconds inside the span minus time spent in nested spans.
    pub self_ns: u64,
}

/// Per-run phase profile: one [`SpanStat`] per distinct span name, in
/// first-entered order, plus the run's wall-clock time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Aggregated spans, ordered by first entry.
    pub spans: Vec<SpanStat>,
    /// Wall-clock nanoseconds of the whole [`observe`] scope.
    pub wall_ns: u64,
}

impl PhaseProfile {
    /// Charge one closed frame of span `name` to the profile.
    pub fn record(&mut self, name: &str, total_ns: u64, self_ns: u64) {
        if let Some(s) = self.spans.iter_mut().find(|s| s.name == name) {
            s.calls = s.calls.saturating_add(1);
            s.total_ns = s.total_ns.saturating_add(total_ns);
            s.self_ns = s.self_ns.saturating_add(self_ns);
        } else {
            self.spans.push(SpanStat {
                name: name.to_string(),
                calls: 1,
                total_ns,
                self_ns,
            });
        }
    }

    /// The stat for span `name`, if it was ever entered.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Fold another profile into this one (spans merged by name, wall-clock
    /// times added).
    pub fn absorb(&mut self, other: &PhaseProfile) {
        for s in &other.spans {
            if let Some(mine) = self.spans.iter_mut().find(|m| m.name == s.name) {
                mine.calls = mine.calls.saturating_add(s.calls);
                mine.total_ns = mine.total_ns.saturating_add(s.total_ns);
                mine.self_ns = mine.self_ns.saturating_add(s.self_ns);
            } else {
                self.spans.push(s.clone());
            }
        }
        self.wall_ns = self.wall_ns.saturating_add(other.wall_ns);
    }
}

/// Everything collected during one [`observe`] scope: label, phase profile,
/// and metrics. Serializes to a single JSON object — one line of a JSONL
/// trace file.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Label passed to [`observe`] (typically the algorithm name).
    pub label: String,
    /// Aggregated span timings.
    pub profile: PhaseProfile,
    /// Counters and histograms recorded during the run.
    pub metrics: MetricsRegistry,
}

impl RunReport {
    /// Fold another report into this one (label kept from `self`).
    pub fn absorb(&mut self, other: &RunReport) {
        self.profile.absorb(&other.profile);
        self.metrics.absorb(&other.metrics);
    }
}

/// Open a span; the span closes when the returned guard drops.
///
/// Expands to a `let` binding, so it must appear in statement position; the
/// span covers the rest of the enclosing block.
///
/// ```
/// # fn cpa_allocation_loop() {}
/// resched_core::span!("cpa.alloc_loop");
/// cpa_allocation_loop();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _obs_span_guard = $crate::obs::span_enter($name);
    };
}

// ---------------------------------------------------------------------------
// Ambient collection — real implementation (feature "obs").
// ---------------------------------------------------------------------------

// The collector is the one place in this crate that reads the clock: span
// timings are reported beside schedules, never fed into them (CI requires
// the same `results/experiments.*` bytes from `run_experiments` built with
// and without it).
#[cfg(feature = "obs")]
#[allow(clippy::disallowed_methods)]
mod ambient {
    use super::{MetricsRegistry, PhaseProfile, RunReport};
    use std::cell::RefCell;
    use std::time::Instant;

    /// One open span frame on the stack.
    struct Frame {
        name: &'static str,
        started: Instant,
        /// Nanoseconds spent in already-closed child frames.
        child_ns: u64,
    }

    /// Collection state for one `observe` scope.
    #[derive(Default)]
    struct RunState {
        registry: MetricsRegistry,
        profile: PhaseProfile,
        frames: Vec<Frame>,
    }

    thread_local! {
        /// Stack of active runs; `observe` scopes may nest.
        static RUNS: RefCell<Vec<RunState>> = const { RefCell::new(Vec::new()) };
    }

    /// Guard closing a span on drop. See [`super::span_enter`].
    #[must_use = "the span closes when the guard drops"]
    pub struct SpanGuard {
        /// False when no run was active at entry; drop is then a no-op.
        active: bool,
    }

    /// Open span `name` on the innermost active run. No-op (and ~free) when
    /// no [`super::observe`] scope is active on this thread.
    pub fn span_enter(name: &'static str) -> SpanGuard {
        let active = RUNS.with(|runs| {
            let mut runs = runs.borrow_mut();
            match runs.last_mut() {
                Some(run) => {
                    run.frames.push(Frame {
                        name,
                        started: Instant::now(),
                        child_ns: 0,
                    });
                    true
                }
                None => false,
            }
        });
        SpanGuard { active }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            if !self.active {
                return;
            }
            RUNS.with(|runs| {
                let mut runs = runs.borrow_mut();
                let Some(run) = runs.last_mut() else { return };
                let Some(frame) = run.frames.pop() else {
                    return;
                };
                let total_ns = frame.started.elapsed().as_nanos() as u64;
                let self_ns = total_ns.saturating_sub(frame.child_ns);
                run.profile.record(frame.name, total_ns, self_ns);
                if let Some(parent) = run.frames.last_mut() {
                    parent.child_ns = parent.child_ns.saturating_add(total_ns);
                }
            });
        }
    }

    /// Add `by` to counter `name` of the innermost active run.
    #[inline]
    pub fn counter_add(name: &'static str, by: u64) {
        RUNS.with(|runs| {
            if let Some(run) = runs.borrow_mut().last_mut() {
                run.registry.inc(name, by);
            }
        });
    }

    /// Record a histogram sample on the innermost active run.
    #[inline]
    pub fn record_value(name: &'static str, v: u64) {
        RUNS.with(|runs| {
            if let Some(run) = runs.borrow_mut().last_mut() {
                run.registry.record(name, v);
            }
        });
    }

    /// Run `f` with ambient collection active; see [`crate::obs::observe`].
    pub fn observe<T>(label: &str, f: impl FnOnce() -> T) -> (T, RunReport) {
        RUNS.with(|runs| runs.borrow_mut().push(RunState::default()));
        let started = Instant::now();
        // NB: if `f` panics the RunState is intentionally leaked on this
        // thread's stack; the thread is unwinding and (in tests) dying.
        let value = f();
        let wall_ns = started.elapsed().as_nanos() as u64;
        let state = RUNS.with(|runs| {
            runs.borrow_mut()
                .pop()
                .expect("observe: run stack underflow")
        });
        let mut report = RunReport {
            label: label.to_string(),
            profile: state.profile,
            metrics: state.registry,
        };
        report.profile.wall_ns = wall_ns;
        (value, report)
    }
}

// ---------------------------------------------------------------------------
// Ambient collection — no-op implementation (feature "obs" absent).
// ---------------------------------------------------------------------------

#[cfg(not(feature = "obs"))]
mod ambient {
    use super::RunReport;

    /// Inert span guard: no fields, no `Drop` impl, optimizes to nothing.
    #[must_use = "the span closes when the guard drops"]
    pub struct SpanGuard {
        _private: (),
    }

    /// No-op: the `obs` feature is disabled.
    #[inline(always)]
    pub fn span_enter(_name: &'static str) -> SpanGuard {
        SpanGuard { _private: () }
    }

    /// No-op: the `obs` feature is disabled.
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _by: u64) {}

    /// No-op: the `obs` feature is disabled.
    #[inline(always)]
    pub fn record_value(_name: &'static str, _v: u64) {}

    /// Passthrough: runs `f` and returns an empty [`RunReport`].
    #[inline]
    pub fn observe<T>(label: &str, f: impl FnOnce() -> T) -> (T, RunReport) {
        let value = f();
        let report = RunReport {
            label: label.to_string(),
            ..RunReport::default()
        };
        (value, report)
    }
}

pub use ambient::{counter_add, observe, record_value, span_enter, SpanGuard};

// ---------------------------------------------------------------------------
// Probe wrappers: the single choke point between schedulers and the
// calendar queries they count.
// ---------------------------------------------------------------------------

/// Instrumented calendar-probe wrappers used by every scheduler.
///
/// Each wrapper asks one of the calendar's three width-scan queries
/// (`earliest_finish`, `latest_start`, `narrowest_start_from`; a one-width
/// question is a scan over one candidate), folds the
/// [`QueryCost`](resched_resv::QueryCost) into the caller's
/// `ScheduleStats`, and records the query's steps into the
/// `calendar.fit.steps` histogram (a no-op without the `obs` feature or
/// outside an [`observe`] scope).
pub mod probe {
    use super::names;
    use crate::forward::TieBreak;
    use crate::schedule::{Placement, ScheduleStats};
    use resched_resv::{Calendar, Dur, QueryCost, Reservation, Time};

    /// The reservation a width-scan query answered with, as the scheduler's
    /// placement.
    fn placed(r: Reservation) -> Placement {
        Placement {
            start: r.start,
            end: r.end,
            procs: r.procs,
        }
    }

    /// `Calendar::earliest_finish` over one task's width `candidates`, as
    /// the placement it picks: one query, whatever the number of widths,
    /// folded into `stats`.
    #[inline]
    pub fn earliest_finish(
        cal: &Calendar,
        candidates: &[(u32, Dur)],
        not_before: Time,
        tie: TieBreak,
        stats: &mut ScheduleStats,
    ) -> Placement {
        let mut cost = QueryCost::default();
        let widest_on_tie = tie == TieBreak::MostProcs;
        let first = cal.earliest_finish(candidates, not_before, widest_on_tie, &mut cost);
        stats.absorb_query_cost(cost);
        super::record_value(names::FIT_STEPS, cost.steps);
        placed(first)
    }

    /// `Calendar::latest_start` over one task's width `candidates`, as the
    /// placement it picks: one query, whatever the number of widths, folded
    /// into `stats`.
    #[inline]
    pub fn latest_start(
        cal: &Calendar,
        candidates: &[(u32, Dur)],
        end_by: Time,
        not_before: Time,
        stats: &mut ScheduleStats,
    ) -> Option<Placement> {
        let mut cost = QueryCost::default();
        let last = cal.latest_start(candidates, end_by, not_before, &mut cost);
        stats.absorb_query_cost(cost);
        super::record_value(names::FIT_STEPS, cost.steps);
        last.map(placed)
    }

    /// `Calendar::narrowest_start_from` over one chunk of a task's width
    /// `candidates`, as the placement it picks: one query per chunk, folded
    /// into `stats`.
    #[inline]
    pub fn narrowest_start_from(
        cal: &Calendar,
        candidates: &[(u32, Dur)],
        end_by: Time,
        threshold: Time,
        stats: &mut ScheduleStats,
    ) -> Option<Placement> {
        let mut cost = QueryCost::default();
        let fit = cal.narrowest_start_from(candidates, end_by, threshold, &mut cost);
        stats.absorb_query_cost(cost);
        super::record_value(names::FIT_STEPS, cost.steps);
        fit.map(placed)
    }

    /// The earliest start of one width (`Calendar::earliest_finish` over one
    /// candidate) against the CPA mapping phase's *virtual* platform: cost is
    /// folded into the caller's [`QueryCost`] accumulator (whose fate —
    /// absorbed into stats or dropped — is the caller's business, exactly as
    /// before) and recorded into the registry under `cpa.map.*`, which no
    /// answer carries.
    #[inline]
    pub fn map_earliest_fit(
        platform: &Calendar,
        procs: u32,
        dur: Dur,
        not_before: Time,
        acc: &mut QueryCost,
    ) -> Time {
        let mut cost = QueryCost::default();
        let start = platform
            .earliest_finish(&[(procs, dur)], not_before, false, &mut cost)
            .start;
        acc.absorb(cost);
        // `counter_add` is a no-op stub when `obs` is off, so no cfg gate
        // is needed.
        super::counter_add(names::CPA_MAP_QUERIES, cost.queries);
        super::counter_add(names::CPA_MAP_STEPS, cost.steps);
        start
    }

    /// Count a fit query that went through BLIND's reservation desk (the
    /// desk already accumulated the [`QueryCost`]): an ordinary earliest-fit
    /// probe in `stats`, plus a `blind.desk.probes` tick.
    #[inline]
    pub fn record_desk_probe(cost: QueryCost, stats: &mut ScheduleStats) {
        stats.absorb_query_cost(cost);
        super::record_value(names::FIT_STEPS, cost.steps);
        super::counter_add(names::BLIND_PROBES, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_constant_is_declared_in_the_manifest() {
        // Both directions, from the one list the constants are declared in:
        // a constant with no `obs/metrics.toml` entry and an entry with no
        // constant both fail here. Call sites pass constants, never
        // literals, so a misspelt name does not compile.
        let manifest: Vec<&str> = include_str!("obs/metrics.toml")
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with('"'))
            .filter_map(|l| l.split('"').nth(1))
            .collect();
        let missing = |from: &[&'static str], of: &[&'static str]| -> Vec<&str> {
            of.iter().copied().filter(|n| !from.contains(n)).collect()
        };
        let undeclared = missing(&manifest, names::ALL);
        let unbacked = missing(names::ALL, &manifest);
        assert!(
            undeclared.is_empty() && unbacked.is_empty(),
            "obs::names constants with no crates/core/src/obs/metrics.toml entry: \
             {undeclared:?}; entries with no constant: {unbacked:?}"
        );
        for list in [names::ALL, &manifest[..]] {
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), list.len(), "a name is declared twice");
        }
    }

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_bounds(0), (0, 0));
        assert_eq!(Histogram::bucket_bounds(1), (1, 1));
        assert_eq!(Histogram::bucket_bounds(2), (2, 3));
        assert_eq!(Histogram::bucket_bounds(3), (4, 7));
        assert_eq!(Histogram::bucket_bounds(64), (1 << 63, u64::MAX));
        // Every value falls inside its own bucket's bounds.
        for v in [0u64, 1, 2, 3, 4, 5, 100, 1 << 20, u64::MAX] {
            let (lo, hi) = Histogram::bucket_bounds(Histogram::bucket_index(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        for v in [1u64, 2, 3, 4, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 110);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
        assert!((h.mean().unwrap() - 22.0).abs() < 1e-12);
        // q=0 → first sample's bucket (value 1, exact).
        assert_eq!(h.quantile(0.0), Some(1));
        // Median sample is 3 → bucket [2,3] → upper bound 3.
        assert_eq!(h.quantile(0.5), Some(3));
        // Top quantile clamps to the exact max.
        assert_eq!(h.quantile(1.0), Some(100));
        // Single-value histograms answer exactly at every quantile.
        let mut one = Histogram::new();
        one.record(42);
        assert_eq!(one.quantile(0.01), Some(42));
        assert_eq!(one.quantile(0.99), Some(42));
    }

    #[test]
    fn histogram_saturates_instead_of_wrapping() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(u64::MAX));
    }

    #[test]
    fn counter_saturation() {
        let mut reg = MetricsRegistry::new();
        reg.inc("c", u64::MAX - 1);
        reg.inc("c", 5);
        assert_eq!(reg.counter("c"), u64::MAX);
        reg.inc("c", 1);
        assert_eq!(reg.counter("c"), u64::MAX);
        assert_eq!(reg.counter("never"), 0);
    }

    #[test]
    fn registry_absorb_merges() {
        let mut a = MetricsRegistry::new();
        a.inc("x", 1);
        a.record("h", 4);
        let mut b = MetricsRegistry::new();
        b.inc("x", 2);
        b.inc("y", 3);
        b.record("h", 16);
        a.absorb(&b);
        assert_eq!(a.counter("x"), 3);
        assert_eq!(a.counter("y"), 3);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(4));
        assert_eq!(h.max(), Some(16));
    }

    #[test]
    fn phase_profile_records_and_merges() {
        let mut p = PhaseProfile::default();
        p.record("a", 100, 60);
        p.record("b", 40, 40);
        p.record("a", 50, 50);
        let a = p.span("a").unwrap();
        assert_eq!(a.calls, 2);
        assert_eq!(a.total_ns, 150);
        assert_eq!(a.self_ns, 110);
        assert_eq!(p.spans.iter().map(|s| s.self_ns).sum::<u64>(), 150);
        // First-entered order is preserved.
        let order: Vec<&str> = p.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(order, vec!["a", "b"]);
        let mut q = PhaseProfile::default();
        q.record("b", 10, 10);
        q.wall_ns = 7;
        p.absorb(&q);
        assert_eq!(p.span("b").unwrap().total_ns, 50);
        assert_eq!(p.wall_ns, 7);
    }

    #[test]
    fn run_report_jsonl_round_trip() {
        let mut report = RunReport {
            label: "BL_CPAR_BD_CPAR".to_string(),
            ..RunReport::default()
        };
        report.profile.record("cpa.alloc_loop", 1234, 1000);
        report.profile.record("forward.place", 999, 999);
        report.profile.wall_ns = 5000;
        report.metrics.inc(names::CPA_MAP_QUERIES, 12);
        report.metrics.record(names::FIT_STEPS, 33);
        report.metrics.record(names::FIT_STEPS, 1);
        // One line of JSONL: compact, no interior newline.
        let line = serde_json::to_string(&report).unwrap();
        assert!(!line.contains('\n'));
        let back: RunReport = serde_json::from_str(&line).unwrap();
        assert_eq!(back, report);
        // And the registry's histogram survives with its shape intact.
        let h = back.metrics.histogram(names::FIT_STEPS).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(33));
    }

    #[test]
    fn observe_is_passthrough_for_the_value() {
        let (v, report) = observe("lbl", || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(report.label, "lbl");
        assert!(report.metrics.is_empty());
        assert!(report.profile.spans.is_empty());
    }

    #[test]
    fn ambient_calls_outside_observe_are_noops() {
        // Must not panic or leak state.
        counter_add("orphan.counter", 1);
        record_value("orphan.hist", 9);
        {
            span!("orphan.span");
        }
        let (_, report) = observe("after", || ());
        assert_eq!(report.metrics.counter("orphan.counter"), 0);
        assert!(report.profile.span("orphan.span").is_none());
    }

    #[test]
    fn observe_collects_counters_and_histograms() {
        let (v, report) = observe("run", || {
            counter_add("widgets", 2);
            counter_add("widgets", 3);
            record_value("sizes", 8);
            "done"
        });
        assert_eq!(v, "done");
        assert_eq!(report.metrics.counter("widgets"), 5);
        assert_eq!(report.metrics.histogram("sizes").unwrap().count(), 1);
    }

    #[test]
    fn span_nesting_separates_self_from_total_time() {
        use std::time::Duration;
        let (_, report) = observe("run", || {
            let _outer = span_enter("outer");
            std::thread::sleep(Duration::from_millis(10));
            {
                let _inner = span_enter("inner");
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let outer = report.profile.span("outer").unwrap();
        let inner = report.profile.span("inner").unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        // Inner is a leaf: self == total, and it slept ≥ 10ms.
        assert_eq!(inner.self_ns, inner.total_ns);
        assert!(inner.total_ns >= 9_000_000, "inner {} ns", inner.total_ns);
        // Outer's total covers both sleeps; its self-time excludes the
        // inner span entirely.
        assert!(outer.total_ns >= inner.total_ns + 9_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // Self-times partition the wall clock.
        let self_ns: u64 = report.profile.spans.iter().map(|s| s.self_ns).sum();
        assert!(self_ns <= report.profile.wall_ns);
        assert!(report.profile.wall_ns >= 19_000_000);
    }

    #[test]
    fn nested_observes_are_independent() {
        let (_, outer) = observe("outer", || {
            counter_add("outer.only", 1);
            let (_, inner) = observe("inner", || {
                counter_add("inner.only", 1);
            });
            assert_eq!(inner.metrics.counter("inner.only"), 1);
            assert_eq!(inner.metrics.counter("outer.only"), 0);
        });
        assert_eq!(outer.metrics.counter("outer.only"), 1);
        // The inner run's events do not leak into the outer run.
        assert_eq!(outer.metrics.counter("inner.only"), 0);
    }

    #[test]
    fn span_macro_closes_at_end_of_block() {
        let (_, report) = observe("run", || {
            {
                crate::span!("phase.one");
            }
            crate::span!("phase.two");
        });
        assert_eq!(report.profile.span("phase.one").unwrap().calls, 1);
        assert_eq!(report.profile.span("phase.two").unwrap().calls, 1);
    }
}
