//! Transparent wrappers around the simulator's three plug-point traits.
//!
//! In a traced run every queue, link controller and flow agent handed to
//! the [`numfabric_sim::Network`] is one of these delegating structs. Each
//! forwards every call unchanged (the traced run must simulate bit for bit
//! what the untraced one does) and meters the calls that do work: how many,
//! and how long the layer itself was busy.
//!
//! Calls nest — an agent's `on_ack` calls `AgentCtx::send_data`, which runs
//! the first hop's controller and queue before returning — so a meter
//! charges each call its *self* time: its duration minus the metered calls
//! made inside it. Engine code that runs inside an agent callback
//! (`send_data`, `set_timer`) cannot be told apart from outside and stays
//! with the agent.
//!
//! A wrapper is owned by one link or flow, which only one thread touches at
//! a time, so its meters are plain fields; they are folded into the shared
//! [`LayerTotals`] (atomics, because on a threaded run wrappers die on
//! whichever thread drops them) when the wrapper is dropped.

use numfabric_sim::network::AgentCtx;
use numfabric_sim::queue::EnqueueOutcome;
use numfabric_sim::transport::{AckMode, FlowAgent, LinkController};
use numfabric_sim::{FlowId, Packet, QueueDiscipline, SimDuration, SimTime};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

thread_local! {
    /// (nanoseconds, calls) of metered calls completed inside the metered
    /// call currently running on this thread.
    static NESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Calls, self time and directly nested calls of one wrapped method group.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Meter {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent in those calls, less metered calls nested in them.
    pub busy_ns: u64,
    /// Metered calls made directly inside those calls.
    pub nested: u64,
}

impl Meter {
    /// Run `f` as one metered call.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let outer = NESTED.replace((0, 0));
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed().as_nanos() as u64;
        let (inner_ns, inner_calls) = NESTED.get();
        self.calls += 1;
        self.busy_ns += elapsed.saturating_sub(inner_ns);
        self.nested += inner_calls;
        NESTED.set((outer.0 + elapsed, outer.1 + 1));
        result
    }

    /// Fold another meter into this one.
    pub fn add(&mut self, other: Meter) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.nested += other.nested;
    }
}

/// What one empty metered call costs, measured by [`calibrate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerCost {
    /// Nanoseconds one metered call adds to the program in total.
    pub total_ns: f64,
    /// The part of that which falls inside the call's own measured time.
    pub inside_ns: f64,
}

impl TimerCost {
    /// The part that falls outside the measured time, into the caller.
    pub fn outside_ns(&self) -> f64 {
        (self.total_ns - self.inside_ns).max(0.0)
    }

    /// A meter's busy seconds with the instrumentation's own cost removed:
    /// each call measured `inside_ns` of clock reading, and each nested call
    /// left its `outside_ns` in this meter's time.
    pub fn corrected_busy_s(&self, meter: Meter) -> f64 {
        let overhead =
            meter.calls as f64 * self.inside_ns + meter.nested as f64 * self.outside_ns();
        (meter.busy_ns as f64 - overhead).max(0.0) / 1e9
    }
}

/// Measure the cost of an empty metered call on this machine, now.
pub fn calibrate() -> TimerCost {
    const CALLS: u64 = 2_000_000;
    let mut best = TimerCost {
        total_ns: f64::INFINITY,
        inside_ns: 0.0,
    };
    // Best of three: interference only ever adds time.
    for _ in 0..3 {
        let mut meter = Meter::default();
        let start = Instant::now();
        for i in 0..CALLS {
            meter.time(|| std::hint::black_box(i));
        }
        let total_ns = start.elapsed().as_nanos() as f64 / CALLS as f64;
        if total_ns < best.total_ns {
            best = TimerCost {
                total_ns,
                inside_ns: meter.busy_ns as f64 / CALLS as f64,
            };
        }
    }
    NESTED.set((0, 0));
    best
}

/// Exact histogram of queue depth in packets, sampled at every enqueue.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DepthHistogram {
    counts: Vec<u64>,
}

impl DepthHistogram {
    /// Count one sample.
    #[inline]
    pub fn record(&mut self, depth: usize) {
        if depth >= self.counts.len() {
            self.counts.resize(depth + 1, 0);
        }
        self.counts[depth] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &DepthHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Nearest-rank quantile (`q` in `[0, 1]`); 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (depth, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return depth as u64;
            }
        }
        (self.counts.len() - 1) as u64
    }
}

#[derive(Debug, Default)]
struct AtomicMeter {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    nested: AtomicU64,
}

impl AtomicMeter {
    fn add(&self, meter: Meter) {
        self.calls.fetch_add(meter.calls, Relaxed);
        self.busy_ns.fetch_add(meter.busy_ns, Relaxed);
        self.nested.fetch_add(meter.nested, Relaxed);
    }

    fn get(&self) -> Meter {
        Meter {
            calls: self.calls.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
            nested: self.nested.load(Relaxed),
        }
    }
}

/// Run-wide totals the wrappers fold into when dropped. Statistics only —
/// nothing is published through them — hence `Relaxed`.
#[derive(Debug, Default)]
pub struct LayerTotals {
    enqueue: AtomicMeter,
    dequeue: AtomicMeter,
    drops: AtomicU64,
    empty_dequeues: AtomicU64,
    depth: Mutex<DepthHistogram>,
    controller: AtomicMeter,
    controller_timer_fires: AtomicU64,
    agent: AtomicMeter,
    agent_timer_calls: AtomicU64,
}

/// A plain copy of [`LayerTotals`], taken once every wrapper is gone.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct LayerSnapshot {
    /// `QueueDiscipline::enqueue`.
    pub enqueue: Meter,
    /// `QueueDiscipline::dequeue`.
    pub dequeue: Meter,
    /// Packets the queues dropped (arrivals refused and victims evicted).
    pub drops: u64,
    /// `dequeue` calls that found the queue empty.
    pub empty_dequeues: u64,
    /// Queue depth seen by each arriving packet.
    pub depth: DepthHistogram,
    /// `LinkController::{on_enqueue, on_dequeue, on_timer}`.
    pub controller: Meter,
    /// `LinkController::on_timer` calls among those.
    pub controller_timer_fires: u64,
    /// `FlowAgent::{on_start, on_ack, on_timer, on_reroute}`.
    pub agent: Meter,
    /// `FlowAgent::on_timer` calls among those.
    pub agent_timer_calls: u64,
}

impl LayerSnapshot {
    /// Every metered call, over all three layers.
    pub fn total_calls(&self) -> u64 {
        self.enqueue.calls + self.dequeue.calls + self.controller.calls + self.agent.calls
    }

    /// Both queue operations as one meter.
    pub fn queue(&self) -> Meter {
        let mut both = self.enqueue;
        both.add(self.dequeue);
        both
    }
}

impl LayerTotals {
    /// Copy the totals out. Wrappers still alive have not reported yet, so
    /// drop the network first.
    pub fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot {
            enqueue: self.enqueue.get(),
            dequeue: self.dequeue.get(),
            drops: self.drops.load(Relaxed),
            empty_dequeues: self.empty_dequeues.load(Relaxed),
            depth: self
                .depth
                .lock()
                .expect("a wrapper panicked while reporting")
                .clone(),
            controller: self.controller.get(),
            controller_timer_fires: self.controller_timer_fires.load(Relaxed),
            agent: self.agent.get(),
            agent_timer_calls: self.agent_timer_calls.load(Relaxed),
        }
    }
}

/// A [`QueueDiscipline`] that meters `enqueue`/`dequeue` of the one inside.
/// The backlog getters are forwarded unmetered: reading a field takes less
/// time than reading the clock twice.
pub struct TracedQueue {
    inner: Box<dyn QueueDiscipline>,
    totals: Arc<LayerTotals>,
    enqueue: Meter,
    dequeue: Meter,
    drops: u64,
    empty_dequeues: u64,
    depth: DepthHistogram,
}

impl TracedQueue {
    /// Wrap `inner`, reporting into `totals` on drop.
    pub fn new(inner: Box<dyn QueueDiscipline>, totals: Arc<LayerTotals>) -> Self {
        Self {
            inner,
            totals,
            enqueue: Meter::default(),
            dequeue: Meter::default(),
            drops: 0,
            empty_dequeues: 0,
            depth: DepthHistogram::default(),
        }
    }
}

impl QueueDiscipline for TracedQueue {
    fn enqueue(&mut self, packet: Packet, now: SimTime) -> EnqueueOutcome {
        self.depth.record(self.inner.backlog_packets());
        let inner = &mut self.inner;
        let outcome = self.enqueue.time(|| inner.enqueue(packet, now));
        if !matches!(outcome, EnqueueOutcome::Accepted) {
            self.drops += 1;
        }
        outcome
    }

    fn dequeue(&mut self, now: SimTime) -> Option<Packet> {
        let inner = &mut self.inner;
        let packet = self.dequeue.time(|| inner.dequeue(now));
        if packet.is_none() {
            self.empty_dequeues += 1;
        }
        packet
    }

    fn backlog_bytes(&self) -> usize {
        self.inner.backlog_bytes()
    }

    fn backlog_packets(&self) -> usize {
        self.inner.backlog_packets()
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    fn release_flow(&mut self, flow: FlowId) {
        self.inner.release_flow(flow);
    }
}

impl Drop for TracedQueue {
    fn drop(&mut self) {
        self.totals.enqueue.add(self.enqueue);
        self.totals.dequeue.add(self.dequeue);
        self.totals.drops.fetch_add(self.drops, Relaxed);
        self.totals
            .empty_dequeues
            .fetch_add(self.empty_dequeues, Relaxed);
        // A poisoned lock means another wrapper panicked mid-merge; the run
        // is already failing and `Drop` must not add a second panic.
        if let Ok(mut depth) = self.totals.depth.lock() {
            depth.merge(&self.depth);
        }
    }
}

/// A [`LinkController`] that meters the per-packet hooks and the timer of
/// the one inside.
pub struct TracedController {
    inner: Box<dyn LinkController>,
    totals: Arc<LayerTotals>,
    meter: Meter,
    timer_fires: u64,
}

impl TracedController {
    /// Wrap `inner`, reporting into `totals` on drop.
    pub fn new(inner: Box<dyn LinkController>, totals: Arc<LayerTotals>) -> Self {
        Self {
            inner,
            totals,
            meter: Meter::default(),
            timer_fires: 0,
        }
    }
}

impl LinkController for TracedController {
    fn on_enqueue(&mut self, packet: &mut Packet, now: SimTime) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_enqueue(packet, now));
    }

    fn on_dequeue(&mut self, packet: &mut Packet, now: SimTime, queue_bytes: usize) {
        let inner = &mut self.inner;
        self.meter
            .time(|| inner.on_dequeue(packet, now, queue_bytes));
    }

    fn initial_timer(&self) -> Option<SimDuration> {
        self.inner.initial_timer()
    }

    fn on_timer(&mut self, now: SimTime, queue_bytes: usize) -> Option<SimDuration> {
        self.timer_fires += 1;
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_timer(now, queue_bytes))
    }

    fn on_capacity_change(&mut self, new_capacity_bps: f64) {
        self.inner.on_capacity_change(new_capacity_bps);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Drop for TracedController {
    fn drop(&mut self) {
        self.totals.controller.add(self.meter);
        self.totals
            .controller_timer_fires
            .fetch_add(self.timer_fires, Relaxed);
    }
}

/// A [`FlowAgent`] that meters every callback of the one inside.
pub struct TracedAgent {
    inner: Box<dyn FlowAgent>,
    totals: Arc<LayerTotals>,
    meter: Meter,
    timer_calls: u64,
}

impl TracedAgent {
    /// Wrap `inner`, reporting into `totals` on drop.
    pub fn new(inner: Box<dyn FlowAgent>, totals: Arc<LayerTotals>) -> Self {
        Self {
            inner,
            totals,
            meter: Meter::default(),
            timer_calls: 0,
        }
    }
}

impl FlowAgent for TracedAgent {
    fn on_start(&mut self, ctx: &mut AgentCtx<'_>) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_start(ctx));
    }

    fn on_ack(&mut self, packet: &Packet, ctx: &mut AgentCtx<'_>) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_ack(packet, ctx));
    }

    fn ack_mode(&self) -> AckMode {
        self.inner.ack_mode()
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut AgentCtx<'_>) {
        self.timer_calls += 1;
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_timer(tag, ctx));
    }

    fn on_reroute(&mut self, path_was_lost: bool, ctx: &mut AgentCtx<'_>) {
        let inner = &mut self.inner;
        self.meter.time(|| inner.on_reroute(path_was_lost, ctx));
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Drop for TracedAgent {
    fn drop(&mut self) {
        self.totals.agent.add(self.meter);
        self.totals
            .agent_timer_calls
            .fetch_add(self.timer_calls, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_calls_are_charged_to_the_inner_meter() {
        let mut outer = Meter::default();
        let mut inner = Meter::default();
        let spin = |ns: u64| {
            let start = Instant::now();
            while (start.elapsed().as_nanos() as u64) < ns {
                std::hint::spin_loop();
            }
        };
        outer.time(|| {
            spin(200_000);
            for _ in 0..2 {
                inner.time(|| spin(300_000));
            }
        });
        assert_eq!((outer.calls, outer.nested), (1, 2));
        assert_eq!((inner.calls, inner.nested), (2, 0));
        assert!(inner.busy_ns >= 600_000);
        // The outer call ran ≥ 800 µs in all but is charged only its own part.
        assert!(outer.busy_ns >= 200_000 && outer.busy_ns < inner.busy_ns);
        assert_eq!(NESTED.get(), (outer.busy_ns + inner.busy_ns, 1));
        NESTED.set((0, 0));
    }

    #[test]
    fn correction_removes_the_calibrated_cost() {
        let cost = TimerCost {
            total_ns: 50.0,
            inside_ns: 20.0,
        };
        let meter = Meter {
            calls: 1000,
            busy_ns: 100_000,
            nested: 500,
        };
        // 100 µs − 1000 × 20 ns − 500 × 30 ns
        assert!((cost.corrected_busy_s(meter) - 65e-6).abs() < 1e-12);
        let tiny = Meter {
            calls: 1000,
            busy_ns: 10,
            nested: 0,
        };
        assert_eq!(cost.corrected_busy_s(tiny), 0.0);
    }

    #[test]
    fn depth_quantiles_are_nearest_rank() {
        let mut a = DepthHistogram::default();
        assert_eq!(a.quantile(0.5), 0);
        for depth in [0, 0, 0, 1, 1, 2, 2, 2, 2, 9] {
            a.record(depth);
        }
        assert_eq!((a.quantile(0.5), a.quantile(0.99)), (1, 9));
        let mut b = DepthHistogram::default();
        b.record(40);
        b.merge(&a);
        assert_eq!(b.quantile(1.0), 40);
        assert_eq!(b.quantile(0.0), 0);
    }
}
