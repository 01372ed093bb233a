//! The traced run: a [`Backend`] wrapper that times every layer boundary
//! the public API exposes, without touching the library crates.
//!
//! Each party slot's strategy is wrapped in [`Timed`], which times the
//! strategy callbacks (the protocol handlers of `gcl_core` / `gcl_smr`)
//! and hands them a [`TimingCtx`] that times the calls a handler makes
//! back into the runtime (`send`, `multicast`, `multicast_except`,
//! `set_timer`: the simulator's router, or the async engine's encode and
//! outbound queueing). Handler *self* time excludes the time inside those
//! context calls.
//!
//! `Instant::now()` is not free, so only one callback in `2^k` per party
//! is timed (`1 << k` is the sampling period); every callback and every
//! send is still counted, and sampled times are scaled by the counted
//! totals. A further one in [`CODEC_PERIOD`] sampled deliveries is
//! round-tripped through the wire codec, outside the handler timing.
//! Wrappers accumulate into plain per-party fields and flush into the
//! shared [`Sink`] when they drop, so the hot path takes no lock and no
//! atomic.

use gcl_sim::{Backend, Context, ErasedMsg, ErasedSlot, MsgCodec, Outcome, ScenarioSpec, Strategy};
use gcl_types::{Config, Duration, LocalTime, PartyId, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One sampled delivery in this many (of the sampled ones) also runs
/// through the wire codec.
pub const CODEC_PERIOD: u64 = 16;

/// Callback and send counters, and sampled times, of one or more parties.
#[derive(Debug, Default, Clone, Copy)]
pub struct Totals {
    /// Strategy callbacks (start, message, timer).
    pub calls: u64,
    /// `on_timer` callbacks.
    pub timer_calls: u64,
    /// Callbacks that were timed.
    pub sampled: u64,
    /// Self time of the timed callbacks (excluding context calls), ns.
    pub handler_ns: u64,
    /// Time inside context calls made by timed callbacks, ns.
    pub ctx_ns: u64,
    /// Point-to-point sends (a multicast counts `n`, a
    /// `multicast_except` `n - 1`).
    pub sends: u64,
    /// Point-to-point sends made by timed callbacks.
    pub sampled_sends: u64,
    /// Time inside `send`/`multicast`/`multicast_except` of timed
    /// callbacks, ns.
    pub send_ns: u64,
    /// Deliveries round-tripped through the codec.
    pub codec_samples: u64,
    /// Encode time of those deliveries, ns.
    pub encode_ns: u64,
    /// Decode time of those deliveries, ns.
    pub decode_ns: u64,
    /// Encoded bytes of those deliveries.
    pub codec_bytes: u64,
    /// Deliveries whose bytes failed to decode (a codec defect).
    pub codec_errors: u64,
}

impl Totals {
    fn add(&mut self, o: &Totals) {
        self.calls += o.calls;
        self.timer_calls += o.timer_calls;
        self.sampled += o.sampled;
        self.handler_ns += o.handler_ns;
        self.ctx_ns += o.ctx_ns;
        self.sends += o.sends;
        self.sampled_sends += o.sampled_sends;
        self.send_ns += o.send_ns;
        self.codec_samples += o.codec_samples;
        self.encode_ns += o.encode_ns;
        self.decode_ns += o.decode_ns;
        self.codec_bytes += o.codec_bytes;
        self.codec_errors += o.codec_errors;
    }

    /// Mean self time of a timed callback, ns.
    pub fn handler_ns_per_call(&self) -> f64 {
        ratio(self.handler_ns, self.sampled)
    }

    /// Estimated total time inside callbacks (handler plus context
    /// calls), scaled from the timed sample to every callback, ns.
    pub fn callback_ns_estimate(&self) -> f64 {
        (self.handler_ns + self.ctx_ns) as f64 * ratio(self.calls, self.sampled)
    }
}

/// What the tracer saw of each `execute` call, summed.
#[derive(Debug, Default, Clone)]
pub struct RunTotals {
    /// `execute` calls.
    pub runs: u64,
    /// Wall time inside `execute`, ns.
    pub exec_ns: u64,
    /// `execute` entry to the first `start` callback, summed, ns.
    pub setup_ns: u64,
    /// Last honest commit to `execute` return, summed over runs with a
    /// commit, ns.
    pub teardown_ns: u64,
    /// Runs that saw an honest commit.
    pub committed_runs: u64,
    /// Outcome counters summed over runs.
    pub events: u64,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Sends dropped at enqueue (simulator only).
    pub drops: u64,
    /// Largest event-queue high-water mark.
    pub peak_queue: u64,
    /// Largest retained queue capacity, bytes (simulator only).
    pub queue_bytes: u64,
    /// Estimated handler time per registered family, ns.
    pub family_ns: BTreeMap<&'static str, f64>,
}

#[derive(Debug, Default)]
struct SinkState {
    totals: Totals,
    run: RunTotals,
    entered: Option<Instant>,
    first_start: Option<Instant>,
    last_commit: Option<Instant>,
}

/// Where wrappers flush their counters.
#[derive(Debug, Default)]
pub struct Sink(Mutex<SinkState>);

impl Sink {
    fn lock(&self) -> MutexGuard<'_, SinkState> {
        self.0
            .lock()
            .expect("a traced party panicked while flushing")
    }

    fn note_start(&self, at: Instant) {
        let mut s = self.lock();
        if s.first_start.is_none() {
            s.first_start = Some(at);
        }
    }

    fn note_honest_commit(&self, at: Instant) {
        let mut s = self.lock();
        s.last_commit = Some(s.last_commit.map_or(at, |c| c.max(at)));
    }

    /// Marks the start of one run (see [`Tracer::finish_run`]).
    pub fn begin_run(&self) {
        let mut s = self.lock();
        s.entered = Some(Instant::now());
        s.first_start = None;
        s.last_commit = None;
    }
}

/// The tracing backend wrapper. Also usable without a [`Backend`]
/// (`execute_with_client`): call [`Tracer::instrument`], then
/// [`Sink::begin_run`] before and [`Tracer::finish_run`] after the run.
#[derive(Debug)]
pub struct Tracer<B> {
    inner: B,
    sink: Arc<Sink>,
    mask: u64,
}

impl<B> Tracer<B> {
    /// Wraps `inner`, timing one callback in `2^sample_log2` per party.
    pub fn new(inner: B, sample_log2: u32) -> Self {
        Tracer {
            inner,
            sink: Arc::new(Sink::default()),
            mask: (1u64 << sample_log2) - 1,
        }
    }

    /// The shared sink.
    pub fn sink(&self) -> &Sink {
        &self.sink
    }

    /// Wraps every slot's strategy in a timing wrapper.
    pub fn instrument(&self, slots: Vec<ErasedSlot>, codec: MsgCodec) -> Vec<ErasedSlot> {
        slots
            .into_iter()
            .map(|slot| ErasedSlot {
                strategy: Box::new(Timed {
                    inner: slot.strategy,
                    honest: slot.honest,
                    codec,
                    mask: self.mask,
                    local: Totals::default(),
                    sink: Arc::clone(&self.sink),
                }),
                honest: slot.honest,
            })
            .collect()
    }

    /// Closes one run: folds its wall time, setup and teardown spans and
    /// outcome counters into the run totals, and attributes the run's
    /// handler time to `family`. The run's wrappers must have dropped.
    pub fn finish_run(&self, family: &'static str, outcome: &Outcome, before: &Totals) {
        let now = Instant::now();
        let mut s = self.sink.lock();
        let entered = s.entered.take().expect("begin_run precedes finish_run");
        let t = s.totals;
        let handler_est = (t.handler_ns - before.handler_ns) as f64
            * ratio(t.calls - before.calls, t.sampled - before.sampled);
        let (first_start, last_commit) = (s.first_start, s.last_commit);
        let run = &mut s.run;
        run.runs += 1;
        run.exec_ns += nanos(now - entered);
        if let Some(t) = first_start {
            run.setup_ns += nanos(t.saturating_duration_since(entered));
        }
        if let Some(t) = last_commit {
            run.teardown_ns += nanos(now.saturating_duration_since(t));
            run.committed_runs += 1;
        }
        run.events += outcome.events_processed();
        run.messages += outcome.messages_sent();
        run.drops += outcome.drops_at_enqueue();
        run.peak_queue = run.peak_queue.max(outcome.peak_queue_depth() as u64);
        run.queue_bytes = run.queue_bytes.max(outcome.queue_bytes());
        *run.family_ns.entry(family).or_default() += handler_est;
    }

    /// The counters flushed so far.
    pub fn totals(&self) -> Totals {
        self.sink.lock().totals
    }

    /// The run totals so far.
    pub fn run_totals(&self) -> RunTotals {
        self.sink.lock().run.clone()
    }
}

impl<B: Backend> Backend for Tracer<B> {
    fn name(&self) -> &'static str {
        "traced"
    }

    fn execute(&self, spec: &ScenarioSpec, slots: Vec<ErasedSlot>, codec: MsgCodec) -> Outcome {
        let before = self.totals();
        let slots = self.instrument(slots, codec);
        self.sink.begin_run();
        let outcome = self.inner.execute(spec, slots, codec);
        self.finish_run(spec.family, &outcome, &before);
        outcome
    }
}

/// One party's timing wrapper.
struct Timed {
    inner: Box<dyn Strategy<ErasedMsg>>,
    honest: bool,
    codec: MsgCodec,
    mask: u64,
    local: Totals,
    sink: Arc<Sink>,
}

impl Timed {
    /// Runs one callback, timing it when this is a sampled call.
    fn call(
        &mut self,
        ctx: &mut dyn Context<ErasedMsg>,
        f: impl FnOnce(&mut dyn Strategy<ErasedMsg>, &mut dyn Context<ErasedMsg>),
    ) {
        let timed = self.local.calls & self.mask == 0;
        self.local.calls += 1;
        let mut tctx = TimingCtx {
            inner: ctx,
            timed,
            honest: self.honest,
            sink: &self.sink,
            sends: 0,
            send_ns: 0,
            ctx_ns: 0,
        };
        if timed {
            let t0 = Instant::now();
            f(self.inner.as_mut(), &mut tctx);
            let total = nanos(t0.elapsed());
            self.local.sampled += 1;
            self.local.handler_ns += total.saturating_sub(tctx.ctx_ns);
            self.local.ctx_ns += tctx.ctx_ns;
            self.local.sampled_sends += tctx.sends;
            self.local.send_ns += tctx.send_ns;
        } else {
            f(self.inner.as_mut(), &mut tctx);
        }
        self.local.sends += tctx.sends;
    }

    /// Round-trips one delivered message through the wire codec.
    fn codec_sample(&mut self, msg: &ErasedMsg) {
        let t0 = Instant::now();
        let bytes = std::hint::black_box(msg.to_wire());
        let t1 = Instant::now();
        let decoded = self.codec.decode(&bytes);
        let t2 = Instant::now();
        if std::hint::black_box(decoded).is_err() {
            self.local.codec_errors += 1;
        }
        self.local.codec_samples += 1;
        self.local.codec_bytes += bytes.len() as u64;
        self.local.encode_ns += nanos(t1 - t0);
        self.local.decode_ns += nanos(t2 - t1);
    }
}

impl Strategy<ErasedMsg> for Timed {
    fn start(&mut self, ctx: &mut dyn Context<ErasedMsg>) {
        self.sink.note_start(Instant::now());
        self.call(ctx, |s, c| s.start(c));
    }

    fn on_message(&mut self, from: PartyId, msg: ErasedMsg, ctx: &mut dyn Context<ErasedMsg>) {
        let calls = self.local.calls;
        if calls & self.mask == 0 && (calls >> self.mask.count_ones()).is_multiple_of(CODEC_PERIOD)
        {
            self.codec_sample(&msg);
        }
        self.call(ctx, |s, c| s.on_message(from, msg, c));
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<ErasedMsg>) {
        self.local.timer_calls += 1;
        self.call(ctx, |s, c| s.on_timer(tag, c));
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        // A poisoned sink only loses this party's counters; never panic
        // in drop.
        if let Ok(mut s) = self.sink.0.lock() {
            s.totals.add(&self.local);
        }
    }
}

/// The context a timed callback sees: forwards every call to the
/// runtime's own method (multicasts stay multicasts, keeping the
/// runtime's shared-payload path) and times the sends and timers of
/// sampled callbacks.
struct TimingCtx<'a> {
    inner: &'a mut dyn Context<ErasedMsg>,
    timed: bool,
    honest: bool,
    sink: &'a Sink,
    sends: u64,
    send_ns: u64,
    ctx_ns: u64,
}

impl TimingCtx<'_> {
    fn timed_send(&mut self, count: u64, f: impl FnOnce(&mut dyn Context<ErasedMsg>)) {
        self.sends += count;
        if self.timed {
            let t0 = Instant::now();
            f(&mut *self.inner);
            let ns = nanos(t0.elapsed());
            self.send_ns += ns;
            self.ctx_ns += ns;
        } else {
            f(&mut *self.inner);
        }
    }
}

impl Context<ErasedMsg> for TimingCtx<'_> {
    fn me(&self) -> PartyId {
        self.inner.me()
    }
    fn config(&self) -> Config {
        self.inner.config()
    }
    fn now(&self) -> LocalTime {
        self.inner.now()
    }
    fn send(&mut self, to: PartyId, msg: ErasedMsg) {
        self.timed_send(1, |c| c.send(to, msg));
    }
    fn set_timer(&mut self, delay: Duration, tag: u64) {
        if self.timed {
            let t0 = Instant::now();
            self.inner.set_timer(delay, tag);
            self.ctx_ns += nanos(t0.elapsed());
        } else {
            self.inner.set_timer(delay, tag);
        }
    }
    fn commit(&mut self, value: Value) {
        if self.honest {
            self.sink.note_honest_commit(Instant::now());
        }
        self.inner.commit(value);
    }
    fn terminate(&mut self) {
        self.inner.terminate();
    }
    fn multicast(&mut self, msg: ErasedMsg) {
        let n = self.inner.config().n() as u64;
        self.timed_send(n, |c| c.multicast(msg));
    }
    fn multicast_except(&mut self, msg: ErasedMsg, skip: PartyId) {
        let n = self.inner.config().n() as u64;
        self.timed_send(n - 1, |c| c.multicast_except(msg, skip));
    }
}

/// `a / b` as a float, 0 when `b` is 0.
pub fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// A duration in whole nanoseconds.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
