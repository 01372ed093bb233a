//! `smr_failover`: the SMR service at (24, 5) = 5f − 1 on the async
//! backend with one worker, `batch` 4 and `pipeline` 4, fed by an
//! open-loop client at [`RATE_PER_S`]. Each session runs a clean phase,
//! kills the initial leader at a fixed instant, keeps the request
//! schedule through the fault, and ends at a fixed deadline set long
//! enough for the degraded service to work off its backlog: requests
//! never acknowledged by then count as failed. A run is as many
//! back-to-back sessions as fit in `--seconds`.

use crate::sim::with_probe;
use crate::tracer::{ratio, Tracer};
use crate::wall::net_metrics;
use crate::{
    absent, cpu_ms, crypto_and_host, heap, info, info_latency, info_n, least, median, ms,
    outcome_counters, print_inputs, Args, Report, TRACE_SAMPLE_LOG2,
};
use gcl_crypto::Keychain;
use gcl_net::{AsyncBackend, ClientHandle};
use gcl_sim::{
    derive_cell_seed, Context, ErasedMsg, ErasedSlot, MsgCodec, SchedCounters, Strategy,
};
use gcl_smr::{MempoolStats, SlotEngine, SmrMsg, SmrParams, StateMachine};
use gcl_types::{Decode, Encode, PartyId, SlotId, Value};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, requests per second: well below clean capacity, so
/// that ack latency is mostly the injected link delay rather than
/// queueing, which swings with the host's speed.
pub const RATE_PER_S: u32 = 50;
/// Clean phase: from the schedule's origin to the leader's death.
pub const CLEAN: Duration = Duration::from_millis(1_500);
/// Requests keep arriving on schedule this long after the kill.
pub const DEGRADED: Duration = Duration::from_millis(1_000);
/// Receive-only tail after the last request is due: long enough for the
/// degraded service to work off its backlog, so every request is acked.
pub const TAIL: Duration = Duration::from_millis(5_000);
/// Proposal batch cap and pipeline depth.
pub const BATCH: usize = 4;
/// Slots in flight.
pub const PIPELINE: usize = 4;
/// The client retries a request unacknowledged this long …
const RETRY_AFTER: Duration = Duration::from_millis(300);
/// … at most this many times.
const RETRY_BUDGET: u32 = 3;
/// Acks received this close to the end are not audited against the
/// probe replica's log, which may not have applied them yet.
const AUDIT_MARGIN: Duration = Duration::from_millis(1_000);

/// Layers the SMR workload does not run.
const ABSENT: [&str; 1] = ["trace.erasure_frac"];

fn session_len() -> Duration {
    CLEAN + DEGRADED + TAIL
}

/// A state machine that logs `(command, slot, apply instant)`.
struct Recording {
    total: u64,
    log: Arc<Mutex<Vec<(Value, SlotId, Instant)>>>,
}

impl StateMachine for Recording {
    fn apply(&mut self, slot: SlotId, value: Value) {
        self.total = self.total.wrapping_add(value.as_u64());
        self.log.lock().push((value, slot, Instant::now()));
    }

    fn state_digest(&self) -> u64 {
        self.total
    }
}

/// Kills the wrapped party at a fixed instant: from then on it handles
/// nothing and sends nothing.
struct KillAt {
    inner: Box<dyn Strategy<ErasedMsg>>,
    at: Instant,
    dead: bool,
}

impl KillAt {
    fn alive(&mut self) -> bool {
        if !self.dead && Instant::now() >= self.at {
            self.dead = true;
        }
        !self.dead
    }
}

impl Strategy<ErasedMsg> for KillAt {
    fn start(&mut self, ctx: &mut dyn Context<ErasedMsg>) {
        if self.alive() {
            self.inner.start(ctx);
        }
    }
    fn on_message(&mut self, from: PartyId, msg: ErasedMsg, ctx: &mut dyn Context<ErasedMsg>) {
        if self.alive() {
            self.inner.on_message(from, msg, ctx);
        }
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<ErasedMsg>) {
        if self.alive() {
            self.inner.on_timer(tag, ctx);
        }
    }
}

/// What the open-loop client saw.
#[derive(Debug, Default)]
struct ClientLog {
    acks: Vec<Option<Instant>>,
    submitted: usize,
    retries: u64,
    rejects: u64,
    late_max: Duration,
}

/// The open-loop client: request `i` is due at `origin + i / rate`, fans
/// out to every replica, and is retried on a budget; acks drain between
/// submits. Runs until `end`, or until the service shuts down.
fn drive(client: &ClientHandle, n: usize, origin: Instant, end: Instant, base: u64) -> ClientLog {
    let gap = Duration::from_secs(1) / RATE_PER_S;
    let requests = ((CLEAN + DEGRADED).as_micros() / gap.as_micros()) as usize;
    let mut log = ClientLog {
        acks: vec![None; requests],
        ..ClientLog::default()
    };
    let mut last_try = vec![origin; requests];
    let mut budget = vec![RETRY_BUDGET; requests];
    let submit = |i: usize| {
        let frame = SmrMsg::Submit {
            cmd: Value::new(base + i as u64),
        }
        .to_wire();
        (0..n as u32).all(|p| client.submit(PartyId::new(p), frame.clone()))
    };
    let note = |bytes: Vec<u8>, log: &mut ClientLog| match SmrMsg::from_wire(&bytes) {
        Ok(SmrMsg::Ack { cmd, .. }) => {
            let i = cmd.as_u64().wrapping_sub(base) as usize;
            if i < log.acks.len() && log.acks[i].is_none() {
                log.acks[i] = Some(Instant::now());
            }
        }
        Ok(SmrMsg::Reject { .. }) => log.rejects += 1,
        _ => {}
    };
    loop {
        let now = Instant::now();
        if now >= end {
            return log;
        }
        while log.submitted < requests && origin + gap * log.submitted as u32 <= now {
            let due = origin + gap * log.submitted as u32;
            log.late_max = log.late_max.max(now - due);
            last_try[log.submitted] = now;
            if !submit(log.submitted) {
                return log;
            }
            log.submitted += 1;
        }
        for i in 0..log.submitted {
            if log.acks[i].is_none() && budget[i] > 0 && now - last_try[i] >= RETRY_AFTER {
                budget[i] -= 1;
                last_try[i] = now;
                log.retries += 1;
                if !submit(i) {
                    return log;
                }
            }
        }
        while let Some(bytes) = client.try_recv() {
            note(bytes, &mut log);
        }
        let next_due = origin + gap * log.submitted as u32;
        let wait = next_due
            .saturating_duration_since(Instant::now())
            .clamp(Duration::from_micros(200), Duration::from_millis(5));
        if let Some(bytes) = client.recv_timeout(wait) {
            note(bytes, &mut log);
        }
    }
}

/// One measured session.
#[derive(Debug, Default)]
struct Session {
    /// Service launch to the first ack.
    setup: Option<Duration>,
    attempted: u64,
    acked: u64,
    /// Due-to-ack latency of requests due before the kill, ms.
    pre_ms: Vec<f64>,
    /// Due-to-ack latency of requests due after the kill, ms.
    post_ms: Vec<f64>,
    /// Kill to the last ack of a request due after it.
    drained: Option<Duration>,
    /// Kill to the first ack of a request due after it.
    unserved: Option<Duration>,
    retries: u64,
    rejects: u64,
    late_max: Duration,
    exactly_once: bool,
    acked_applied: bool,
    /// At the probe replica, for requests due before the kill:
    /// due-to-apply and apply-to-ack (signed), ms.
    due_to_apply_ms: Vec<f64>,
    apply_to_ack_ms: Vec<f64>,
    cmds_per_slot: f64,
    mempool: MempoolStats,
    sched: Option<SchedCounters>,
    cpu_ms: f64,
    peak_heap_mb: f64,
    macs: u64,
    hits: u64,
}

/// Runs one session; `tracer` instruments every replica.
fn session(seed: u64, tracer: Option<&Tracer<()>>) -> Session {
    heap::reset_peak();
    let launch = Instant::now();
    let spec = gcl_bench::smrload::scale_spec().with_seed(seed);
    let cfg = spec.config().expect("(24, 5) is a valid shape");
    let chain = Keychain::generate(spec.n, spec.seed);
    let params = SmrParams {
        batch: BATCH,
        pipeline: PIPELINE,
        ..SmrParams::default()
    };
    let probe = spec.n - 1;
    let logs: Vec<_> = (0..spec.n)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let stats = Arc::new(Mutex::new(MempoolStats::default()));
    let mut slots = spec.erased_slots(|p| {
        let engine = SlotEngine::new(
            cfg,
            chain.signer(p),
            chain.pki(),
            spec.big_delta,
            params,
            Arc::new(Mutex::new(Recording {
                total: 0,
                log: Arc::clone(&logs[p.as_usize()]),
            })),
        );
        if p.as_usize() == probe {
            engine.with_stats_probe(Arc::clone(&stats))
        } else {
            engine
        }
    });
    let origin = Instant::now();
    let kill = origin + CLEAN;
    let end = origin + session_len();
    let leader = slots.remove(0);
    slots.insert(
        0,
        ErasedSlot {
            strategy: Box::new(KillAt {
                inner: leader.strategy,
                at: kill,
                dead: false,
            }),
            honest: false,
        },
    );
    let codec = MsgCodec::of::<SmrMsg>();
    let before = tracer.map(|t| t.totals());
    if let Some(t) = tracer {
        slots = t.instrument(slots, codec);
        t.sink().begin_run();
    }
    let base = 1 + (seed & 0xffff_ffff) * 100_000;
    let client_log = Arc::new(Mutex::new(ClientLog::default()));
    let sink = Arc::clone(&client_log);
    let n = spec.n;
    let backend = AsyncBackend::new().workers(1).deadline(session_len());
    let (u0, s0) = cpu_ms();
    let (o, macs, hits) = with_probe(|| {
        backend.execute_with_client(&spec, slots, codec, move |client| {
            *sink.lock() = drive(&client, n, origin, end, base);
        })
    });
    let (u1, s1) = cpu_ms();
    let rss = heap::peak_mb();
    if let (Some(t), Some(before)) = (tracer, before) {
        t.finish_run("smr", &o, &before);
    }

    let client = client_log.lock();
    let gap = Duration::from_secs(1) / RATE_PER_S;
    let due = |i: usize| origin + gap * i as u32;
    let mut s = Session {
        attempted: client.submitted as u64,
        retries: client.retries,
        rejects: client.rejects,
        late_max: client.late_max,
        mempool: *stats.lock(),
        sched: o.sched_counters(),
        cpu_ms: u1 + s1 - u0 - s0,
        peak_heap_mb: rss,
        macs,
        hits,
        ..Session::default()
    };
    let mut first_ack: Option<Instant> = None;
    for (i, ack) in client.acks[..client.submitted].iter().enumerate() {
        let Some(at) = *ack else { continue };
        s.acked += 1;
        first_ack = Some(first_ack.map_or(at, |f| f.min(at)));
        if due(i) < kill {
            s.pre_ms.push(ms(at.saturating_duration_since(due(i))));
        } else {
            s.post_ms.push(ms(at.saturating_duration_since(due(i))));
            let gap = at.saturating_duration_since(kill);
            s.unserved = Some(s.unserved.map_or(gap, |u| u.min(gap)));
            s.drained = Some(s.drained.map_or(gap, |d| d.max(gap)));
        }
    }
    s.setup = first_ack.map(|a| a - launch);

    // Audits at the probe replica: nothing applied twice, and every
    // request acked before the audit margin applied.
    let applied = logs[probe].lock();
    let mut seen = BTreeSet::new();
    s.exactly_once = applied.iter().all(|(v, _, _)| seen.insert(*v));
    let cutoff = end - AUDIT_MARGIN;
    s.acked_applied = client.acks[..client.submitted]
        .iter()
        .enumerate()
        .filter(|(_, a)| a.is_some_and(|at| at <= cutoff))
        .all(|(i, _)| seen.contains(&Value::new(base + i as u64)));
    let slots_seen: BTreeSet<SlotId> = applied.iter().map(|(_, slot, _)| *slot).collect();
    s.cmds_per_slot = ratio(applied.len() as u64, slots_seen.len() as u64);
    // Stage split of the requests `ack_ms` covers: those due before the
    // kill.
    for (v, _, at) in applied.iter() {
        let i = v.as_u64().wrapping_sub(base) as usize;
        if i < client.submitted && due(i) < kill {
            s.due_to_apply_ms
                .push(ms(at.saturating_duration_since(due(i))));
            if let Some(ack) = client.acks[i] {
                // Signed: the first ack may come from a replica that
                // applied before the probe did.
                s.apply_to_ack_ms.push(signed_ms(ack, *at));
            }
        }
    }
    s
}

/// `later - earlier` in ms, negative when `later` is earlier.
fn signed_ms(later: Instant, earlier: Instant) -> f64 {
    if later >= earlier {
        ms(later - earlier)
    } else {
        -ms(earlier - later)
    }
}

fn check(s: &Session, report: &mut Report) {
    report.attempted += s.attempted;
    report.failed += s.attempted - s.acked;
    if !s.exactly_once {
        report.violation("a command was applied twice at the probe replica".into());
    }
    if !s.acked_applied {
        report.violation("an acknowledged command is missing from the probe replica".into());
    }
}

fn flat(sessions: &[Session], f: impl Fn(&Session) -> &Vec<f64>) -> Vec<f64> {
    sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
}

/// `smr_failover`.
pub fn failover(args: &Args, sentinel: f64) -> Report {
    let mut report = Report::default();
    let per = session_len().as_secs_f64();
    print_inputs(
        &gcl_bench::smrload::scale_spec().with_seed(derive_cell_seed(args.seed, 0)),
        "2 busy (AsyncBackend scheduler + workers(1)) + 1 client thread",
    );
    println!(
        "inputs: batch {BATCH} pipeline {PIPELINE} rate {RATE_PER_S}/s clean {CLEAN:?} degraded {DEGRADED:?} tail {TAIL:?} (leader 0 killed at the end of the clean phase)"
    );
    if !args.trace {
        let count = ((args.seconds / per).floor() as u64).max(1);
        let sessions: Vec<Session> = (0..count)
            .map(|k| session(derive_cell_seed(args.seed, k), None))
            .collect();
        for s in &sessions {
            check(s, &mut report);
        }
        let setups: Vec<f64> = sessions
            .iter()
            .filter_map(|s| s.setup.map(|d| d.as_secs_f64()))
            .collect();
        let pre = flat(&sessions, |s| &s.pre_ms);
        let post = flat(&sessions, |s| &s.post_ms);
        let degraded: Vec<f64> = sessions
            .iter()
            .filter_map(|s| s.drained.map(|d| s.post_ms.len() as f64 / d.as_secs_f64()))
            .collect();
        let unserved: Vec<f64> = sessions.iter().filter_map(|s| s.unserved.map(ms)).collect();
        let rss: Vec<f64> = sessions.iter().map(|s| s.peak_heap_mb).collect();
        report.metric_n("setup_s", median(&setups), setups.len());
        report.metric_n("peak_heap_mb", least(&rss), rss.len());
        report.metric("served_frac", 1.0 - ratio(report.failed, report.attempted));
        report.metric_n("ops_per_s", median(&degraded), degraded.len());
        report.metric_n("latency_ms_p50", median(&post), post.len());
        info_latency("ack_ms", &pre);
        info_latency("degraded_ack_ms", &post);
        info_n("unserved_ms", median(&unserved), "ms", unserved.len());
        let drained: Vec<f64> = sessions.iter().filter_map(|s| s.drained.map(ms)).collect();
        info_n("drained_ms", median(&drained), "ms", drained.len());
        info_n(
            "degraded_commits_per_s",
            median(&degraded),
            "1/s",
            degraded.len(),
        );
        info(
            "failed_frac",
            ratio(report.failed, report.attempted),
            "frac",
        );
        let retries: u64 = sessions.iter().map(|s| s.retries).sum();
        info(
            "client_retries_per_session",
            retries as f64 / count as f64,
            "count",
        );
        return report;
    }

    // Untraced and traced sessions alternate; the per-layer SMR and
    // scheduler numbers come from the untraced ones.
    let pairs = ((args.seconds / (2.0 * per)).floor() as u64).max(1);
    let tracer = Tracer::new((), TRACE_SAMPLE_LOG2);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for k in 0..pairs {
        plain.push(session(derive_cell_seed(args.seed, k), None));
        traced.push(session(derive_cell_seed(args.seed, k), Some(&tracer)));
    }
    for s in plain.iter().chain(&traced) {
        check(s, &mut report);
    }
    let count = plain.len() as u64;
    let totals = tracer.totals();
    let run_totals = tracer.run_totals();
    outcome_counters(&mut report, &run_totals, count);
    let med = |f: &dyn Fn(&Session) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let macs = med(&|s| s.macs as f64);
    let hits = med(&|s| s.hits as f64);
    report.metric("gcl_crypto.verify_macs", macs);
    report.metric("gcl_crypto.verify_hits", hits);
    report.metric("gcl_crypto.hit_ratio", hits / (hits + macs).max(1.0));
    report.metric(
        "gcl_net.wakeups",
        med(&|s| s.sched.map_or(0, |c| c.wakeups) as f64),
    );
    report.metric(
        "gcl_net.peak_out_bytes",
        med(&|s| s.sched.map_or(0, |c| c.peak_outbound_bytes) as f64),
    );
    net_metrics(&mut report, &totals, &run_totals, count);
    info_n(
        "gcl_smr.handler_ns_per_call",
        totals.handler_ns_per_call(),
        "ns",
        totals.sampled as usize,
    );
    info(
        "gcl_smr.timer_fires",
        ratio(totals.timer_calls, count),
        "count",
    );
    report.metric("gcl_smr.cmds_per_slot", med(&|s| s.cmds_per_slot));
    let admitted = med(&|s| s.mempool.admitted as f64);
    let rejected = med(&|s| s.mempool.rejected as f64);
    report.metric("gcl_smr.mp_admitted", admitted);
    report.metric("gcl_smr.mp_rejected", rejected);
    report.metric("gcl_smr.mp_requeued", med(&|s| s.mempool.requeued as f64));
    report.metric(
        "gcl_smr.admit_ratio",
        admitted / (admitted + rejected).max(1.0),
    );
    report.metric("gcl_smr.client_retries", med(&|s| s.retries as f64));
    report.metric("gcl_smr.client_rejects", med(&|s| s.rejects as f64));
    let stage = |name: &str, xs: Vec<f64>| {
        info_latency(name, &xs);
    };
    stage(
        "gcl_smr.due_to_apply_ms",
        flat(&plain, |s| &s.due_to_apply_ms),
    );
    stage(
        "gcl_smr.apply_to_ack_ms",
        flat(&plain, |s| &s.apply_to_ack_ms),
    );
    info(
        "gcl_smr.gen_late_ms_max",
        plain.iter().map(|s| ms(s.late_max)).fold(0.0, f64::max),
        "ms",
    );
    crypto_and_host(&mut report, 24, args.seed, sentinel);
    let cpu_plain: Vec<f64> = plain.iter().map(|s| s.cpu_ms).collect();
    let cpu_traced: Vec<f64> = traced.iter().map(|s| s.cpu_ms).collect();
    report.metric_n("host.cpu_ms_per_op", median(&cpu_plain), cpu_plain.len());
    info_n(
        "traced_cpu_ms_per_session",
        median(&cpu_traced),
        "ms",
        cpu_traced.len(),
    );
    // Sessions have a fixed wall length, so the tracer's cost shows in
    // process CPU time rather than wall time.
    report.metric_n(
        "trace.overhead_frac",
        median(&cpu_traced) / median(&cpu_plain) - 1.0,
        cpu_traced.len(),
    );
    absent(&mut report, &ABSENT);
    report
}
