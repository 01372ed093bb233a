//! `wall_brb2`: `brb2` at (256, 1) on the async backend with one worker,
//! δ' = 2 ms injected per link and Δ' raised as the repository's async
//! scale rows raise it. Every run's wall time includes socket setup and
//! shutdown.

use crate::sim::{check_brb2, with_probe};
use crate::tracer::{ratio, RunTotals, Totals, Tracer};
use crate::{
    absent, cpu_ms, crypto_and_host, heap, info, info_latency, info_n, least, median, ms,
    outcome_counters, print_inputs, repeated_setup, tracer_metrics, Args, Clock, Report,
    TRACE_SAMPLE_LOG2,
};
use gcl_net::AsyncBackend;
use gcl_sim::{derive_cell_seed, Outcome, ScenarioSpec};
use std::time::{Duration, Instant};

/// Parties of the wall run.
pub const N: usize = 256;

/// Per-run deadline; honest termination ends a run long before it.
const DEADLINE: Duration = Duration::from_secs(60);

/// Layers the wall broadcast does not run.
const ABSENT: [&str; 8] = [
    "gcl_smr.cmds_per_slot",
    "gcl_smr.mp_admitted",
    "gcl_smr.mp_rejected",
    "gcl_smr.mp_requeued",
    "gcl_smr.admit_ratio",
    "gcl_smr.client_retries",
    "gcl_smr.client_rejects",
    "trace.erasure_frac",
];

/// The async backend every wall run uses: one worker beside the
/// scheduler.
pub fn backend() -> AsyncBackend {
    AsyncBackend::new().workers(1).deadline(DEADLINE)
}

fn spec(seed: u64) -> ScenarioSpec {
    gcl_bench::netlat::scale_spec("brb2", N).with_seed(derive_cell_seed(seed, 0))
}

fn commit_ms(o: &Outcome) -> Option<f64> {
    o.good_case_latency().map(|d| d.as_micros() as f64 / 1e3)
}

/// `wall_brb2`.
pub fn brb2(args: &Args, sentinel: f64) -> Report {
    let mut report = Report::default();
    let backend = backend();
    let (setup_s, setups, (reg, spec, warm)) = repeated_setup(Clock::Wall, || {
        let reg = gcl_core::registry();
        let spec = spec(args.seed);
        let warm = reg.run_on(&spec, &backend).expect("brb2 shape admitted");
        (reg, spec, warm)
    });
    if !warm.agreement_holds() {
        report.violation("agreement broken in the warm-up run".into());
    }
    print_inputs(&spec, "2 (AsyncBackend scheduler + workers(1))");
    let budget = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        let (mut exec, mut commits, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        let start = Instant::now();
        while exec.is_empty() || start.elapsed() < budget {
            heap::reset_peak();
            let t = Instant::now();
            let o = reg.run_on(&spec, &backend).expect("admitted");
            exec.push(ms(t.elapsed()));
            rss.push(heap::peak_mb());
            check_brb2(&spec, &o, &mut report);
            commits.extend(commit_ms(&o));
        }
        report.metric_n("setup_s", setup_s, setups);
        report.metric_n("peak_heap_mb", least(&rss), rss.len());
        report.metric("served_frac", 1.0 - ratio(report.failed, report.attempted));
        report.metric_n("ops_per_s", 1e3 / median(&exec), exec.len());
        report.metric_n("latency_ms_p50", median(&commits), commits.len());
        info_latency("commit_ms", &commits);
        info_latency("exec_ms", &exec);
        info(
            "runs_per_s_mean",
            exec.len() as f64 / start.elapsed().as_secs_f64(),
            "1/s",
        );
        return report;
    }

    let tracer = Tracer::new(backend, TRACE_SAMPLE_LOG2);
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let (mut user, mut sys) = (Vec::new(), Vec::new());
    let (mut wakeups, mut peak_out) = (Vec::new(), Vec::new());
    let (mut macs, mut hits) = (Vec::new(), Vec::new());
    let mut counts = None;
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed() < budget {
        let (u0, s0) = cpu_ms();
        let t = Instant::now();
        let (o, m, h) = with_probe(|| reg.run_on(&spec, &backend).expect("admitted"));
        plain_ms.push(ms(t.elapsed()));
        macs.push(m as f64);
        hits.push(h as f64);
        let (u1, s1) = cpu_ms();
        user.push(u1 - u0);
        sys.push(s1 - s0);
        check_brb2(&spec, &o, &mut report);
        let sched = o
            .sched_counters()
            .expect("the async backend reports its scheduler");
        wakeups.push(sched.wakeups as f64);
        peak_out.push(sched.peak_outbound_bytes as f64);
        counts.get_or_insert((o.events_processed(), o.messages_sent()));
        let t = Instant::now();
        let traced = reg.run_on(&spec, &tracer).expect("admitted");
        traced_ms.push(ms(t.elapsed()));
        check_brb2(&spec, &traced, &mut report);
        if traced.committed_value() != Some(spec.input) || traced.good_case_rounds() != Some(2) {
            report.violation("the traced wall run did not commit the input in 2 rounds".into());
        }
    }
    let runs = traced_ms.len() as u64;
    let totals = tracer.totals();
    let run_totals = tracer.run_totals();
    // The async engine's own Outcome counters (not exact: wall timing
    // decides how many sends reach parties that already terminated).
    outcome_counters(&mut report, &run_totals, runs);
    let (events, messages) = counts.expect("at least one run");
    info("untraced.events", events as f64, "count");
    info("untraced.messages", messages as f64, "count");
    let (macs, hits) = (median(&macs), median(&hits));
    report.metric("gcl_crypto.verify_macs", macs);
    report.metric("gcl_crypto.verify_hits", hits);
    report.metric("gcl_crypto.hit_ratio", hits / (hits + macs).max(1.0));
    report.metric("gcl_net.wakeups", median(&wakeups));
    report.metric("gcl_net.peak_out_bytes", median(&peak_out));
    info_n("gcl_net.user_cpu_ms", median(&user), "ms", user.len());
    info_n("gcl_net.sys_cpu_ms", median(&sys), "ms", sys.len());
    let cpu: Vec<f64> = user.iter().zip(&sys).map(|(u, s)| u + s).collect();
    report.metric_n("host.cpu_ms_per_op", median(&cpu), cpu.len());
    net_metrics(&mut report, &totals, &run_totals, runs);
    crypto_and_host(&mut report, N, args.seed, sentinel);
    info_n(
        "untraced_exec_ms_p50",
        median(&plain_ms),
        "ms",
        plain_ms.len(),
    );
    info_n(
        "traced_exec_ms_p50",
        median(&traced_ms),
        "ms",
        traced_ms.len(),
    );
    report.metric_n(
        "trace.overhead_frac",
        median(&traced_ms) / median(&plain_ms) - 1.0,
        traced_ms.len(),
    );
    absent(&mut report, &ABSENT);
    report
}

/// The tracer metrics of a wall workload, with their `gcl_net` names.
pub fn net_metrics(report: &mut Report, totals: &Totals, run_totals: &RunTotals, ops: u64) {
    tracer_metrics(report, totals, run_totals, ops);
    info_n(
        "gcl_net.send_ns_per_msg",
        ratio(totals.send_ns, totals.sampled_sends),
        "ns",
        totals.sampled_sends as usize,
    );
    info_n(
        "gcl_net.setup_ms",
        ratio(run_totals.setup_ns, run_totals.runs) / 1e6,
        "ms",
        run_totals.runs as usize,
    );
    if run_totals.committed_runs > 0 {
        info_n(
            "gcl_net.teardown_ms",
            ratio(run_totals.teardown_ns, run_totals.committed_runs) / 1e6,
            "ms",
            run_totals.committed_runs as usize,
        );
    }
}
