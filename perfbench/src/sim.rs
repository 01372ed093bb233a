//! The simulator workloads: `sim_brb2` (one huge run, repeated) and
//! `sim_sweep` (the 648-cell grid, one grid seed a pass). Both run on one
//! busy thread; end-to-end numbers take the native (erasure-free) path.

use crate::tracer::{ratio, Tracer};
use crate::{
    absent, cpu_ms, crypto_and_host, heap, info, info_n, least, median, ms, op_times,
    outcome_counters, print_inputs, repeated_setup, time_op, tracer_metrics, Args, Clock, Report,
    TRACE_SAMPLE_LOG2,
};
use gcl_bench::GridOptions;
use gcl_crypto::VerifyProbe;
use gcl_sim::{
    derive_cell_seed, Backend, Outcome, ScenarioRegistry, ScenarioSpec, SimBackend, Sweep,
    SweepReport,
};
use std::time::{Duration, Instant};

/// The `brb2` shape: the largest `BENCH_sim.json` row, `n = 3f + 1`.
pub const BRB2_SHAPE: (usize, usize) = (1024, 341);

/// The grid seed of the traced sweep passes. Fixed, so their counts
/// repeat across every run whatever `--seed` is.
pub const SWEEP_TRACE_GRID_SEED: u64 = 0x5eed_0648;

/// Layers the simulator workloads do not run.
const ABSENT: [&str; 9] = [
    "gcl_net.wakeups",
    "gcl_net.peak_out_bytes",
    "gcl_smr.cmds_per_slot",
    "gcl_smr.mp_admitted",
    "gcl_smr.mp_rejected",
    "gcl_smr.mp_requeued",
    "gcl_smr.admit_ratio",
    "gcl_smr.client_retries",
    "gcl_smr.client_rejects",
];

/// Deterministic work counts of one simulator run; they must repeat
/// exactly across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    events: u64,
    messages: u64,
    drops: u64,
    peak_queue: u64,
    queue_bytes: u64,
    macs: u64,
    hits: u64,
}

/// Runs `f` and returns its result with the global verify-probe deltas
/// (exact: the benchmark runs one verifier population at a time).
pub fn with_probe<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let probe = VerifyProbe::global();
    let (m0, h0) = (probe.macs(), probe.hits());
    let out = f();
    (out, probe.macs() - m0, probe.hits() - h0)
}

fn counts(o: &Outcome, macs: u64, hits: u64) -> Counts {
    Counts {
        events: o.events_processed(),
        messages: o.messages_sent(),
        drops: o.drops_at_enqueue(),
        peak_queue: o.peak_queue_depth() as u64,
        queue_bytes: o.queue_bytes(),
        macs,
        hits,
    }
}

/// A `brb2` run's output check: agreement, every honest party commits
/// the broadcaster's input, in two rounds. Agreement breaking is a
/// safety violation; the rest is a failed run.
pub fn check_brb2(spec: &ScenarioSpec, o: &Outcome, report: &mut Report) {
    report.attempted += 1;
    if !o.agreement_holds() {
        report.violation(format!("agreement broken in {}", spec.label()));
    }
    let ok = o.all_honest_committed()
        && o.committed_value() == Some(spec.input)
        && o.good_case_rounds() == Some(2);
    if !ok {
        report.failed += 1;
    }
}

fn brb2_spec(reg: &ScenarioRegistry, seed: u64) -> ScenarioSpec {
    reg.spec("brb2")
        .expect("brb2 is registered")
        .with_shape(BRB2_SHAPE.0, BRB2_SHAPE.1)
        .with_seed(derive_cell_seed(seed, 0))
}

/// Whether a traced erased run reproduced the native run exactly.
fn same_outcome(a: &Outcome, b: &Outcome) -> bool {
    a.events_processed() == b.events_processed()
        && a.messages_sent() == b.messages_sent()
        && a.drops_at_enqueue() == b.drops_at_enqueue()
        && a.commits() == b.commits()
        && a.good_case_latency() == b.good_case_latency()
        && a.good_case_rounds() == b.good_case_rounds()
}

/// `sim_brb2`.
pub fn brb2(args: &Args, sentinel: f64) -> Report {
    let mut report = Report::default();
    let (setup_s, setups, (reg, spec, warm)) = repeated_setup(Clock::Reference, || {
        let reg = gcl_core::registry();
        let spec = brb2_spec(&reg, args.seed);
        let warm = with_probe(|| reg.run(&spec).expect("brb2 shape admitted"));
        (reg, spec, warm)
    });
    let (warm, macs, hits) = warm;
    if !warm.agreement_holds() {
        report.violation("agreement broken in the warm-up run".into());
    }
    let reference = counts(&warm, macs, hits);
    print_inputs(&spec, "1 (simulator)");
    print_counts("warm-up", &reference);
    let budget = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        let (mut times, mut rss) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while times.is_empty() || start.elapsed() < budget {
            let ((o, macs, hits), t) = time_op(|| {
                heap::reset_peak();
                let run = with_probe(|| reg.run(&spec).expect("admitted"));
                rss.push(heap::peak_mb());
                run
            });
            times.push(t);
            check_brb2(&spec, &o, &mut report);
            let c = counts(&o, macs, hits);
            if c != reference {
                report.violation(format!("work counts drifted: {c:?} vs {reference:?}"));
            }
        }
        report.metric_n("setup_s", setup_s, setups);
        report.metric_n("peak_heap_mb", least(&rss), rss.len());
        report.metric("served_frac", 1.0 - ratio(report.failed, report.attempted));
        let exec_ms = op_times("exec", &times);
        report.metric_n("ops_per_s", 1e3 / exec_ms, times.len());
        report.metric_n("latency_ms_p50", exec_ms, times.len());
        info(
            "events_per_s",
            reference.events as f64 * 1e3 / exec_ms,
            "1/s",
        );
        return report;
    }

    let erased = SimBackend::forced_erased();
    let tracer = Tracer::new(SimBackend::forced_erased(), TRACE_SAMPLE_LOG2);
    let (mut native_ms, mut erased_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_per_run = Vec::new();
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed() < budget {
        let (u0, s0) = cpu_ms();
        let t = Instant::now();
        let (native, macs, hits) = with_probe(|| reg.run(&spec).expect("admitted"));
        native_ms.push(ms(t.elapsed()));
        let (u1, s1) = cpu_ms();
        cpu_per_run.push(u1 + s1 - u0 - s0);
        check_brb2(&spec, &native, &mut report);
        if counts(&native, macs, hits) != reference {
            report.violation("work counts drifted on the native run".into());
        }
        let t = Instant::now();
        let plain = reg.run_on(&spec, &erased).expect("admitted");
        erased_ms.push(ms(t.elapsed()));
        check_brb2(&spec, &plain, &mut report);
        let t = Instant::now();
        let (traced, tmacs, thits) = with_probe(|| reg.run_on(&spec, &tracer).expect("admitted"));
        traced_ms.push(ms(t.elapsed()));
        check_brb2(&spec, &traced, &mut report);
        if !same_outcome(&native, &traced) || !same_outcome(&native, &plain) {
            report.violation("the traced or erased run diverged from the native run".into());
        }
        if (tmacs, thits) != (macs, hits) {
            report.violation("the traced run verified differently from the native run".into());
        }
    }
    let runs = traced_ms.len() as u64;
    print_counts("native run", &reference);
    report.metric("gcl_sim.events", reference.events as f64);
    report.metric("gcl_sim.messages", reference.messages as f64);
    report.metric("gcl_sim.drops_at_enqueue", reference.drops as f64);
    report.metric("gcl_sim.peak_queue", reference.peak_queue as f64);
    report.metric("gcl_sim.queue_bytes", reference.queue_bytes as f64);
    report.metric(
        "gcl_sim.dead_send_frac",
        ratio(reference.drops, reference.messages),
    );
    report.metric("gcl_crypto.verify_macs", reference.macs as f64);
    report.metric("gcl_crypto.verify_hits", reference.hits as f64);
    report.metric(
        "gcl_crypto.hit_ratio",
        ratio(reference.hits, reference.hits + reference.macs),
    );
    let totals = tracer.totals();
    let run_totals = tracer.run_totals();
    tracer_metrics(&mut report, &totals, &run_totals, runs);
    sim_layer_aliases(&totals, &run_totals);
    crypto_and_host(&mut report, BRB2_SHAPE.0, args.seed, sentinel);
    report.metric_n(
        "host.cpu_ms_per_op",
        median(&cpu_per_run),
        cpu_per_run.len(),
    );
    trace_fracs(&mut report, &native_ms, &erased_ms, &traced_ms);
    absent(&mut report, &ABSENT);
    report
}

/// Prints the backend metrics again under their simulator-layer names.
fn sim_layer_aliases(t: &crate::tracer::Totals, r: &crate::tracer::RunTotals) {
    info_n(
        "gcl_sim.route_ns_per_send",
        ratio(t.send_ns, t.sampled_sends),
        "ns",
        t.sampled_sends as usize,
    );
    let outside = r.exec_ns as f64 - t.callback_ns_estimate() - (t.encode_ns + t.decode_ns) as f64;
    info_n(
        "gcl_sim.loop_ns_per_event",
        outside.max(0.0) / t.calls.max(1) as f64,
        "ns",
        t.calls as usize,
    );
}

fn trace_fracs(report: &mut Report, native: &[f64], erased: &[f64], traced: &[f64]) {
    info_n("native_ms_p50", median(native), "ms", native.len());
    info_n("erased_ms_p50", median(erased), "ms", erased.len());
    info_n("traced_ms_p50", median(traced), "ms", traced.len());
    report.metric_n(
        "trace.overhead_frac",
        median(traced) / median(erased) - 1.0,
        traced.len(),
    );
    report.metric_n(
        "trace.erasure_frac",
        median(erased) / median(native) - 1.0,
        erased.len(),
    );
}

fn print_counts(what: &str, c: &Counts) {
    println!(
        "{what} counts: events {} messages {} drops_at_enqueue {} peak_queue {} queue_bytes {} verify_macs {} verify_hits {}",
        c.events, c.messages, c.drops, c.peak_queue, c.queue_bytes, c.macs, c.hits
    );
}

/// One sweep pass over `grid` at `grid_seed` on `backend`.
fn pass(
    reg: &ScenarioRegistry,
    grid: &[ScenarioSpec],
    grid_seed: u64,
    backend: Option<&(dyn Backend + Sync)>,
) -> SweepReport {
    let mut sweep = Sweep::new(reg)
        .cells(grid.iter().cloned())
        .threads(1)
        .seed(grid_seed);
    if let Some(b) = backend {
        sweep = sweep.backend(b);
    }
    sweep.run()
}

/// A pass's output check: every cell ran, none broke safety or validity.
fn check_pass(r: &SweepReport, report: &mut Report) {
    report.attempted += r.cells.len() as u64;
    let bad = r
        .cells
        .iter()
        .filter(|c| c.error.is_some() || c.violating())
        .count();
    report.failed += bad as u64;
    for c in r.cells.iter().filter(|c| c.violating()) {
        report.violation(format!(
            "sweep cell {} broke {}",
            c.label,
            if c.agreement { "validity" } else { "agreement" }
        ));
    }
}

/// `sim_sweep`.
pub fn sweep(args: &Args, sentinel: f64) -> Report {
    let mut report = Report::default();
    let grid_seed = |p: u64| derive_cell_seed(args.seed, p);
    let (setup_s, setups, (reg, grid, warm)) = repeated_setup(Clock::Reference, || {
        let reg = gcl_bench::registry();
        let grid = gcl_bench::grid(GridOptions::full());
        let warm = pass(reg, &grid, grid_seed(0), None);
        (reg, grid, warm)
    });
    println!(
        "inputs: {} cells, grid seed of pass p = derive_cell_seed(seed, p), threads 1 (Sweep::threads(1))",
        grid.len()
    );
    let budget = Duration::from_secs_f64(args.seconds);

    if !args.trace {
        let (mut times, mut rss) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while times.is_empty() || start.elapsed() < budget {
            let p = times.len() as u64;
            let (r, t) = time_op(|| {
                heap::reset_peak();
                let r = pass(reg, &grid, grid_seed(p), None);
                rss.push(heap::peak_mb());
                r
            });
            times.push(t);
            check_pass(&r, &mut report);
            if p == 0 && !r.deterministic_eq(&warm) {
                report.violation("a pass did not repeat its warm-up at the same grid seed".into());
            }
        }
        report.metric_n("setup_s", setup_s, setups);
        report.metric_n("peak_heap_mb", least(&rss), rss.len());
        report.metric("served_frac", 1.0 - ratio(report.failed, report.attempted));
        let pass_ms = op_times("pass", &times);
        report.metric_n("ops_per_s", grid.len() as f64 * 1e3 / pass_ms, times.len());
        report.metric_n("latency_ms_p50", pass_ms, times.len());
        info(
            "cells_per_s_mean",
            report.attempted as f64 / start.elapsed().as_secs_f64(),
            "1/s",
        );
        return report;
    }

    let erased = SimBackend::forced_erased();
    let tracer = Tracer::new(SimBackend::forced_erased(), TRACE_SAMPLE_LOG2);
    let (mut native_ms, mut erased_ms, mut traced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpu_per_pass = Vec::new();
    let mut crypto = None;
    let start = Instant::now();
    while traced_ms.is_empty() || start.elapsed() < budget {
        let (u0, s0) = cpu_ms();
        let t = Instant::now();
        let (native, macs, hits) = with_probe(|| pass(reg, &grid, SWEEP_TRACE_GRID_SEED, None));
        native_ms.push(ms(t.elapsed()));
        let (u1, s1) = cpu_ms();
        cpu_per_pass.push((u1 + s1 - u0 - s0) / native.cells.len().max(1) as f64);
        check_pass(&native, &mut report);
        if crypto.get_or_insert((macs, hits)) != &(macs, hits) {
            report.violation("verify counts drifted between passes".into());
        }
        let t = Instant::now();
        let plain = pass(reg, &grid, SWEEP_TRACE_GRID_SEED, Some(&erased));
        erased_ms.push(ms(t.elapsed()));
        check_pass(&plain, &mut report);
        let t = Instant::now();
        let (traced, tmacs, thits) =
            with_probe(|| pass(reg, &grid, SWEEP_TRACE_GRID_SEED, Some(&tracer)));
        traced_ms.push(ms(t.elapsed()));
        check_pass(&traced, &mut report);
        if !native.deterministic_eq(&traced) || !native.deterministic_eq(&plain) {
            report.violation("the traced or erased pass diverged from the native pass".into());
        }
        if (tmacs, thits) != (macs, hits) {
            report.violation("the traced pass verified differently from the native pass".into());
        }
    }
    let passes = traced_ms.len() as u64;
    let (macs, hits) = crypto.expect("at least one pass");
    let totals = tracer.totals();
    let run_totals = tracer.run_totals();
    // Per-pass counts from the traced (erased) passes, which the check
    // above pins to the native passes for events, messages, commits,
    // latency and rounds.
    outcome_counters(&mut report, &run_totals, passes);
    report.metric("gcl_crypto.verify_macs", macs as f64);
    report.metric("gcl_crypto.verify_hits", hits as f64);
    report.metric("gcl_crypto.hit_ratio", ratio(hits, hits + macs));
    tracer_metrics(&mut report, &totals, &run_totals, passes);
    sim_layer_aliases(&totals, &run_totals);
    for (family, ns) in &run_totals.family_ns {
        info(
            &format!("gcl_core.{family}.handler_ms"),
            ns / passes as f64 / 1e6,
            "ms",
        );
    }
    let max_n = grid.iter().map(|s| s.n).max().unwrap_or(4);
    crypto_and_host(&mut report, max_n, args.seed, sentinel);
    report.metric_n(
        "host.cpu_ms_per_op",
        median(&cpu_per_pass),
        cpu_per_pass.len(),
    );
    trace_fracs(&mut report, &native_ms, &erased_ms, &traced_ms);
    absent(&mut report, &ABSENT);
    report
}
