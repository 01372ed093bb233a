//! Simulator-throughput scenarios: the perf trajectory's point 0.
//!
//! Every number the workspace produces flows through the event loop in
//! `gcl_sim`, so events/second on these fixed scenarios is the ceiling on
//! how many executions (and how large an `n`) the repo can explore.
//! `gcl-bench throughput` measures them and emits `BENCH_sim.json` at the
//! repo root; CI re-measures in `--quick` mode and fails on a >3x
//! regression against the committed baseline ([`crate::diff::SIM`]).
//!
//! The measured scenarios are registry specs like everything else
//! (see [`rows_under_measure`]), plus two rows that drive the event queue
//! alone ([`queue_row`]). This module also registers the two bench-owned
//! families:
//!
//! * `flood` — all-to-all flood: every party multicasts once, commits
//!   after hearing from everyone. Pure hot-loop stress (`O(n²)` messages,
//!   trivial per-message protocol work).
//! * `smr` — the SMR engine committing a counter workload: long-running
//!   pipelined slots (family params pick the workload/pipeline shape).

use crate::json::{JVal, RowsDoc};
use crate::scenarios::canonical;
use gcl_sim::{Admission, Context, Protocol, ScenarioRegistry, ScenarioSpec, ValidityMode};
use gcl_smr::{Counter, SlotEngine, SmrParams};
use gcl_types::{Duration, PartyId, Value};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// All-to-all flood: every party multicasts its id at start and commits
/// `commit_value` once it has heard from all `n` parties. `O(n²)` messages
/// with trivial handlers — the purest stress test of the event loop
/// itself.
#[derive(Debug)]
pub struct AllToAllFlood {
    heard: u64,
    n: u64,
    commit_value: Value,
}

impl AllToAllFlood {
    /// A fresh flood participant for an `n`-party run.
    pub fn new(n: usize, commit_value: Value) -> Self {
        AllToAllFlood {
            heard: 0,
            n: n as u64,
            commit_value,
        }
    }
}

impl Protocol for AllToAllFlood {
    type Msg = Value;

    fn start(&mut self, ctx: &mut dyn Context<Value>) {
        ctx.multicast(Value::new(u64::from(ctx.me().index())));
    }

    fn on_message(&mut self, _from: PartyId, _msg: Value, ctx: &mut dyn Context<Value>) {
        self.heard += 1;
        if self.heard == self.n {
            ctx.commit(self.commit_value);
            ctx.terminate();
        }
    }
}

/// Registers the bench-owned scenario families (`flood`, `smr`).
pub(crate) fn register(reg: &mut ScenarioRegistry) {
    reg.register_fn(
        "flood",
        "all-to-all flood — pure event-loop stress, O(n^2) messages",
        Admission::Any,
        ValidityMode::Broadcast,
        ScenarioSpec::lockstep("flood", 16, 5, Duration::from_micros(10)),
        |spec, backend| spec.run_protocol_on(backend, |_| AllToAllFlood::new(spec.n, spec.input)),
    );
    reg.register_fn(
        "smr",
        "SMR slot engine on a counter log — pipelined 2-round commits",
        Admission::TwoRoundPsync,
        // Commit values are workload slots, not the broadcast input.
        ValidityMode::AgreementOnly,
        ScenarioSpec::psync("smr", 4, 1).with_seed(221),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = gcl_crypto::Keychain::generate(spec.n, spec.seed);
            let workload: Vec<Value> = (1..=spec.params.commands).map(Value::new).collect();
            let params = SmrParams {
                batch: spec.params.batch,
                pipeline: spec.params.pipeline,
                ..SmrParams::default()
            };
            spec.run_protocol_on(backend, |p| {
                SlotEngine::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.big_delta,
                    params,
                    Arc::new(Mutex::new(Counter::default())),
                )
                .with_workload(workload.clone())
            })
        },
    );
}

/// One measured scenario of the throughput trajectory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThroughputRow {
    /// Stable scenario key (the regression check joins on it).
    pub scenario: String,
    /// Parties.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Events the runner processed in one run.
    pub events: u64,
    /// Point-to-point messages sent in one run.
    pub messages: u64,
    /// Peak event-queue depth in one run.
    pub peak_queue: u64,
    /// Bytes the event queue retained at end of run (slab chunks plus
    /// calendar directories) — the memory the engine holds to avoid
    /// per-event allocation.
    pub queue_bytes: u64,
    /// Deliveries discarded at enqueue because the recipient had already
    /// terminated — queue traffic the run never paid for. Deterministic:
    /// exact per scenario, like `events`.
    pub drops_at_enqueue: u64,
    /// Wall time of the best repetition, nanoseconds.
    pub wall_ns: u64,
    /// `events / wall` of the best repetition.
    pub events_per_sec: f64,
    /// MAC compressions actually computed in one run (the
    /// [`gcl_crypto::VerifyProbe`] delta): the crypto work the verify
    /// caches could not avoid.
    pub verify_macs: u64,
    /// Signature/memo cache hits in one run: verifications answered
    /// without recomputing a MAC.
    pub verify_hits: u64,
    /// Repetitions actually measured (best wins; fast scenarios repeat
    /// until a cumulative wall-time floor so one noisy sample can't
    /// dominate).
    pub reps: u32,
}

/// Minimum cumulative measured wall time per scenario: microsecond-scale
/// runs repeat until this floor so a single scheduler hiccup on a noisy CI
/// runner can't masquerade as a 3x regression.
const MIN_TOTAL_NS: u64 = 5_000_000;
/// Hard cap on repetitions (keeps the floor from ballooning tiny runs).
const MAX_REPS: u32 = 64;

/// The fixed trajectory scenarios: stable key → registry spec.
///
/// The crypto-heavy rows (`dolev_strong`, `brb2`, `vbb5f1`, `pbft3`) are
/// the ones the amortized-verification layer targets; the `n = 1024`
/// sweep points exist to expose the *next* bottleneck once signature
/// re-verification stops dominating.
pub fn rows_under_measure() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        ("flood_n16", canonical("flood", 16, 5)),
        ("flood_n64", canonical("flood", 64, 21)),
        ("flood_n256", canonical("flood", 256, 85)),
        ("flood_n1024", canonical("flood", 1024, 341)),
        ("dolev_strong_n64_f21", canonical("dolev_strong", 64, 21)),
        ("brb2_n256_f85", canonical("brb2", 256, 85)),
        ("brb2_n1024_f341", canonical("brb2", 1024, 341)),
        ("vbb5f1_n64_f13", canonical("vbb5f1", 64, 13)),
        ("pbft3_n64_f21", canonical("pbft3", 64, 21)),
        ("smr_1k", canonical("smr", 4, 1).with_workload(1_000, 8)),
    ]
}

/// Runs `once` at least `min_reps` times, and on up to the cumulative
/// wall-time floor; returns the best wall time in ns, the repetitions
/// run, and the last run's result.
fn best_of<T>(min_reps: u32, mut once: impl FnMut() -> T) -> (u64, u32, T) {
    let (mut best_ns, mut total_ns, mut reps) = (u64::MAX, 0u64, 0);
    loop {
        let start = Instant::now();
        let out = once();
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        best_ns = best_ns.min(ns.max(1));
        total_ns = total_ns.saturating_add(ns);
        reps += 1;
        if reps >= min_reps && (total_ns >= MIN_TOTAL_NS || reps >= MAX_REPS) {
            return (best_ns, reps, out);
        }
    }
}

/// Measures one spec under a stable scenario key: best-of-`min_reps`
/// wall time (repeating up to the cumulative floor), with the row's
/// `(n, f)` taken from the spec itself.
pub fn measure(scenario: &str, spec: &ScenarioSpec, min_reps: u32) -> ThroughputRow {
    let probe = gcl_crypto::VerifyProbe::global();
    // Verifiers flush their counters to the global probe when the run's
    // protocol instances drop, i.e. before `run` returns; the per-rep
    // delta is the run's crypto work. (Deltas are only exact when runs
    // are sequential, which the bench binary guarantees.)
    let (wall_ns, reps, (o, verify_macs, verify_hits)) = best_of(min_reps, || {
        let (macs0, hits0) = (probe.macs(), probe.hits());
        let o = crate::scenarios::run(spec);
        let macs = probe.macs().saturating_sub(macs0);
        (o, macs, probe.hits().saturating_sub(hits0))
    });
    ThroughputRow {
        scenario: scenario.to_string(),
        n: spec.n,
        f: spec.f,
        events: o.events_processed(),
        messages: o.messages_sent(),
        peak_queue: o.peak_queue_depth() as u64,
        queue_bytes: o.queue_bytes(),
        drops_at_enqueue: o.drops_at_enqueue(),
        wall_ns,
        events_per_sec: o.events_processed() as f64 * 1e9 / wall_ns as f64,
        verify_macs,
        verify_hits,
        reps,
    }
}

/// Measures [`gcl_sim::queue_stress`]: the calendar queue alone on a
/// deterministic mixed near/far push/pop workload of `events` events at
/// bucket width `delta_us` (1 µs: one event per slot; 100 µs: slot reuse
/// plus regular far-tier spills), so a queue-only change shows up without
/// protocol noise. Only `events`, `wall_ns`, `events_per_sec` and `reps`
/// are measured; the protocol counters read 0.
pub fn queue_row(scenario: &str, events: usize, delta_us: u64, min_reps: u32) -> ThroughputRow {
    let (wall_ns, reps, _) = best_of(min_reps, || {
        std::hint::black_box(gcl_sim::queue_stress(
            std::hint::black_box(events),
            delta_us,
        ))
    });
    ThroughputRow {
        scenario: scenario.to_string(),
        events: events as u64,
        wall_ns,
        events_per_sec: events as f64 * 1e9 / wall_ns as f64,
        reps,
        ..ThroughputRow::default()
    }
}

/// Measures every scenario and the two event-queue rows. `quick` (the CI
/// smoke mode) requires one repetition per scenario and drives 100k queue
/// events; the full mode at least three repetitions and 1M events (several
/// full ring wraps at δ = 1 µs). Either way, sub-millisecond scenarios
/// repeat up to the cumulative wall-time floor.
pub fn throughput_rows(quick: bool) -> Vec<ThroughputRow> {
    let (reps, events) = if quick { (1, 100_000) } else { (3, 1_000_000) };
    let mut rows: Vec<ThroughputRow> = rows_under_measure()
        .iter()
        .map(|(key, spec)| measure(key, spec, reps))
        .collect();
    rows.push(queue_row("queue_stress_delta1us", events, 1, reps));
    rows.push(queue_row("queue_stress_delta100us", events, 100, reps));
    rows
}

/// Renders rows as the `BENCH_sim.json` document (via the shared
/// [`RowsDoc`] serializer).
pub fn render_json(rows: &[ThroughputRow], mode: &str) -> String {
    let mut doc = RowsDoc::new(crate::diff::SIM.tag);
    doc.top("mode", JVal::Str(mode.to_string()));
    for r in rows {
        doc.row(vec![
            ("scenario", JVal::Str(r.scenario.clone())),
            ("n", JVal::U64(r.n as u64)),
            ("f", JVal::U64(r.f as u64)),
            ("events", JVal::U64(r.events)),
            ("messages", JVal::U64(r.messages)),
            ("peak_queue", JVal::U64(r.peak_queue)),
            ("queue_bytes", JVal::U64(r.queue_bytes)),
            ("drops_at_enqueue", JVal::U64(r.drops_at_enqueue)),
            ("wall_ns", JVal::U64(r.wall_ns)),
            ("events_per_sec", JVal::F1(r.events_per_sec)),
            ("verify_macs", JVal::U64(r.verify_macs)),
            ("verify_hits", JVal::U64(r.verify_hits)),
            ("reps", JVal::U64(u64::from(r.reps))),
        ]);
    }
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flood_commits_and_counts_n_squared_messages() {
        let o = crate::scenarios::run(&canonical("flood", 8, 2));
        assert!(o.all_honest_committed());
        assert_eq!(o.messages_sent(), 64, "n^2 point-to-point messages");
        assert_eq!(o.committed_value(), Some(Value::new(42)), "commits input");
    }

    #[test]
    fn json_round_trips() {
        let rows = vec![
            measure("flood_n8", &canonical("flood", 8, 2), 1),
            measure("flood_n8_again", &canonical("flood", 8, 2), 1),
        ];
        let text = render_json(&rows, "test");
        let doc = crate::json::parse(&text).expect("parses");
        let parsed = doc.field("rows").and_then(|r| r.as_array()).expect("rows");
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].field_str("scenario"), Some("flood_n8"));
        for (col, want) in [
            ("events", rows[0].events),
            ("messages", rows[0].messages),
            ("wall_ns", rows[0].wall_ns),
            ("verify_macs", rows[0].verify_macs),
            ("verify_hits", rows[0].verify_hits),
        ] {
            assert_eq!(parsed[0].field_u64(col), Some(want), "{col}");
        }
    }

    #[test]
    fn queue_rows_drive_the_event_queue_alone() {
        let row = queue_row("q", 10_000, 1, 1);
        assert_eq!(row.events, 10_000);
        assert!(row.reps >= 1 && row.events_per_sec > 0.0);
    }

    #[test]
    fn crypto_rows_report_verifier_work() {
        // The probe deltas are only exact in a sequential process; under a
        // parallel test runner other tests can only ADD to the global
        // counters, so `> 0` assertions stay sound.
        let row = measure("ds_n8_f2", &canonical("dolev_strong", 8, 2), 1);
        assert!(row.verify_macs > 0, "Dolev-Strong verifies signatures");
        let flood = measure("flood_n8", &canonical("flood", 8, 2), 1);
        assert_eq!(
            flood.scenario, "flood_n8",
            "flood has no signatures; its macs column only picks up \
             whatever parallel tests flushed, so no exact assertion"
        );
    }

    #[test]
    fn regression_check_flags_slowdown_and_missing() {
        let mk = |s: &str, eps: f64| ThroughputRow {
            scenario: s.into(),
            n: 4,
            f: 1,
            events: 100,
            messages: 100,
            peak_queue: 10,
            queue_bytes: 4096,
            drops_at_enqueue: 0,
            wall_ns: 1000,
            events_per_sec: eps,
            verify_macs: 0,
            verify_hits: 0,
            reps: 1,
        };
        let doc = |rows: &[(&str, f64)]| {
            let rows: Vec<ThroughputRow> = rows.iter().map(|&(s, eps)| mk(s, eps)).collect();
            render_json(&rows, "test")
        };
        let gate = crate::diff::gate;
        let baseline = doc(&[
            ("a", 3000.0),
            ("b", 3000.0),
            ("c", 3000.0),
            ("d", 3000.0),
            ("e", 3000.0),
        ]);
        let fine = [("a", 2900.0), ("b", 3000.0), ("c", 1001.0), ("d", 3000.0)];
        // "c" is just inside 3x.
        gate(
            &doc(&[fine.as_slice(), &[("e", 3000.0)]].concat()),
            Some(&baseline),
        )
        .expect("noise and a just-inside-3x row pass");
        let err = gate(&doc(&fine), Some(&baseline)).unwrap_err();
        assert!(
            err.contains("[scenario=e] has no fresh counterpart"),
            "{err}"
        );
        let slow = [fine.as_slice(), &[("e", 900.0)]].concat(); // >3x slower
        let err = gate(&doc(&slow), Some(&baseline)).unwrap_err();
        assert!(err.contains("[scenario=e] events_per_sec"), "{err}");
        let err = gate(&doc(&fine[..3]), Some(&baseline)).unwrap_err();
        assert!(err.contains("3 rows; need at least 4"), "{err}");
    }

    #[test]
    fn malformed_json_rejected() {
        let gate = |doc: &str| crate::diff::gate(doc, None);
        assert!(gate("{").unwrap_err().contains("malformed JSON"));
        assert!(gate("{\"schema\": \"wrong\", \"rows\": []}").is_err());
        let no_rows = format!("{{\"schema\": \"{}\"}}", crate::diff::SIM.tag);
        assert!(gate(&no_rows).unwrap_err().contains("missing rows array"));
        // v1 documents (no queue_bytes / drops_at_enqueue) are rejected
        // by the schema tag, not by a field-level error.
        let err = gate("{\"schema\": \"gcl-bench/sim-throughput/v1\", \"rows\": []}").unwrap_err();
        assert!(err.contains("unknown trajectory schema"), "{err}");
    }

    #[test]
    fn trajectory_specs_are_admissible() {
        let reg = crate::registry();
        for (key, spec) in rows_under_measure() {
            assert!(reg.validate(&spec).is_ok(), "{key} must be runnable");
        }
    }
}
