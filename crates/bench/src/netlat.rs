//! The wall-clock latency trajectory: per-family good-case latencies on
//! the async backend, rendered as the repo-root `BENCH_net.json`.
//!
//! `BENCH_sim.json` tracks simulator *throughput* per PR; this module
//! tracks wall-clock *runtime overhead* the same way. For every registered
//! family it runs the wall-safe conformance spec on each wall
//! configuration ([`crate::conformance::wall_backends`]: the async
//! backend on one worker, labelled `async-w1`, and on its default pool,
//! labelled `async`) and records the good-case wall latency next to the
//! spec's injected ideal — δ' per hop, so a 2-round protocol's floor is
//! `2δ'`. The gap between the measured column and the floor is
//! scheduler, codec and syscall overhead; watching it per PR is how a runtime
//! regression (a lost fast path, an accidental sleep) shows up before
//! anyone reads a profile.
//!
//! v2 adds the **scale rows**: [`SCALE_FAMILIES`] × [`SCALE_NS`] on the
//! default pool (`async`) — the readiness loop multiplexes n = 1024 over
//! a handful of workers. Every row carries the backend's
//! [`SchedCounters`]: worker-pool size, readiness wakeups, and the peak
//! outbound-queue depth, so a backpressure regression is visible in the
//! trajectory diff. Row identity is `(family, backend, n)`.
//!
//! Wall numbers are machine-dependent, so the gate ([`crate::diff::NET`])
//! holds latency only to 25× of the committed baseline; what it checks
//! strictly is *shape*: every registered family present per
//! configuration, every scale row present, every row committed with
//! agreement. Regeneration:
//!
//! ```text
//! cargo run --release -p gcl_bench -- net --out BENCH_net.json
//! ```

use crate::conformance::{wall_backends, wall_spec, WALL_DELTA};
use crate::json::{JVal, RowsDoc};
use crate::registry;
use gcl_net::AsyncBackend;
use gcl_sim::{ScenarioSpec, SchedCounters};
use gcl_types::Duration as SimDuration;
use std::time::Duration;

/// Per-run wall deadline of the catalog rows (honest termination exits
/// early, so the good case never waits it out).
pub const DEADLINE: Duration = Duration::from_secs(2);

/// Per-run wall deadline of the scale rows: the n = 1024 rows move ~2 M
/// real frames, so the ceiling is generous; a healthy run exits in
/// seconds.
pub const SCALE_DEADLINE: Duration = Duration::from_secs(120);

/// Families measured at scale on the async backend: the pure event-loop
/// stress (`flood`, `O(n²)` trivial messages) and the crypto-bearing
/// 2-round broadcast (`brb2`, `O(n²)` signed votes).
pub const SCALE_FAMILIES: [&str; 2] = ["flood", "brb2"];

/// Party counts of the scale rows — up to the simulator's own largest
/// measured shape (`BENCH_sim.json` stops at n = 1024 too).
pub const SCALE_NS: [usize; 3] = [256, 512, 1024];

/// One family × backend × shape wall-clock measurement.
#[derive(Debug, Clone)]
pub struct NetLatencyRow {
    /// Registered family key.
    pub family: &'static str,
    /// Wall configuration that produced the row (a
    /// [`wall_backends`] label: `"async-w1"` or `"async"`).
    pub backend: &'static str,
    /// Parties in the measured spec.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Injected per-hop link latency in µs (the spec's δ').
    pub delta_us: u64,
    /// Measured good-case wall latency in µs (`None`: not every honest
    /// party committed — a liveness failure the check rejects).
    pub latency_us: Option<u64>,
    /// Whether agreement held.
    pub agreement: bool,
    /// Point-to-point messages delivered.
    pub messages: u64,
    /// Worker-pool scheduler counters (the outcome's
    /// [`gcl_sim::Outcome::sched_counters`]).
    pub sched: Option<SchedCounters>,
}

/// Runs `spec` on `backend` and records it as a `(family, label)` row.
fn run_row(
    family: &'static str,
    label: &'static str,
    spec: &ScenarioSpec,
    backend: &AsyncBackend,
) -> NetLatencyRow {
    let o = registry()
        .run_on(spec, backend)
        .unwrap_or_else(|e| panic!("{family} n={}: {label} run rejected: {e}", spec.n));
    NetLatencyRow {
        family,
        backend: label,
        n: spec.n,
        f: spec.f,
        delta_us: WALL_DELTA.as_micros(),
        latency_us: o.good_case_latency().map(|d| d.as_micros()),
        agreement: o.agreement_holds(),
        messages: o.messages_sent(),
        sched: o.sched_counters(),
    }
}

/// Runs every registered family on every wall configuration (each run
/// bounded by `deadline`) and reports rows in (family, backend) order.
pub fn net_latency_rows(deadline: Duration) -> Vec<NetLatencyRow> {
    let reg = registry();
    let backends = wall_backends(deadline);
    reg.keys()
        .flat_map(|key| {
            let spec = wall_spec(reg, key);
            backends
                .iter()
                .map(|(label, backend)| run_row(key, label, &spec, backend))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The wall-safe spec of one scale row: the family's conformance spec
/// reshaped to `(n, 1)`, with Δ' raised to seconds — at n = 1024 a single
/// good-case round is ~10⁶ frames of real socket I/O, so the conformance
/// Δ' (tens of ms) would let view timers fire spuriously mid-round.
/// Timers never fire on the good-case path, so the huge Δ' costs no wall
/// time.
pub fn scale_spec(key: &str, n: usize) -> ScenarioSpec {
    wall_spec(registry(), key)
        .with_shape(n, 1)
        .with_bounds(WALL_DELTA, SimDuration::from_millis(5_000))
}

/// Measures the [`SCALE_FAMILIES`] × [`SCALE_NS`] grid on the async
/// backend (its worker pool at the default `min(cores, 8)`), each run
/// bounded by `deadline` — pass a generous one: the n = 1024 rows move
/// ~2 M real frames.
pub fn scale_rows(deadline: Duration) -> Vec<NetLatencyRow> {
    let backend = AsyncBackend::new().deadline(deadline);
    SCALE_FAMILIES
        .iter()
        .flat_map(|&key| SCALE_NS.map(|n| run_row(key, "async", &scale_spec(key, n), &backend)))
        .collect()
}

/// Renders rows as the `BENCH_net.json` document ([`RowsDoc`] format, the
/// same schema-plus-rows shape as every other trajectory file).
pub fn render_json(rows: &[NetLatencyRow]) -> String {
    let mut doc = RowsDoc::new(crate::diff::NET.tag);
    doc.top("delta_us", JVal::U64(WALL_DELTA.as_micros()));
    for r in rows {
        doc.row(vec![
            ("family", JVal::Str(r.family.into())),
            ("backend", JVal::Str(r.backend.into())),
            ("n", JVal::U64(r.n as u64)),
            ("f", JVal::U64(r.f as u64)),
            ("delta_us", JVal::U64(r.delta_us)),
            ("latency_us", r.latency_us.map_or(JVal::Null, JVal::U64)),
            ("agreement", JVal::Bool(r.agreement)),
            ("messages", JVal::U64(r.messages)),
            (
                "workers",
                r.sched.map_or(JVal::Null, |s| JVal::U64(s.workers as u64)),
            ),
            (
                "wakeups",
                r.sched.map_or(JVal::Null, |s| JVal::U64(s.wakeups)),
            ),
            (
                "peak_out_bytes",
                r.sched
                    .map_or(JVal::Null, |s| JVal::U64(s.peak_outbound_bytes as u64)),
            ),
        ]);
    }
    doc.render()
}

/// The rows every `BENCH_net.json` must contain (the [`crate::diff::NET`]
/// coverage rule): each registered family on each [`wall_backends`]
/// label, so a configuration added there is automatically required, and
/// each [`SCALE_FAMILIES`] × [`SCALE_NS`] point on the default pool.
pub(crate) fn required_rows() -> Vec<Vec<(&'static str, String)>> {
    let labels = wall_backends(DEADLINE).map(|(label, _)| label);
    let catalog = registry().keys().flat_map(|key| {
        labels.map(|label| vec![("family", key.to_string()), ("backend", label.to_string())])
    });
    let scale = SCALE_FAMILIES.iter().flat_map(|key| {
        SCALE_NS.map(|n| {
            vec![
                ("family", key.to_string()),
                ("backend", "async".to_string()),
                ("n", n.to_string()),
            ]
        })
    });
    catalog.chain(scale).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_rows_pass_their_own_check() {
        // Two fast families keep the unit test cheap; the full-catalog
        // document is exercised by `gcl-bench net` and its CI job.
        let reg = registry();
        let backends = wall_backends(Duration::from_secs(2));
        let rows: Vec<NetLatencyRow> = ["brb2", "one_round_brb"]
            .iter()
            .flat_map(|key| {
                let spec = wall_spec(reg, key);
                backends
                    .iter()
                    .map(|(label, b)| run_row(key, label, &spec, b))
                    .collect::<Vec<_>>()
            })
            .collect();
        let doc = render_json(&rows);
        // The partial document fails the full-catalog coverage rule
        // (families are missing), which is exactly what the rule is for.
        let err = crate::diff::gate(&doc, None).unwrap_err();
        assert!(err.contains("no row with family="), "{err}");
        // Each measured row carries a latency at or above the single-hop
        // floor, and scheduler counters.
        for r in &rows {
            assert!(r.agreement, "{}/{}", r.family, r.backend);
            let lat = r.latency_us.expect("good case commits");
            assert!(
                lat >= r.delta_us,
                "{}/{}: {lat}µs under the single-hop floor",
                r.family,
                r.backend
            );
            assert!(
                r.sched.is_some(),
                "{}/{}: missing sched counters",
                r.family,
                r.backend
            );
        }
    }

    #[test]
    fn a_scale_row_measures_flood_beyond_the_conformance_shape() {
        // A miniature of the real grid (n = 48 instead of 256+ keeps the
        // unit test cheap): the async backend must commit flood well past
        // the conformance (4, 1) shape and report its pool counters.
        let reg = registry();
        let spec = scale_spec("flood", 48);
        let o = reg
            .run_on(
                &spec,
                &AsyncBackend::new().deadline(Duration::from_secs(20)),
            )
            .unwrap();
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
        assert_eq!(o.messages_sent(), 48 * 48);
        let sched = o.sched_counters().expect("async reports its pool");
        assert!(sched.workers >= 1);
        assert!(sched.wakeups > 0);
    }

    #[test]
    fn check_requires_scale_rows_and_async_counters() {
        // Synthesize a full catalog without running anything: every
        // (family × configuration) row present and committed, but no
        // scale rows — the gate must reject it.
        let reg = registry();
        let backends = wall_backends(DEADLINE).map(|(label, _)| label);
        let row = |key: &str, backend: &str, n: usize, sched: bool| {
            vec![
                ("family", JVal::Str(key.into())),
                ("backend", JVal::Str(backend.into())),
                ("n", JVal::U64(n as u64)),
                ("f", JVal::U64(1)),
                ("latency_us", JVal::U64(5_000)),
                ("agreement", JVal::Bool(true)),
                ("workers", if sched { JVal::U64(1) } else { JVal::Null }),
                ("wakeups", if sched { JVal::U64(9) } else { JVal::Null }),
            ]
        };
        let catalog = || {
            let mut doc = RowsDoc::new(crate::diff::NET.tag);
            for key in reg.keys() {
                for backend in backends {
                    doc.row(row(key, backend, 4, true));
                }
            }
            doc
        };
        let err = crate::diff::gate(&catalog().render(), None).unwrap_err();
        assert!(
            err.contains("no row with family=flood backend=async n=256"),
            "{err}"
        );

        // With the scale rows present the document passes; with an async
        // row missing its counters, the observability gate fires.
        let with_scale = |missing_counters: usize| {
            let mut doc = catalog();
            for key in SCALE_FAMILIES {
                for n in SCALE_NS {
                    doc.row(row(key, "async", n, n != missing_counters));
                }
            }
            doc.render()
        };
        crate::diff::gate(&with_scale(0), None).expect("full catalog with scale rows");
        let err = crate::diff::gate(&with_scale(512), None).unwrap_err();
        assert!(
            err.contains("[family=flood backend=async n=512]: wakeups is not a counter"),
            "{err}"
        );
    }

    #[test]
    fn check_rejects_malformed_documents() {
        let gate = |doc: &str| crate::diff::gate(doc, None);
        assert!(gate("not json").unwrap_err().contains("malformed JSON"));
        assert!(gate("{\"schema\": \"other/v9\", \"rows\": []}").is_err());
        assert!(
            gate("{\"schema\": \"gcl-bench/net-latency/v1\", \"rows\": []}")
                .unwrap_err()
                .contains("unknown trajectory schema"),
            "v1 documents no longer pass the v2 gate"
        );
        let empty = format!("{{\"schema\": \"{}\", \"rows\": []}}", crate::diff::NET.tag);
        let err = gate(&empty).unwrap_err();
        assert!(err.contains("no row with family="), "{err}");
    }
}
