//! The scenario-grid sweep: a declarative cross product of every
//! registered family × admitted shapes × adversary mixes × delay choices
//! × seeds, fanned across worker threads by [`gcl_sim::Sweep`] and
//! rendered as a `gcl-bench/sweep/v1` report via the shared
//! [`crate::json::RowsDoc`] serializer.
//!
//! The grid is where the paper's *complete categorization* claim gets
//! exercised in bulk: every timing model × resilience band, not one
//! hand-picked point per table row. A cell that violates agreement or
//! (conditional) validity is a red build: the [`crate::diff::SWEEP`] gate
//! fails `gcl-bench sweep`, and with it the CI `sweep-smoke` job.

use crate::json::{JVal, RowsDoc};
use crate::registry;
use gcl_sim::{AdversaryMix, DelayChoice, ScenarioSpec, Sweep, SweepReport};
use gcl_types::Duration;

/// Candidate `(n, f)` shapes; each family keeps the ones its resilience
/// band admits. Ordered small-to-large so shape caps keep the cheap cells.
const SHAPE_POOL: &[(usize, usize)] = &[
    (3, 1),
    (4, 1),
    (4, 2),
    (4, 3),
    (5, 2),
    (6, 2),
    (6, 4),
    (7, 2),
    (7, 3),
    (8, 2),
    (8, 3),
    (9, 2),
    (9, 3),
    (10, 3),
    (10, 8),
    (14, 3),
];

/// Knobs controlling how large the generated grid is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridOptions {
    /// Max admitted shapes per family (smallest first).
    pub shapes_per_family: usize,
    /// Seeds per (family, shape, mix, delay) combination.
    pub seeds: u64,
    /// Also run every combination under seeded uniform delay jitter.
    pub jitter: bool,
    /// Also run a seeded random-crash adversary mix.
    pub crashes: bool,
    /// Drop shapes with more than this many parties (debug-build test
    /// grids cap this; the release-mode `sweep` bin takes everything).
    pub max_parties: usize,
}

impl GridOptions {
    /// The CI smoke grid: small but still touching every family and both
    /// canonical adversary mixes.
    pub fn quick() -> Self {
        GridOptions {
            shapes_per_family: 2,
            seeds: 1,
            jitter: false,
            crashes: true,
            max_parties: usize::MAX,
        }
    }

    /// The full default grid.
    pub fn full() -> Self {
        GridOptions {
            shapes_per_family: 4,
            seeds: 2,
            jitter: true,
            crashes: true,
            max_parties: usize::MAX,
        }
    }
}

/// Builds the declarative grid: every registered family crossed with its
/// admitted shapes, the adversary mixes, the delay choices and `seeds`
/// seed indices. Per-cell seeds are later derived by
/// [`gcl_sim::Sweep::seed`]; the seed index here only multiplies cells.
pub fn grid(opts: GridOptions) -> Vec<ScenarioSpec> {
    let reg = registry();
    let mut mixes = vec![
        AdversaryMix::None,
        AdversaryMix::RandomSilent { count: u32::MAX },
    ];
    if opts.crashes {
        mixes.push(AdversaryMix::RandomCrashing {
            count: u32::MAX,
            max_handled: 6,
        });
    }
    let mut delays = vec![DelayChoice::Fixed];
    if opts.jitter {
        delays.push(DelayChoice::Uniform {
            lo: Duration::ZERO,
            hi: Duration::from_micros(200),
        });
    }
    let mut cells = Vec::new();
    for key in reg.keys() {
        let family = reg.family(key).expect("listed key");
        let base = family.canonical();
        let shapes: Vec<(usize, usize)> = SHAPE_POOL
            .iter()
            .copied()
            .filter(|&(n, f)| n <= opts.max_parties && family.admission().admits(n, f))
            .take(opts.shapes_per_family.max(1))
            .collect();
        for (n, f) in shapes {
            for &mix in &mixes {
                for &delay in &delays {
                    for _ in 0..opts.seeds.max(1) {
                        cells.push(
                            base.clone()
                                .with_shape(n, f)
                                .with_adversary(mix)
                                .with_delays(delay),
                        );
                    }
                }
            }
        }
    }
    cells
}

/// The default grid for one mode (`quick` = the CI smoke grid).
pub fn default_grid(quick: bool) -> Vec<ScenarioSpec> {
    grid(if quick {
        GridOptions::quick()
    } else {
        GridOptions::full()
    })
}

/// Base seed of the default sweep; per-cell seeds derive from it.
pub const BASE_SEED: u64 = 1;

/// Runs the default grid with per-cell seeds derived from [`BASE_SEED`],
/// on every available core but at least 4 threads, so a smoke run
/// exercises real concurrency.
pub fn run_default(quick: bool) -> SweepReport {
    let threads = std::thread::available_parallelism().map_or(4, usize::from);
    Sweep::new(registry())
        .cells(default_grid(quick))
        .threads(threads.max(4))
        .seed(BASE_SEED)
        .run()
}

/// Renders a sweep report as the `gcl-bench/sweep/v1` document.
pub fn render_report(report: &SweepReport, mode: &str, base_seed: u64) -> String {
    let mut doc = RowsDoc::new(crate::diff::SWEEP.tag);
    let opt_u64 = |v: Option<u64>| v.map_or(JVal::Null, JVal::U64);
    doc.top("mode", JVal::Str(mode.to_string()))
        .top("base_seed", JVal::U64(base_seed))
        .top("threads", JVal::U64(report.threads as u64))
        .top("cells", JVal::U64(report.cells.len() as u64))
        .top("cells_run", JVal::U64(report.cells_run() as u64))
        .top("cells_skipped", JVal::U64(report.cells_skipped() as u64))
        .top("commit_rate_pct", JVal::F1(report.commit_rate() * 100.0))
        .top(
            "safety_violations",
            JVal::U64(report.safety_violations().count() as u64),
        )
        .top(
            "validity_violations",
            JVal::U64(report.validity_violations().count() as u64),
        )
        .top("p50_latency_us", opt_u64(report.latency_percentile(0.5)))
        .top("p90_latency_us", opt_u64(report.latency_percentile(0.9)))
        .top("max_latency_us", opt_u64(report.latency_percentile(1.0)))
        .top("total_events", JVal::U64(report.total_events()))
        .top("total_messages", JVal::U64(report.total_messages()))
        .top("max_peak_queue", JVal::U64(report.max_peak_queue()))
        .top("wall_ns", JVal::U64(report.wall_ns))
        .top("events_per_sec", JVal::F1(report.events_per_sec()));
    for cell in &report.cells {
        let mut fields = vec![
            ("cell", JVal::Str(cell.label.clone())),
            ("family", JVal::Str(cell.spec.family.to_string())),
            ("n", JVal::U64(cell.spec.n as u64)),
            ("f", JVal::U64(cell.spec.f as u64)),
            ("seed", JVal::U64(cell.spec.seed)),
            ("committed", JVal::Bool(cell.committed)),
            ("latency_us", opt_u64(cell.latency_us)),
            ("rounds", opt_u64(cell.rounds.map(u64::from))),
            ("events", JVal::U64(cell.events)),
            ("messages", JVal::U64(cell.messages)),
            ("peak_queue", JVal::U64(cell.peak_queue)),
            ("agreement", JVal::Bool(cell.agreement)),
            ("validity", JVal::Bool(cell.validity)),
        ];
        if let Some(err) = &cell.error {
            fields.push(("skipped", JVal::Str(err.clone())));
        }
        doc.row(fields);
    }
    doc.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_covers_every_family() {
        let cells = default_grid(true);
        let reg = registry();
        for key in reg.keys() {
            assert!(
                cells.iter().any(|c| c.family == key),
                "family {key} missing from quick grid"
            );
        }
        assert!(
            cells.iter().all(|c| reg.validate(c).is_ok()),
            "generated cells are all admissible by construction"
        );
    }

    #[test]
    fn full_grid_reaches_sweep_scale() {
        let cells = default_grid(false);
        assert!(cells.len() >= 200, "only {} cells", cells.len());
    }

    #[test]
    fn report_renders_and_validates() {
        let report = Sweep::new(registry())
            .cells(grid(GridOptions {
                shapes_per_family: 1,
                seeds: 1,
                jitter: false,
                crashes: false,
                max_parties: usize::MAX,
            }))
            .threads(2)
            .seed(7)
            .run();
        assert_eq!(report.safety_violations().count(), 0, "sweep must be safe");
        assert_eq!(report.validity_violations().count(), 0);
        let text = render_report(&report, "test", 7);
        let summary = crate::diff::gate(&text, None).expect("well-formed report");
        assert!(
            summary.starts_with(&format!("{} rows pass", report.cells.len())),
            "{summary}"
        );
    }

    #[test]
    fn validate_rejects_malformed_and_inconsistent() {
        let gate = |doc: &str| crate::diff::gate(doc, None);
        assert!(gate("{").unwrap_err().contains("malformed JSON"));
        assert!(gate("{\"schema\": \"nope\", \"rows\": []}").is_err());
        let err = gate("{\"schema\": \"gcl-bench/sweep/v1\", \"rows\": []}").unwrap_err();
        assert!(
            err.contains("need at least 1"),
            "empty sweep rejected: {err}"
        );
        // A row missing its audit flags is malformed.
        let report = |cells: u64, flags: &str| {
            format!(
                "{{\"schema\": \"gcl-bench/sweep/v1\", \"cells\": {cells}, \"cells_run\": 1, \
                 \"safety_violations\": 0, \"validity_violations\": 0, \
                 \"rows\": [{{\"cell\": \"x\", \"family\": \"y\", \"n\": 4, \"f\": 1, \
                 \"seed\": 0, \"committed\": true, \"events\": 1, \"messages\": 1, \
                 \"peak_queue\": 1{flags}}}]}}"
            )
        };
        let err = gate(&report(1, "")).unwrap_err();
        assert!(err.contains("agreement"), "{err}");
        let flags = ", \"agreement\": true, \"validity\": true";
        gate(&report(1, flags)).expect("a consistent one-cell report");
        // Header counts that disagree with the rows are inconsistent.
        let err = gate(&report(2, flags)).unwrap_err();
        assert!(err.contains("header cells disagrees"), "{err}");
    }
}
