//! Measurement harness: every row of the paper's Table 1 and every
//! figure-derived series, regenerated from the implementations — all of
//! it driven by the scenario registry ([`registry`]): protocol families
//! register once in `gcl_core` (plus the bench-owned `flood`/`smr`
//! here), and tables, figures, throughput rows, sweeps and property
//! suites build [`gcl_sim::ScenarioSpec`] values against that registry.
//!
//! One binary, `gcl-bench`, runs every measurement
//! (`cargo run --release -p gcl_bench -- <subcommand>`):
//!
//! * `table1`, `fig8`, `lower-bounds` — print the Table 1 reproduction
//!   (paper bound vs measured), the Figure 8 latency/communication
//!   tradeoff over the early-vote grid `m`, and the replayed lower-bound
//!   executions (which strawman broke, which protocol survived).
//! * `throughput`, `net`, `smr`, `sweep` — measure and write a trajectory
//!   document: simulator events/sec plus the event-queue rows
//!   (`BENCH_sim.json`), wall latency on the async backend
//!   (`BENCH_net.json`), open-loop SMR serving (`BENCH_smr.json`), and
//!   the audited scenario grid (`BENCH_sweep.json`). They share three
//!   flags: `--quick` (the CI smoke shape), `--out PATH`, and
//!   `--check BASELINE`.
//! * `diff FRESH [--check BASELINE]` — gate an existing document.
//!
//! Every document passes through one gate, [`diff::gate`]: it checks the
//! document against its schema's declared audits and coverage and, with
//! `--check`, diffs it against the baseline's rows and metrics.
//!
//! [`conformance`] runs every registered family on the simulator and on
//! `gcl_net`'s async backend at one worker and at its default pool, and
//! compares committed values (the CI `net-smoke` gate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod diff;
pub mod json;
pub mod netlat;
pub mod scenarios;
pub mod smrload;
pub mod sweep;
pub mod throughput;

use gcl_sim::ScenarioRegistry;
use std::sync::OnceLock;

/// The workspace-wide scenario registry: every `gcl_core` protocol family
/// plus the bench-owned `flood` and `smr` families. Built once per
/// process; all bench consumers share it.
pub fn registry() -> &'static ScenarioRegistry {
    static REG: OnceLock<ScenarioRegistry> = OnceLock::new();
    REG.get_or_init(|| {
        let mut reg = gcl_core::registry();
        throughput::register(&mut reg);
        reg
    })
}

pub use conformance::{conformance_cells, wall_backends, wall_spec, BackendRun, ConformanceCell};
pub use netlat::{net_latency_rows, scale_rows, NetLatencyRow};
pub use scenarios::{
    canonical, fig8_rows, majority_rows, run, table1_rows, Fig8Row, MajorityRow, Table1Row,
};
pub use sweep::{default_grid, grid, render_report, GridOptions};
pub use throughput::{throughput_rows, ThroughputRow};
