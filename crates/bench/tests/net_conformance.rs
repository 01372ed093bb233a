//! The wall-clock conformance gate (CI job `net-smoke`).
//!
//! Every registered scenario family runs on the deterministic simulator
//! and on `gcl_net`'s async backend — once on one worker thread, once on
//! its default `min(cores, 8)` pool — from the same wall-safe spec, and
//! must commit the same value everywhere. Each wall column is the wire
//! codec's end-to-end gate: messages really cross Unix-domain sockets as
//! bytes, so a family whose message type does not round-trip through
//! `gcl_types::wire` cannot pass. The two columns also gate the
//! scheduler: partial reads, the timer wheel, and n-parties-over-few-
//! threads multiplexing must be invisible to the protocols at either
//! worker count.
//!
//! The suite's hard wall ceiling is the regression gate for the wall
//! runtime's early-termination protocol: each cell runs two wall
//! configurations against 2 s deadlines, so ~15 families only fit under
//! the ceiling if honest termination exits every run early.

use gcl_bench::conformance::conformance_cells;
use std::time::{Duration, Instant};

#[test]
fn every_family_commits_the_same_value_on_all_backends() {
    let started = Instant::now();
    let cells = conformance_cells(Duration::from_secs(2));
    assert!(
        cells.len() >= 15,
        "expected the full family catalog, got {}",
        cells.len()
    );
    for cell in &cells {
        assert!(
            cell.sim_value.is_some(),
            "{}: the honest good case must commit on the simulator",
            cell.family
        );
        assert_eq!(
            cell.runs.len(),
            2,
            "{}: expected the async-w1 and async columns",
            cell.family
        );
        assert!(cell.holds(), "backend divergence: {}", cell.describe());
    }
    let wall = started.elapsed();
    assert!(
        wall < Duration::from_secs(30),
        "conformance took {wall:?}; with early termination working, \
         ~15 good-case runs on two wall configurations must finish far \
         below the 30 s ceiling (sleep-to-deadline would need >60 s on \
         its own)"
    );
}
