//! `gcl-bench`: every measurement the workspace publishes.
//!
//! ```text
//! gcl-bench table1 | fig8 | lower-bounds
//! gcl-bench throughput | net | smr | sweep [--quick] [--out PATH] [--check BASELINE]
//! gcl-bench diff FRESH [--check BASELINE]
//! ```
//!
//! A producer measures, writes its document to `--out` (default
//! `BENCH_<sim|net|smr|sweep>.json` in the current directory), echoes it
//! to stderr and passes it through the one gate, `gcl_bench::diff::gate`. With
//! `--check BASELINE` the gate also checks the baseline and diffs the
//! fresh rows against it. Any gate failure exits nonzero. `--quick` is the
//! CI smoke shape: one repetition and 100k queue events for `throughput`,
//! fewer requests for `smr`, the small grid for `sweep`; `net` has a single
//! shape. `diff` gates a document already on disk.

use gcl_bench::diff::gate;
use gcl_bench::{fig8_rows, netlat, smrload, sweep, table1_rows, throughput};
use gcl_core::lower_bounds::{theorem10, theorem19, theorem4, theorem7, theorem9};
use gcl_types::{Config, Duration};
use std::process::ExitCode;

const USAGE: &str = "usage: gcl-bench table1 | fig8 | lower-bounds
       gcl-bench throughput | net | smr | sweep [--quick] [--out PATH] [--check BASELINE]
       gcl-bench diff FRESH [--check BASELINE]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let sub = args.next().unwrap_or_default();
    match sub.as_str() {
        "table1" => return print_table1(),
        "fig8" => return print_fig8(),
        "lower-bounds" => return print_lower_bounds(),
        _ => {}
    }
    let (mut quick, mut out, mut check, mut fresh) = (false, None, None, None);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" | "--check" => {
                let Some(path) = args.next() else {
                    return fail(&format!("{arg} needs a path"));
                };
                if arg == "--out" {
                    out = Some(path);
                } else {
                    check = Some(path);
                }
            }
            _ if sub == "diff" && fresh.is_none() && !arg.starts_with('-') => fresh = Some(arg),
            other => return fail(&format!("unknown argument {other:?}\n{USAGE}")),
        }
    }

    let mode = if quick { "quick" } else { "full" };
    let (doc, name) = match sub.as_str() {
        "throughput" => {
            let rows = throughput::throughput_rows(quick);
            (throughput::render_json(&rows, mode), "sim")
        }
        "net" => {
            let mut rows = netlat::net_latency_rows(netlat::DEADLINE);
            rows.extend(netlat::scale_rows(netlat::SCALE_DEADLINE));
            (netlat::render_json(&rows), "net")
        }
        "smr" => {
            let opts = if quick {
                smrload::LoadOptions::quick()
            } else {
                smrload::LoadOptions::full()
            };
            (smrload::render_json(&smrload::smr_load_rows(opts)), "smr")
        }
        "sweep" => {
            let report = sweep::run_default(quick);
            (
                sweep::render_report(&report, mode, sweep::BASE_SEED),
                "sweep",
            )
        }
        "diff" => match fresh.map(read) {
            Some(Ok(doc)) => (doc, ""),
            Some(Err(e)) => return fail(&e),
            None => return fail(&format!("diff needs a document\n{USAGE}")),
        },
        _ => return fail(USAGE),
    };
    if sub != "diff" {
        let out = out.unwrap_or_else(|| format!("BENCH_{name}.json"));
        if let Err(e) = std::fs::write(&out, &doc) {
            return fail(&format!("cannot write {out}: {e}"));
        }
        eprint!("{doc}");
        eprintln!("wrote {out}");
    }
    let baseline = match check.map(read).transpose() {
        Ok(b) => b,
        Err(e) => return fail(&e),
    };
    match gate(&doc, baseline.as_deref()) {
        Ok(summary) => {
            eprintln!("{summary}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e),
    }
}

fn read(path: String) -> Result<String, String> {
    std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn fail(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    ExitCode::FAILURE
}

fn print_table1() -> ExitCode {
    println!("Table 1 reproduction (delta = 100us actual, Delta = 1000us conservative)");
    println!();
    println!(
        "| {:<38} | {:<20} | {:<34} | n,f   | paper bound          | measured   | rounds | ok |",
        "problem", "resilience", "protocol"
    );
    println!(
        "|{}|{}|{}|-------|----------------------|------------|--------|----|",
        "-".repeat(40),
        "-".repeat(22),
        "-".repeat(36)
    );
    for row in table1_rows() {
        println!(
            "| {:<38} | {:<20} | {:<34} | {:>2},{:<2} | {:<20} | {:>7}us | {:<6} | {}  |",
            row.problem,
            row.resilience,
            row.protocol,
            row.n,
            row.f,
            row.paper,
            row.measured_us,
            row.rounds.map_or("-".to_string(), |r| r.to_string()),
            if row.matches() { "y" } else { "N" },
        );
    }
    ExitCode::SUCCESS
}

fn print_fig8() -> ExitCode {
    println!("Figure 8 tradeoff: (Delta+1.5delta)-BB early-vote grid sweep");
    println!("(n = 5, f = 2, delta = 100us, Delta = 1000us, synchronized start)");
    println!();
    println!("|   m | measured    | predicted (1+1/2m)D+1.5d | messages |");
    println!("|-----|-------------|--------------------------|----------|");
    for row in fig8_rows(&[1, 2, 4, 5, 8, 10, 20, 50]) {
        println!(
            "| {:>3} | {:>9}us | {:>22}us | {:>8} |",
            row.m, row.measured_us, row.predicted_us, row.messages
        );
    }
    println!();
    println!("optimal (m -> inf): 1150us = Delta + 1.5*delta");
    ExitCode::SUCCESS
}

fn verdict(broken: bool) -> &'static str {
    if broken {
        "AGREEMENT VIOLATED (as the theorem predicts)"
    } else {
        "agreement preserved"
    }
}

fn print_lower_bounds() -> ExitCode {
    println!("Lower-bound executions, replayed\n");
    let splits = [
        (
            "Theorem 4  vs 1-round-BRB strawman      ",
            theorem4::split_one_round_brb(4, 1, 1),
        ),
        (
            "Theorem 4  vs 2-round-BRB (Fig 1)       ",
            theorem4::split_two_round_brb(4, 1, 1),
        ),
        (
            "Theorem 7  vs FaB-style 2-round, n=5f-2 ",
            theorem7::split_fab_at_5f_minus_2(),
        ),
        (
            "Theorem 9  vs early-commit BB strawman  ",
            theorem9::split_early_commit(),
        ),
        (
            "Theorem 9  vs (Delta+delta)-n/3 (Fig 5) ",
            theorem9::same_adversary_against_fig5(),
        ),
    ];
    for (label, o) in &splits {
        println!("{label}: {}", verdict(!o.agreement_holds()));
    }
    let o = theorem10::tightness_execution(5, 2);
    println!(
        "Theorem 10 tightness (Fig 9, E1)        : latency {} (bound Delta+1.5delta+skew)",
        o.good_case_latency().expect("commits")
    );
    let o = theorem10::adversarial_execution();
    println!(
        "Theorem 10 adversarial (E2/E3 shape)    : {}",
        verdict(!o.agreement_holds())
    );

    println!("\nTheorem 19 dishonest-majority band ((floor(n/(n-f))-1)Delta <= measured <= O(n/(n-f))Delta):");
    let big_delta = Duration::from_micros(1_000);
    for (n, f) in [(4usize, 2usize), (6, 4), (8, 6), (10, 8)] {
        let cfg = Config::new(n, f).expect("config");
        let o = theorem19::good_case(n, f, big_delta);
        println!(
            "  n={n:>2} f={f:>2}: lower {:>6}  measured {:>6}  upper {:>6}",
            theorem19::lower_bound(cfg, big_delta),
            o.good_case_latency().expect("commits"),
            theorem19::upper_bound(cfg, big_delta),
        );
    }
    ExitCode::SUCCESS
}
