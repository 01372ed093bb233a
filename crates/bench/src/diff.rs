//! The one trajectory gate: [`gate`] checks a `BENCH_*.json` document or
//! a sweep report and, given a committed baseline, diffs the two row by
//! row. Every rule it applies is data in the schema table [`SCHEMAS`]:
//!
//! * **identity columns** — a row's join key, so reordering rows is not
//!   drift but re-shaping a scenario is;
//! * **gated metrics** — each with the direction that is better and the
//!   factor by which a fresh value may be worse than its baseline;
//! * **audits** — columns every row must carry: true, a boolean, text, a
//!   counter, or a positive counter;
//! * **coverage** — rows the document must contain (every registered
//!   family on every wall configuration, every scale point, enough
//!   distinct configurations, header tallies that match the rows).
//!
//! The factors are loose on purpose. Wall numbers bounce around across
//! machines, so a 25× bound catches categorical breakage (a run that
//! sleeps to its deadline, a serving path that commits only on
//! retransmission) and lets noise through. Simulator events/sec is held
//! to 3×. Tighter judgement stays with humans reading the committed
//! trajectory diff in review.

use crate::json::{parse, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Which direction of change is an improvement for a metric.
#[derive(Clone, Copy)]
enum Better {
    Lower,
    Higher,
}

/// The bound for every wall-clock and work-counter metric.
const LOOSE: f64 = 25.0;

/// What an audit column must hold in every row.
#[derive(Clone, Copy)]
enum Need {
    True,
    Bool,
    Text,
    /// A non-negative integer ([`Value::field_u64`]).
    Count,
    /// An integer ≥ 1.
    Positive,
}

/// Which rows a header counter counts.
#[derive(Clone, Copy)]
enum Tally {
    Rows,
    RowsWithout(&'static str),
    RowsNotTrue(&'static str),
}

/// A rule about which rows a document must contain.
#[derive(Clone, Copy)]
enum Cover {
    MinRows(usize),
    /// For each `(column, value)` set, some row matching all of it.
    Each(fn() -> Vec<Vec<(&'static str, String)>>),
    /// At least this many distinct value tuples over the columns.
    Distinct(&'static [&'static str], usize),
    /// Some row whose counter column is at least this.
    AnyAtLeast(&'static str, u64),
    /// A header counter that must equal its tally over the rows.
    Header(&'static str, Tally),
}

/// One trajectory document type and every rule the gate holds it to.
pub struct Schema {
    /// The document's `schema` tag.
    pub tag: &'static str,
    key: &'static [&'static str],
    /// `(column, better, factor)`: a fresh value may be up to `factor`
    /// times worse than its baseline.
    metrics: &'static [(&'static str, Better, f64)],
    audits: &'static [(Need, &'static [&'static str])],
    coverage: &'static [Cover],
}

/// `BENCH_sim.json`: simulator throughput per fixed scenario.
pub const SIM: Schema = Schema {
    tag: "gcl-bench/sim-throughput/v2",
    key: &["scenario"],
    metrics: &[
        ("events_per_sec", Better::Higher, 3.0),
        // Deterministic: a jump in MACs computed means a verify cache
        // stopped amortizing.
        ("verify_macs", Better::Lower, LOOSE),
        // Retained queue memory: a jump means the slab or the calendar
        // directories stopped recycling.
        ("queue_bytes", Better::Lower, LOOSE),
        // Deterministic: a jump means parties flood dead recipients
        // harder — termination drift, not noise.
        ("drops_at_enqueue", Better::Lower, LOOSE),
    ],
    audits: &[(
        Need::Count,
        &[
            "n",
            "f",
            "events",
            "messages",
            "peak_queue",
            "wall_ns",
            "verify_hits",
            "reps",
        ],
    )],
    coverage: &[Cover::MinRows(4)],
};

/// `BENCH_net.json`: good-case wall latency per family, configuration and
/// scale on the async backend.
pub const NET: Schema = Schema {
    tag: "gcl-bench/net-latency/v2",
    key: &["family", "backend", "n"],
    metrics: &[("latency_us", Better::Lower, LOOSE)],
    audits: &[
        (Need::True, &["agreement"]),
        // A `null` latency means not every honest party committed: a
        // liveness failure.
        (Need::Count, &["latency_us", "wakeups"]),
        (Need::Positive, &["workers"]),
    ],
    coverage: &[Cover::Each(crate::netlat::required_rows)],
};

/// `BENCH_smr.json`: open-loop SMR serving rows.
pub const SMR: Schema = Schema {
    tag: "gcl-bench/smr-load/v3",
    key: &["backend", "batch", "pipeline", "n", "f", "crashes"],
    metrics: &[
        ("commits_per_sec", Better::Higher, LOOSE),
        ("p50_us", Better::Lower, LOOSE),
    ],
    audits: &[
        (Need::Text, &["backend"]),
        (Need::True, &["agreement", "exactly_once", "acked_applied"]),
        (Need::Positive, &["committed", "acked"]),
        (
            Need::Count,
            &["batch", "pipeline", "crashes", "p50_us", "mp_admitted"],
        ),
    ],
    coverage: &[
        Cover::Distinct(&["batch", "pipeline"], 3),
        // A leader-failover row and a row at scale.
        Cover::AnyAtLeast("crashes", 1),
        Cover::AnyAtLeast("n", 16),
    ],
};

/// The sweep report: one audited row per grid cell.
pub const SWEEP: Schema = Schema {
    tag: "gcl-bench/sweep/v1",
    key: &["cell"],
    metrics: &[],
    audits: &[
        (Need::Text, &["family"]),
        (Need::True, &["agreement", "validity"]),
        (Need::Bool, &["committed"]),
        (
            Need::Count,
            &["n", "f", "seed", "events", "messages", "peak_queue"],
        ),
    ],
    coverage: &[
        Cover::MinRows(1),
        Cover::Header("cells", Tally::Rows),
        Cover::Header("cells_run", Tally::RowsWithout("skipped")),
        Cover::Header("safety_violations", Tally::RowsNotTrue("agreement")),
        Cover::Header("validity_violations", Tally::RowsNotTrue("validity")),
    ],
};

/// Every schema the gate knows, looked up by a document's `schema` tag.
pub const SCHEMAS: [&Schema; 4] = [&SIM, &NET, &SMR, &SWEEP];

/// Checks `fresh` against its schema's audits and coverage. Given a
/// `baseline`, checks that too, then requires the same schema, the same
/// row identities, the same columns per row, and every gated metric
/// within its factor of the baseline. Returns a one-line summary.
///
/// A metric whose baseline is 0 has no ratio and is skipped; a
/// higher-is-better metric that falls to 0 from a positive baseline is
/// an unbounded regression.
///
/// # Errors
///
/// A description of the first violated rule.
pub fn gate(fresh: &str, baseline: Option<&str>) -> Result<String, String> {
    let fresh_doc = parse(fresh).map_err(|e| format!("fresh: malformed JSON: {e}"))?;
    let (schema, fresh_rows) = checked(&fresh_doc).map_err(|e| format!("fresh: {e}"))?;
    let passed = format!("{} rows pass the {} gate", fresh_rows.len(), schema.tag);
    let Some(baseline) = baseline else {
        return Ok(passed);
    };
    let base_doc = parse(baseline).map_err(|e| format!("baseline: malformed JSON: {e}"))?;
    let (base_schema, base_rows) = checked(&base_doc).map_err(|e| format!("baseline: {e}"))?;
    if base_schema.tag != schema.tag {
        return Err(format!(
            "schema drift: baseline {:?} vs fresh {:?}",
            base_schema.tag, schema.tag
        ));
    }
    if let Some(key) = base_rows.keys().find(|k| !fresh_rows.contains_key(*k)) {
        return Err(format!(
            "structural drift: baseline row [{key}] has no fresh counterpart"
        ));
    }
    if let Some(key) = fresh_rows.keys().find(|k| !base_rows.contains_key(*k)) {
        return Err(format!(
            "structural drift: fresh row [{key}] is not in the baseline \
             (regenerate the committed file)"
        ));
    }
    let mut worst: Option<(f64, String)> = None;
    for (key, base) in &base_rows {
        let fresh = fresh_rows[key];
        let columns = |row: &Value| {
            row.as_object()
                .map(|m| m.keys().cloned().collect::<Vec<_>>())
        };
        if columns(base) != columns(fresh) {
            return Err(format!(
                "structural drift: row [{key}] columns differ (baseline {:?} vs fresh {:?})",
                columns(base).unwrap_or_default(),
                columns(fresh).unwrap_or_default()
            ));
        }
        for &(col, better, factor) in schema.metrics {
            // Both are non-negative numbers: `checked` audits metrics.
            let (Some(b), Some(f)) = (base.field_f64(col), fresh.field_f64(col)) else {
                continue;
            };
            if b <= 0.0 {
                continue;
            }
            let ratio = match better {
                Better::Lower => f / b,
                Better::Higher => b / f,
            };
            if ratio > factor {
                return Err(format!(
                    "gross regression: row [{key}] {col} went {b:.1} -> {f:.1} \
                     ({ratio:.1}x worse; bound {factor}x)"
                ));
            }
            if worst.as_ref().is_none_or(|(w, _)| ratio > *w) {
                worst = Some((ratio, format!("[{key}] {col}")));
            }
        }
    }
    Ok(match worst {
        Some((ratio, label)) => format!("{passed}; worst metric ratio {ratio:.2}x ({label})"),
        None => passed,
    })
}

/// A cell rendered for joins and coverage matches.
fn cell(row: &Value, col: &str) -> Option<String> {
    match row.field(col)? {
        Value::String(s) => Some(s.clone()),
        Value::Number(x) => Some(format!("{x}")),
        _ => None,
    }
}

/// Applies one document's schema rules; returns the schema and its rows
/// keyed by identity.
fn checked(doc: &Value) -> Result<(&'static Schema, BTreeMap<String, &Value>), String> {
    let tag = doc.field_str("schema").ok_or("missing schema")?;
    let schema = SCHEMAS
        .into_iter()
        .find(|s| s.tag == tag)
        .ok_or_else(|| format!("unknown trajectory schema {tag:?}"))?;
    let list = doc
        .field("rows")
        .and_then(Value::as_array)
        .ok_or("missing rows array")?;
    let mut rows = BTreeMap::new();
    for (i, row) in list.iter().enumerate() {
        let mut key = Vec::with_capacity(schema.key.len());
        for col in schema.key {
            let part = cell(row, col)
                .ok_or_else(|| format!("row {i}: missing identity column {col:?}"))?;
            key.push(format!("{col}={part}"));
        }
        let key = key.join(" ");
        for &(need, cols) in schema.audits {
            for &col in cols {
                let (ok, what) = match need {
                    Need::True => (row.field_bool(col) == Some(true), "true"),
                    Need::Bool => (row.field_bool(col).is_some(), "a boolean"),
                    Need::Text => (row.field_str(col).is_some(), "text"),
                    Need::Count => (row.field_u64(col).is_some(), "a counter"),
                    Need::Positive => (row.field_u64(col).is_some_and(|x| x > 0), "positive"),
                };
                if !ok {
                    return Err(format!("row [{key}]: {col} is not {what}"));
                }
            }
        }
        for &(col, _, _) in schema.metrics {
            if !row.field_f64(col).is_some_and(|x| x >= 0.0) {
                return Err(format!("row [{key}]: metric {col} is not measured"));
            }
        }
        if rows.insert(key.clone(), row).is_some() {
            return Err(format!("duplicate row [{key}]"));
        }
    }
    for rule in schema.coverage {
        match *rule {
            Cover::MinRows(min) => {
                if list.len() < min {
                    return Err(format!("{} rows; need at least {min}", list.len()));
                }
            }
            Cover::Each(required) => {
                for want in required() {
                    let matches =
                        |r: &Value| want.iter().all(|(c, v)| cell(r, c).as_ref() == Some(v));
                    if !list.iter().any(matches) {
                        let want: Vec<String> =
                            want.iter().map(|(c, v)| format!("{c}={v}")).collect();
                        return Err(format!("no row with {}", want.join(" ")));
                    }
                }
            }
            Cover::Distinct(cols, min) => {
                let seen: BTreeSet<Vec<Option<String>>> = list
                    .iter()
                    .map(|r| cols.iter().map(|c| cell(r, c)).collect())
                    .collect();
                if seen.len() < min {
                    return Err(format!(
                        "only {} distinct {cols:?} configurations; need >= {min}",
                        seen.len()
                    ));
                }
            }
            Cover::AnyAtLeast(col, min) => {
                if !list
                    .iter()
                    .any(|r| r.field_u64(col).is_some_and(|x| x >= min))
                {
                    return Err(format!("no row with {col} >= {min}"));
                }
            }
            Cover::Header(field, tally) => {
                let count = list
                    .iter()
                    .filter(|r| match tally {
                        Tally::Rows => true,
                        Tally::RowsWithout(col) => r.field(col).is_none(),
                        Tally::RowsNotTrue(col) => r.field_bool(col) != Some(true),
                    })
                    .count();
                if doc.field_u64(field) != Some(count as u64) {
                    return Err(format!("header {field} disagrees with the rows ({count})"));
                }
            }
        }
    }
    Ok((schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> String {
        std::fs::read_to_string(format!("../../BENCH_{name}.json")).expect(name)
    }

    /// The quick-grid sweep report (no sweep baseline is committed).
    fn quick_sweep() -> String {
        let report = gcl_sim::Sweep::new(crate::registry())
            .cells(crate::sweep::default_grid(true))
            .threads(2)
            .seed(1)
            .run();
        crate::sweep::render_report(&report, "quick", 1)
    }

    /// `doc` with its row lines (one row per line) rewritten by `edit`.
    fn rows(doc: &str, edit: impl FnOnce(&mut Vec<String>)) -> String {
        let (head, rest) = doc.split_once("\"rows\": [\n").expect("rows");
        let (body, tail) = rest.split_once("\n  ]").expect("rows end");
        let mut lines: Vec<String> = body
            .lines()
            .map(|l| l.trim_end_matches(',').to_string())
            .collect();
        edit(&mut lines);
        format!("{head}\"rows\": [\n{}\n  ]{tail}", lines.join(",\n"))
    }

    /// `doc` with column `col` of row `i` set to `val`, or removed.
    fn set(doc: &str, i: usize, col: &str, val: Option<&str>) -> String {
        rows(doc, |rows| {
            let row = &rows[i];
            let at = row.find(&format!("\"{col}\": ")).expect(col);
            let end = at + row[at..].find([',', '}']).expect("value end");
            rows[i] = match val {
                Some(v) => format!("{}\"{col}\": {v}{}", &row[..at], &row[end..]),
                None => format!(
                    "{}{}",
                    row[..at].strip_suffix(", ").expect("not first"),
                    &row[end..]
                ),
            };
        })
    }

    /// `doc` with metric `col` of row `i` multiplied by `k`.
    fn scale(doc: &str, i: usize, col: &str, k: f64) -> String {
        let rows = parse(doc).unwrap();
        let x = rows.field("rows").unwrap().as_array().unwrap()[i]
            .field_f64(col)
            .expect(col);
        set(doc, i, col, Some(&format!("{}", (x * k).round())))
    }

    /// Index of the first row whose line contains `needle`.
    fn row_of(doc: &str, needle: &str) -> usize {
        let body = doc.split_once("\"rows\": [\n").unwrap().1;
        body.lines().position(|l| l.contains(needle)).expect(needle)
    }

    #[test]
    fn every_gate_condition_rejects_its_injected_regression() {
        let sim = committed("sim");
        let net = committed("net");
        let smr = committed("smr");
        let sweep = quick_sweep();
        let brb2 = row_of(&sim, "brb2_n256_f85");
        let bump = |doc: &str, tag: &str| doc.replace(tag, &format!("{tag}9"));
        // (injected regression, baseline, fresh, the error it must raise)
        #[rustfmt::skip]
        let cases: Vec<(&str, &str, String, &str)> = vec![
            ("sim: dropped row", &sim, rows(&sim, |r| drop(r.remove(4))), "no fresh counterpart"),
            ("sim: extra row", &sim, rows(&sim, |r| r.push(r[0].replace("_n16", "_n17"))), "not in the baseline"),
            ("sim: renamed column", &sim, sim.replacen("\"reps\"", "\"repeats\"", 1), "reps is not a counter"),
            ("sim: schema bump", &sim, bump(&sim, SIM.tag), "unknown trajectory schema"),
            ("sim: 4x slower", &sim, scale(&sim, 0, "events_per_sec", 0.25), "events_per_sec"),
            ("sim: stalled", &sim, set(&sim, 0, "events_per_sec", Some("0.0")), "events_per_sec"),
            ("sim: verify cache off", &sim, scale(&sim, brb2, "verify_macs", 30.0), "verify_macs"),
            ("sim: slab leak", &sim, scale(&sim, 0, "queue_bytes", 30.0), "queue_bytes"),
            ("sim: dead-send flood", &sim, scale(&sim, brb2, "drops_at_enqueue", 30.0), "drops_at_enqueue"),
            ("sim: three rows", &sim, rows(&sim, |r| r.truncate(3)), "need at least 4"),
            ("net: dropped row", &net, rows(&net, |r| drop(r.remove(0))), "no row with family="),
            ("net: no scale row", &net, rows(&net, |r| r.retain(|l| !l.contains("\"n\": 512"))), "no row with family=flood backend=async n=512"),
            ("net: extra row", &net, rows(&net, |r| r.push(r[0].replace("\"n\": 4", "\"n\": 5"))), "not in the baseline"),
            ("net: renamed column", &net, net.replacen("\"messages\"", "\"msgs\"", 1), "columns differ"),
            ("net: schema bump", &net, bump(&net, NET.tag), "unknown trajectory schema"),
            ("net: 30x latency", &net, scale(&net, 0, "latency_us", 30.0), "gross regression"),
            ("net: agreement", &net, set(&net, 0, "agreement", Some("false")), "agreement is not true"),
            ("net: no latency", &net, set(&net, 0, "latency_us", Some("null")), "latency_us is not a counter"),
            ("net: negative latency", &net, set(&net, 0, "latency_us", Some("-1")), "latency_us is not a counter"),
            ("net: no workers", &net, set(&net, 0, "workers", None), "workers is not positive"),
            ("net: no wakeups", &net, set(&net, 0, "wakeups", None), "wakeups is not a counter"),
            ("smr: dropped row", &smr, rows(&smr, |r| drop(r.remove(3))), "no fresh counterpart"),
            ("smr: extra row", &smr, rows(&smr, |r| r.push(r[0].replace("\"f\": 1", "\"f\": 2"))), "not in the baseline"),
            ("smr: renamed column", &smr, smr.replacen("\"retries\"", "\"resends\"", 1), "columns differ"),
            ("smr: schema bump", &smr, bump(&smr, SMR.tag), "unknown trajectory schema"),
            ("smr: 30x slower", &smr, scale(&smr, 0, "commits_per_sec", 1.0 / 30.0), "commits_per_sec"),
            ("smr: stalled", &smr, set(&smr, 0, "commits_per_sec", Some("0.0")), "commits_per_sec"),
            ("smr: 30x ack latency", &smr, scale(&smr, 0, "p50_us", 30.0), "p50_us"),
            ("smr: agreement", &smr, set(&smr, 0, "agreement", Some("false")), "agreement is not true"),
            ("smr: exactly once", &smr, set(&smr, 0, "exactly_once", Some("false")), "exactly_once is not true"),
            ("smr: acked applied", &smr, set(&smr, 0, "acked_applied", Some("false")), "acked_applied is not true"),
            ("smr: nothing committed", &smr, set(&smr, 0, "committed", Some("0")), "committed is not positive"),
            ("smr: nothing acked", &smr, set(&smr, 0, "acked", Some("0")), "acked is not positive"),
            ("smr: no backend", &smr, smr.replacen("\"backend\": \"async\", ", "", 1), "missing identity column \"backend\""),
            ("smr: no p50", &smr, set(&smr, 0, "p50_us", Some("null")), "p50_us is not a counter"),
            ("smr: negative p50", &smr, set(&smr, 0, "p50_us", Some("-3")), "p50_us is not a counter"),
            ("smr: two configs", &smr, rows(&smr, |r| drop(r.remove(0))), "distinct"),
            ("smr: no failover", &smr, rows(&smr, |r| r.retain(|l| !l.contains("\"crashes\": 1") && !l.contains("\"crashes\": 2"))), "crashes >= 1"),
            ("smr: no scale row", &smr, rows(&smr, |r| r.retain(|l| !l.contains("\"n\": 24"))), "n >= 16"),
            ("sweep: no rows", &sweep, rows(&sweep, |r| r.clear()), "need at least 1"),
            ("sweep: dropped row", &sweep, rows(&sweep, |r| drop(r.remove(0))), "header cells disagrees"),
            ("sweep: extra row", &sweep, rows(&sweep, |r| r.push(r[0].replace("/s", "/x"))), "header cells disagrees"),
            ("sweep: renamed column", &sweep, sweep.replacen("\"events\"", "\"evts\"", 1), "events is not a counter"),
            ("sweep: schema bump", &sweep, bump(&sweep, SWEEP.tag), "unknown trajectory schema"),
            ("sweep: agreement", &sweep, set(&sweep, 0, "agreement", Some("false")), "agreement is not true"),
            ("sweep: validity", &sweep, set(&sweep, 0, "validity", Some("false")), "validity is not true"),
            ("sweep: header", &sweep, sweep.replacen("\"cells_run\": ", "\"cells_run\": 1", 1), "header cells_run disagrees"),
        ];
        for (what, baseline, fresh, expect) in &cases {
            let err = gate(fresh, Some(baseline)).expect_err(what);
            assert!(err.contains(expect), "{what}: {err}");
        }
        for doc in [&sim, &net, &smr, &sweep] {
            gate(doc, Some(doc)).expect("a document passes against itself");
        }
    }

    #[test]
    fn identical_documents_pass() {
        let net = committed("net");
        let summary = gate(&net, Some(&net)).expect("identity diff passes");
        assert!(summary.contains("worst metric ratio 1.00x"), "{summary}");
    }

    #[test]
    fn scale_rows_are_distinct_by_n() {
        // The async backend measures flood at n = 4, 256, 512 and 1024;
        // n keeps those rows distinct identities.
        let net = committed("net");
        let i = row_of(
            &net,
            "\"family\": \"flood\", \"backend\": \"async\", \"n\": 512",
        );
        let err = gate(&set(&net, i, "n", Some("256")), Some(&net)).unwrap_err();
        assert!(
            err.contains("duplicate row [family=flood backend=async n=256]"),
            "{err}"
        );
    }

    #[test]
    fn noise_within_factor_passes_and_gross_regression_fails() {
        let net = committed("net");
        gate(&scale(&net, 0, "latency_us", 4.5), Some(&net)).expect("4.5x is machine noise");
        gate(&scale(&net, 0, "latency_us", 0.01), Some(&net))
            .expect("faster is never a regression");
        let err = gate(&scale(&net, 0, "latency_us", 30.0), Some(&net)).unwrap_err();
        assert!(
            err.contains("gross regression") && err.contains("latency_us"),
            "{err}"
        );
    }

    #[test]
    fn a_higher_is_better_metric_that_drops_to_zero_fails() {
        let smr = committed("smr");
        let err = gate(&set(&smr, 1, "commits_per_sec", Some("0.0")), Some(&smr)).unwrap_err();
        assert!(
            err.contains("commits_per_sec") && err.contains("infx worse"),
            "{err}"
        );
        // A lower-is-better metric at 0 is an improvement.
        let sim = committed("sim");
        let brb2 = row_of(&sim, "brb2_n256_f85");
        gate(&set(&sim, brb2, "verify_macs", Some("0")), Some(&sim)).expect("zero MACs is a win");
    }

    #[test]
    fn missing_and_extra_rows_are_structural_drift() {
        let sim = committed("sim");
        gate(&rows(&sim, |r| r.reverse()), Some(&sim)).expect("order is irrelevant");
        let dropped = rows(&sim, |r| drop(r.remove(1)));
        let err = gate(&dropped, Some(&sim)).unwrap_err();
        assert!(err.contains("[scenario=flood_n64] has no fresh"), "{err}");
        let err = gate(&sim, Some(&dropped)).unwrap_err();
        assert!(err.contains("[scenario=flood_n64] is not in the"), "{err}");
    }

    #[test]
    fn column_drift_and_schema_drift_fail() {
        let net = committed("net");
        let smr = committed("smr");
        let err = gate(&net.replacen("\"messages\"", "\"msgs\"", 1), Some(&net)).unwrap_err();
        assert!(err.contains("columns differ"), "{err}");
        let err = gate(&smr, Some(&net)).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
        let err = gate(&net.replace(NET.tag, "gcl-bench/net-latency/v9"), None).unwrap_err();
        assert!(err.contains("unknown trajectory schema"), "{err}");
        assert!(gate("nope", None).unwrap_err().contains("malformed JSON"));
        let no_rows = format!("{{\"schema\": \"{}\"}}", SIM.tag);
        assert!(gate(&no_rows, None)
            .unwrap_err()
            .contains("missing rows array"));
        assert!(gate(&net, Some("nope"))
            .unwrap_err()
            .contains("baseline: malformed"));
    }

    #[test]
    fn smr_rows_gate_rate_and_ack_latency() {
        let smr = committed("smr");
        // Ordinary noise passes; the table test injects each failure.
        let noisy = scale(&scale(&smr, 0, "commits_per_sec", 0.4), 0, "p50_us", 3.0);
        gate(&noisy, Some(&smr)).expect("ordinary noise passes");
    }

    #[test]
    fn sim_rows_gate_throughput_and_verifier_work() {
        let sim = committed("sim");
        // Either side of the 3x bound; the verify_macs rows are in the
        // table test.
        gate(&scale(&sim, 0, "events_per_sec", 0.4), Some(&sim)).expect("2.5x is inside 3x");
        let err = gate(&scale(&sim, 0, "events_per_sec", 0.3), Some(&sim)).unwrap_err();
        assert!(err.contains("bound 3x"), "{err}");
    }

    #[test]
    fn sim_rows_gate_queue_memory_and_enqueue_drops() {
        let sim = committed("sim");
        let brb2 = row_of(&sim, "brb2_n256_f85");
        // Small drift passes; the table test injects each failure. A
        // zero-drop baseline (the all-honest floods) has no ratio.
        gate(&scale(&sim, brb2, "queue_bytes", 1.2), Some(&sim)).expect("small drift passes");
        gate(&set(&sim, 0, "drops_at_enqueue", Some("5")), Some(&sim)).expect("zeros skipped");
    }

    #[test]
    fn committed_baselines_diff_cleanly_against_themselves() {
        for name in ["net", "smr", "sim"] {
            let text = committed(name);
            gate(&text, Some(&text)).expect(name);
        }
    }
}
