//! Ablation benches for three design choices — every measured point a
//! registry spec with one knob turned.
//!
//! * `delta_sweep` — the δ/Δ separation: good-case latency of `2δ`-BB must
//!   track the *actual* δ, not the conservative Δ (prints the series).
//! * `majority_scaling` — dishonest-majority latency vs `n/(n−f)`.
//! * `brb2_scale_n` — the 2-round BRB as `n` grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gcl_bench::scenarios::BIG_DELTA;
use gcl_bench::{canonical, run};
use gcl_types::Duration;

fn print_ablations_once() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!("--- ablation: delta sweep (2delta-BB, n=4, f=1, Delta=1000us) ---");
        for delta_us in [25u64, 50, 100, 200, 400] {
            let spec = canonical("bb_2delta", 4, 1)
                .with_seed(209)
                .with_bounds(Duration::from_micros(delta_us), BIG_DELTA);
            let o = run(&spec);
            eprintln!(
                "delta={delta_us:>4}us -> latency={} (2*delta = {}us; Delta stays 1000us)",
                o.good_case_latency().unwrap(),
                2 * delta_us
            );
        }
        eprintln!("--- ablation: majority scaling (silent Byzantine) ---");
        for row in gcl_bench::majority_rows(&[(4, 2), (6, 4), (8, 6), (10, 8)]) {
            eprintln!(
                "n={:<2} f={:<2} n/(n-f)={}: lower={}us measured={}us upper={}us",
                row.n,
                row.f,
                row.n / (row.n - row.f),
                row.lower_bound_us,
                row.measured_us,
                row.upper_bound_us
            );
        }
        eprintln!("------------------------------------------------------");
    });
}

fn bench_ablation(c: &mut Criterion) {
    print_ablations_once();
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    for (n, f) in [(4usize, 2usize), (6, 4), (10, 8)] {
        let spec = canonical("bb_majority", n, f);
        g.bench_with_input(
            BenchmarkId::new("majority_scaling", format!("n{n}f{f}")),
            &(n, f),
            |b, _| b.iter(|| run(&spec)),
        );
    }
    for n in [4usize, 7, 10, 13] {
        let spec = canonical("brb2", n, (n - 1) / 3);
        g.bench_with_input(BenchmarkId::new("brb2_scale_n", n), &n, |b, _| {
            b.iter(|| run(&spec))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
