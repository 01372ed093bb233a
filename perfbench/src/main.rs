//! The repository benchmark: one command, four workloads (three gated in
//! `BENCHMARK.json`; `wall_brb2` runs ungated), end-to-end
//! metrics with tracing off, and a traced run that splits the time by
//! layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sim_brb2|sim_sweep|wall_brb2|smr_failover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload derives its inputs from `--seed`, measures for
//! `--seconds` (at least one full operation), checks its outputs, prints
//! each metric on its own line (`[samples n] name = value unit`) and ends
//! with one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the JSON metrics are the end-to-end set
//! ([`E2E_METRICS`]); with `--trace 1` the per-layer set
//! ([`LAYER_METRICS`]). A safety or audit violation (agreement, sweep
//! safety or validity, exactly-once, acked-applied, tracer transparency,
//! exact-count drift) prints `"correct": false` and exits with code 1.
//!
//! The simulator workloads are timed in CPU time scaled to a reference
//! host speed ([`time_op`]); the wall workloads in wall time.
//!
//! Threads: the simulator workloads run on one busy thread; the wall
//! workloads run `AsyncBackend::workers(1)` (scheduler plus one worker),
//! and the SMR client thread mostly sleeps.

mod heap;
mod sim;
mod smr;
mod tracer;
mod wall;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use gcl_crypto::{Digest, Keychain};
use gcl_types::PartyId;
use std::collections::{BTreeMap, HashMap};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const E2E_METRICS: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("served_frac", "frac"),
    ("ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const LAYER_METRICS: [(&str, &str); 33] = [
    ("gcl_sim.events", "count"),
    ("gcl_sim.messages", "count"),
    ("gcl_sim.drops_at_enqueue", "count"),
    ("gcl_sim.peak_queue", "count"),
    ("gcl_sim.queue_bytes", "B"),
    ("gcl_sim.dead_send_frac", "frac"),
    ("gcl_core.handler_calls", "count"),
    ("gcl_core.timer_calls", "count"),
    ("gcl_core.handler_ns_per_call", "ns"),
    ("backend.send_ns_per_send", "ns"),
    ("backend.loop_ns_per_event", "ns"),
    ("backend.setup_ms", "ms"),
    ("gcl_crypto.verify_macs", "count"),
    ("gcl_crypto.verify_hits", "count"),
    ("gcl_crypto.hit_ratio", "frac"),
    ("gcl_crypto.keygen_ms", "ms"),
    ("gcl_crypto.miss_ns", "ns"),
    ("gcl_types.encode_ns_per_msg", "ns"),
    ("gcl_types.decode_ns_per_msg", "ns"),
    ("gcl_types.bytes_per_msg", "B"),
    ("gcl_net.wakeups", "count"),
    ("gcl_net.peak_out_bytes", "B"),
    ("gcl_smr.cmds_per_slot", "count"),
    ("gcl_smr.mp_admitted", "count"),
    ("gcl_smr.mp_rejected", "count"),
    ("gcl_smr.mp_requeued", "count"),
    ("gcl_smr.admit_ratio", "frac"),
    ("gcl_smr.client_retries", "count"),
    ("gcl_smr.client_rejects", "count"),
    ("trace.overhead_frac", "frac"),
    ("trace.erasure_frac", "frac"),
    ("host.sentinel_ms", "ms"),
    ("host.cpu_ms_per_op", "ms"),
];

/// Callbacks are timed one in `2^TRACE_SAMPLE_LOG2` per party.
pub const TRACE_SAMPLE_LOG2: u32 = 2;

/// The set-up phase repeats at least this many times …
pub const SETUP_MIN: usize = 3;
/// … and until this much time has passed (at most [`SETUP_MAX`] times);
/// `setup_s` is the median.
pub const SETUP_BUDGET: Duration = Duration::from_secs(2);
/// Cap on set-up repetitions.
pub const SETUP_MAX: usize = 15;

/// Command-line arguments.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run instead of the end-to-end one.
    pub trace: bool,
}

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `brb2` at (1024, 341) on the simulator, repeated.
    SimBrb2,
    /// The 648-cell scenario grid on the simulator, one grid seed a pass.
    SimSweep,
    /// `brb2` at (256, 1) on the async backend with one worker.
    WallBrb2,
    /// The SMR service at (24, 5) under open-loop load, leader killed.
    SmrFailover,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "sim_brb2" => Workload::SimBrb2,
            "sim_sweep" => Workload::SimSweep,
            "wall_brb2" => Workload::WallBrb2,
            "smr_failover" => Workload::SmrFailover,
            _ => return None,
        })
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back: operation counts, violations, and the
/// metrics of the chosen mode.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Safety or audit violations (any makes the run incorrect).
    pub violations: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Records a JSON metric and prints it.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = E2E_METRICS
            .iter()
            .chain(LAYER_METRICS.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        println!("{name} = {value} {unit}");
        self.metrics.push((name, value));
    }

    /// Records a JSON metric with its sample count.
    pub fn metric_n(&mut self, name: &'static str, value: f64, samples: usize) {
        print!("[samples {samples}] ");
        self.metric(name, value);
    }

    /// Records a violation.
    pub fn violation(&mut self, what: String) {
        eprintln!("VIOLATION: {what}");
        self.violations.push(what);
    }
}

/// Prints an informational metric line (not part of the JSON result).
pub fn info(name: &str, value: f64, unit: &str) {
    println!("{name} = {value} {unit}");
}

/// Prints an informational timing line with its sample count.
pub fn info_n(name: &str, value: f64, unit: &str, samples: usize) {
    println!("[samples {samples}] {name} = {value} {unit}");
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; `xs` need
/// not be sorted. `None` when empty.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The smallest of `xs` (0 when empty).
pub fn least(xs: &[f64]) -> f64 {
    quantile(xs, 0.0).unwrap_or(0.0)
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// Prints the median of a latency sample and the highest of p99/p90
/// that leaves at least ten samples beyond it.
pub fn info_latency(prefix: &str, xs: &[f64]) {
    if xs.is_empty() {
        println!("[samples 0] {prefix}_p50 = none ms");
        return;
    }
    info_n(&format!("{prefix}_p50"), median(xs), "ms", xs.len());
    for (label, q) in [("p99", 0.99), ("p90", 0.90)] {
        if (xs.len() as f64 * (1.0 - q)).floor() >= 10.0 {
            info_n(
                &format!("{prefix}_{label}"),
                quantile(xs, q).unwrap_or(0.0),
                "ms",
                xs.len(),
            );
            break;
        }
    }
}

/// The reference kernel's CPU time on a shared 2-vCPU virtual machine in
/// a quiet period, ms: the scale of [`OpTime::ref_ms`].
pub const REFERENCE_MS: f64 = 8.0;

/// Words in the reference kernel's table (64 MB, well past the caches).
const REFERENCE_WORDS: usize = 16 << 20;

/// The host-speed reference: the CPU time of a fixed kernel that uses
/// only the standard library, ms. The kernel does a little of what the
/// simulator does a lot of: dependent loads from a table far larger than
/// the caches, hashing into a `HashMap`, allocating boxed records into a
/// `BTreeMap`, and formatting and sorting strings. No repository code
/// runs in it, so no change to the repository changes its cost; only the
/// host does.
pub fn reference_ms() -> f64 {
    static TABLE: OnceLock<&'static [u32]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let t = heap::untracked_table(REFERENCE_WORDS);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for w in t.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = (x % REFERENCE_WORDS as u64) as u32;
        }
        t
    });
    let start = process_cpu_ms();
    {
        let mut i = 1usize;
        for _ in 0..100_000 {
            i = table[i] as usize;
        }
        let key = |k: u64| k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i as u64;
        let mut hashed: HashMap<u64, u64> = HashMap::new();
        for k in 0..16_384 {
            hashed.insert(key(k), k);
        }
        let found: u64 = (0..16_384).filter_map(|k| hashed.get(&key(k))).sum();
        let mut ordered: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
        for k in 0..16_384 {
            ordered.insert(key(k) >> 8, Box::new([k; 4]));
        }
        let mut words: Vec<String> = (0..4_096).map(|k| format!("{:x}-{k}", key(k))).collect();
        words.sort();
        std::hint::black_box((found, ordered.len(), words.len()));
    }
    process_cpu_ms() - start
}

/// The times of one operation.
#[derive(Debug, Clone, Copy)]
pub struct OpTime {
    /// Wall time, ms.
    pub wall_ms: f64,
    /// This process's CPU time, ms.
    pub cpu_ms: f64,
    /// The mean of [`reference_ms`] just before and just after the
    /// operation, ms.
    pub reference_ms: f64,
    /// The CPU time at the reference host speed, ms: `cpu_ms` ×
    /// [`REFERENCE_MS`] / `reference_ms`.
    pub ref_ms: f64,
}

/// Runs `op` between two runs of the reference kernel and returns its
/// result and times.
pub fn time_op<T>(op: impl FnOnce() -> T) -> (T, OpTime) {
    let before = reference_ms();
    let c = process_cpu_ms();
    let t = Instant::now();
    let out = op();
    let wall_ms = ms(t.elapsed());
    let cpu_ms = process_cpu_ms() - c;
    let reference_ms = (before + reference_ms()) / 2.0;
    (
        out,
        OpTime {
            wall_ms,
            cpu_ms,
            reference_ms,
            ref_ms: cpu_ms * REFERENCE_MS / reference_ms,
        },
    )
}

/// Prints the medians of a run's operation times and returns the median
/// reference-speed time, ms.
pub fn op_times(prefix: &str, times: &[OpTime]) -> f64 {
    let pick = |f: fn(&OpTime) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    info_latency(&format!("{prefix}_wall_ms"), &pick(|t| t.wall_ms));
    info_latency(&format!("{prefix}_cpu_ms"), &pick(|t| t.cpu_ms));
    info_latency("host.reference_ms", &pick(|t| t.reference_ms));
    let ref_ms = pick(|t| t.ref_ms);
    info_latency(&format!("{prefix}_ref_ms"), &ref_ms);
    median(&ref_ms)
}

/// What an operation is timed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Elapsed real time.
    Wall,
    /// CPU time at the reference host speed ([`OpTime::ref_ms`]).
    Reference,
}

impl Clock {
    /// Runs `f` and returns its result with the time it took, ms.
    pub fn time<T>(self, f: impl FnOnce() -> T) -> (T, f64) {
        match self {
            Clock::Wall => {
                let t = Instant::now();
                let out = f();
                (out, ms(t.elapsed()))
            }
            Clock::Reference => {
                let (out, t) = time_op(f);
                (out, t.ref_ms)
            }
        }
    }
}

/// Runs `setup` [`SETUP_MIN`] or more times, until [`SETUP_BUDGET`] has
/// passed, and returns the median set-up time by `clock` in seconds, the
/// number of set-ups, and the last set-up's result.
pub fn repeated_setup<T>(clock: Clock, mut setup: impl FnMut() -> T) -> (f64, usize, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let (out, t) = clock.time(&mut setup);
        times.push(t / 1e3);
        let enough = times.len() >= SETUP_MIN && start.elapsed() >= SETUP_BUDGET;
        if enough || times.len() >= SETUP_MAX {
            return (median(&times), times.len(), out);
        }
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time this process has used so far, all threads (ended ones
/// too), ms: `CLOCK_PROCESS_CPUTIME_ID`, in nanoseconds. The kernel
/// charges a thread only while it runs: time spent waiting for a core,
/// or with the core taken by the hypervisor (steal time), is not
/// counted. For single-threaded, CPU-bound work this is the work's own
/// cost, and on a shared host it is far steadier than wall time.
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 * 1e-6
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User and system CPU time of this process so far, ms (from
/// `/proc/self/stat`, 10 ms ticks).
pub fn cpu_ms() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0) * 10.0;
    (tick(11), tick(12))
}

/// The host-load sentinel: median wall time of a fixed public-API
/// kernel (`Keychain::generate(1024, ..)`), ms.
pub fn sentinel_ms() -> f64 {
    let xs: Vec<f64> = (0..16)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(Keychain::generate(1024, 0x5e47_1ae1 + i));
            ms(t.elapsed())
        })
        .collect();
    median(&xs)
}

/// A second, memory-bound sentinel that shares no code with the
/// repository: a dependent pointer chase over 64 MB, ms. The simulator
/// workloads slow down with memory contention from other tenants, which
/// this kernel sees and the key-generation sentinel does not.
pub fn memory_sentinel_ms() -> f64 {
    const WORDS: usize = 8 << 20;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let buf: Vec<u64> = (0..WORDS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    let t = Instant::now();
    let mut i = 1usize;
    for _ in 0..1_000_000 {
        i = (buf[i % WORDS] as usize) ^ i.wrapping_mul(0x9e37_79b9);
    }
    std::hint::black_box(i);
    ms(t.elapsed())
}

/// `Keychain::generate` at `n` parties, median ms.
pub fn keygen_ms(n: usize, seed: u64) -> f64 {
    let reps = (16_384 / n.max(1)).clamp(8, 256);
    let xs: Vec<f64> = (0..reps)
        .map(|i| {
            let t = Instant::now();
            std::hint::black_box(Keychain::generate(n, seed ^ i as u64));
            ms(t.elapsed())
        })
        .collect();
    median(&xs)
}

/// `Pki::verify` of a signature over a digest it has not seen, ns per
/// call.
pub fn verify_miss_ns(seed: u64) -> f64 {
    const K: usize = 4096;
    let chain = Keychain::generate(4, seed);
    let signer = chain.signer(PartyId::new(1));
    let pki = chain.pki();
    let items: Vec<_> = (0..K as u64)
        .map(|i| {
            let d = Digest::of(&(seed, i));
            (d, signer.sign(d))
        })
        .collect();
    let t = Instant::now();
    let mut ok = 0usize;
    for (d, sig) in &items {
        ok += usize::from(pki.verify(PartyId::new(1), *d, sig));
    }
    let ns = t.elapsed().as_nanos() as f64 / K as f64;
    assert_eq!(ok, K, "a correct signature failed to verify");
    ns
}

/// The standalone crypto and host metrics of a traced run.
pub fn crypto_and_host(report: &mut Report, n: usize, seed: u64, sentinel: f64) {
    report.metric("gcl_crypto.keygen_ms", keygen_ms(n, seed));
    report.metric("gcl_crypto.miss_ns", verify_miss_ns(seed));
    report.metric("host.sentinel_ms", sentinel);
}

/// The `gcl_sim.*` counters of the runs a tracer saw: sums per operation
/// over the `ops` operations they span, and the largest queue of any run.
pub fn outcome_counters(report: &mut Report, r: &tracer::RunTotals, ops: u64) {
    use tracer::ratio;
    report.metric("gcl_sim.events", ratio(r.events, ops));
    report.metric("gcl_sim.messages", ratio(r.messages, ops));
    report.metric("gcl_sim.drops_at_enqueue", ratio(r.drops, ops));
    report.metric("gcl_sim.peak_queue", r.peak_queue as f64);
    report.metric("gcl_sim.queue_bytes", r.queue_bytes as f64);
    report.metric("gcl_sim.dead_send_frac", ratio(r.drops, r.messages));
}

/// The tracer-derived per-layer metrics shared by every workload; counts
/// are per operation, over the `ops` operations the totals span.
pub fn tracer_metrics(report: &mut Report, t: &tracer::Totals, r: &tracer::RunTotals, ops: u64) {
    use tracer::ratio;
    report.metric("gcl_core.handler_calls", ratio(t.calls, ops));
    report.metric("gcl_core.timer_calls", ratio(t.timer_calls, ops));
    report.metric_n(
        "gcl_core.handler_ns_per_call",
        t.handler_ns_per_call(),
        t.sampled as usize,
    );
    report.metric_n(
        "backend.send_ns_per_send",
        ratio(t.send_ns, t.sampled_sends),
        t.sampled_sends as usize,
    );
    let outside = r.exec_ns as f64 - t.callback_ns_estimate() - (t.encode_ns + t.decode_ns) as f64;
    report.metric_n(
        "backend.loop_ns_per_event",
        outside.max(0.0) / t.calls.max(1) as f64,
        t.calls as usize,
    );
    report.metric_n(
        "backend.setup_ms",
        ratio(r.setup_ns, r.runs) / 1e6,
        r.runs as usize,
    );
    if r.committed_runs > 0 {
        info_n(
            "backend.teardown_ms",
            ratio(r.teardown_ns, r.committed_runs) / 1e6,
            "ms",
            r.committed_runs as usize,
        );
    }
    report.metric_n(
        "gcl_types.encode_ns_per_msg",
        ratio(t.encode_ns, t.codec_samples),
        t.codec_samples as usize,
    );
    report.metric_n(
        "gcl_types.decode_ns_per_msg",
        ratio(t.decode_ns, t.codec_samples),
        t.codec_samples as usize,
    );
    report.metric(
        "gcl_types.bytes_per_msg",
        ratio(t.codec_bytes, t.codec_samples),
    );
    if t.codec_errors > 0 {
        report.violation(format!(
            "{} sampled deliveries failed to decode their own encoding",
            t.codec_errors
        ));
    }
}

/// Prints the inputs of a workload: its spec's shape and bounds, and the
/// threads it keeps busy.
pub fn print_inputs(spec: &gcl_sim::ScenarioSpec, threads: &str) {
    println!(
        "inputs: family {} n {} f {} delta_us {} big_delta_us {} delays {:?} adversary {:?} seed {} threads {threads}",
        spec.family,
        spec.n,
        spec.f,
        spec.delta.as_micros(),
        spec.big_delta.as_micros(),
        spec.delays,
        spec.adversary,
        spec.seed,
    );
}

/// Records the per-layer metrics of layers a workload does not run, as
/// zero counts.
pub fn absent(report: &mut Report, names: &[&'static str]) {
    for name in names {
        report.metric(name, 0.0);
    }
}

/// Writes a float for JSON (finite values only).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {:?} seed {} seconds {} trace {} (cores {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    let sentinel_before = sentinel_ms();
    info("host.sentinel_before_ms", sentinel_before, "ms");
    info("host.memory_sentinel_before_ms", memory_sentinel_ms(), "ms");
    let report = match args.workload {
        Workload::SimBrb2 => sim::brb2(&args, sentinel_before),
        Workload::SimSweep => sim::sweep(&args, sentinel_before),
        Workload::WallBrb2 => wall::brb2(&args, sentinel_before),
        Workload::SmrFailover => smr::failover(&args, sentinel_before),
    };
    info("host.sentinel_after_ms", sentinel_ms(), "ms");
    info("host.memory_sentinel_after_ms", memory_sentinel_ms(), "ms");
    info("peak_rss_mb", peak_rss_mb(), "MB");

    let expected: &[(&str, &str)] = if args.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    let mut fields = Vec::new();
    for (name, unit) in expected {
        let value = report
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("workload did not report {name}"));
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(value)
        ));
    }
    assert_eq!(
        report.metrics.len(),
        expected.len(),
        "a metric was reported twice"
    );
    let correct = report.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
