//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <meta_storm|wan_io|trace_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, then runs a fixed number
//! of fresh-world repetitions: as many as fitted in `--seconds` when the
//! benchmark was defined (at least two), so the count does not follow the
//! speed of the code under test. Every repetition of one seed must model
//! the same run: the modeled metrics and all layer counts are compared
//! across repetitions. With
//! `--trace 0` the end-to-end metrics are printed; with `--trace 1` each
//! repetition is an untraced/traced pair and the per-layer metrics are
//! printed. The last stdout line is the JSON result.
//!
//! `perfbench --calibrate` runs one point of the repository's own
//! partitioned storm scenario single-threaded and prints its host µs/op,
//! the reference the `meta_storm` generator is checked against.

use perfbench::harness::{peak_rss_mb, Rep};
use perfbench::report::{self, Metric};
use perfbench::{meta_storm, spans, trace_mix, wan_io};
use std::process::ExitCode;
use std::time::Instant;

/// Repetitions a run makes even when `--seconds` is shorter.
const MIN_REPS: usize = 2;
/// No repetition starts once a run could no longer end within this budget;
/// only a change that slows a workload severalfold meets it.
const BUDGET_S: f64 = 150.0;
/// Setups measured per run: repetitions count, extra setups make up the
/// rest, so `setup_s` is a median over at least this many.
const MIN_SETUPS: usize = 40;

enum Input {
    Meta(meta_storm::Input),
    Wan(wan_io::Input),
    Trace(trace_mix::Input),
}

impl Input {
    fn generate(workload: &str, seed: u64) -> Option<Input> {
        Some(match workload {
            "meta_storm" => Input::Meta(meta_storm::generate(meta_storm::Cfg::full(), seed)),
            "wan_io" => Input::Wan(wan_io::generate(wan_io::Cfg::full(), seed)),
            "trace_mix" => Input::Trace(trace_mix::generate(trace_mix::Cfg::full(), seed)),
            _ => return None,
        })
    }

    /// Untraced repetitions that fitted in 30 s of run time when the
    /// benchmark was defined, on a 2-core x86 VM. `host_ops_per_s` is the
    /// fastest of them, and the fastest of N depends on N, so N must not
    /// depend on the speed of the code under test.
    fn reps_per_30s(&self) -> f64 {
        match self {
            Input::Meta(_) => 4.0,
            Input::Wan(_) => 230.0,
            Input::Trace(_) => 24.0,
        }
    }

    fn rep(&self) -> Rep {
        match self {
            Input::Meta(i) => meta_storm::rep(i),
            Input::Wan(i) => wan_io::rep(i),
            Input::Trace(i) => trace_mix::rep(i),
        }
    }

    fn setup_s(&self) -> f64 {
        match self {
            Input::Meta(i) => meta_storm::setup_s(i),
            Input::Wan(i) => wan_io::setup_s(i),
            Input::Trace(i) => trace_mix::setup_s(i),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad)?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|_| bad)?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn calibrate() {
    use scenarios::metadata_storm::{run_storm_with_threads, StormConfig};
    let mut cfg = StormConfig::massive().with_managers(4);
    cfg.points = 1;
    let t = Instant::now();
    let r = run_storm_with_threads(&cfg, 1);
    let s = t.elapsed().as_secs_f64();
    println!(
        "scenario storm point (massive, M=4, 1 thread): {} ops in {s:.3} s = {:.3} us/op",
        r.ops,
        s * 1e6 / r.ops as f64
    );
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        calibrate();
        return ExitCode::SUCCESS;
    }
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(input) = Input::generate(&args.workload, args.seed) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };

    // Repetitions: plain ones for the end-to-end figures, or
    // (untraced, traced) pairs for the per-layer ones.
    // A traced run spends its time on pairs, so it makes half as many.
    let per_run = (input.reps_per_30s() * args.seconds / 30.0).round() as usize;
    let reps = if args.trace { per_run / 2 } else { per_run }.max(MIN_REPS);
    let start = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    // Peak memory of one repetition: later ones only add allocator churn.
    let mut rss_mb = 0.0;
    loop {
        let t = Instant::now();
        spans::set(false);
        plain.push(input.rep());
        if plain.len() == 1 {
            rss_mb = peak_rss_mb();
        }
        if args.trace {
            spans::set(true);
            let mut r = input.rep();
            r.spans = spans::snapshot();
            spans::set(false);
            traced.push(r);
        }
        let took = t.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        if plain.len() >= reps {
            break;
        }
        if plain.len() >= MIN_REPS && elapsed + took > BUDGET_S {
            println!(
                "stopped after {} of {reps} repetitions: the next would not end within {BUDGET_S} s",
                plain.len()
            );
            break;
        }
    }

    let mut problems: Vec<String> = Vec::new();
    let all: Vec<&Rep> = plain.iter().chain(traced.iter()).collect();
    let key = all[0].determinism_key();
    for (i, r) in all.iter().enumerate() {
        if r.determinism_key() != key {
            problems.push(format!(
                "repetition {i} modeled a different run than repetition 0"
            ));
        }
        problems.extend(r.problems.iter().cloned());
        problems.extend(r.ledger.failures.iter().cloned());
    }
    let attempted: u64 = all.iter().map(|r| r.ledger.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.ledger.failed).sum();

    let mut setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(input.setup_s());
    }
    let plain_refs: Vec<&Rep> = plain.iter().collect();
    let (e2e, omitted) = report::end_to_end(&plain_refs, &setups, rss_mb);
    problems.extend(omitted);
    let first = &plain[0];
    println!(
        "workload {} seed {} repetitions {} ({} traced)",
        args.workload,
        args.seed,
        plain.len() + traced.len(),
        traced.len()
    );
    println!(
        "calls {} per repetition, input fingerprint {:016x}, result fingerprint {:016x}",
        first.ledger.attempted, first.input_fp, first.ledger.result_fp
    );
    println!(
        "host us/call {:.3}  (run seconds per repetition: {:?})",
        1e6 * report::median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>())
            / first.ledger.completed as f64,
        plain
            .iter()
            .map(|r| (r.run_s * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    for line in report::kind_table(&first.ledger) {
        println!("{line}");
    }
    println!(
        "failed_op_frac {} ratio  (failed {failed} of {attempted} calls)",
        report::failed_frac(&first.ledger)
    );
    for x in &e2e {
        println!("{} {} {}", x.name, x.value, x.unit);
    }
    let metrics: Vec<Metric> = if args.trace {
        let pairs: Vec<(&Rep, &Rep)> = plain.iter().zip(traced.iter()).collect();
        let layers = report::per_layer(&pairs);
        println!("spans of traced repetition 0:");
        for line in report::span_table(&traced[0]) {
            println!("{line}");
        }
        for x in &layers {
            println!("{} {} {}", x.name, x.value, x.unit);
        }
        layers
    } else {
        e2e
    };
    for p in problems.iter().take(20) {
        println!("problem: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    println!(
        "{}",
        report::json_line(correct, attempted, failed, &metrics)
    );
    ExitCode::SUCCESS
}
