//! The benchmark's determinism contract, on tiny sizes of every workload:
//! one seed models the same run twice (identical modeled figures and layer
//! counts), and the held-out seed generates different inputs that still
//! pass every correctness check.

use perfbench::harness::Rep;
use perfbench::{meta_storm, trace_mix, wan_io};

/// The seed later performance claims are checked on; never used while a
/// change is being written.
const HELD_OUT_SEED: u64 = 20051117;
const SEED: u64 = 1;

fn clean(r: &Rep) {
    assert!(r.problems.is_empty(), "{:?}", r.problems);
    assert_eq!(r.ledger.failed, 0, "{:?}", r.ledger.failures);
    assert_eq!(r.ledger.completed, r.ledger.attempted);
}

fn check(run: impl Fn(u64) -> Rep) {
    let (a, b, c) = (run(SEED), run(SEED), run(HELD_OUT_SEED));
    for r in [&a, &b, &c] {
        clean(r);
    }
    assert_eq!(
        a.determinism_key(),
        b.determinism_key(),
        "same seed, different run"
    );
    assert_ne!(
        a.input_fp, c.input_fp,
        "held-out seed generated the same inputs"
    );
    assert_ne!(a.ledger.result_fp, c.ledger.result_fp);
}

#[test]
fn meta_storm_is_deterministic_per_seed() {
    check(|s| meta_storm::rep(&meta_storm::generate(meta_storm::Cfg::tiny(), s)));
}

#[test]
fn wan_io_is_deterministic_per_seed() {
    check(|s| wan_io::rep(&wan_io::generate(wan_io::Cfg::tiny(), s)));
}

#[test]
fn trace_mix_is_deterministic_per_seed() {
    check(|s| trace_mix::rep(&trace_mix::generate(trace_mix::Cfg::tiny(), s)));
}

#[test]
fn tracing_does_not_perturb_the_model() {
    let input = trace_mix::generate(trace_mix::Cfg::tiny(), SEED);
    perfbench::spans::set(false);
    let plain = trace_mix::rep(&input);
    perfbench::spans::set(true);
    let traced = trace_mix::rep(&input);
    let spans = perfbench::spans::snapshot();
    perfbench::spans::set(false);
    assert_eq!(plain.determinism_key(), traced.determinism_key());
    assert!(
        spans.iter().any(|(_, a)| a.count > 0),
        "traced run recorded no spans"
    );
}
