//! Turning repetitions into named metrics: the end-to-end set (from
//! untraced repetitions) and the per-layer set (from traced ones).

use crate::harness::Rep;
use crate::ledger::{percentile, Kind, Ledger};
use crate::spans;

/// One named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

fn m(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A latency percentile in ms, or the reason it is omitted.
pub fn pct_ms(sorted: &[u64], p: f64) -> Result<f64, String> {
    percentile(sorted, p)
        .map(|ns| ns as f64 / 1e6)
        .ok_or_else(|| format!("omitted: {} samples", sorted.len()))
}

/// Modeled end-to-end metrics of one repetition, plus problems for
/// percentiles the ten-beyond rule omits (every workload is sized so that
/// none is).
pub fn modeled(l: &Ledger) -> (Vec<Metric>, Vec<String>) {
    let span_s = l.makespan_ns() as f64 / 1e9;
    let meta = l.sorted_where(Kind::is_meta);
    let io = l.sorted_where(|k| !k.is_meta());
    let mut out = Vec::new();
    let mut problems = Vec::new();
    for (name, v, p) in [
        ("meta_p50_ms", &meta, 0.5),
        ("meta_p99_ms", &meta, 0.99),
        ("io_p50_ms", &io, 0.5),
        ("io_p99_ms", &io, 0.99),
    ] {
        match pct_ms(v, p) {
            Ok(x) => out.push(m(name, "ms", x)),
            Err(why) => problems.push(format!("{name} {why}")),
        }
    }
    out.push(m(
        "modeled_ops_per_s",
        "ops/s",
        ratio(l.completed as f64, span_s),
    ));
    // Each rate over its own phase, not the makespan: in `wan_io` the
    // writes end before the reads start, so a rate over the whole run
    // would mostly measure the other phase. Bytes per ns is GB/s.
    out.push(m(
        "read_gb_s",
        "GB/s",
        ratio(l.bytes_read as f64, l.read_phase_ns() as f64),
    ));
    out.push(m(
        "write_gb_s",
        "GB/s",
        ratio(l.bytes_written as f64, l.write_phase_ns() as f64),
    ));
    (out, problems)
}

/// End-to-end metrics over untraced repetitions: `host_ops_per_s` from the
/// fastest repetition, `setup_s` the median of `setups`, modeled ones from
/// the first repetition (every repetition of a seed models the same run;
/// the caller checks that).
///
/// Every repetition does the same deterministic work, and neighbours on a
/// shared host can only slow it down — by up to a third, in spells that
/// last seconds to minutes — so the fastest repetition is the one closest
/// to the work's own cost. Across ten runs per workload on a 2-core VM
/// its spread was at most 22%, against 32% for the median repetition; it
/// still moves with any change that makes every repetition slower. The
/// caller makes the same number of repetitions whatever the code's speed,
/// since the fastest of N improves with N.
pub fn end_to_end(reps: &[&Rep], setups: &[f64], peak_rss_mb: f64) -> (Vec<Metric>, Vec<String>) {
    let run_s: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let mut out = vec![
        m(
            "host_ops_per_s",
            "ops/s",
            reps[0].ledger.completed as f64 / run_s.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        m("setup_s", "s", median(setups)),
        m("peak_rss_mb", "MiB", peak_rss_mb),
    ];
    let (modeled, problems) = modeled(&reps[0].ledger);
    out.extend(modeled);
    (out, problems)
}

/// Failed calls over attempted calls.
pub fn failed_frac(l: &Ledger) -> f64 {
    ratio(l.failed as f64, l.attempted as f64)
}

/// Span aggregates of one traced repetition, by span id.
type Spans = [(usize, spans::Agg)];

/// Per-layer metrics from `(untraced, traced)` repetition pairs of one
/// seed. Counts come from the traced repetition (identical to the
/// untraced one, which the caller checks); host-time figures are medians
/// over the pairs.
pub fn per_layer(pairs: &[(&Rep, &Rep)]) -> Vec<Metric> {
    let t = pairs[0].1;
    let l = &t.ledger;
    let c = &t.counts;
    let ops = l.completed as f64;
    let meta_calls = Kind::ALL
        .iter()
        .filter(|k| k.is_meta())
        .map(|k| l.sorted(*k).len() as f64)
        .sum::<f64>();
    let makespan_s = l.makespan_ns() as f64 / 1e9;

    // Host-time figures, one value per traced repetition.
    let per_pair = |f: &dyn Fn(&Rep, &Rep, &Spans) -> f64| -> f64 {
        median(
            &pairs
                .iter()
                .map(|(u, t)| f(u, t, &t.spans))
                .collect::<Vec<_>>(),
        )
    };
    let self_of = |s: &Spans, id: usize| s[id].1.self_ns as f64;
    let issue_self = |s: &Spans| {
        Kind::ALL
            .iter()
            .map(|k| self_of(s, spans::issue(*k)))
            .sum::<f64>()
    };
    let wall_ns = |r: &Rep| r.wall_s * 1e9;

    let mut out = vec![
        m("simcore.events", "count", c.events as f64),
        m(
            "simcore.events_per_op",
            "ratio",
            ratio(c.events as f64, ops),
        ),
        m(
            "simcore.self_ns_per_event",
            "ns",
            per_pair(&|_, t, s| ratio(self_of(s, spans::STEP), t.counts.events as f64)),
        ),
        m("simcore.peak_pending", "count", t.probe.peak_pending as f64),
        m(
            "gfs.session.issue_ns_per_call",
            "ns",
            per_pair(&|_, t, s| ratio(issue_self(s), t.ledger.completed as f64)),
        ),
        m("gfs.session.envelopes", "count", c.envelopes as f64),
        m(
            "gfs.session.ops_per_envelope",
            "ratio",
            ratio(c.envelope_ops as f64, c.envelopes as f64),
        ),
        m("gfs.session.max_batch", "count", c.max_batch as f64),
        m(
            "gfs.session.envelope_retries",
            "count",
            c.envelope_retries as f64,
        ),
        m(
            "gfs.session.delegated_frac",
            "ratio",
            ratio(c.delegated as f64, meta_calls),
        ),
    ];
    for k in Kind::ALL {
        out.push(m(
            format!("gfs.session.{}.count", k.name()),
            "count",
            l.sorted(k).len() as f64,
        ));
    }
    out.extend([
        m(
            "gfs.fscore.resolves_per_op",
            "ratio",
            ratio(c.resolves as f64, ops),
        ),
        m(
            "gfs.fscore.populate_ns_per_op",
            "ns",
            per_pair(&|_, t, _| ratio(t.populate_ns as f64, t.populated as f64)),
        ),
        m(
            "gfs.fscore.cross_shard_ops",
            "count",
            c.cross_shard_ops as f64,
        ),
        m(
            "gfs.fscore.rebalance_migrations",
            "count",
            c.migrations as f64,
        ),
        m(
            "gfs.client.dentry_hit_rate",
            "ratio",
            ratio(
                c.dentry_hits as f64,
                (c.dentry_hits + c.dentry_misses) as f64,
            ),
        ),
        m("gfs.client.timeouts", "count", c.timeouts as f64),
        m("gfs.client.failovers", "count", c.failovers as f64),
        m(
            "gfs.cache.pool_hit_rate",
            "ratio",
            ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
        ),
        m("gfs.cache.pool_evictions", "count", c.pool_evictions as f64),
        m(
            "gfs.cache.pool_bypass_bytes",
            "bytes",
            c.bypass_bytes as f64,
        ),
        m(
            "gfs.world.manager_busy_frac",
            "ratio",
            ratio(
                c.manager_service_ns as f64 / 1e9,
                c.managers as f64 * makespan_s,
            ),
        ),
        m("gfs.tokens.acquires", "count", c.token_acquires as f64),
        m(
            "gfs.tokens.revocations",
            "count",
            c.token_revocations as f64,
        ),
        m("gfs.world.nsd_requests", "count", c.nsd_requests as f64),
        m("gfs.world.nsd_coalesced", "count", c.nsd_coalesced as f64),
        m(
            "gfs.world.nsd_mean_request_bytes",
            "bytes",
            ratio(c.nsd_bytes as f64, c.nsd_requests as f64),
        ),
        m(
            "gfs.replica.remote_pick_frac",
            "ratio",
            ratio(
                c.remote_picks as f64,
                (c.remote_picks + c.home_picks) as f64,
            ),
        ),
        m("gfs.replica.split_fanouts", "count", c.split_fanouts as f64),
        m(
            "gfs.replica.stale_fallbacks",
            "count",
            c.stale_fallbacks as f64,
        ),
        m("gfs.replica.stale_reads", "count", c.stale_reads as f64),
        m("simnet.delivered_gb", "GB", c.delivered as f64 / 1e9),
        m(
            "simnet.wan_util",
            "ratio",
            ratio(t.probe.wan_bytes, t.probe.wan_capacity * makespan_s),
        ),
        m(
            "simnet.peak_active_flows",
            "count",
            t.probe.peak_flows as f64,
        ),
        m(
            "simsan.disk_bytes_per_user_byte",
            "ratio",
            // Array spindle bytes over the bytes the NSD layer moved to
            // and from the home farm (replica sites are not arrays).
            ratio(
                c.spindle_bytes as f64,
                c.nsd_bytes.saturating_sub(c.replica_bytes) as f64,
            ),
        ),
        m("gfs.oracle.divergences", "count", t.divergences as f64),
        m("scenarios.build_s", "s", per_pair(&|_, t, _| t.build_s)),
        m(
            "bench.driver.ns_per_op",
            "ns",
            per_pair(&|_, t, s| ratio(self_of(s, spans::CALLBACK), t.ledger.completed as f64)),
        ),
        m(
            "bench.ledger_coverage",
            "ratio",
            per_pair(&|_, t, s| ratio(s.iter().map(|(_, a)| a.self_ns as f64).sum(), wall_ns(t))),
        ),
        m(
            "bench.trace_overhead",
            "ratio",
            per_pair(&|u, t, _| ratio(t.wall_s, u.wall_s)),
        ),
        m(
            "bench.driver_wall_frac",
            "ratio",
            per_pair(&|_, t, s| {
                ratio(
                    self_of(s, spans::CALLBACK)
                        + self_of(s, spans::SAMPLE)
                        + self_of(s, spans::DRIVER),
                    wall_ns(t),
                )
            }),
        ),
    ]);
    out
}

/// Human-readable per-kind latency table of one repetition.
pub fn kind_table(l: &Ledger) -> Vec<String> {
    Kind::ALL
        .iter()
        .map(|k| {
            let v = l.sorted(*k);
            let show = |p| match pct_ms(&v, p) {
                Ok(x) => format!("{x:.4} ms"),
                Err(why) => why,
            };
            format!(
                "  {:<8} count {:>8}  p50 {:<22} p99 {}",
                k.name(),
                v.len(),
                show(0.5),
                show(0.99)
            )
        })
        .collect()
}

/// Human-readable span table of one traced repetition.
pub fn span_table(r: &Rep) -> Vec<String> {
    let wall = r.wall_s * 1e9;
    r.spans
        .iter()
        .filter(|(_, a)| a.count > 0)
        .map(|(id, a)| {
            format!(
                "  {:<28} count {:>9}  total {:>10.3} ms  self {:>10.3} ms  ({:5.1}% of wall)",
                spans::name(*id),
                a.count,
                a.total_ns as f64 / 1e6,
                a.self_ns as f64 / 1e6,
                100.0 * a.self_ns as f64 / wall
            )
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            // `{:?}` keeps every digit and always prints a JSON number.
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_json() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let line = json_line(true, 5, 0, &[m("a_ms", "ms", 1.25), m("b", "count", 3.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
