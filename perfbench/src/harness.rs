//! What every workload shares: the event-loop driver with its traced-run
//! sampling, counter snapshots of the program's public state, the common
//! verification passes, and the result of one repetition.

use crate::ledger::Ledger;
use crate::spans::{self, Agg};
use gfs::faults::RecoveryWhat;
use gfs::session::Session;
use gfs::types::ClusterId;
use gfs::world::GfsWorld;
use rand::Rng;
use scenarios::builder::ScenarioBuilder;
use simcore::{Bandwidth, Sim, SimDuration, SimTime};
use simnet::LinkId;
use std::collections::BTreeSet;
use std::time::Instant;

/// Range (ns) of a LAN client's link delay to its site switch: the
/// client-link delays the repository's scenarios use, from the SC'02
/// show-floor client of `scenarios::sc02` (20 µs) to the links
/// `ScenarioBuilder::clients` and `::sessions` lay (100 µs).
pub const CLIENT_LINK_NS: (u64, u64) = (20_000, 100_000);

/// One client-link delay (ns) per item, inside [`CLIENT_LINK_NS`] and
/// stratified per group: the `n` items of a group each take one of `n`
/// equal slices of the range, in a seeded order and at a seeded place
/// inside the slice. Every seed so spreads each group evenly over the
/// range, and a latency percentile moves a little from seed to seed
/// instead of with which items drew the far ends.
pub fn client_link_delays(rng: &mut impl Rng, group_of: &[usize]) -> Vec<u64> {
    let (lo, hi) = CLIENT_LINK_NS;
    let mut out = vec![0; group_of.len()];
    let groups: BTreeSet<usize> = group_of.iter().copied().collect();
    for g in groups {
        let mine: Vec<usize> = (0..group_of.len()).filter(|&i| group_of[i] == g).collect();
        let n = mine.len();
        let mut slices: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            slices.swap(i, (rng.gen::<u64>() % (i as u64 + 1)) as usize);
        }
        for (i, slice) in mine.into_iter().zip(slices) {
            let at = (slice as f64 + rng.gen::<f64>()) / n as f64;
            out[i] = lo + (at * (hi - lo) as f64) as u64;
        }
    }
    out
}

/// Flyweight sessions on `site`, `per_mount` to a mount context, as
/// `ScenarioBuilder::sessions` lays them (one GbE link from each context to
/// the site switch, 64-page pool), except that context `i`'s link has
/// delay `delays_ns[i]`.
pub fn sessions_on(
    sb: &mut ScenarioBuilder,
    site: &str,
    delays_ns: &[u64],
    per_mount: u32,
) -> Vec<Session> {
    let sw = sb.site(site);
    let b = sb.world_builder();
    // `ScenarioBuilder::new` declares the scenario's one cluster first.
    let cluster = ClusterId(0);
    let mut out = Vec::new();
    for (i, d) in delays_ns.iter().enumerate() {
        let n = b.topo().node(format!("mc-{site}-{i}"));
        b.topo().duplex_link(
            n,
            sw,
            Bandwidth::gbit(1.0),
            SimDuration::from_nanos(*d),
            format!("nic-mc-{site}-{i}"),
        );
        let ctx = b.mount_context(cluster, n, 64);
        out.extend((0..per_mount).map(|_| Session(b.session(ctx))));
    }
    out
}

/// Per-step sampling of the traced run: peaks of the event queue and the
/// flow table, and WAN bytes integrated from the public per-link rates
/// (rates are piecewise constant between instants, so summing the rate
/// left at the end of each instant over the gap to the next is exact).
#[derive(Clone, Debug, Default)]
pub struct Probe {
    wan: Vec<LinkId>,
    /// Summed capacity of the sampled WAN links (bytes/s).
    pub wan_capacity: f64,
    last_t: SimTime,
    last_rate: f64,
    /// Bytes carried by the WAN links.
    pub wan_bytes: f64,
    /// Largest `Sim::pending` seen after a step.
    pub peak_pending: usize,
    /// Largest `Network::active_flows` seen after a step.
    pub peak_flows: usize,
}

impl Probe {
    /// A probe over the directed links of the named duplex WAN paths.
    pub fn new(w: &GfsWorld, wan_names: &[&str]) -> Self {
        let wan: Vec<LinkId> = wan_names
            .iter()
            .flat_map(|n| w.net.links_named(n))
            .collect();
        let wan_capacity = wan.iter().map(|l| w.net.topo().link(*l).capacity).sum();
        Probe {
            wan,
            wan_capacity,
            ..Probe::default()
        }
    }

    fn sample(&mut self, sim: &Sim<GfsWorld>, w: &GfsWorld) {
        self.peak_pending = self.peak_pending.max(sim.pending());
        self.peak_flows = self.peak_flows.max(w.net.active_flows());
        if self.wan.is_empty() {
            return;
        }
        let now = sim.now();
        if now > self.last_t {
            self.wan_bytes += self.last_rate * now.since(self.last_t).as_secs_f64();
            self.last_t = now;
        }
        self.last_rate = self.wan.iter().map(|l| w.net.link_throughput(*l)).sum();
    }
}

/// Run the event loop until it drains. Traced, every `Sim::step` is a span
/// with the driver's callbacks and the per-step sampling nested inside; the
/// sampling nests so that one span boundary per event keeps the tracer's
/// own gaps out of the ledger.
pub fn drive(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, probe: &mut Probe) {
    if !spans::on() {
        sim.run(w);
        return;
    }
    probe.last_t = sim.now();
    while spans::span(spans::STEP, || {
        let stepped = sim.step(w);
        if stepped {
            spans::span(spans::SAMPLE, || probe.sample(sim, w));
        }
        stepped
    }) {}
}

/// Public counters of every layer at one instant. Differences between the
/// snapshot at the first timed op and after the drain are the run's counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Snap {
    pub events: u64,
    pub envelopes: u64,
    pub envelope_ops: u64,
    pub envelope_retries: u64,
    pub max_batch: u64,
    pub delegated: u64,
    pub resolves: u64,
    pub cross_shard_ops: u64,
    pub migrations: u64,
    pub dentry_hits: u64,
    pub dentry_misses: u64,
    pub timeouts: u64,
    pub failovers: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub bypass_bytes: u64,
    pub nsd_requests: u64,
    pub nsd_coalesced: u64,
    pub nsd_bytes: u64,
    pub remote_picks: u64,
    pub home_picks: u64,
    pub split_fanouts: u64,
    pub stale_fallbacks: u64,
    pub stale_reads: u64,
    pub replica_bytes: u64,
    pub delivered: u64,
    pub spindle_bytes: u64,
    pub manager_service_ns: u64,
    pub managers: u64,
    pub token_acquires: u64,
    pub token_revocations: u64,
}

impl Snap {
    /// Read every layer's public counters.
    pub fn of(sim: &Sim<GfsWorld>, w: &GfsWorld) -> Snap {
        let mut s = Snap {
            events: sim.executed(),
            envelopes: w.fanin.envelopes,
            envelope_ops: w.fanin.envelope_ops,
            envelope_retries: w.fanin.retries,
            max_batch: w.fanin.max_batch,
            delegated: w.fanin.delegated,
            timeouts: w
                .recovery
                .count(|e| matches!(e, RecoveryWhat::TimeoutDetected { .. }))
                as u64,
            failovers: w
                .recovery
                .count(|e| matches!(e, RecoveryWhat::FailedOver { .. }))
                as u64,
            bypass_bytes: w.nsd_stats.bypass_bytes,
            nsd_requests: w.nsd_stats.requests,
            nsd_coalesced: w.nsd_stats.coalesced,
            nsd_bytes: w.nsd_stats.bytes,
            delivered: w.net.total_delivered(),
            ..Snap::default()
        };
        for c in &w.clients {
            s.dentry_hits += c.dentry.hits;
            s.dentry_misses += c.dentry.misses;
            s.pool_hits += c.pool.hits;
            s.pool_misses += c.pool.misses;
            s.pool_evictions += c.pool.evictions;
        }
        for inst in &w.fss {
            s.resolves += inst.core.meta_snapshot().resolves;
            s.cross_shard_ops += inst.cross_shard_ops;
            s.migrations += inst.core.shards.migrations();
            let rc = &inst.replicas.counters;
            s.remote_picks += rc.remote_picks;
            s.home_picks += rc.home_picks;
            s.split_fanouts += rc.split_fanouts;
            s.stale_fallbacks += rc.stale_fallbacks;
            s.stale_reads += rc.stale_reads;
            s.replica_bytes += inst
                .replicas
                .sites
                .iter()
                .map(|s| s.bytes_served)
                .sum::<u64>();
            s.manager_service_ns += inst.mgrs.iter().map(|m| m.service_ns).sum::<u64>();
            s.managers += inst.mgrs.len() as u64;
            s.token_acquires += inst.tokens.acquires;
            s.token_revocations += inst.tokens.revocations;
        }
        for a in &w.arrays {
            s.spindle_bytes += (0..a.set_count() as u32)
                .map(|i| a.raid_set(i).spindle_bytes())
                .sum::<u64>();
        }
        s
    }

    /// Counts accumulated between `before` and `self` (`max_batch` is a
    /// high-water mark and `managers` a size; both are kept as is).
    pub fn since(&self, before: &Snap) -> Snap {
        Snap {
            events: self.events - before.events,
            envelopes: self.envelopes - before.envelopes,
            envelope_ops: self.envelope_ops - before.envelope_ops,
            envelope_retries: self.envelope_retries - before.envelope_retries,
            max_batch: self.max_batch,
            delegated: self.delegated - before.delegated,
            resolves: self.resolves - before.resolves,
            cross_shard_ops: self.cross_shard_ops - before.cross_shard_ops,
            migrations: self.migrations - before.migrations,
            dentry_hits: self.dentry_hits - before.dentry_hits,
            dentry_misses: self.dentry_misses - before.dentry_misses,
            timeouts: self.timeouts - before.timeouts,
            failovers: self.failovers - before.failovers,
            pool_hits: self.pool_hits - before.pool_hits,
            pool_misses: self.pool_misses - before.pool_misses,
            pool_evictions: self.pool_evictions - before.pool_evictions,
            bypass_bytes: self.bypass_bytes - before.bypass_bytes,
            nsd_requests: self.nsd_requests - before.nsd_requests,
            nsd_coalesced: self.nsd_coalesced - before.nsd_coalesced,
            nsd_bytes: self.nsd_bytes - before.nsd_bytes,
            remote_picks: self.remote_picks - before.remote_picks,
            home_picks: self.home_picks - before.home_picks,
            split_fanouts: self.split_fanouts - before.split_fanouts,
            stale_fallbacks: self.stale_fallbacks - before.stale_fallbacks,
            stale_reads: self.stale_reads - before.stale_reads,
            replica_bytes: self.replica_bytes - before.replica_bytes,
            delivered: self.delivered - before.delivered,
            spindle_bytes: self.spindle_bytes - before.spindle_bytes,
            manager_service_ns: self.manager_service_ns - before.manager_service_ns,
            managers: self.managers,
            token_acquires: self.token_acquires - before.token_acquires,
            token_revocations: self.token_revocations - before.token_revocations,
        }
    }
}

/// The verification every workload runs after its timed region: fsck of
/// every filesystem (replica coherence included) and the world invariants.
/// Returns one message per problem.
pub fn verify_world(sim: &Sim<GfsWorld>, w: &GfsWorld) -> Vec<String> {
    let mut problems = Vec::new();
    spans::span(spans::FSCK, || {
        for inst in &w.fss {
            let r = gfs::fsck::fsck_instance(inst);
            for e in r.errors.iter().take(4) {
                problems.push(format!("fsck: {e:?}"));
            }
        }
    });
    spans::span(spans::INVARIANTS, || {
        for v in scenarios::chaos::world_invariants(sim, w)
            .into_iter()
            .take(4)
        {
            problems.push(format!("invariant: {v}"));
        }
    });
    problems
}

/// Host seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread in ns, or `None` where the clock is
/// unavailable.
fn thread_cpu_ns() -> Option<u64> {
    if !cfg!(all(target_os = "linux", target_pointer_width = "64")) {
        return None;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes a `struct timespec` through the
    // pointer, which refers to a live, properly aligned local whose layout
    // matches the C struct on 64-bit Linux (two 64-bit fields).
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// The stopwatch of the timed region. The benchmark is single-threaded,
/// so the CPU time of its thread is the host time the measured code took,
/// without the time other processes on a shared machine held the CPU.
/// Where the clock is unavailable, wall time stands in.
#[derive(Clone, Copy)]
pub struct Clock {
    wall: Instant,
    cpu_ns: Option<u64>,
}

impl Clock {
    /// Start timing now.
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu_ns: thread_cpu_ns(),
        }
    }

    /// Host seconds since [`Clock::start`].
    pub fn secs(&self) -> f64 {
        match (self.cpu_ns, thread_cpu_ns()) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e9,
            _ => secs(self.wall),
        }
    }
}

/// One repetition of a workload: fresh world, timed run, verification.
#[derive(Default)]
pub struct Rep {
    /// World build + pre-population + mounts (host wall s).
    pub setup_s: f64,
    /// `ScenarioBuilder::run` alone (host s).
    pub build_s: f64,
    /// Host ns spent populating the tree straight on `FsCore`.
    pub populate_ns: u64,
    /// Entries populated.
    pub populated: u64,
    /// Timed region: first op issued to drained event loop (host CPU s).
    pub run_s: f64,
    /// Whole repetition, verification included (host wall s).
    pub wall_s: f64,
    /// Every call's record.
    pub ledger: Ledger,
    /// Layer counts over the timed region.
    pub counts: Snap,
    /// Traced-run samples.
    pub probe: Probe,
    /// Verification problems (fsck, invariants, read-back, oracle...).
    pub problems: Vec<String>,
    /// Oracle divergences (trace_mix only).
    pub divergences: u64,
    /// Fingerprint of the generated inputs.
    pub input_fp: u64,
    /// Span aggregates of a traced repetition.
    pub spans: Vec<(usize, Agg)>,
}

impl Rep {
    /// Values that must repeat exactly for one seed: the modeled outcome
    /// of every call and every layer count.
    pub fn determinism_key(&self) -> (Vec<u64>, Snap) {
        let l = &self.ledger;
        let mut k = vec![
            self.input_fp,
            l.result_fp,
            l.attempted,
            l.completed,
            l.failed,
            l.bytes_read,
            l.bytes_written,
            l.makespan_ns(),
            l.write_phase_ns(),
            l.read_phase_ns(),
            self.divergences,
            self.populated,
        ];
        for kind in crate::ledger::Kind::ALL {
            let v = l.sorted(kind);
            k.push(v.len() as u64);
            k.push(v.iter().fold(0, |h, x| crate::ledger::mix(h, *x)));
        }
        (k, self.counts)
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(s) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    s.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_link_delays_fill_every_slice_of_each_group() {
        let groups = [0, 1, 0, 1, 0, 0, 1, 0];
        let d = client_link_delays(&mut simcore::det_rng(3, "t"), &groups);
        let (lo, hi) = CLIENT_LINK_NS;
        for g in [0, 1] {
            let mine: Vec<u64> = (0..groups.len())
                .filter(|&i| groups[i] == g)
                .map(|i| d[i])
                .collect();
            let n = mine.len() as u64;
            let mut slices: Vec<u64> = mine
                .iter()
                .map(|x| {
                    assert!((lo..hi).contains(x), "{x} outside the range");
                    (x - lo) * n / (hi - lo)
                })
                .collect();
            slices.sort_unstable();
            assert_eq!(slices, (0..n).collect::<Vec<_>>());
        }
        let other = client_link_delays(&mut simcore::det_rng(4, "t"), &groups);
        assert_ne!(d, other, "another seed drew the same delays");
    }
}
