//! The fluid flow engine: long-lived bulk transfers over a routed topology,
//! re-solved to max-min fair rates whenever the active flow set changes.
//!
//! ## Model
//!
//! * A **flow** is `bytes` of bulk data from `src` to `dst`, optionally
//!   window-capped (`window / RTT`, the TCP bandwidth-delay-product limit).
//!   Rates come from [`crate::fairshare::Solver`].
//! * **Settling** advances every flow's remaining-byte count to the current
//!   instant at its last-computed rate. The engine settles before any state
//!   change, so rates are piecewise-constant and exact.
//! * Rates are re-solved **incrementally**: mutations mark the links they
//!   touch dirty, all same-instant changes coalesce into a single
//!   end-of-instant solve of just the affected connected components, and an
//!   add/remove whose path crosses only unsaturated clean links skips the
//!   solver entirely. Because components are arithmetically independent and
//!   the solver freezes constraints with exact comparisons, the incremental
//!   rates are bit-for-bit identical to a global re-solve.
//! * The single pending completion event is a **cancellable timer**
//!   ([`simcore::TimerId`]), re-registered whenever the earliest drain time
//!   moves — replacing the classic stale-epoch guard and keeping the event
//!   heap free of dead closures.
//! * **Routes** are computed once per source from the immutable topology:
//!   the first lookup from a node runs Dijkstra over the whole graph and
//!   keeps its shortest-path tree, and each pair's path, delay and capacity
//!   are memoised ([`crate::routes`]). Messages, flows and [`Network::rtt`]
//!   all read that table; link health is not cached and is checked on
//!   every use.
//! * **Messages** are control-plane RPCs: they experience path latency,
//!   serialization at path capacity and a fixed software overhead, but do
//!   not consume modeled bandwidth (GPFS daemon traffic is negligible next
//!   to NSD bulk data).
//! * **Monitoring** takes a bandwidth sample per link and per flow-tag every
//!   window — the same view SciNet's monitors gave the paper's authors —
//!   and optionally re-draws jittered link capacities each tick.

use crate::fairshare::{FlatFlow, Solver};
use crate::routes::{Route, RouteTable};
use crate::topology::{LinkId, NodeId, Topology};
use rand::rngs::StdRng;
use simcore::{det_rng, Action, RateSeries, Sim, SimDuration, SimTime, TimeSeries, TimerId};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Worlds that embed a [`Network`] keyed to themselves.
pub trait NetWorld: Sized + 'static {
    /// Access the embedded network.
    fn net(&mut self) -> &mut Network<Self>;
}

/// Identifies an active flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// Parameters of a new flow.
#[derive(Clone, Debug)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Payload size in bytes (must be > 0).
    pub bytes: u64,
    /// Optional TCP-style window in bytes; caps the flow at `window / RTT`.
    pub window: Option<u64>,
    /// Accounting tag; monitored flows aggregate per tag (e.g. read vs
    /// write, or per remote site).
    pub tag: u32,
}

impl FlowSpec {
    /// Unwindowed, untagged bulk flow.
    pub fn bulk(src: NodeId, dst: NodeId, bytes: u64) -> Self {
        FlowSpec {
            src,
            dst,
            bytes,
            window: None,
            tag: 0,
        }
    }

    /// Set the window.
    pub fn with_window(mut self, window: u64) -> Self {
        self.window = Some(window);
        self
    }

    /// Set the accounting tag.
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = tag;
        self
    }
}

/// Rates above this are treated as "instantaneous" to avoid `inf * 0` NaNs.
const RATE_CLAMP: f64 = 1e15;
/// A flow with fewer remaining bytes than this is drained.
const DRAIN_EPS: f64 = 1.0;
/// Relative headroom a fast-path flow add must leave on every link it
/// crosses. The margin absorbs float drift in the incrementally maintained
/// link loads; an add that cannot clear it falls back to the exact solver.
const FAST_ADD_MARGIN: f64 = 1e-6;

/// Runtime health of one directed link, mutated by fault injection.
#[derive(Clone, Copy, Debug)]
struct LinkHealth {
    /// A down link carries no flow bytes and drops control messages.
    up: bool,
    /// Multiplicative capacity factor in (0, 1]; models partial degradation
    /// (e.g. a lambda dropping from 10 Gb/s to a protected 2.5 Gb/s path).
    degrade: f64,
}

struct FlowState<W> {
    /// The route's path, shared with the route table.
    path: Rc<[LinkId]>,
    cap: f64,
    remaining: f64,
    rate: f64,
    tag: u32,
    delivery_delay: SimDuration,
    on_complete: Option<Action<W>>,
}

struct Monitor {
    window: SimDuration,
    link_series: Vec<RateSeries>,
    tag_series: BTreeMap<u32, RateSeries>,
    tag_names: BTreeMap<u32, String>,
    enabled_links: Vec<bool>,
}

/// The flow-level network simulator. Embed one in your world and implement
/// [`NetWorld`]; drive it through the associated functions that take
/// `(&mut Sim<W>, &mut W)`.
pub struct Network<W> {
    topo: Topology,
    routes: RouteTable,
    effective_capacity: Vec<f64>,
    health: Vec<LinkHealth>,
    flows: BTreeMap<u64, FlowState<W>>,
    next_id: u64,
    last_settle: SimTime,
    monitor: Option<Monitor>,
    rng: StdRng,
    /// Fixed software/NIC overhead added to every control message.
    pub msg_overhead: SimDuration,
    total_delivered: f64,

    // ---- incremental-solve state ----
    solver: Solver,
    /// Per-link sum of stored rates of crossing flows. Maintained
    /// incrementally on fast-path adds/removes; rebuilt exactly for every
    /// solver-touched link after a solve.
    link_load: Vec<f64>,
    /// Per-link count of crossing flows.
    link_active: Vec<u32>,
    /// Per-link saturation flag from the last solve that touched the link.
    link_saturated: Vec<bool>,
    dirty_links: Vec<u32>,
    dirty_link_flag: Vec<bool>,
    have_dirty: bool,
    /// Whether an end-of-instant solve event is already queued.
    solve_scheduled: bool,
    /// The single pending completion timer, if any.
    tick_timer: Option<TimerId>,

    // ---- reusable scratch (no per-call allocation once warmed up) ----
    rc_paths: Vec<u32>,
    rc_meta: Vec<FlatFlow>,
    rc_ids: Vec<u64>,
    rc_rates: Vec<f64>,
    nw_uf: Vec<u32>,
    nw_seen: Vec<bool>,
    nw_touched: Vec<u32>,
    nw_root_dirty: Vec<bool>,
    nw_dirty_roots: Vec<u32>,
    drain_ids: Vec<u64>,
}

/// Path-halving union-find lookup over a parent array.
fn uf_find(parent: &mut [u32], mut l: u32) -> u32 {
    while parent[l as usize] != l {
        let p = parent[l as usize];
        parent[l as usize] = parent[p as usize];
        l = parent[l as usize];
    }
    l
}

impl<W: NetWorld> Network<W> {
    /// Wrap a topology. `seed` drives link-capacity jitter only.
    pub fn new(topo: Topology, seed: u64) -> Self {
        let nl = topo.link_count();
        let caps: Vec<f64> = topo.links().iter().map(|l| l.capacity).collect();
        let health = vec![
            LinkHealth {
                up: true,
                degrade: 1.0
            };
            nl
        ];
        Network {
            routes: RouteTable::new(topo.node_count()),
            topo,
            effective_capacity: caps,
            health,
            flows: BTreeMap::new(),
            next_id: 0,
            last_settle: SimTime::ZERO,
            monitor: None,
            rng: det_rng(seed, "simnet"),
            msg_overhead: SimDuration::from_micros(30),
            total_delivered: 0.0,
            solver: Solver::new(),
            link_load: vec![0.0; nl],
            link_active: vec![0; nl],
            link_saturated: vec![false; nl],
            dirty_links: Vec::new(),
            dirty_link_flag: vec![false; nl],
            have_dirty: false,
            solve_scheduled: false,
            tick_timer: None,
            rc_paths: Vec::new(),
            rc_meta: Vec::new(),
            rc_ids: Vec::new(),
            rc_rates: Vec::new(),
            nw_uf: vec![0; nl],
            nw_seen: vec![false; nl],
            nw_touched: Vec::new(),
            nw_root_dirty: vec![false; nl],
            nw_dirty_roots: Vec::new(),
            drain_ids: Vec::new(),
        }
    }

    /// The underlying topology.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes fully drained from all flows so far.
    pub fn total_delivered(&self) -> u64 {
        self.total_delivered as u64
    }

    /// Current rate of a flow in bytes/sec, if active.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id.0).map(|f| f.rate)
    }

    /// Remaining bytes of a flow, if active.
    pub fn flow_remaining(&self, id: FlowId) -> Option<u64> {
        self.flows.get(&id.0).map(|f| f.remaining.max(0.0) as u64)
    }

    /// Sum of active flow rates crossing a link (bytes/sec).
    pub fn link_throughput(&self, link: LinkId) -> f64 {
        self.flows
            .values()
            .filter(|f| f.path.contains(&link))
            .map(|f| f.rate)
            .sum()
    }

    /// The shortest path from `src` to `dst` by propagation delay, or
    /// `None` if `dst` is unreachable. Read from the route table: the first
    /// lookup from a source computes its whole shortest-path tree, later
    /// ones are memoised. The route says nothing about link health.
    pub fn route(&mut self, src: NodeId, dst: NodeId) -> Option<&Route> {
        self.routes.lookup(&self.topo, src, dst)
    }

    /// One-way propagation delay from `src` to `dst`, if reachable.
    fn one_way(&mut self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        self.route(src, dst).map(|r| r.delay)
    }

    /// Round-trip propagation time between two nodes (twice the one-way
    /// shortest-path delay plus two message overheads).
    pub fn rtt(&mut self, a: NodeId, b: NodeId) -> SimDuration {
        let fwd = self.one_way(a, b).unwrap_or(SimDuration::MAX);
        let back = self.one_way(b, a).unwrap_or(SimDuration::MAX);
        fwd + back + self.msg_overhead * 2
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Whether a link is currently up.
    pub fn link_is_up(&self, link: LinkId) -> bool {
        self.health[link.0 as usize].up
    }

    /// Current degradation factor of a link (1.0 = full capacity).
    pub fn link_degrade(&self, link: LinkId) -> f64 {
        self.health[link.0 as usize].degrade
    }

    /// All directed links whose name matches `name` exactly, or is a duplex
    /// half of it (`"{name}>"` / `"{name}<"`). Fault plans address links by
    /// the topology-builder name, which covers both directions at once.
    pub fn links_named(&self, name: &str) -> Vec<LinkId> {
        let fwd = format!("{name}>");
        let rev = format!("{name}<");
        self.topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.name == name || l.name == fwd || l.name == rev)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// Every directed link with an endpoint at `node` — the set to take
    /// down to partition the node off the network.
    pub fn links_touching(&self, node: NodeId) -> Vec<LinkId> {
        self.topo
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.from == node || l.to == node)
            .map(|(i, _)| LinkId(i as u32))
            .collect()
    }

    /// Take a link down or bring it back up. While down the link carries no
    /// flow bytes (flows routed across it stall at rate zero and resume on
    /// restore) and control messages crossing it are silently lost — the
    /// client-side timeout/retry machinery is responsible for recovery.
    pub fn set_link_up(sim: &mut Sim<W>, w: &mut W, link: LinkId, up: bool) {
        let now = sim.now();
        {
            let net = w.net();
            net.settle(now);
            net.health[link.0 as usize].up = up;
            net.refresh_capacity(link.0 as usize);
            net.mark_link_dirty(link.0);
        }
        Self::schedule_solve(sim, w);
    }

    /// Degrade (or restore) a link to `factor` × nominal capacity,
    /// `0 < factor <= 1`. Independent of up/down state.
    pub fn set_link_degraded(sim: &mut Sim<W>, w: &mut W, link: LinkId, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "degrade factor {factor} outside (0, 1]; use set_link_up for outages"
        );
        let now = sim.now();
        {
            let net = w.net();
            net.settle(now);
            net.health[link.0 as usize].degrade = factor;
            net.refresh_capacity(link.0 as usize);
            net.mark_link_dirty(link.0);
        }
        Self::schedule_solve(sim, w);
    }

    /// Nominal capacity of link `i` after health (down/degrade) is applied;
    /// jitter is layered on top of this at monitor ticks.
    fn base_capacity(&self, i: usize) -> f64 {
        let h = self.health[i];
        if h.up {
            self.topo.links()[i].capacity * h.degrade
        } else {
            0.0
        }
    }

    fn refresh_capacity(&mut self, i: usize) {
        self.effective_capacity[i] = self.base_capacity(i);
    }

    // ------------------------------------------------------------------
    // Flow lifecycle
    // ------------------------------------------------------------------

    /// Start a bulk flow; `on_complete` fires when the final byte arrives at
    /// the destination.
    pub fn start_flow(
        sim: &mut Sim<W>,
        w: &mut W,
        spec: FlowSpec,
        on_complete: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> FlowId {
        assert!(spec.bytes > 0, "flows must carry at least one byte");
        let now = sim.now();
        let (id, needs_solve) = {
            let net = w.net();
            net.settle(now);
            let route = net
                .route(spec.src, spec.dst)
                .unwrap_or_else(|| panic!("no route {:?} -> {:?}", spec.src, spec.dst));
            let path = route.path.clone();
            let delivery_delay = route.delay;
            let cap = match spec.window {
                Some(wnd) => {
                    // Window cap uses the full round trip as TCP would see it.
                    let back = net.one_way(spec.dst, spec.src).unwrap_or(delivery_delay);
                    let rtt_s = (delivery_delay + back).as_secs_f64().max(1e-9);
                    wnd as f64 / rtt_s
                }
                None => f64::INFINITY,
            };
            let id = net.next_id;
            net.next_id += 1;

            // Fast path: a cap-limited flow that fits (with margin) under
            // every link it crosses, none of which is saturated or pending a
            // re-solve, is cap-frozen by the solver with every other rate
            // unchanged — so the solve can be skipped outright. Empty-path
            // flows solve trivially. Everything else marks its path dirty
            // and joins the end-of-instant batch solve.
            let mut rate = 0.0;
            let mut needs = false;
            if path.is_empty() {
                rate = cap.min(RATE_CLAMP);
            } else {
                let fast = cap.is_finite()
                    && path.iter().all(|l| {
                        let li = l.0 as usize;
                        let c = net.effective_capacity[li];
                        !net.link_saturated[li]
                            && !net.dirty_link_flag[li]
                            && net.link_load[li] + cap <= c - FAST_ADD_MARGIN * c
                    });
                for l in path.iter() {
                    net.link_active[l.0 as usize] += 1;
                }
                if fast {
                    rate = cap.min(RATE_CLAMP);
                    for l in path.iter() {
                        net.link_load[l.0 as usize] += rate;
                    }
                } else {
                    for l in path.iter() {
                        net.mark_link_dirty(l.0);
                    }
                    needs = true;
                }
            }
            net.flows.insert(
                id,
                FlowState {
                    path,
                    cap,
                    remaining: spec.bytes as f64,
                    rate,
                    tag: spec.tag,
                    delivery_delay,
                    on_complete: Some(Box::new(on_complete)),
                },
            );
            (id, needs)
        };
        if needs_solve {
            Self::schedule_solve(sim, w);
        } else {
            Self::reschedule_tick(sim, w);
        }
        FlowId(id)
    }

    /// Add bytes to an active flow (used by streaming layers to keep a
    /// connection's flow alive across successive requests). Returns false if
    /// the flow already drained.
    pub fn extend_flow(sim: &mut Sim<W>, w: &mut W, id: FlowId, extra: u64) -> bool {
        let now = sim.now();
        let ok = {
            let net = w.net();
            net.settle(now);
            match net.flows.get_mut(&id.0) {
                Some(f) => {
                    f.remaining += extra as f64;
                    true
                }
                None => false,
            }
        };
        if ok {
            Self::reschedule_tick(sim, w);
        }
        ok
    }

    /// Cancel a flow, dropping its completion callback. Returns remaining
    /// bytes, or `None` if it had already drained.
    pub fn cancel_flow(sim: &mut Sim<W>, w: &mut W, id: FlowId) -> Option<u64> {
        let now = sim.now();
        let (remaining, needs_solve) = {
            let net = w.net();
            net.settle(now);
            let f = net.flows.remove(&id.0)?;
            let needs = net.note_removed(&f);
            (f.remaining.max(0.0) as u64, needs)
        };
        if needs_solve {
            Self::schedule_solve(sim, w);
        } else {
            Self::reschedule_tick(sim, w);
        }
        Some(remaining)
    }

    /// Cancel every active flow carrying `tag`, dropping their completion
    /// callbacks. Returns how many flows were cancelled. Used by phased
    /// workloads that replace one traffic pattern with another.
    pub fn cancel_tagged(sim: &mut Sim<W>, w: &mut W, tag: u32) -> usize {
        let now = sim.now();
        let (n, needs_solve) = {
            let net = w.net();
            net.settle(now);
            let mut ids = std::mem::take(&mut net.drain_ids);
            ids.clear();
            ids.extend(
                net.flows
                    .iter()
                    .filter(|(_, f)| f.tag == tag)
                    .map(|(id, _)| *id),
            );
            let n = ids.len();
            let mut needs = false;
            for &id in &ids {
                let f = net.flows.remove(&id).expect("id from iteration");
                needs |= net.note_removed(&f);
            }
            net.drain_ids = ids;
            (n, needs)
        };
        if n > 0 {
            if needs_solve {
                Self::schedule_solve(sim, w);
            } else {
                Self::reschedule_tick(sim, w);
            }
        }
        n
    }

    /// Deliver a control-plane message: latency + serialization + fixed
    /// overhead, no bandwidth consumption. If any link on the route is
    /// currently down (fault injection) the message is silently lost and
    /// `false` is returned — exactly the failure a request timeout guards
    /// against. Panics only when no route exists in the topology at all.
    pub fn send_msg(
        sim: &mut Sim<W>,
        w: &mut W,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        on_deliver: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) -> bool {
        let net = w.net();
        let route = net
            .routes
            .lookup(&net.topo, src, dst)
            .unwrap_or_else(|| panic!("no route {src:?} -> {dst:?}"));
        if !route.path.iter().all(|l| net.health[l.0 as usize].up) {
            return false;
        }
        let mut delay = route.delay + net.msg_overhead;
        let cap = route.capacity;
        if cap.is_finite() && cap > 0.0 {
            delay += SimDuration::from_secs_f64(bytes as f64 / cap);
        }
        sim.after(delay, on_deliver);
        true
    }

    // ------------------------------------------------------------------
    // Monitoring
    // ------------------------------------------------------------------

    /// Begin periodic monitoring with the given sampling window. Monitored
    /// links produce one bandwidth sample per window; links with a nonzero
    /// `jitter_frac` also re-draw their effective capacity each tick.
    pub fn enable_monitoring(sim: &mut Sim<W>, w: &mut W, window: SimDuration) {
        {
            let net = w.net();
            assert!(net.monitor.is_none(), "monitoring already enabled");
            let nl = net.topo.link_count();
            let link_series = net
                .topo
                .links()
                .iter()
                .map(|l| RateSeries::new(l.name.clone(), window))
                .collect();
            net.monitor = Some(Monitor {
                window,
                link_series,
                tag_series: BTreeMap::new(),
                tag_names: BTreeMap::new(),
                enabled_links: vec![true; nl],
            });
        }
        Self::monitor_tick(sim, w);
    }

    /// Give a tag a display name; flows with this tag get their own series.
    pub fn register_tag(&mut self, tag: u32, name: impl Into<String>) {
        let name = name.into();
        if let Some(m) = &mut self.monitor {
            m.tag_names.insert(tag, name.clone());
            m.tag_series
                .entry(tag)
                .or_insert_with(|| RateSeries::new(name, m.window));
        }
    }

    fn monitor_tick(sim: &mut Sim<W>, w: &mut W) {
        let now = sim.now();
        let (window, any_jitter) = {
            let net = w.net();
            net.settle(now);
            let Some(m) = &net.monitor else { return };
            let window = m.window;
            // Re-draw jittered link capacities, if any links request it.
            // Jitter layers on top of fault state (down stays zero).
            let mut any_jitter = false;
            for i in 0..net.topo.link_count() {
                if net.topo.links()[i].jitter_frac > 0.0 {
                    let frac = net.topo.links()[i].jitter_frac;
                    net.effective_capacity[i] =
                        net.base_capacity(i) * simcore::rng::jitter(&mut net.rng, frac);
                    net.mark_link_dirty(i as u32);
                    any_jitter = true;
                }
            }
            (window, any_jitter)
        };
        if any_jitter {
            Self::schedule_solve(sim, w);
        } else {
            Self::reschedule_tick(sim, w);
        }
        sim.after(window, |sim, w| Self::monitor_tick(sim, w));
    }

    /// Stop monitoring and return all per-link and per-tag series
    /// (bytes/sec samples). Links carry their topology names.
    pub fn finish_monitoring(&mut self, t: SimTime) -> Vec<TimeSeries> {
        self.settle(t);
        let Some(m) = self.monitor.take() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (i, rs) in m.link_series.into_iter().enumerate() {
            if m.enabled_links[i] {
                out.push(rs.finish(t));
            }
        }
        for (_tag, rs) in m.tag_series {
            out.push(rs.finish(t));
        }
        out
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Advance all flows to `now` at their current rates, crediting monitor
    /// accumulators.
    fn settle(&mut self, now: SimTime) {
        let dt = now.since(self.last_settle).as_secs_f64();
        self.last_settle = now;
        if dt <= 0.0 || self.flows.is_empty() {
            return;
        }
        // Bytes accrued over (last_settle, now]; record them just inside
        // the interval so a settle landing exactly on a monitoring-window
        // boundary credits the window the bytes were earned in, not the
        // next one.
        let t_rec = SimTime::from_nanos(now.as_nanos().saturating_sub(1));
        for f in self.flows.values_mut() {
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            self.total_delivered += moved;
            if moved > 0.0 {
                if let Some(m) = &mut self.monitor {
                    let b = moved as u64;
                    for l in f.path.iter() {
                        m.link_series[l.0 as usize].record(t_rec, b);
                    }
                    if let Some(ts) = m.tag_series.get_mut(&f.tag) {
                        ts.record(t_rec, b);
                    }
                }
            }
        }
    }

    /// Mark one link as needing a re-solve.
    fn mark_link_dirty(&mut self, l: u32) {
        let li = l as usize;
        if !self.dirty_link_flag[li] {
            self.dirty_link_flag[li] = true;
            self.dirty_links.push(l);
            self.have_dirty = true;
        }
    }

    /// Per-link bookkeeping for a removed flow. Returns whether a re-solve
    /// is needed: a flow leaving a path of clean, unsaturated links cannot
    /// change any other flow's rate (its own rate was cap-frozen below every
    /// link's fill level), so the solver is skipped; otherwise its path is
    /// marked dirty.
    fn note_removed(&mut self, f: &FlowState<W>) -> bool {
        let mut fast = true;
        for l in f.path.iter() {
            let li = l.0 as usize;
            self.link_active[li] -= 1;
            self.link_load[li] -= f.rate;
            if self.link_active[li] == 0 {
                // Last flow off the link: its state is trivially clean.
                self.link_load[li] = 0.0;
                self.link_saturated[li] = false;
            }
            if self.link_saturated[li] || self.dirty_link_flag[li] {
                fast = false;
            }
        }
        if !fast {
            for l in f.path.iter() {
                self.mark_link_dirty(l.0);
            }
        }
        !fast
    }

    /// Queue the end-of-instant batch solve, once per instant. All mutations
    /// at the same `SimTime` coalesce into this single event; since rates
    /// only matter over strictly positive spans of simulated time, deferring
    /// the solve to the end of the instant is exact.
    fn schedule_solve(sim: &mut Sim<W>, w: &mut W) {
        {
            let net = w.net();
            if net.solve_scheduled {
                return;
            }
            net.solve_scheduled = true;
        }
        sim.immediately(|sim, w| {
            let now = sim.now();
            {
                let net = w.net();
                net.solve_scheduled = false;
                net.settle(now);
                net.recompute_dirty();
            }
            Self::reschedule_tick(sim, w);
        });
    }

    /// Re-solve exactly the connected components (flows joined transitively
    /// by shared links) reachable from a dirty link. Component independence
    /// makes the result bit-for-bit identical to a global re-solve.
    fn recompute_dirty(&mut self) {
        if !self.have_dirty {
            return;
        }
        // Union-find over every active flow's path, so dirty links resolve
        // to component roots.
        let mut uf = std::mem::take(&mut self.nw_uf);
        for f in self.flows.values() {
            for l in f.path.iter() {
                let li = l.0 as usize;
                if !self.nw_seen[li] {
                    self.nw_seen[li] = true;
                    uf[li] = l.0;
                    self.nw_touched.push(l.0);
                }
            }
            if let Some((first, rest)) = f.path.split_first() {
                let mut root = uf_find(&mut uf, first.0);
                for l in rest {
                    let r = uf_find(&mut uf, l.0);
                    if r != root {
                        // Deterministic union: smaller root wins.
                        let (lo, hi) = if r < root { (r, root) } else { (root, r) };
                        uf[hi as usize] = lo;
                        root = lo;
                    }
                }
            }
        }
        // Resolve dirty links to dirty component roots. A dirty link no flow
        // crosses has nothing to solve; reset its state directly.
        for k in 0..self.dirty_links.len() {
            let l = self.dirty_links[k];
            let li = l as usize;
            if self.nw_seen[li] {
                let root = uf_find(&mut uf, l);
                if !self.nw_root_dirty[root as usize] {
                    self.nw_root_dirty[root as usize] = true;
                    self.nw_dirty_roots.push(root);
                }
            } else {
                self.link_load[li] = 0.0;
                self.link_saturated[li] = false;
            }
        }
        // Collect the affected flows — flow-id order, matching what a global
        // solve would see — into the flat scratch.
        self.rc_paths.clear();
        self.rc_meta.clear();
        self.rc_ids.clear();
        for (&id, f) in &self.flows {
            let Some(first) = f.path.first() else {
                continue;
            };
            let root = uf_find(&mut uf, first.0);
            if self.nw_root_dirty[root as usize] {
                let start = self.rc_paths.len() as u32;
                self.rc_paths.extend(f.path.iter().map(|l| l.0));
                self.rc_meta.push(FlatFlow {
                    start,
                    len: f.path.len() as u32,
                    cap: f.cap,
                });
                self.rc_ids.push(id);
            }
        }
        self.nw_uf = uf;

        if !self.rc_meta.is_empty() {
            let paths = std::mem::take(&mut self.rc_paths);
            let meta = std::mem::take(&mut self.rc_meta);
            let mut rates = std::mem::take(&mut self.rc_rates);
            let mut solver = std::mem::take(&mut self.solver);
            solver.solve_flat(&self.effective_capacity, &paths, &meta, &mut rates);
            // Solver-touched links get exact state: zeroed load re-accrued
            // from the freshly solved rates, and fresh saturation flags.
            for &l in solver.touched_links() {
                let li = l as usize;
                self.link_load[li] = 0.0;
                self.link_saturated[li] = solver.link_saturated(l);
            }
            for (k, &id) in self.rc_ids.iter().enumerate() {
                let r = rates[k].min(RATE_CLAMP);
                let f = self.flows.get_mut(&id).expect("id collected above");
                f.rate = r;
                for l in f.path.iter() {
                    self.link_load[l.0 as usize] += r;
                }
            }
            self.rc_paths = paths;
            self.rc_meta = meta;
            self.rc_rates = rates;
            self.solver = solver;
        }

        for &l in &self.dirty_links {
            self.dirty_link_flag[l as usize] = false;
        }
        self.dirty_links.clear();
        self.have_dirty = false;
        for &l in &self.nw_touched {
            self.nw_seen[l as usize] = false;
        }
        self.nw_touched.clear();
        for &r in &self.nw_dirty_roots {
            self.nw_root_dirty[r as usize] = false;
        }
        self.nw_dirty_roots.clear();
    }

    /// Earliest instant at which some flow drains (absolute), if any.
    fn next_drain(&self, now: SimTime) -> Option<SimTime> {
        self.flows
            .values()
            .filter(|f| f.rate > 0.0)
            .map(|f| {
                let secs = (f.remaining.max(0.0)) / f.rate;
                now + SimDuration::from_secs_f64(secs) + SimDuration::from_nanos(1)
            })
            .min()
    }

    /// Re-register the single completion timer at the current earliest drain
    /// time, cancelling the previous registration.
    fn reschedule_tick(sim: &mut Sim<W>, w: &mut W) {
        if let Some(id) = w.net().tick_timer.take() {
            sim.cancel_timer(id);
        }
        let t = {
            let net = w.net();
            match net.next_drain(net.last_settle) {
                Some(t) => t,
                None => return,
            }
        };
        let t = t.max(sim.now());
        let id = sim.timer_at(t, |sim, w| Self::tick(sim, w));
        w.net().tick_timer = Some(id);
    }

    fn tick(sim: &mut Sim<W>, w: &mut W) {
        let now = sim.now();
        let (drained, needs_solve) = {
            let net = w.net();
            net.tick_timer = None;
            net.settle(now);
            let mut ids = std::mem::take(&mut net.drain_ids);
            ids.clear();
            ids.extend(
                net.flows
                    .iter()
                    .filter(|(_, f)| f.remaining <= DRAIN_EPS)
                    .map(|(id, _)| *id),
            );
            let mut done: Vec<(SimDuration, Action<W>)> = Vec::with_capacity(ids.len());
            let mut needs_solve = false;
            for &id in &ids {
                let mut f = net.flows.remove(&id).expect("id from iteration");
                self_credit_residual(&mut net.total_delivered, &mut f);
                needs_solve |= net.note_removed(&f);
                if let Some(cb) = f.on_complete.take() {
                    done.push((f.delivery_delay, cb));
                }
            }
            net.drain_ids = ids;
            (done, needs_solve)
        };
        if needs_solve {
            Self::schedule_solve(sim, w);
        } else {
            Self::reschedule_tick(sim, w);
        }
        for (delay, cb) in drained {
            sim.at(now + delay, cb);
        }
    }
}

/// Credit the final sub-epsilon residue so accounting stays exact.
fn self_credit_residual<W>(total: &mut f64, f: &mut FlowState<W>) {
    if f.remaining > 0.0 {
        *total += f.remaining;
        f.remaining = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;
    use simcore::{Bandwidth, GBYTE, MBYTE};

    struct World {
        net: Network<World>,
        done: Vec<(SimTime, &'static str)>,
    }
    impl NetWorld for World {
        fn net(&mut self) -> &mut Network<World> {
            &mut self.net
        }
    }

    /// a --10Gb/s,5ms-- m --1Gb/s,20ms-- c
    fn world() -> (Sim<World>, World, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let m = b.node("m");
        let c = b.node("c");
        b.duplex_link(a, m, Bandwidth::gbit(10.0), SimDuration::from_millis(5), "am");
        b.duplex_link(m, c, Bandwidth::gbit(1.0), SimDuration::from_millis(20), "mc");
        let w = World {
            net: Network::new(b.build(), 1),
            done: Vec::new(),
        };
        (Sim::new(), w, a, m, c)
    }

    #[test]
    fn single_flow_completes_at_link_rate() {
        let (mut sim, mut w, a, _m, c) = world();
        // 125 MB over a 1 Gb/s bottleneck = 1.0 s + 25 ms delivery.
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "f")),
        );
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.025).abs() < 1e-3, "completion at {t}");
        assert_eq!(w.net.total_delivered(), 125 * MBYTE);
        assert_eq!(w.net.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_bottleneck_fairly() {
        let (mut sim, mut w, a, _m, c) = world();
        // Two 62.5 MB flows through the 1 Gb/s link: each gets 62.5 MB/s,
        // both finish at ~1 s.
        for name in ["x", "y"] {
            Network::start_flow(
                &mut sim,
                &mut w,
                FlowSpec::bulk(a, c, 125 * MBYTE / 2),
                move |sim, w: &mut World| w.done.push((sim.now(), name)),
            );
        }
        sim.run(&mut w);
        assert_eq!(w.done.len(), 2);
        for (t, _) in &w.done {
            assert!((t.as_secs_f64() - 1.025).abs() < 1e-3);
        }
    }

    #[test]
    fn window_cap_limits_rate() {
        let (mut sim, mut w, a, _m, c) = world();
        // RTT = 2*(5+20)ms + 60us ~= 50.06ms. Window 1 MB -> ~19.98 MB/s,
        // far below the 125 MB/s link. 20 MB should take ~1.0 s.
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 20 * MBYTE).with_window(MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "capped")),
        );
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        assert!((1.0..1.1).contains(&t), "windowed flow completed at {t}");
    }

    #[test]
    fn second_flow_speeds_up_when_first_finishes() {
        let (mut sim, mut w, a, _m, c) = world();
        // Flow1: 62.5 MB; Flow2: 125 MB. Shared until flow1 finishes at
        // t=1s (each at 62.5 MB/s); then flow2 runs at full 125 MB/s for its
        // remaining 62.5 MB (0.5 s). Flow2 completes ~1.5 s + delay.
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE / 2),
            |sim, w: &mut World| w.done.push((sim.now(), "short")),
        );
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "long")),
        );
        sim.run(&mut w);
        assert_eq!(w.done.len(), 2);
        assert_eq!(w.done[0].1, "short");
        let t_long = w.done[1].0.as_secs_f64();
        assert!((t_long - 1.525).abs() < 2e-3, "long flow at {t_long}");
    }

    #[test]
    fn cancel_flow_releases_bandwidth() {
        let (mut sim, mut w, a, _m, c) = world();
        let id = Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, GBYTE),
            |_s, _w: &mut World| panic!("cancelled flow must not complete"),
        );
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "kept")),
        );
        // Cancel the big flow at t=0 (before any events run).
        let remaining = Network::cancel_flow(&mut sim, &mut w, id).unwrap();
        assert!(remaining > 0);
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.025).abs() < 1e-3, "kept flow at {t}");
    }

    #[test]
    fn extend_flow_prolongs_completion() {
        let (mut sim, mut w, a, _m, c) = world();
        let id = Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE / 2),
            |sim, w: &mut World| w.done.push((sim.now(), "ext")),
        );
        assert!(Network::extend_flow(&mut sim, &mut w, id, 125 * MBYTE / 2));
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.025).abs() < 1e-3, "extended flow at {t}");
    }

    #[test]
    fn message_delay_includes_latency_and_overhead() {
        let (mut sim, mut w, a, _m, c) = world();
        Network::send_msg(&mut sim, &mut w, a, c, 1000, |sim, w: &mut World| {
            w.done.push((sim.now(), "msg"))
        });
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        // 25 ms latency + 30us overhead + 1000B/125MB/s (= 8 us)
        assert!((t - 0.025038).abs() < 1e-5, "msg at {t}");
    }

    #[test]
    fn rtt_is_symmetric_roundtrip() {
        let (_sim, mut w, a, _m, c) = world();
        let rtt = w.net().rtt(a, c);
        assert!((rtt.as_secs_f64() - 0.05006).abs() < 1e-5);
    }

    #[test]
    fn monitoring_produces_series() {
        let (mut sim, mut w, a, _m, c) = world();
        Network::enable_monitoring(&mut sim, &mut w, SimDuration::from_millis(100));
        w.net().register_tag(7, "reads");
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE).with_tag(7),
            |_s, _w: &mut World| {},
        );
        sim.set_horizon(SimTime::from_secs(2));
        sim.run(&mut w);
        let series = w.net.finish_monitoring(SimTime::from_secs(2));
        let reads = series.iter().find(|s| s.name == "reads").unwrap();
        // Mid-transfer samples should be ~125 MB/s.
        let mid = reads.mean_between(SimTime::from_millis(200), SimTime::from_millis(800));
        assert!(
            (mid - 125e6).abs() < 5e6,
            "mid-transfer rate {mid} not ~125 MB/s"
        );
    }

    #[test]
    fn many_small_flows_conserve_bytes() {
        let (mut sim, mut w, a, _m, c) = world();
        let n = 50u64;
        for _ in 0..n {
            Network::start_flow(
                &mut sim,
                &mut w,
                FlowSpec::bulk(a, c, MBYTE),
                |sim, w: &mut World| w.done.push((sim.now(), "s")),
            );
        }
        sim.run(&mut w);
        assert_eq!(w.done.len(), n as usize);
        assert_eq!(w.net.total_delivered(), n * MBYTE);
    }

    #[test]
    fn cancel_tagged_removes_only_matching_flows() {
        let (mut sim, mut w, a, _m, c) = world();
        for tag in [1u32, 1, 2] {
            Network::start_flow(
                &mut sim,
                &mut w,
                FlowSpec::bulk(a, c, 125 * MBYTE).with_tag(tag),
                move |sim, w: &mut World| w.done.push((sim.now(), "f")),
            );
        }
        assert_eq!(w.net.active_flows(), 3);
        let n = Network::cancel_tagged(&mut sim, &mut w, 1);
        assert_eq!(n, 2);
        assert_eq!(w.net.active_flows(), 1);
        sim.run(&mut w);
        // Only the tag-2 flow completed, and at full link rate (~1s).
        assert_eq!(w.done.len(), 1);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.025).abs() < 1e-3, "survivor finished at {t}");
        // Cancelling a tag with no flows is a no-op.
        assert_eq!(Network::cancel_tagged(&mut sim, &mut w, 9), 0);
    }

    #[test]
    fn link_down_stalls_flow_and_restore_resumes() {
        let (mut sim, mut w, a, _m, c) = world();
        // 125 MB over the 1 Gb/s bottleneck normally takes 1 s. Take the
        // mc link down from t=0.5 to t=1.0: the flow stalls for exactly
        // that half second and completes ~1.525 s (incl. delivery delay).
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "f")),
        );
        let links = w.net().links_named("mc");
        assert_eq!(links.len(), 2, "duplex link resolves to both directions");
        let l2 = links.clone();
        sim.at(SimTime::from_millis(500), move |sim, w: &mut World| {
            for l in &links {
                Network::set_link_up(sim, w, *l, false);
            }
        });
        sim.at(SimTime::from_millis(1000), move |sim, w: &mut World| {
            for l in &l2 {
                Network::set_link_up(sim, w, *l, true);
            }
        });
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1, "stalled flow must finish after restore");
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 1.525).abs() < 2e-3, "flap-delayed completion at {t}");
        assert_eq!(w.net.total_delivered(), 125 * MBYTE);
    }

    #[test]
    fn degraded_link_scales_rate() {
        let (mut sim, mut w, a, _m, c) = world();
        // Degrade the bottleneck to half capacity up front: 125 MB at
        // 62.5 MB/s takes 2 s.
        let links = w.net().links_named("mc");
        for l in links {
            Network::set_link_degraded(&mut sim, &mut w, l, 0.5);
        }
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "slow")),
        );
        sim.run(&mut w);
        let t = w.done[0].0.as_secs_f64();
        assert!((t - 2.025).abs() < 2e-3, "half-rate completion at {t}");
    }

    #[test]
    fn messages_are_lost_on_down_links() {
        let (mut sim, mut w, a, _m, c) = world();
        for l in w.net().links_named("mc") {
            Network::set_link_up(&mut sim, &mut w, l, false);
        }
        let delivered = Network::send_msg(&mut sim, &mut w, a, c, 1000, |_s, w: &mut World| {
            w.done.push((SimTime::ZERO, "lost"))
        });
        assert!(!delivered, "message over a down link must be dropped");
        // Unaffected segment still delivers.
        let ok = Network::send_msg(&mut sim, &mut w, a, _m, 1000, |sim, w: &mut World| {
            w.done.push((sim.now(), "ok"))
        });
        assert!(ok);
        sim.run(&mut w);
        assert_eq!(w.done.len(), 1);
        assert_eq!(w.done[0].1, "ok");
    }

    /// Every ordered pair's table route against a fresh `Topology::route`.
    fn assert_table_matches_topology(net: &mut Network<World>) {
        let topo = net.topo().clone();
        let n = topo.node_count() as u32;
        for s in 0..n {
            for d in 0..n {
                let (src, dst) = (NodeId(s), NodeId(d));
                let want = topo.route(src, dst);
                let got = net.route(src, dst).cloned();
                match (want, got) {
                    (None, None) => {}
                    (Some(p), Some(r)) => {
                        assert_eq!(&*r.path, &p[..], "{s}->{d} path");
                        assert_eq!(r.delay, topo.path_delay(&p), "{s}->{d} delay");
                        assert_eq!(r.capacity, topo.path_capacity(&p), "{s}->{d} capacity");
                    }
                    (w, g) => panic!("{s}->{d}: topology {w:?}, table {:?}", g.map(|r| r.path)),
                }
            }
        }
    }

    #[test]
    fn route_table_matches_topology_cold_and_warm() {
        // Equal-delay diamond a->{x,y}->z, a one-way spur a->q, and an
        // isolated node: ties, asymmetry and unreachable pairs.
        let mut b = TopologyBuilder::new();
        let a = b.node("a");
        let x = b.node("x");
        let y = b.node("y");
        let z = b.node("z");
        let q = b.node("q");
        b.node("lone");
        let ms = SimDuration::from_millis;
        b.duplex_link(a, x, Bandwidth::gbit(10.0), ms(5), "ax");
        b.duplex_link(a, y, Bandwidth::gbit(1.0), ms(5), "ay");
        b.duplex_link(x, z, Bandwidth::gbit(2.0), ms(5), "xz");
        b.duplex_link(y, z, Bandwidth::gbit(10.0), ms(5), "yz");
        b.directed_link(a, q, Bandwidth::gbit(1.0), ms(1), "aq");
        let topo = b.build();
        let fresh = || World {
            net: Network::new(topo.clone(), 1),
            done: Vec::new(),
        };
        // Warm: one table, every pair twice (the second pass is memoised).
        let mut w = fresh();
        assert_table_matches_topology(&mut w.net);
        assert_table_matches_topology(&mut w.net);
        // Cold: each pair is the first lookup of a fresh table, in reverse.
        let n = topo.node_count() as u32;
        for s in (0..n).rev() {
            for d in (0..n).rev() {
                let (src, dst) = (NodeId(s), NodeId(d));
                let cold = fresh().net.route(src, dst).map(|r| r.path.to_vec());
                assert_eq!(cold, w.net.route(src, dst).map(|r| r.path.to_vec()));
            }
        }
    }

    /// Warm the a->c route with a delivered message and a drained flow.
    fn warm_route(sim: &mut Sim<World>, w: &mut World, a: NodeId, c: NodeId) {
        Network::send_msg(sim, w, a, c, 1000, |sim, w: &mut World| {
            w.done.push((sim.now(), "warm-msg"))
        });
        Network::start_flow(sim, w, FlowSpec::bulk(a, c, MBYTE), |sim, w: &mut World| {
            w.done.push((sim.now(), "warm-flow"))
        });
        sim.run(w);
        assert_eq!(w.done.len(), 2);
        w.done.clear();
    }

    #[test]
    fn warm_routes_still_see_link_outages() {
        let (mut sim, mut w, a, _m, c) = world();
        warm_route(&mut sim, &mut w, a, c);
        let mc = w.net().links_named("mc");
        for &l in &mc {
            Network::set_link_up(&mut sim, &mut w, l, false);
        }
        let sent = Network::send_msg(&mut sim, &mut w, a, c, 1000, |_s, w: &mut World| {
            w.done.push((SimTime::ZERO, "lost"))
        });
        assert!(
            !sent,
            "message over a down link of a warm route must be dropped"
        );
        let t0 = sim.now();
        let f = Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "flow")),
        );
        // Half a second in, the flow is stalled with every byte left.
        sim.at(
            t0 + SimDuration::from_millis(500),
            move |_sim, w: &mut World| {
                assert_eq!(w.net.flow_rate(f), Some(0.0));
                assert_eq!(w.net.flow_remaining(f), Some(125 * MBYTE));
            },
        );
        // Restore after a second: a message goes through and the flow
        // drains at 1 Gb/s.
        let t1 = t0 + SimDuration::from_secs(1);
        sim.at(t1, move |sim, w: &mut World| {
            for &l in &mc {
                Network::set_link_up(sim, w, l, true);
            }
            assert!(Network::send_msg(
                sim,
                w,
                a,
                c,
                1000,
                |sim, w: &mut World| { w.done.push((sim.now(), "msg")) }
            ));
        });
        sim.run(&mut w);
        let names: Vec<_> = w.done.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, ["msg", "flow"]);
        let msg = w.done[0].0.since(t1).as_secs_f64();
        assert!(
            (msg - 0.025038).abs() < 1e-5,
            "message after restore took {msg}"
        );
        let took = w.done[1].0.since(t1).as_secs_f64();
        assert!((took - 1.025).abs() < 2e-3, "resumed flow took {took}");
    }

    #[test]
    fn warm_routes_still_see_degradation() {
        let (mut sim, mut w, a, _m, c) = world();
        warm_route(&mut sim, &mut w, a, c);
        for l in w.net().links_named("mc") {
            Network::set_link_degraded(&mut sim, &mut w, l, 0.5);
        }
        let t0 = sim.now();
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "slow")),
        );
        sim.run(&mut w);
        let took = w.done[0].0.since(t0).as_secs_f64();
        assert!(
            (took - 2.025).abs() < 2e-3,
            "half-rate flow on a warm route took {took}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_byte_flow_rejected() {
        let (mut sim, mut w, a, _m, c) = world();
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 0),
            |_s, _w: &mut World| {},
        );
    }

    #[test]
    fn fast_path_add_matches_solver_rates() {
        let (mut sim, mut w, a, _m, c) = world();
        // A small windowed flow behind a big bulk flow: the bulk flow
        // saturates the bottleneck, so the windowed add must take the slow
        // path and both rates must match a global solve — total equals the
        // 1 Gb/s bottleneck, windowed flow gets its cap.
        Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 125 * MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "bulk")),
        );
        let capped = Network::start_flow(
            &mut sim,
            &mut w,
            FlowSpec::bulk(a, c, 20 * MBYTE).with_window(MBYTE),
            |sim, w: &mut World| w.done.push((sim.now(), "win")),
        );
        // Rates settle at the end of the instant; run one step past it.
        sim.run_until(&mut w, |w| w.done.len() == 2);
        assert_eq!(w.done.len(), 2);
        // Windowed flow finishes ~1 s (cap ~20 MB/s on 20 MB), bulk flow
        // sheds ~20 MB/s while sharing then speeds back up.
        let t_win = w.done.iter().find(|(_, n)| *n == "win").unwrap().0;
        assert!((t_win.as_secs_f64() - 1.0).abs() < 0.1);
        assert!(w.net.flow_rate(capped).is_none());
        assert_eq!(w.net.total_delivered(), 145 * MBYTE);
    }

    #[test]
    fn pending_stays_bounded_across_rate_changes() {
        // Each mutation re-registers the one completion timer instead of
        // piling stale epoch-guarded events on the heap.
        let (mut sim, mut w, a, _m, c) = world();
        for _ in 0..32 {
            Network::start_flow(
                &mut sim,
                &mut w,
                FlowSpec::bulk(a, c, 10 * MBYTE),
                |sim, w: &mut World| w.done.push((sim.now(), "f")),
            );
        }
        // 32 flows started at the same instant: at most one tick timer, one
        // batched solve event, and nothing else.
        assert!(
            sim.pending() <= 2,
            "expected one timer + one solve event, found {} pending",
            sim.pending()
        );
        sim.run(&mut w);
        assert_eq!(w.done.len(), 32);
        assert_eq!(sim.pending(), 0);
    }
}
