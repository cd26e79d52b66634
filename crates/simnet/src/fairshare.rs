//! Max-min fair bandwidth allocation with per-flow rate caps
//! (water-filling / progressive-filling algorithm).
//!
//! This is the analytical heart of every throughput number in the paper:
//! long-lived bulk TCP flows sharing wide-area links converge to
//! approximately max-min fair rates, and a flow whose TCP window is smaller
//! than the bandwidth-delay product is additionally capped at
//! `window / RTT`. The solver raises all flow rates uniformly; the first
//! constraint to bind is either a link saturating (freezing all flows
//! crossing it) or a flow hitting its individual cap (freezing that flow).
//!
//! ## Incremental solving
//!
//! [`Solver`] is the reusable engine: it keeps every scratch buffer between
//! calls (no allocation on the hot path once warmed up) and fills each
//! **connected component** — flows joined transitively by shared links,
//! grouped by [`Components`] — with its own fill level. Two properties
//! follow, and the network layer leans on both:
//!
//! 1. Components are arithmetically independent: a component's rates are a
//!    pure function of its own flows (in order) and its own links. Re-solving
//!    one component in isolation is therefore **bit-for-bit identical** to
//!    solving the whole system and reading off that component's rates.
//! 2. Constraint freezing uses exact comparisons against the per-round
//!    level (no epsilon tolerances), and a cap-frozen flow's rate is its cap
//!    *exactly* — which lets callers prove small mutations (an uncapped-link
//!    add, an unsaturated-path remove) leave every other rate untouched.
//!
//! ## Per-link rounds
//!
//! A water-filling round computes each live link's level once, saturates
//! the links at the lowest level (or cap), and makes one pass over the
//! unfrozen flows to freeze the cap-bound, then the link-bound ones, each
//! in flow order — a fixed accumulation order, so rates are bit-exact.

/// One flow as seen by the solver.
#[derive(Clone, Debug)]
pub struct SolverFlow<'a> {
    /// Directed link indices this flow traverses.
    pub path: &'a [u32],
    /// Individual rate cap in bytes/sec (`f64::INFINITY` when unlimited);
    /// typically `window / RTT`.
    pub cap: f64,
}

/// One flow in the flat (pre-packed) solver input: its path is
/// `path_buf[start..start + len]` in the caller-held path buffer. Callers on
/// the hot path keep both buffers alive across solves instead of
/// materializing `SolverFlow` slices.
#[derive(Clone, Copy, Debug)]
pub struct FlatFlow {
    /// Offset of the first link index in the shared path buffer.
    pub start: u32,
    /// Number of links in the path.
    pub len: u32,
    /// Individual rate cap in bytes/sec (`f64::INFINITY` when unlimited).
    pub cap: f64,
}

/// No link joined / no component number.
const NONE: u32 = u32::MAX;

/// Groups flows into connected components with a union-find over link ids.
/// Scratch persists across uses and resets in time proportional to the
/// links touched since the last reset.
#[derive(Default)]
pub struct Components {
    /// Union-find parent of a joined link, [`NONE`] for the rest.
    parent: Vec<u32>,
    /// Component number of a root link, or [`NONE`].
    num: Vec<u32>,
    touched: Vec<u32>,
    count: u32,
    keys: Vec<u32>,
    order: Vec<u32>,
    ends: Vec<u32>,
}

impl Components {
    /// Forget every join and number; links are ids below `n_links`.
    pub fn reset(&mut self, n_links: usize) {
        for &l in &self.touched {
            (self.parent[l as usize], self.num[l as usize]) = (NONE, NONE);
        }
        self.touched.clear();
        self.count = 0;
        if self.parent.len() < n_links {
            self.parent.resize(n_links, NONE);
            self.num.resize(n_links, NONE);
        }
    }

    /// Join every link of one flow's path into one component.
    pub fn join(&mut self, path: impl IntoIterator<Item = u32>) {
        let mut root = NONE;
        for l in path {
            if self.parent[l as usize] == NONE {
                self.parent[l as usize] = l;
                self.touched.push(l);
            }
            let r = self.find(l);
            if root == NONE {
                root = r;
            } else if r != root {
                // Deterministic union: smaller root wins.
                let (lo, hi) = if r < root { (r, root) } else { (root, r) };
                self.parent[hi as usize] = lo;
                root = lo;
            }
        }
    }

    /// Path-halving lookup of a joined link's root.
    fn find(&mut self, mut l: u32) -> u32 {
        while self.parent[l as usize] != l {
            let p = self.parent[l as usize];
            self.parent[l as usize] = self.parent[p as usize];
            l = self.parent[l as usize];
        }
        l
    }

    /// Number the component of link `l`, if a joined path crosses it; the
    /// first call for a component assigns the next number. Returns whether
    /// some path crosses `l`.
    pub fn number(&mut self, l: u32) -> bool {
        self.key(l, true) != NONE
    }

    /// Component number of link `l`, assigning the next one if `assign`.
    fn key(&mut self, l: u32, assign: bool) -> u32 {
        if self.parent[l as usize] == NONE {
            return NONE;
        }
        let r = self.find(l) as usize;
        if assign && self.num[r] == NONE {
            (self.num[r], self.count) = (self.count, self.count + 1);
        }
        self.num[r]
    }

    /// Group flows by component: `firsts` yields each flow's first link
    /// (`None` for an empty path, which is left out). With `numbered_only`
    /// flows of components no [`Components::number`] call reached are left
    /// out too; otherwise every component is numbered on first sight. Read
    /// the result from [`Components::order`] and [`Components::ends`].
    pub fn group(&mut self, firsts: impl IntoIterator<Item = Option<u32>>, numbered_only: bool) {
        self.keys.clear();
        for first in firsts {
            let key = first.map_or(NONE, |l| self.key(l, !numbered_only));
            self.keys.push(key);
        }
        // Counting sort, stable within a component.
        self.ends.clear();
        self.ends.resize(self.count as usize, 0);
        for &k in &self.keys {
            if k != NONE {
                self.ends[k as usize] += 1;
            }
        }
        let mut at = 0;
        for e in &mut self.ends {
            (*e, at) = (at, at + *e);
        }
        self.order.clear();
        self.order.resize(at as usize, 0);
        for (i, &k) in self.keys.iter().enumerate() {
            if k != NONE {
                self.order[self.ends[k as usize] as usize] = i as u32;
                self.ends[k as usize] += 1;
            }
        }
    }

    /// Flow indices of the last [`Components::group`], component by
    /// component, in flow order within each.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// End offset in [`Components::order`] of each component.
    pub fn ends(&self) -> &[u32] {
        &self.ends
    }
}

/// Reusable max-min solver: scratch buffers persist across calls so the
/// steady-state solve performs no heap allocation.
#[derive(Default)]
pub struct Solver {
    // Per-link scratch, sized to the largest link id seen (+1). Reset lazily
    // through `touched_links` so solve cost scales with the flows' footprint,
    // not the topology size.
    active: Vec<u32>,
    frozen_sum: Vec<f64>,
    saturated: Vec<bool>,
    touched_links: Vec<u32>,
    // Per-round scratch: live links with their levels, unfrozen flows, and
    // the round's freezes.
    live: Vec<u32>,
    level: Vec<f64>,
    unfrozen: Vec<u32>,
    cap_frozen: Vec<u32>,
    link_frozen: Vec<u32>,
    // Grouping and packing scratch for the `SolverFlow` entry point.
    comps: Components,
    flat_paths: Vec<u32>,
    flat_meta: Vec<FlatFlow>,
    flat_rates: Vec<f64>,
}

impl Solver {
    /// Fresh solver with empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Links marked saturated (they froze at least one flow) by the last
    /// solve, for link ids < the scratch size. Valid until the next call.
    pub fn link_saturated(&self, link: u32) -> bool {
        self.saturated.get(link as usize).copied().unwrap_or(false)
    }

    /// Compute max-min fair rates for `flows` over `link_capacity`, writing
    /// one rate per flow into `out` (cleared first). Flows with an empty path
    /// get their cap (or `INFINITY` when uncapped). All scratch is reused;
    /// after warmup the call allocates nothing.
    pub fn solve(&mut self, link_capacity: &[f64], flows: &[SolverFlow<'_>], out: &mut Vec<f64>) {
        let mut comps = std::mem::take(&mut self.comps);
        comps.reset(link_capacity.len());
        for f in flows {
            comps.join(f.path.iter().copied());
        }
        comps.group(flows.iter().map(|f| f.path.first().copied()), false);
        let (mut paths, mut meta, mut rates) = (
            std::mem::take(&mut self.flat_paths),
            std::mem::take(&mut self.flat_meta),
            std::mem::take(&mut self.flat_rates),
        );
        paths.clear();
        meta.clear();
        for &i in comps.order() {
            let f = &flows[i as usize];
            meta.push(FlatFlow {
                start: paths.len() as u32,
                len: f.path.len() as u32,
                cap: f.cap,
            });
            paths.extend_from_slice(f.path);
        }
        self.solve_flat(link_capacity, &paths, &meta, comps.ends(), &mut rates);
        let alone = |f: &SolverFlow| {
            if f.cap.is_finite() {
                f.cap
            } else {
                f64::INFINITY
            }
        };
        out.clear();
        out.extend(flows.iter().map(alone));
        for (k, &i) in comps.order().iter().enumerate() {
            out[i as usize] = rates[k];
        }
        (self.comps, self.flat_paths, self.flat_meta, self.flat_rates) =
            (comps, paths, meta, rates);
    }

    /// The engine behind [`Solver::solve`], over pre-packed flat buffers
    /// already grouped by component: flow `i`'s path is
    /// `path_buf[meta[i].start..][..meta[i].len]` (never empty), and the
    /// flows of component `k` are `meta[ends[k - 1]..ends[k]]` (from 0 for
    /// the first). Components must not share links.
    pub fn solve_flat(
        &mut self,
        link_capacity: &[f64],
        path_buf: &[u32],
        meta: &[FlatFlow],
        ends: &[u32],
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(meta.len(), 0.0);
        if self.active.len() < link_capacity.len() {
            self.active.resize(link_capacity.len(), 0);
            self.frozen_sum.resize(link_capacity.len(), 0.0);
            self.saturated.resize(link_capacity.len(), false);
        }
        // Reset per-link scratch from the previous call.
        for &l in &self.touched_links {
            self.active[l as usize] = 0;
            self.frozen_sum[l as usize] = 0.0;
            self.saturated[l as usize] = false;
        }
        self.touched_links.clear();
        let mut start = 0;
        for &end in ends {
            self.fill_component(link_capacity, path_buf, meta, start..end as usize, out);
            start = end as usize;
        }
    }

    /// Progressive-fill one component, the flows `meta[flows]`.
    fn fill_component(
        &mut self,
        link_capacity: &[f64],
        path_buf: &[u32],
        meta: &[FlatFlow],
        flows: std::ops::Range<usize>,
        out: &mut [f64],
    ) {
        let path = |f: &FlatFlow| &path_buf[f.start as usize..(f.start + f.len) as usize];
        // Register the component's links and count the flows on each.
        let first_link = self.touched_links.len();
        for f in &meta[flows.clone()] {
            for &l in path(f) {
                if self.active[l as usize] == 0 {
                    self.touched_links.push(l);
                }
                self.active[l as usize] += 1;
            }
        }
        self.live.clear();
        self.live
            .extend_from_slice(&self.touched_links[first_link..]);
        self.unfrozen.clear();
        self.unfrozen.extend(flows.start as u32..flows.end as u32);
        let mut min_cap = meta[flows]
            .iter()
            .fold(f64::INFINITY, |m, f| if f.cap < m { f.cap } else { m });

        while !self.unfrozen.is_empty() {
            // The next binding level is the smallest constraint candidate:
            // links offer (capacity - frozen share) / active flows, flows
            // offer their own cap. Exact comparisons throughout. Links that
            // saturated or lost their last unfrozen flow leave the live set.
            let mut best = min_cap;
            self.level.clear();
            let mut kept = 0;
            for k in 0..self.live.len() {
                let li = self.live[k] as usize;
                if self.saturated[li] || self.active[li] == 0 {
                    continue;
                }
                let level = (link_capacity[li] - self.frozen_sum[li]) / self.active[li] as f64;
                if level < best {
                    best = level;
                }
                self.live[kept] = li as u32;
                self.level.push(level);
                kept += 1;
            }
            self.live.truncate(kept);
            if !best.is_finite() {
                // No finite constraint: the rest are unconstrained.
                for &i in &self.unfrozen {
                    out[i as usize] = f64::INFINITY;
                }
                break;
            }
            let best = best.max(0.0);
            // Saturate every link at this level. An unfrozen flow never
            // crosses a link saturated in an earlier round (that round froze
            // all its flows), so a saturated link on its path saturates now.
            for (&l, &level) in self.live.iter().zip(&self.level) {
                if level <= best {
                    self.saturated[l as usize] = true;
                }
            }
            // Freeze, in deterministic flow order: every flow whose own cap
            // binds at this level (rate = cap, exactly), then every flow
            // crossing a link that saturates at this level (rate = level).
            // The argmin constraint always freezes at least one flow, so each
            // round makes progress.
            self.cap_frozen.clear();
            self.link_frozen.clear();
            min_cap = f64::INFINITY;
            let mut kept = 0;
            for k in 0..self.unfrozen.len() {
                let i = self.unfrozen[k];
                let f = &meta[i as usize];
                if f.cap <= best {
                    out[i as usize] = f.cap;
                    self.cap_frozen.push(i);
                } else if path(f).iter().any(|&l| self.saturated[l as usize]) {
                    out[i as usize] = best;
                    self.link_frozen.push(i);
                } else {
                    if f.cap < min_cap {
                        min_cap = f.cap;
                    }
                    self.unfrozen[kept] = i;
                    kept += 1;
                }
            }
            debug_assert!(kept < self.unfrozen.len(), "water-fill round stalled");
            self.unfrozen.truncate(kept);
            for &i in self.cap_frozen.iter().chain(&self.link_frozen) {
                for &l in path(&meta[i as usize]) {
                    self.active[l as usize] -= 1;
                    self.frozen_sum[l as usize] += out[i as usize];
                }
            }
        }
    }

    /// Links registered (crossed by some flow) in the last solve. Paired
    /// with [`Solver::link_saturated`] this lets incremental callers merge
    /// fresh saturation flags into their own persistent per-link state.
    pub fn touched_links(&self) -> &[u32] {
        &self.touched_links
    }
}

/// Compute max-min fair rates.
///
/// * `link_capacity[l]` — capacity of link `l` in bytes/sec.
/// * returns one rate per flow, in bytes/sec.
///
/// Thin wrapper over [`Solver`] for one-shot callers; hot paths should hold
/// a `Solver` and call [`Solver::solve`] to reuse scratch buffers.
pub fn allocate(link_capacity: &[f64], flows: &[SolverFlow<'_>]) -> Vec<f64> {
    let mut solver = Solver::new();
    let mut out = Vec::new();
    solver.solve(link_capacity, flows, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-6 * b.abs().max(1.0)
    }

    /// The flow-centric water-fill the per-link rounds replaced, kept as
    /// the reference they must match to the bit: each round scans every
    /// component flow's path three times, dividing at every step. Returns
    /// the rates and each link's saturation flag.
    fn reference_solve(caps: &[f64], flows: &[SolverFlow]) -> (Vec<f64>, Vec<bool>) {
        let nl = caps.len();
        let mut out: Vec<f64> = flows
            .iter()
            .map(|f| {
                if f.cap.is_finite() {
                    f.cap
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        let (mut active, mut frozen_sum, mut saturated) =
            (vec![0u32; nl], vec![0.0f64; nl], vec![false; nl]);
        let mut parent: Vec<u32> = (0..nl as u32).collect();
        fn find(p: &[u32], mut l: u32) -> u32 {
            while p[l as usize] != l {
                l = p[l as usize];
            }
            l
        }
        for f in flows {
            for &l in f.path {
                active[l as usize] += 1;
                let (a, b) = (find(&parent, f.path[0]), find(&parent, l));
                parent[a.max(b) as usize] = a.min(b);
            }
        }
        let root = |i: usize| find(&parent, flows[i].path[0]);
        let mut order: Vec<usize> = (0..flows.len())
            .filter(|&i| !flows[i].path.is_empty())
            .collect();
        order.sort_by_key(|&i| root(i));
        let mut frozen = vec![false; flows.len()];
        for comp in order.chunk_by(|&a, &b| root(a) == root(b)) {
            let level = |l: u32, active: &[u32], frozen_sum: &[f64]| {
                (caps[l as usize] - frozen_sum[l as usize]) / active[l as usize] as f64
            };
            let open = |l: u32, active: &[u32], saturated: &[bool]| {
                !saturated[l as usize] && active[l as usize] > 0
            };
            while comp.iter().any(|&i| !frozen[i]) {
                let mut best = f64::INFINITY;
                for &i in comp.iter().filter(|&&i| !frozen[i]) {
                    if flows[i].cap < best {
                        best = flows[i].cap;
                    }
                    for &l in flows[i].path {
                        if open(l, &active, &saturated) && level(l, &active, &frozen_sum) < best {
                            best = level(l, &active, &frozen_sum);
                        }
                    }
                }
                if !best.is_finite() {
                    for &i in comp.iter().filter(|&&i| !frozen[i]) {
                        out[i] = f64::INFINITY;
                    }
                    break;
                }
                let best = best.max(0.0);
                let mut round: Vec<usize> = Vec::new();
                for &i in comp.iter().filter(|&&i| !frozen[i] && flows[i].cap <= best) {
                    out[i] = flows[i].cap;
                    round.push(i);
                }
                for &i in comp.iter().filter(|&&i| !frozen[i] && flows[i].cap > best) {
                    if flows[i].path.iter().any(|&l| {
                        open(l, &active, &saturated) && level(l, &active, &frozen_sum) <= best
                    }) {
                        out[i] = best;
                        round.push(i);
                    }
                }
                for &i in comp {
                    for &l in flows[i].path {
                        if open(l, &active, &saturated) && level(l, &active, &frozen_sum) <= best {
                            saturated[l as usize] = true;
                        }
                    }
                }
                assert!(!round.is_empty(), "reference round stalled");
                for i in round {
                    frozen[i] = true;
                    for &l in flows[i].path {
                        active[l as usize] -= 1;
                        frozen_sum[l as usize] += out[i];
                    }
                }
            }
        }
        (out, saturated)
    }

    #[test]
    fn per_link_rounds_match_reference_fill_bitwise() {
        // Random multi-component instances with mixed caps, exact ties
        // (equal capacities, caps equal to a fair share) and down links:
        // rates and saturation flags must agree to the bit.
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut solver = Solver::new();
        let mut out = Vec::new();
        for case in 0..400u64 {
            let mut r = StdRng::seed_from_u64(0xf111_0000 + case);
            let nl = r.gen_range(1usize..=24);
            let caps: Vec<f64> = (0..nl)
                .map(|_| match r.gen_range(0u64..=5) {
                    0 => 0.0,
                    1 | 2 => 120.0,
                    _ => r.gen_range(1.0f64..=1e3),
                })
                .collect();
            let nf = r.gen_range(0usize..=40);
            let paths: Vec<Vec<u32>> = (0..nf)
                .map(|_| {
                    // Paths inside one of a few link bands, so instances
                    // split into several components.
                    let band = r.gen_range(0usize..=3);
                    let len = r.gen_range(0usize..=4);
                    let mut p: Vec<u32> = (0..len)
                        .map(|_| ((band * nl / 4 + r.gen_range(0usize..=nl / 4)) % nl) as u32)
                        .collect();
                    p.sort_unstable();
                    p.dedup();
                    p
                })
                .collect();
            let flows: Vec<SolverFlow> = paths
                .iter()
                .map(|p| SolverFlow {
                    path: p,
                    cap: match r.gen_range(0u64..=5) {
                        0 => 30.0,
                        1 => 40.0,
                        2 => r.gen_range(1.0f64..=500.0),
                        _ => f64::INFINITY,
                    },
                })
                .collect();
            let (want, want_sat) = reference_solve(&caps, &flows);
            solver.solve(&caps, &flows, &mut out);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want), "case {case}: rates");
            let sat: Vec<bool> = (0..nl as u32).map(|l| solver.link_saturated(l)).collect();
            assert_eq!(sat, want_sat, "case {case}: saturated links");
        }
    }

    #[test]
    fn single_flow_takes_link() {
        let rates = allocate(
            &[100.0],
            &[SolverFlow {
                path: &[0],
                cap: f64::INFINITY,
            }],
        );
        assert!(close(rates[0], 100.0));
    }

    #[test]
    fn equal_split_on_shared_link() {
        let f = SolverFlow {
            path: &[0],
            cap: f64::INFINITY,
        };
        let rates = allocate(&[90.0], &[f.clone(), f.clone(), f]);
        for r in rates {
            assert!(close(r, 30.0));
        }
    }

    #[test]
    fn window_cap_binds_before_link() {
        // One capped flow and one open flow share a 100-unit link: the
        // capped flow gets its cap, the open flow gets the rest.
        let rates = allocate(
            &[100.0],
            &[
                SolverFlow {
                    path: &[0],
                    cap: 10.0,
                },
                SolverFlow {
                    path: &[0],
                    cap: f64::INFINITY,
                },
            ],
        );
        assert!(close(rates[0], 10.0));
        assert!(close(rates[1], 90.0));
    }

    #[test]
    fn classic_max_min_three_flows_two_links() {
        // Link0 cap 10 shared by f0 and f2; link1 cap 100 shared by f1, f2.
        // f0 = f2 = 5 (bottleneck link0), f1 = 95.
        let rates = allocate(
            &[10.0, 100.0],
            &[
                SolverFlow {
                    path: &[0],
                    cap: f64::INFINITY,
                },
                SolverFlow {
                    path: &[1],
                    cap: f64::INFINITY,
                },
                SolverFlow {
                    path: &[0, 1],
                    cap: f64::INFINITY,
                },
            ],
        );
        assert!(close(rates[0], 5.0));
        assert!(close(rates[1], 95.0));
        assert!(close(rates[2], 5.0));
    }

    #[test]
    fn empty_path_uncapped_flow_is_infinite() {
        let rates = allocate(
            &[10.0],
            &[SolverFlow {
                path: &[],
                cap: f64::INFINITY,
            }],
        );
        assert!(rates[0].is_infinite());
    }

    #[test]
    fn empty_path_capped_flow_gets_cap() {
        let rates = allocate(
            &[],
            &[SolverFlow {
                path: &[],
                cap: 42.0,
            }],
        );
        assert!(close(rates[0], 42.0));
    }

    #[test]
    fn no_flows() {
        assert!(allocate(&[10.0], &[]).is_empty());
    }

    #[test]
    fn conservation_and_capacity_respected() {
        // Randomized-ish topology checked for feasibility invariants.
        let caps = [50.0, 80.0, 20.0, 100.0];
        let paths: Vec<Vec<u32>> = vec![
            vec![0, 1],
            vec![1, 2],
            vec![0, 2, 3],
            vec![3],
            vec![0],
            vec![2],
        ];
        let flows: Vec<SolverFlow> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| SolverFlow {
                path: p,
                cap: if i % 2 == 0 { 15.0 } else { f64::INFINITY },
            })
            .collect();
        let rates = allocate(&caps, &flows);
        // No link over capacity.
        for (l, &c) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.path.contains(&(l as u32)))
                .map(|(_, r)| r)
                .sum();
            assert!(used <= c + 1e-6, "link {l} over capacity: {used} > {c}");
        }
        // No flow over its cap.
        for (f, r) in flows.iter().zip(&rates) {
            assert!(*r <= f.cap + 1e-6);
        }
        // Every flow got something positive.
        for r in &rates {
            assert!(*r > 0.0);
        }
    }

    #[test]
    fn bottleneck_flow_does_not_starve_parallel_flows() {
        // The paper's SC'04 setup: three parallel 10 Gb/s links. Flows pinned
        // to distinct links must each saturate their own link.
        let caps = [10.0, 10.0, 10.0];
        let flows = [
            SolverFlow {
                path: &[0u32][..],
                cap: f64::INFINITY,
            },
            SolverFlow {
                path: &[1u32][..],
                cap: f64::INFINITY,
            },
            SolverFlow {
                path: &[2u32][..],
                cap: f64::INFINITY,
            },
        ];
        let rates = allocate(&caps, &flows);
        let agg: f64 = rates.iter().sum();
        assert!(close(agg, 30.0));
    }

    #[test]
    fn cap_frozen_rate_is_exact() {
        // The network layer's fast paths rely on cap-frozen flows getting
        // their cap bit-for-bit, not cap ± epsilon.
        let cap = 123.456_789_012_345;
        let rates = allocate(
            &[1_000.0],
            &[
                SolverFlow {
                    path: &[0],
                    cap,
                },
                SolverFlow {
                    path: &[0],
                    cap: f64::INFINITY,
                },
            ],
        );
        assert_eq!(rates[0], cap);
        assert!(close(rates[1], 1_000.0 - cap));
    }

    #[test]
    fn down_link_zeroes_crossing_flows_only() {
        // A zero-capacity (down) link stalls its flows at exactly 0 without
        // affecting a disjoint component.
        let rates = allocate(
            &[0.0, 50.0],
            &[
                SolverFlow {
                    path: &[0],
                    cap: f64::INFINITY,
                },
                SolverFlow {
                    path: &[1],
                    cap: f64::INFINITY,
                },
            ],
        );
        assert_eq!(rates[0], 0.0);
        assert!(close(rates[1], 50.0));
    }

    #[test]
    fn components_solve_independently() {
        // Two disjoint components in one call must match two separate calls
        // bit-for-bit: the incremental network layer depends on this.
        let caps = [10.0, 100.0, 7.0, 33.0];
        let a = vec![vec![0u32], vec![0, 1], vec![1]];
        let b = vec![vec![2u32, 3], vec![3]];
        let mk = |paths: &[Vec<u32>], cap0: f64| -> Vec<f64> {
            let flows: Vec<SolverFlow> = paths
                .iter()
                .enumerate()
                .map(|(i, p)| SolverFlow {
                    path: p,
                    cap: if i == 0 { cap0 } else { f64::INFINITY },
                })
                .collect();
            allocate(&caps, &flows)
        };
        let joint = {
            let paths: Vec<Vec<u32>> = a.iter().chain(b.iter()).cloned().collect();
            let flows: Vec<SolverFlow> = paths
                .iter()
                .enumerate()
                .map(|(i, p)| SolverFlow {
                    path: p,
                    cap: if i == 0 || i == 3 { 4.25 } else { f64::INFINITY },
                })
                .collect();
            allocate(&caps, &flows)
        };
        let solo_a = mk(&a, 4.25);
        let solo_b = mk(&b, 4.25);
        assert_eq!(&joint[..3], &solo_a[..]);
        assert_eq!(&joint[3..], &solo_b[..]);
    }

    #[test]
    fn solver_reuse_matches_fresh() {
        // A warmed-up solver (dirty scratch from an unrelated solve) must
        // produce identical bits to a fresh one.
        let caps = [50.0, 80.0, 20.0, 100.0];
        let paths: Vec<Vec<u32>> =
            vec![vec![0, 1], vec![1, 2], vec![0, 2, 3], vec![3], vec![0]];
        let flows: Vec<SolverFlow> = paths
            .iter()
            .enumerate()
            .map(|(i, p)| SolverFlow {
                path: p,
                cap: if i % 2 == 0 { 15.0 } else { f64::INFINITY },
            })
            .collect();
        let fresh = allocate(&caps, &flows);
        let mut solver = Solver::new();
        let mut out = Vec::new();
        // Pollute scratch with a different problem first.
        solver.solve(&[5.0, 5.0, 5.0, 5.0], &flows[..2], &mut out);
        solver.solve(&caps, &flows, &mut out);
        assert_eq!(fresh, out);
    }
}
