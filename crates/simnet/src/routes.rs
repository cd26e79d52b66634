//! The route table: shortest paths computed once per source over an
//! immutable [`Topology`].
//!
//! The first lookup from a source runs Dijkstra to the end
//! (`Topology::shortest_path_tree`) and keeps that source's tree. Later
//! lookups from the same source walk the tree once per destination and
//! memoise the pair's path, one-way delay and minimum capacity. Routes are
//! link-for-link those of [`Topology::route`].
//!
//! The table caches topology only, never link health: callers check
//! up/down and degradation on every use.

use crate::topology::{LinkId, NodeId, Topology};
use simcore::{FxHashMap, SimDuration};
use std::collections::hash_map::Entry;
use std::rc::Rc;

/// A memoised shortest path.
#[derive(Clone, Debug)]
pub struct Route {
    /// Directed links from source to destination (empty when they coincide).
    pub path: Rc<[LinkId]>,
    /// One-way propagation delay along `path`.
    pub delay: SimDuration,
    /// Minimum nominal capacity along `path` in bytes/sec;
    /// `f64::INFINITY` for an empty path.
    pub capacity: f64,
}

/// Lazily filled per-source route table.
pub(crate) struct RouteTable {
    /// Predecessor link of every node in each source's shortest-path tree
    /// (`NO_LINK` for the source itself and for nodes it cannot reach),
    /// indexed by source node; `None` until the first lookup from it.
    trees: Vec<Option<Box<[u32]>>>,
    /// Memoised routes by `(src, dst)`. Only pairs actually looked up are
    /// kept: most nodes talk to a handful of servers.
    routes: FxHashMap<(u32, u32), Route>,
}

impl RouteTable {
    /// An empty table for a topology of `nodes` nodes.
    pub(crate) fn new(nodes: usize) -> Self {
        RouteTable {
            trees: vec![None; nodes],
            routes: FxHashMap::default(),
        }
    }

    /// The route from `src` to `dst` over `topo` (the topology the table
    /// was sized for), or `None` if `dst` is unreachable.
    pub(crate) fn lookup(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<&Route> {
        match self.routes.entry((src.0, dst.0)) {
            Entry::Occupied(e) => Some(e.into_mut()),
            Entry::Vacant(e) => {
                let pred = self.trees[src.0 as usize]
                    .get_or_insert_with(|| topo.shortest_path_tree(src, None).into());
                let path = topo.tree_path(pred, src, dst)?;
                Some(e.insert(Route {
                    delay: topo.path_delay(&path),
                    capacity: topo.path_capacity(&path),
                    path: path.into(),
                }))
            }
        }
    }
}
