//! The network's route table against fresh Dijkstra runs on the paper's
//! topologies: for every ordered node pair, the table's path, one-way delay
//! and capacity must equal `Topology::route` plus `path_delay` /
//! `path_capacity`, whether the pair is looked up cold (first lookup of a
//! fresh table) or after its source's tree is warm.

use gfs::world::GfsWorld;
use scenarios::teragrid;
use scenarios::{NsdFarm, ScenarioBuilder};
use simcore::{Bandwidth, SimDuration, SimTime};
use simnet::{Network, NodeId, Topology, TopologyBuilder};

/// The table's route for one pair as `(path, delay, capacity)`.
type Looked = Option<(Vec<u32>, SimDuration, f64)>;

fn lookup(net: &mut Network<GfsWorld>, src: NodeId, dst: NodeId) -> Looked {
    net.route(src, dst)
        .map(|r| (r.path.iter().map(|l| l.0).collect(), r.delay, r.capacity))
}

fn reference(topo: &Topology, src: NodeId, dst: NodeId) -> Looked {
    topo.route(src, dst).map(|p| {
        (
            p.iter().map(|l| l.0).collect(),
            topo.path_delay(&p),
            topo.path_capacity(&p),
        )
    })
}

/// Check every ordered pair of `net`'s topology: cold on a fresh table per
/// pair, then warm on `net` itself (twice, so the second pass is memoised).
fn assert_table_matches(net: &mut Network<GfsWorld>) {
    let topo = net.topo().clone();
    let nodes: Vec<NodeId> = (0..topo.node_count() as u32).map(NodeId).collect();
    let mut reachable = 0;
    for &src in &nodes {
        for &dst in &nodes {
            let want = reference(&topo, src, dst);
            let mut fresh = Network::<GfsWorld>::new(topo.clone(), 1);
            assert_eq!(lookup(&mut fresh, src, dst), want, "cold {src:?}->{dst:?}");
            reachable += usize::from(want.is_some());
        }
    }
    assert_eq!(
        reachable,
        nodes.len() * nodes.len(),
        "topology is connected"
    );
    for _pass in 0..2 {
        for &dst in &nodes {
            for &src in &nodes {
                let want = reference(&topo, src, dst);
                assert_eq!(lookup(net, src, dst), want, "warm {src:?}->{dst:?}");
            }
        }
    }
}

#[test]
fn route_table_matches_dijkstra_on_teragrid() {
    let mut b = TopologyBuilder::new();
    teragrid::build(&mut b);
    let mut net = Network::<GfsWorld>::new(b.build(), 1);
    assert_table_matches(&mut net);
}

#[test]
fn route_table_matches_dijkstra_on_scenario_world() {
    let mut sb = ScenarioBuilder::new(11);
    let fs = sb.nsd_farm("home", NsdFarm::new("rt", 4));
    let ms = SimDuration::from_millis;
    sb.wan("home", "near", Bandwidth::gbit(10.0), ms(30), "wan-near");
    // A second, equal-delay lambda: an exact tie the search must break
    // the same way cold and warm.
    sb.wan("home", "near", Bandwidth::gbit(10.0), ms(30), "wan-near-b");
    sb.wan("home", "far", Bandwidth::gbit(10.0), ms(40), "wan-far");
    // A thin side path, so near<->far has two candidate routes.
    sb.wan("near", "far", Bandwidth::gbit(1.0), ms(25), "wan-side");
    let far = sb.site("far");
    let mirror: Vec<NodeId> = (0..2)
        .map(|k| {
            let name = format!("mirror-srv{k}");
            let topo = sb.world_builder().topo();
            let n = topo.node(name.clone());
            topo.duplex_link(
                n,
                far,
                Bandwidth::gbit(10.0),
                SimDuration::from_micros(50),
                name,
            );
            n
        })
        .collect();
    sb.clients(
        "near",
        3,
        Bandwidth::gbit(1.0),
        SimDuration::from_micros(100),
        64,
    );
    sb.sessions("far", 8, 4);
    let mut run = sb.run(SimTime::from_secs(1));
    let w = &mut run.world;
    w.fss[fs.0 as usize].replicas.attach_site(
        "mirror",
        mirror,
        2,
        1e9,
        SimDuration::from_micros(200),
    );
    assert!(w.net.topo().node_count() >= 14);
    assert_table_matches(&mut w.net);
}
