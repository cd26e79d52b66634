//! # simnet — flow-level wide-area network simulator
//!
//! Models the networks the paper's Global File Systems ran over: the
//! TeraGrid backbone, SciNet show-floor uplinks, site LANs, and (via
//! `simsan`) Fibre Channel fabrics — as a routed topology of directed
//! capacity links.
//!
//! Bulk data moves as **fluid flows** whose rates are re-solved to max-min
//! fairness (with TCP window caps) whenever the flow set changes; control
//! traffic moves as **messages** that experience latency but consume no
//! modeled bandwidth. See [`network::Network`] for the engine and
//! [`fairshare::allocate`] for the solver.

pub mod fairshare;
pub mod network;
pub mod routes;
pub mod topology;

pub use network::{FlowId, FlowSpec, NetWorld, Network};
pub use routes::Route;
pub use topology::{Link, LinkId, Node, NodeId, Topology, TopologyBuilder};
