//! Closed-loop benchmark of the globalfs stack.
//!
//! Three workloads — `meta_storm`, `wan_io` and `trace_mix` — build their
//! worlds through `scenarios::builder::ScenarioBuilder` and issue every
//! operation through `gfs::session::Session`, one call at a time per
//! session, on one thread. Each call's modeled latency, outcome and bytes
//! go into a [`ledger::Ledger`]; a traced run adds host-time spans around
//! the benchmark's own calls into each layer ([`spans`]).

pub mod harness;
pub mod ledger;
pub mod meta_storm;
pub mod report;
pub mod spans;
pub mod trace_mix;
pub mod wan_io;

/// Issue one tracked `Session` call: register it in the ledger (wrapping
/// its completion callback `$cb`) and run the issuing expression inside the
/// call kind's span, with the wrapped callback bound to `$k`.
#[macro_export]
macro_rules! call {
    ($led:expr, $sim:expr, $kind:expr, $cb:expr, |$k:ident| $issue:expr) => {{
        let $k = $led.track($sim, $kind, $cb);
        $crate::spans::span($crate::spans::issue($kind), || $issue)
    }};
}
