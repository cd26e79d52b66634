//! Host-time spans for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around its calls
//! into each layer: setup calls, every `Session` call, every `Sim::step`
//! (with the driver's callbacks nested inside) and the verification passes.
//! They are aggregated per name — count, total and self time — in memory and
//! printed when the run ends. With tracing off a span is one thread-local
//! flag check, so the untraced run that gives the end-to-end figures pays
//! nothing measurable for them.

use crate::ledger::Kind;
use std::cell::{Cell, RefCell};
use std::time::Instant;

/// World build through `ScenarioBuilder::run`.
pub const BUILD: usize = 0;
/// Tree pre-population straight on `FsCore` (`mkdir`/`create_file`).
pub const POPULATE: usize = 1;
/// Mounts, device binds, lease acquisition and their event drains.
pub const MOUNT: usize = 2;
/// One `Sim::step` of the event loop.
pub const STEP: usize = 3;
/// A driver completion callback (the generator's own logic plus any
/// `Session` call it issues, which nests as its own span).
pub const CALLBACK: usize = 4;
/// Per-step counter sampling of the traced run (peaks, WAN integration),
/// nested inside the step's span.
pub const SAMPLE: usize = 5;
/// `gfs::fsck::fsck_instance` over every filesystem.
pub const FSCK: usize = 6;
/// `scenarios::chaos::world_invariants`.
pub const INVARIANTS: usize = 7;
/// The `gfs::oracle::ModelFs` differential.
pub const ORACLE: usize = 8;
/// Driver bookkeeping outside the event loop (launching chains, phase
/// switches, replica installs done by the benchmark).
pub const DRIVER: usize = 9;
/// First span id of the per-kind `Session` call spans.
const ISSUE_BASE: usize = 10;
const COUNT: usize = ISSUE_BASE + Kind::ALL.len();

const NAMES: [&str; ISSUE_BASE] = [
    "scenarios.build",
    "gfs.fscore.populate",
    "gfs.session.mount",
    "simcore.step",
    "bench.callback",
    "bench.sample",
    "gfs.fsck",
    "scenarios.chaos.invariants",
    "gfs.oracle.diff",
    "bench.driver",
];

/// Span id of a `Session` call of `kind`.
pub fn issue(kind: Kind) -> usize {
    ISSUE_BASE + kind as usize
}

/// Display name of span `id`.
pub fn name(id: usize) -> String {
    if id < ISSUE_BASE {
        NAMES[id].to_string()
    } else {
        format!("gfs.session.{}", Kind::ALL[id - ISSUE_BASE].name())
    }
}

/// Aggregate of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed duration, children included.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans.
    pub self_ns: u64,
}

struct Open {
    id: usize,
    start: Instant,
    child_ns: u64,
}

struct Tracer {
    stack: Vec<Open>,
    agg: [Agg; COUNT],
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = const {
        RefCell::new(Tracer { stack: Vec::new(), agg: [Agg { count: 0, total_ns: 0, self_ns: 0 }; COUNT] })
    };
}

/// Is span recording on for this thread?
#[inline]
pub fn on() -> bool {
    ON.with(Cell::get)
}

/// Switch recording on (clearing earlier aggregates) or off.
pub fn set(enabled: bool) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "spans switched while a span is open");
        t.agg = [Agg::default(); COUNT];
    });
    ON.with(|c| c.set(enabled));
}

/// Run `f` inside span `id`.
#[inline]
pub fn span<R>(id: usize, f: impl FnOnce() -> R) -> R {
    if !on() {
        return f();
    }
    TRACER.with(|t| {
        t.borrow_mut().stack.push(Open {
            id,
            start: Instant::now(),
            child_ns: 0,
        })
    });
    let r = f();
    let end = Instant::now();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let open = t.stack.pop().expect("span stack underflow");
        debug_assert_eq!(open.id, id, "spans closed out of order");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let a = &mut t.agg[open.id];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = t.stack.last_mut() {
            parent.child_ns += dur;
        }
    });
    r
}

/// The aggregates recorded since the last [`set`], by span id.
pub fn snapshot() -> Vec<(usize, Agg)> {
    TRACER.with(|t| {
        let t = t.borrow();
        (0..COUNT).map(|i| (i, t.agg[i])).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        set(false);
        span(STEP, || ());
        assert!(snapshot().iter().all(|(_, a)| a.count == 0));
        set(true);
        span(STEP, || {
            span(CALLBACK, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let s = snapshot();
        set(false);
        let (step, cb) = (s[STEP].1, s[CALLBACK].1);
        assert_eq!((step.count, cb.count), (1, 1));
        assert!(cb.total_ns >= 2_000_000);
        assert_eq!(step.self_ns, step.total_ns - cb.total_ns);
        assert_eq!(name(issue(Kind::Rename)), "gfs.session.rename");
    }
}
