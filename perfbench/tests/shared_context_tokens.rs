//! A reader on one mount context must see the bytes another context wrote
//! once that write has completed — the byte-range token contract.
//!
//! Closing a handle on a shared (fan-in) mount context releases every token
//! the context holds on the inode, even while another session of the same
//! context has a write between its token grant and the merge of its data
//! into the page pool. A reader on a second context then acquires its read
//! token without any revocation, fetches the allocated but never-flushed
//! block, and sees zeros where the write put data. `meta_storm` reads back
//! only through the writing handle for this reason; this test reproduces
//! the race and is ignored until the release path respects in-flight
//! writes of sibling sessions.

use bytes::Bytes;
use gfs::session::Session;
use gfs::types::{OpenFlags, Owner};
use gfs::world::GfsWorld;
use gfs_auth::handshake::AccessMode;
use scenarios::builder::{pattern_bytes, NsdFarm, ScenarioBuilder};
use simcore::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Run the race with the sibling close `delay_us` after the write starts;
/// returns what the other context read once the write had completed.
fn race(delay_us: u64) -> Option<Bytes> {
    let mut sb = ScenarioBuilder::new(5);
    sb.nsd_farm("site", NsdFarm::new("d", 2).block_size(4096).stored_data());
    let s = sb.sessions("site", 4, 2);
    let (s1, s2, r) = (s[0], s[1], s[2]);
    let run = sb.run(SimTime::from_secs(1));
    let (mut sim, mut w) = (run.sim, run.world);
    sim.set_horizon(SimTime::from_secs(1000));
    s1.mount(&mut sim, &mut w, "d", AccessMode::ReadWrite, |_, _, r| {
        r.expect("mount")
    });
    r.mount(&mut sim, &mut w, "d", AccessMode::ReadWrite, |_, _, r| {
        r.expect("mount")
    });
    sim.run(&mut w);
    s2.bind_device(&mut w, "d");
    w.fss[0]
        .core
        .create_file("/f", Owner::local(0, 0), 0)
        .expect("create");
    let handles = Rc::new(RefCell::new(Vec::new()));
    for sess in [s1, s2] {
        let hs = handles.clone();
        sess.open(
            &mut sim,
            &mut w,
            "/f",
            OpenFlags::Write,
            Owner::local(0, 0),
            move |_, _, r| hs.borrow_mut().push(r.expect("open")),
        );
    }
    sim.run(&mut w);
    let (h1, h2) = (handles.borrow()[0], handles.borrow()[1]);
    let got: Rc<RefCell<Option<Bytes>>> = Rc::new(RefCell::new(None));
    let g = got.clone();
    s2.write(
        &mut sim,
        &mut w,
        h2,
        0,
        pattern_bytes(0, 4096),
        move |sim, w, res| {
            res.expect("write");
            read_from(sim, w, r, g);
        },
    );
    sim.after(SimDuration::from_micros(delay_us), move |sim, w| {
        s1.close(sim, w, h1, |_, _, r| r.expect("close"));
    });
    sim.run(&mut w);
    let out = got.borrow().clone();
    out
}

fn read_from(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    r: Session,
    got: Rc<RefCell<Option<Bytes>>>,
) {
    r.open(
        sim,
        w,
        "/f",
        OpenFlags::Read,
        Owner::local(0, 0),
        move |sim, w, res| {
            let h = res.expect("reader open");
            r.read(sim, w, h, 0, 4096, move |_, _, res| {
                *got.borrow_mut() = Some(res.expect("read"));
            });
        },
    );
}

#[test]
#[ignore = "reproduces a shared-context token-release race in gfs"]
fn completed_write_is_visible_to_another_context() {
    let want = pattern_bytes(0, 4096);
    for delay_us in (0..3000).step_by(50) {
        let got = race(delay_us).expect("reader finished");
        assert!(
            got.is_empty() || got == want,
            "sibling close {delay_us} us into the write: reader saw {} bytes, {} of them zero",
            got.len(),
            got.iter().filter(|b| **b == 0).count()
        );
    }
}
