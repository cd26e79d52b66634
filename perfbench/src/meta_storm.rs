//! `meta_storm`: the partitioned flyweight-session metadata storm.
//!
//! One site, one NSD farm whose namespace is split over four manager
//! shards, and a tree pre-populated straight on `FsCore`. 32 mount contexts
//! on the site switch, as in `scenarios::metadata_storm` but each with a
//! link delay the seed draws inside [`harness::CLIENT_LINK_NS`], carry 400
//! flyweight sessions each; the first 16 contexts hold writeback
//! subtree leases on private tops and send three in four of their ops
//! there. Every session runs a closed loop over its own seeded script — a
//! uniform mix of mkdir, open-create, stat, readdir, unlink, small write and
//! rename (always across tops, so across shards) — while a live
//! `maybe_rebalance` tick runs every 100 ms of modeled time. Misses and
//! collisions (`NotFound`, `AlreadyExists`) are race outcomes, not failures.
//!
//! The small write is real I/O only for the first few sessions of each
//! context (open, write, fsync, read back through the same handle, close,
//! the bytes checked); for the rest it is an open-create, as in the
//! repository's own scaled storm. Thousands of concurrent flushes would turn
//! the workload into a flow-solver benchmark, which `wan_io` already is.
//! The read-back goes through the writing handle because a reader on
//! another context can see zeros after a completed write; see
//! `tests/shared_context_tokens.rs`.

use crate::call;
use crate::harness::{self, drive, Probe, Rep, Snap};
use crate::ledger::{hash_str, mix, Kind, Led};
use crate::spans::{self, span};
use gfs::session::Session;
use gfs::types::{FsError, FsId, OpenFlags, Owner};
use gfs::world::GfsWorld;
use gfs_auth::handshake::AccessMode;
use rand::Rng;
use scenarios::builder::{pattern_bytes, NsdFarm, ScenarioBuilder};
use simcore::{det_rng, Sim, SimDuration, SimTime};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Storm shape.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    /// Mount contexts (shared by their sessions).
    pub contexts: u32,
    /// Flyweight sessions per context.
    pub per_ctx: u32,
    /// Contexts holding a writeback lease on a private top `/wNN`.
    pub leased: u32,
    /// Sessions per context whose small writes do real I/O.
    pub data_sessions: u32,
    /// Calls each session issues (its script stops at the first op that
    /// reaches this count).
    pub calls_per_session: u32,
    /// Shared tops `/tNN`.
    pub tops: u32,
    /// Subdirectories per top.
    pub subs: u32,
    /// Files pre-created per subdirectory.
    pub files: u32,
    /// Live rebalance cadence (modeled ms).
    pub rebalance_ms: u64,
}

/// Manager shards.
const MANAGERS: u32 = 4;
/// Bytes of a small write, and the block size.
const WRITE_BYTES: u64 = 4096;

impl Cfg {
    /// The benchmark size: 12,800 sessions, about 1.3M calls.
    pub fn full() -> Cfg {
        Cfg {
            contexts: 32,
            per_ctx: 400,
            leased: 16,
            data_sessions: 4,
            calls_per_session: 100,
            tops: 8,
            subs: 8,
            files: 64,
            rebalance_ms: 100,
        }
    }

    /// A size for self-tests.
    pub fn tiny() -> Cfg {
        Cfg {
            contexts: 4,
            per_ctx: 8,
            leased: 2,
            data_sessions: 2,
            calls_per_session: 24,
            tops: 4,
            subs: 2,
            files: 8,
            rebalance_ms: 5,
        }
    }
}

/// A file coordinate: top (`< 128` is `/tNN`, `≥ 128` is `/w{top-128}`),
/// subdirectory and file index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct F {
    top: u8,
    sub: u8,
    file: u16,
}

impl F {
    fn top_path(self) -> String {
        if self.top >= 128 {
            format!("/w{:02}", self.top - 128)
        } else {
            format!("/t{:02}", self.top)
        }
    }
    fn dir(self) -> String {
        format!("{}/s{:02}", self.top_path(), self.sub)
    }
    fn path(self) -> String {
        format!("{}/s{:02}/f{:04}", self.top_path(), self.sub, self.file)
    }
}

/// One scripted operation; the comment gives its calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// mkdir `{dir}/d{n}`.
    Mkdir(F, u8),
    /// open(Write) + close.
    Create(F),
    /// stat.
    Stat(F),
    /// readdir of the file's directory.
    Readdir(F),
    /// unlink.
    Unlink(F),
    /// open(ReadWrite) + write + fsync + read back + close, bytes checked.
    Write(F),
    /// rename to a file under another shared top.
    Rename(F, F),
}

impl Op {
    fn calls(self) -> u32 {
        match self {
            Op::Create(_) => 2,
            Op::Write(_) => 5,
            _ => 1,
        }
    }
}

/// The generated inputs: one script per session.
pub struct Input {
    pub cfg: Cfg,
    pub seed: u64,
    /// Link delay (ns) of each mount context, drawn per leased and
    /// unleased group.
    pub ctx_delays_ns: Vec<u64>,
    pub scripts: Vec<Rc<[Op]>>,
    pub fp: u64,
}

/// Generate every session's script from `seed`.
pub fn generate(cfg: Cfg, seed: u64) -> Input {
    let sessions = cfg.contexts * cfg.per_ctx;
    let mut scripts = Vec::with_capacity(sessions as usize);
    let mut fp = mix(0, seed);
    let leased_group: Vec<usize> = (0..cfg.contexts)
        .map(|gi| usize::from(gi < cfg.leased))
        .collect();
    let ctx_delays_ns =
        harness::client_link_delays(&mut det_rng(seed, "meta-storm-links"), &leased_group);
    for d in &ctx_delays_ns {
        fp = mix(fp, *d);
    }
    for si in 0..sessions {
        let gi = si / cfg.per_ctx;
        let leased = gi < cfg.leased.min(cfg.contexts);
        let data = si % cfg.per_ctx < cfg.data_sessions;
        let mut rng = det_rng(seed, &format!("meta-storm-{si}"));
        let pick = |rng: &mut rand::rngs::StdRng, private: bool| F {
            top: if private {
                128 + gi as u8
            } else {
                (rng.gen::<u32>() % cfg.tops) as u8
            },
            sub: (rng.gen::<u32>() % cfg.subs) as u8,
            // Widened past the populated range so probes miss sometimes and
            // creates find fresh names sometimes.
            file: (rng.gen::<u32>() % (cfg.files + cfg.files / 4 + 1)) as u16,
        };
        let mut ops = Vec::new();
        let mut calls = 0;
        while calls < cfg.calls_per_session {
            let private = leased && rng.gen::<u32>() % 4 != 0;
            let f = pick(&mut rng, private);
            let op = match rng.gen::<u32>() % 7 {
                0 => Op::Mkdir(f, (rng.gen::<u32>() % 8) as u8),
                1 => Op::Create(f),
                2 => Op::Stat(f),
                3 => Op::Readdir(f),
                4 => Op::Unlink(f),
                5 if data => Op::Write(f),
                5 => Op::Create(f),
                _ => {
                    let mut to = pick(&mut rng, false);
                    if to.top == f.top {
                        to.top = ((u32::from(to.top) + 1) % cfg.tops) as u8;
                    }
                    Op::Rename(f, to)
                }
            };
            calls += op.calls();
            fp = hash_str(mix(fp, u64::from(si)), &format!("{op:?}"));
            ops.push(op);
        }
        scripts.push(ops.into());
    }
    Input {
        cfg,
        seed,
        ctx_delays_ns,
        scripts,
        fp,
    }
}

/// State shared by every chain of one repetition.
struct Storm {
    led: Led,
    scripts: Vec<Rc<[Op]>>,
    sessions: Vec<Session>,
    /// Chains still running per leased group (surrender fires at zero).
    group_left: Vec<Cell<u32>>,
    leased: u32,
    per_ctx: u32,
    running: Cell<u32>,
    pattern: bytes::Bytes,
}

/// Race outcomes of the storm: not failures.
fn race_ok<T>(r: &Result<T, FsError>) -> bool {
    matches!(
        r,
        Ok(_) | Err(FsError::NotFound(_)) | Err(FsError::AlreadyExists(_))
    )
}

/// Count an error that is neither a race outcome nor already counted as
/// giving up.
fn check<T>(st: &Storm, kind: Kind, r: &Result<T, FsError>) {
    if let Err(e) = r {
        if !race_ok(r) && !crate::ledger::gave_up(e) {
            st.led.fail(format!("{}: unexpected {e:?}", kind.name()));
        }
    }
}

fn next(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, st: Rc<Storm>, si: usize, idx: usize) {
    let Some(op) = st.scripts[si].get(idx).copied() else {
        finish(sim, w, st, si);
        return;
    };
    let sess = st.sessions[si];
    let cont = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, st: Rc<Storm>| {
        next(sim, w, st, si, idx + 1)
    };
    let led = st.led.clone();
    let owner = Owner::local(0, 0);
    match op {
        Op::Mkdir(f, n) => {
            let p = format!("{}/d{n}", f.dir());
            call!(
                led,
                sim,
                Kind::Mkdir,
                move |sim, w, r| {
                    check(&st, Kind::Mkdir, &r);
                    cont(sim, w, st)
                },
                |cb| sess.mkdir(sim, w, &p, owner, cb)
            );
        }
        Op::Stat(f) => {
            let p = f.path();
            call!(
                led,
                sim,
                Kind::Stat,
                move |sim, w, r| {
                    check(&st, Kind::Stat, &r);
                    cont(sim, w, st)
                },
                |cb| sess.stat(sim, w, &p, cb)
            );
        }
        Op::Readdir(f) => {
            let p = f.dir();
            call!(
                led,
                sim,
                Kind::Readdir,
                move |sim, w, r| {
                    check(&st, Kind::Readdir, &r);
                    cont(sim, w, st)
                },
                |cb| sess.readdir(sim, w, &p, cb)
            );
        }
        Op::Unlink(f) => {
            let p = f.path();
            call!(
                led,
                sim,
                Kind::Unlink,
                move |sim, w, r| {
                    check(&st, Kind::Unlink, &r);
                    cont(sim, w, st)
                },
                |cb| sess.unlink(sim, w, &p, cb)
            );
        }
        Op::Rename(f, to) => {
            let (p, q) = (f.path(), to.path());
            call!(
                led,
                sim,
                Kind::Rename,
                move |sim, w, r| {
                    check(&st, Kind::Rename, &r);
                    cont(sim, w, st)
                },
                |cb| sess.rename(sim, w, &p, &q, cb)
            );
        }
        Op::Create(f) | Op::Write(f) => {
            let p = f.path();
            let flags = if matches!(op, Op::Write(_)) {
                OpenFlags::ReadWrite
            } else {
                OpenFlags::Write
            };
            call!(
                led,
                sim,
                Kind::Open,
                move |sim, w, r| {
                    check(&st, Kind::Open, &r);
                    match r {
                        Ok(h) => match op {
                            Op::Write(_) => write_body(sim, w, st, sess, h, cont),
                            _ => close(sim, w, st, sess, h, cont),
                        },
                        Err(_) => cont(sim, w, st),
                    }
                },
                |cb| sess.open(sim, w, &p, flags, owner, cb)
            );
        }
    }
}

fn close(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    st: Rc<Storm>,
    sess: Session,
    h: gfs::types::Handle,
    cont: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Rc<Storm>) + 'static,
) {
    let led = st.led.clone();
    call!(
        led,
        sim,
        Kind::Close,
        move |sim, w, r| {
            check(&st, Kind::Close, &r);
            cont(sim, w, st)
        },
        |cb| sess.close(sim, w, h, cb)
    );
}

fn write_body(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    st: Rc<Storm>,
    sess: Session,
    h: gfs::types::Handle,
    cont: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Rc<Storm>) + 'static,
) {
    let led = st.led.clone();
    let data = st.pattern.clone();
    let n = data.len() as u64;
    call!(
        led,
        sim,
        Kind::Write,
        move |sim, w, r| {
            check(&st, Kind::Write, &r);
            if r.is_ok() {
                st.led.wrote_bytes(n);
            }
            let led = st.led.clone();
            call!(
                led,
                sim,
                Kind::Fsync,
                move |sim, w, r| {
                    check(&st, Kind::Fsync, &r);
                    read_body(sim, w, st, sess, h, cont)
                },
                |cb| sess.fsync(sim, w, h, cb)
            );
        },
        |cb| sess.write(sim, w, h, 0, data, cb)
    );
}

fn read_body(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    st: Rc<Storm>,
    sess: Session,
    h: gfs::types::Handle,
    cont: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Rc<Storm>) + 'static,
) {
    let led = st.led.clone();
    let n = st.pattern.len() as u64;
    call!(
        led,
        sim,
        Kind::Read,
        move |sim, w, r: Result<bytes::Bytes, FsError>| {
            check(&st, Kind::Read, &r);
            if let Ok(got) = &r {
                st.led.read_bytes(got.len() as u64);
                // Every writer writes the same pattern at offset 0, so any
                // interleaving of writers, creates and renames leaves a prefix
                // of it (empty once another session recreated the name).
                if got.as_ref() != &st.pattern[..got.len().min(st.pattern.len())]
                    || got.len() > st.pattern.len()
                {
                    st.led
                        .fail(format!("read: {} bytes not the written pattern", got.len()));
                }
            }
            close(sim, w, st, sess, h, cont)
        },
        |cb| sess.read(sim, w, h, 0, n, cb)
    );
}

fn finish(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, st: Rc<Storm>, si: usize) {
    st.running.set(st.running.get() - 1);
    let gi = si / st.per_ctx as usize;
    if gi >= st.leased as usize {
        return;
    }
    let left = &st.group_left[gi];
    left.set(left.get() - 1);
    if left.get() == 0 {
        // The group's last chain drained: surrender the lease, replaying
        // the writeback journal to the manager. The run waits for it.
        let holder = st.sessions[gi * st.per_ctx as usize];
        let led = st.led.clone();
        holder.surrender_lease(sim, w, &format!("/w{gi:02}"), move |sim, _w, r| {
            if let Err(e) = r {
                led.fail(format!("lease surrender: {e:?}"));
            }
            led.done_at(sim.now());
        });
    }
}

fn schedule_rebalance(sim: &mut Sim<GfsWorld>, fs: FsId, every: SimDuration, st: Rc<Storm>) {
    sim.after(every, move |sim, w| {
        if st.running.get() == 0 {
            return;
        }
        gfs::client::maybe_rebalance(sim, w, fs);
        schedule_rebalance(sim, fs, every, st);
    });
}

/// A world ready for the first timed op.
struct World {
    sim: Sim<GfsWorld>,
    w: GfsWorld,
    fs: FsId,
    sessions: Vec<Session>,
    probe: Probe,
}

/// Build the world, populate the tree, mount every context and take the
/// leases; records the setup timings in `out`.
fn setup(input: &Input, out: &mut Rep) -> World {
    let cfg = input.cfg;
    let t_setup = Instant::now();
    let t_build = Instant::now();
    let (fs, sessions, run) = span(spans::BUILD, || {
        let mut sb = ScenarioBuilder::new(input.seed);
        let fs = sb.nsd_farm(
            "site",
            // Stored payloads so read-backs are checked byte for byte; one
            // small write fills one block, which keeps the store small.
            NsdFarm::new("meta", 4)
                .block_size(WRITE_BYTES)
                .stored_data()
                .managers(MANAGERS),
        );
        let sessions = harness::sessions_on(&mut sb, "site", &input.ctx_delays_ns, cfg.per_ctx);
        (fs, sessions, sb.run(SimTime::from_secs(1)))
    });
    out.build_s = harness::secs(t_build);
    let (mut sim, mut w) = (run.sim, run.world);
    let t_pop = Instant::now();
    out.populated = span(spans::POPULATE, || {
        populate(&mut w.fss[fs.0 as usize].core, &cfg)
    });
    out.populate_ns = t_pop.elapsed().as_nanos() as u64;
    sim.set_horizon(SimTime::from_secs(1_000_000));
    let mut probe = Probe::new(&w, &[]);
    span(spans::MOUNT, || {
        let failed = Rc::new(Cell::new(0u32));
        for group in sessions.chunks(cfg.per_ctx as usize) {
            let f = failed.clone();
            group[0].mount(
                &mut sim,
                &mut w,
                "meta",
                AccessMode::ReadWrite,
                move |_, _, r| f.set(f.get() + u32::from(r.is_err())),
            );
            for s in &group[1..] {
                s.bind_device(&mut w, "meta");
            }
        }
        drive(&mut sim, &mut w, &mut probe);
        for gi in 0..cfg.leased.min(cfg.contexts) {
            let f = failed.clone();
            let holder = sessions[(gi * cfg.per_ctx) as usize];
            holder.acquire_lease(&mut sim, &mut w, &format!("/w{gi:02}"), move |_, _, r| {
                f.set(f.get() + u32::from(r.is_err()))
            });
        }
        drive(&mut sim, &mut w, &mut probe);
        assert_eq!(failed.get(), 0, "meta_storm: mount or lease acquire failed");
    });
    out.setup_s = harness::secs(t_setup);
    World {
        sim,
        w,
        fs,
        sessions,
        probe,
    }
}

/// Host seconds of one setup alone.
pub fn setup_s(input: &Input) -> f64 {
    let mut out = Rep::default();
    setup(input, &mut out);
    out.setup_s
}

/// One repetition over a fresh world.
pub fn rep(input: &Input) -> Rep {
    let cfg = input.cfg;
    let t_rep = Instant::now();
    let mut out = Rep {
        input_fp: input.fp,
        ..Rep::default()
    };
    let World {
        mut sim,
        mut w,
        fs,
        sessions,
        mut probe,
    } = setup(input, &mut out);
    let (sim, w) = (&mut sim, &mut w);

    // ---- timed region ----
    let before = span(spans::DRIVER, || Snap::of(sim, w));
    let t_run = harness::Clock::start();
    let leased = cfg.leased.min(cfg.contexts);
    let st = Rc::new(Storm {
        led: Led::default(),
        scripts: input.scripts.clone(),
        sessions: sessions.clone(),
        group_left: (0..leased).map(|_| Cell::new(cfg.per_ctx)).collect(),
        leased,
        per_ctx: cfg.per_ctx,
        running: Cell::new(sessions.len() as u32),
        pattern: pattern_bytes(0, WRITE_BYTES),
    });
    span(spans::DRIVER, || {
        for si in 0..sessions.len() {
            next(sim, w, st.clone(), si, 0);
        }
        schedule_rebalance(
            sim,
            fs,
            SimDuration::from_millis(cfg.rebalance_ms),
            st.clone(),
        );
    });
    drive(sim, w, &mut probe);
    out.run_s = t_run.secs();
    out.counts = span(spans::DRIVER, || Snap::of(sim, w).since(&before));

    // ---- verification ----
    if st.running.get() != 0 {
        out.problems
            .push(format!("{} session chains did not drain", st.running.get()));
    }
    out.problems.extend(harness::verify_world(sim, w));
    out.probe = probe;
    out.ledger = std::mem::take(&mut *st.led.0.borrow_mut());
    out.wall_s = harness::secs(t_rep);
    out
}

/// Lay the tree down straight on the core: shared tops round-robin over
/// the shards, private lease tops all on shard 0 (a hotspot the rebalance
/// tick gets to move). Returns the entries created.
fn populate(core: &mut gfs::FsCore, cfg: &Cfg) -> u64 {
    let owner = Owner::local(0, 0);
    let mut n = 0;
    let mut top = |core: &mut gfs::FsCore, t: String| {
        core.mkdir(&t, owner.clone(), 0).expect("populate top");
        n += 1;
        for s in 0..cfg.subs {
            let d = format!("{t}/s{s:02}");
            core.mkdir(&d, owner.clone(), 0).expect("populate sub");
            n += 1;
            for f in 0..cfg.files {
                core.create_file(&format!("{d}/f{f:04}"), owner.clone(), 0)
                    .expect("populate file");
                n += 1;
            }
        }
    };
    for t in 0..cfg.tops {
        core.shards.assign(format!("t{t:02}"), t % MANAGERS);
        top(core, format!("/t{t:02}"));
    }
    for i in 0..cfg.leased.min(cfg.contexts) {
        core.shards.assign(format!("w{i:02}"), 0);
        top(core, format!("/w{i:02}"));
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_storm_runs_clean() {
        let r = rep(&generate(Cfg::tiny(), 7));
        eprintln!(
            "attempted {} failed {} failures {:?} problems {:?}",
            r.ledger.attempted, r.ledger.failed, r.ledger.failures, r.problems
        );
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        assert_eq!(r.ledger.failed, 0, "{:?}", r.ledger.failures);
        assert_eq!(r.ledger.completed, r.ledger.attempted);
    }
}
