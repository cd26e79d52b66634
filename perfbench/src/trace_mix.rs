//! `trace_mix`: small-file traces on the per-op path.
//!
//! Streams of the three `scenarios::trace::TraceCorpus` shapes
//! (untar-build, nvo-scan, enzo-checkpoint), a third of each, are generated
//! from the seed — each stream draws its place in the order, its scale and
//! its corpus seed — and placed under a
//! home directory of their own (`/sNNN`, laid down in setup), so streams
//! are namespace-disjoint. Every stream runs on its own heavyweight mount
//! context from `ScenarioBuilder::clients`: no fan-in, so every op takes
//! the per-op `ClientId` RPC path to the single manager. Each context's
//! link to the site switch has a delay the seed draws inside
//! [`harness::CLIENT_LINK_NS`], stratified per corpus shape. A trace
//! `Write` is open, write, fsync, close; a `Read` is open, read, close; a
//! `Create` is open, close. Think times are honoured.
//!
//! Each op's outcome is recorded in completion order and, after the timed
//! region, replayed against `gfs::oracle::ModelFs` and diffed: typed
//! outcomes, stat attributes, listings, read lengths and bytes, and the
//! final tree fingerprint.

use crate::call;
use crate::harness::{self, drive, Probe, Rep, Snap};
use crate::ledger::{err_code, hash_str, mix, Kind, Led};
use crate::spans::{self, span};
use bytes::Bytes;
use gfs::oracle::ModelFs;
use gfs::session::Session;
use gfs::types::{FsError, Handle, OpenFlags, Owner};
use gfs::world::GfsWorld;
use gfs_auth::handshake::AccessMode;
use rand::Rng;
use scenarios::builder::{pattern_bytes, NsdFarm, ScenarioBuilder};
use scenarios::trace::{TraceCorpus, TraceOp, TraceOpKind};
use simcore::{det_rng, Bandwidth, Sim, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    /// Streams, one mount context each.
    pub streams: u32,
    /// Scale ranges (inclusive) per shape: untar-build directories / 2,
    /// nvo-scan plates, enzo-checkpoint cycles / 3.
    pub untar_scale: (u32, u32),
    pub nvo_scale: (u32, u32),
    pub enzo_scale: (u32, u32),
}

/// Client page pool, in blocks.
const POOL_PAGES: usize = 16;

impl Cfg {
    /// The benchmark size.
    pub fn full() -> Cfg {
        Cfg {
            streams: 128,
            untar_scale: (4, 5),
            nvo_scale: (3, 4),
            enzo_scale: (4, 5),
        }
    }

    /// A size for self-tests.
    pub fn tiny() -> Cfg {
        Cfg {
            streams: 6,
            untar_scale: (1, 2),
            nvo_scale: (1, 2),
            enzo_scale: (1, 2),
        }
    }
}

const BLOCK: u64 = 64 * 1024;

/// The generated inputs.
pub struct Input {
    pub cfg: Cfg,
    pub seed: u64,
    /// One op list per stream, paths under the stream's home.
    pub streams: Vec<Rc<[TraceOp]>>,
    /// Link delay (ns) of each stream's mount context.
    pub delays_ns: Vec<u64>,
    /// Pattern every write takes its bytes from (`pattern_bytes(0, n)`
    /// prefixes, which is also what the corpora's replay writes).
    pub pattern: Bytes,
    pub fp: u64,
}

fn home(i: usize) -> String {
    format!("/s{i:03}")
}

/// Draw every stream's shape, scale and corpus seed.
pub fn generate(cfg: Cfg, seed: u64) -> Input {
    let mut rng = det_rng(seed, "trace-mix");
    let mut streams = Vec::new();
    let mut fp = mix(0, seed);
    let mut max_size = 0;
    // A third of the streams of each shape, in a seeded order, so seeds
    // vary the traces but not the mix.
    let mut order: Vec<TraceCorpus> = (0..cfg.streams as usize)
        .map(|i| TraceCorpus::ALL[i % 3])
        .collect();
    for i in (1..order.len()).rev() {
        order.swap(i, (rng.gen::<u64>() % (i as u64 + 1)) as usize);
    }
    let shape_of: Vec<usize> = order.iter().map(|c| *c as usize).collect();
    let delays_ns = harness::client_link_delays(&mut rng, &shape_of);
    for d in &delays_ns {
        fp = mix(fp, *d);
    }
    for (i, shape) in order.into_iter().enumerate() {
        let (lo, hi) = match shape {
            TraceCorpus::UntarBuild => cfg.untar_scale,
            TraceCorpus::NvoScan => cfg.nvo_scale,
            TraceCorpus::EnzoCheckpoint => cfg.enzo_scale,
        };
        let scale = lo + (rng.gen::<u32>() % (hi - lo + 1));
        let ops: Vec<TraceOp> = shape
            .generate(1, scale, rng.gen::<u64>())
            .into_iter()
            .map(|mut op| {
                op.path = format!("{}{}", home(i), op.path);
                op.path2 = op.path2.map(|p| format!("{}{p}", home(i)));
                op
            })
            .collect();
        for op in &ops {
            fp = mix(hash_str(fp, &op.path), op.kind as u64);
            fp = mix(mix(fp, op.size), op.think_ns);
            max_size = max_size.max(op.size);
        }
        streams.push(ops.into());
    }
    Input {
        cfg,
        seed,
        streams,
        delays_ns,
        pattern: pattern_bytes(0, max_size),
        fp,
    }
}

/// What one completed trace op returned, as the oracle diff needs it.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// mkdir, unlink, rename; create/write (open, then every later call);
    /// error codes from [`err_code`].
    Unit(Result<(), u64>),
    /// stat: size and directory flag.
    Attr(Result<(u64, bool), u64>),
    /// readdir: the listing.
    List(Result<Vec<String>, u64>),
    /// read: bytes returned, and whether they were the written pattern.
    Read(Result<(u64, bool), u64>),
}

fn code<T>(r: &Result<T, FsError>) -> Result<(), u64> {
    r.as_ref().map(|_| ()).map_err(err_code)
}

/// State shared by every stream of one repetition.
struct Run {
    led: Led,
    streams: Vec<Rc<[TraceOp]>>,
    pattern: Bytes,
    /// `(stream, op index, outcome)` in completion order.
    log: RefCell<Vec<(u32, u32, Outcome)>>,
    running: Cell<u32>,
}

impl Run {
    fn record(&self, s: usize, i: usize, o: Outcome) {
        self.log.borrow_mut().push((s as u32, i as u32, o));
    }
}

/// A world ready for the first timed op.
struct World {
    sim: Sim<GfsWorld>,
    w: GfsWorld,
    sessions: Vec<Session>,
    probe: Probe,
}

fn setup(input: &Input, out: &mut Rep) -> World {
    let t_setup = Instant::now();
    let t_build = Instant::now();
    let (fs, sessions, run) = span(spans::BUILD, || {
        let mut sb = ScenarioBuilder::new(input.seed);
        let fs = sb.nsd_farm(
            "site",
            NsdFarm::new("trace", 4).block_size(BLOCK).stored_data(),
        );
        let sessions: Vec<Session> = input
            .delays_ns
            .iter()
            .flat_map(|d| {
                sb.clients(
                    "site",
                    1,
                    Bandwidth::gbit(1.0),
                    SimDuration::from_nanos(*d),
                    POOL_PAGES,
                )
            })
            .collect();
        (fs, sessions, sb.run(SimTime::from_secs(1)))
    });
    out.build_s = harness::secs(t_build);
    let (mut sim, mut w) = (run.sim, run.world);
    let t_pop = Instant::now();
    out.populated = span(spans::POPULATE, || {
        let core = &mut w.fss[fs.0 as usize].core;
        for i in 0..sessions.len() {
            core.mkdir(&home(i), Owner::local(0, 0), 0)
                .expect("populate home");
        }
        sessions.len() as u64
    });
    out.populate_ns = t_pop.elapsed().as_nanos() as u64;
    let mut probe = span(spans::DRIVER, || {
        sim.set_horizon(SimTime::from_secs(1_000_000));
        Probe::new(&w, &[])
    });
    span(spans::MOUNT, || {
        let failed = Rc::new(Cell::new(0u32));
        for s in &sessions {
            let f = failed.clone();
            s.mount(
                &mut sim,
                &mut w,
                "trace",
                AccessMode::ReadWrite,
                move |_, _, r| f.set(f.get() + u32::from(r.is_err())),
            );
        }
        drive(&mut sim, &mut w, &mut probe);
        assert_eq!(failed.get(), 0, "trace_mix: mount failed");
    });
    out.setup_s = harness::secs(t_setup);
    World {
        sim,
        w,
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

/// Issue op `i` of stream `s` after its think time.
fn next(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    s: usize,
    i: usize,
) {
    let Some(think) = run.streams[s].get(i).map(|op| op.think_ns) else {
        run.running.set(run.running.get() - 1);
        return;
    };
    if think > 0 {
        sim.after(SimDuration::from_nanos(think), move |sim, w| {
            issue(sim, w, run, sess, s, i)
        });
    } else {
        issue(sim, w, run, sess, s, i);
    }
}

fn issue(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    s: usize,
    i: usize,
) {
    let op = run.streams[s][i].clone();
    let led = run.led.clone();
    let owner = Owner::local(0, 0);
    let done = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, run: Rc<Run>, o: Outcome| {
        run.record(s, i, o);
        next(sim, w, run, sess, s, i + 1)
    };
    match op.kind {
        TraceOpKind::Mkdir => call!(
            led,
            sim,
            Kind::Mkdir,
            move |sim, w, r| { done(sim, w, run, Outcome::Unit(code(&r))) },
            |cb| sess.mkdir(sim, w, &op.path, owner, cb)
        ),
        TraceOpKind::Unlink => call!(
            led,
            sim,
            Kind::Unlink,
            move |sim, w, r| { done(sim, w, run, Outcome::Unit(code(&r))) },
            |cb| sess.unlink(sim, w, &op.path, cb)
        ),
        TraceOpKind::Rename => {
            let to = op.path2.clone().expect("rename has a target");
            call!(
                led,
                sim,
                Kind::Rename,
                move |sim, w, r| { done(sim, w, run, Outcome::Unit(code(&r))) },
                |cb| sess.rename(sim, w, &op.path, &to, cb)
            )
        }
        TraceOpKind::Stat => call!(
            led,
            sim,
            Kind::Stat,
            move |sim, w, r: Result<gfs::FileAttr, FsError>| {
                let o = r.map(|a| (a.size, a.is_dir)).map_err(|e| err_code(&e));
                done(sim, w, run, Outcome::Attr(o))
            },
            |cb| sess.stat(sim, w, &op.path, cb)
        ),
        TraceOpKind::Readdir => call!(
            led,
            sim,
            Kind::Readdir,
            move |sim, w, r: Result<Vec<String>, FsError>| {
                done(sim, w, run, Outcome::List(r.map_err(|e| err_code(&e))))
            },
            |cb| sess.readdir(sim, w, &op.path, cb)
        ),
        TraceOpKind::Create | TraceOpKind::Write | TraceOpKind::Read => {
            let flags = if op.kind == TraceOpKind::Read {
                OpenFlags::Read
            } else {
                OpenFlags::Write
            };
            let (kind, size) = (op.kind, op.size);
            call!(
                led,
                sim,
                Kind::Open,
                move |sim, w, r: Result<Handle, FsError>| {
                    let h = match r {
                        Ok(h) => h,
                        Err(e) => {
                            let o = match kind {
                                TraceOpKind::Read => Outcome::Read(Err(err_code(&e))),
                                _ => Outcome::Unit(Err(err_code(&e))),
                            };
                            return done(sim, w, run, o);
                        }
                    };
                    match kind {
                        TraceOpKind::Write => {
                            write_body(sim, w, run, sess, h, size, Box::new(done))
                        }
                        TraceOpKind::Read => read_body(sim, w, run, sess, h, size, Box::new(done)),
                        _ => close(sim, w, run, sess, h, Outcome::Unit(Ok(())), Box::new(done)),
                    }
                },
                |cb| sess.open(sim, w, &op.path, flags, owner, cb)
            )
        }
    }
}

type Done = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Rc<Run>, Outcome)>;

/// `o` with error `c`, unless `o` already carries an error (the first
/// failing call decides a composite op's outcome).
fn with_err(o: Outcome, c: u64) -> Outcome {
    match o {
        Outcome::Unit(Ok(_)) => Outcome::Unit(Err(c)),
        Outcome::Read(Ok(_)) => Outcome::Read(Err(c)),
        o => o,
    }
}

fn close(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    h: Handle,
    o: Outcome,
    done: Done,
) {
    let led = run.led.clone();
    call!(
        led,
        sim,
        Kind::Close,
        move |sim, w, r: Result<(), FsError>| {
            let o = match r {
                Ok(()) => o,
                Err(e) => with_err(o, err_code(&e)),
            };
            done(sim, w, run, o)
        },
        |cb| sess.close(sim, w, h, cb)
    );
}

#[allow(clippy::too_many_arguments)]
fn write_body(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    h: Handle,
    size: u64,
    done: Done,
) {
    let led = run.led.clone();
    let data = run.pattern.slice(..size as usize);
    call!(
        led,
        sim,
        Kind::Write,
        move |sim, w, r: Result<(), FsError>| {
            let o = match r {
                Ok(()) => {
                    run.led.wrote_bytes(size);
                    Outcome::Unit(Ok(()))
                }
                Err(e) => Outcome::Unit(Err(err_code(&e))),
            };
            let led = run.led.clone();
            call!(
                led,
                sim,
                Kind::Fsync,
                move |sim, w, r: Result<(), FsError>| {
                    let o = match r {
                        Ok(()) => o,
                        Err(e) => with_err(o, err_code(&e)),
                    };
                    close(sim, w, run, sess, h, o, done)
                },
                |cb| sess.fsync(sim, w, h, cb)
            );
        },
        |cb| sess.write(sim, w, h, 0, data, cb)
    );
}

#[allow(clippy::too_many_arguments)]
fn read_body(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    h: Handle,
    size: u64,
    done: Done,
) {
    let led = run.led.clone();
    call!(
        led,
        sim,
        Kind::Read,
        move |sim, w, r: Result<Bytes, FsError>| {
            let o = match r {
                Ok(got) => {
                    run.led.read_bytes(got.len() as u64);
                    // Every write is a prefix of the one pattern, so a correct
                    // read is too; the oracle diff checks the length.
                    let ok =
                        got.len() <= run.pattern.len() && got.as_ref() == &run.pattern[..got.len()];
                    Outcome::Read(Ok((got.len() as u64, ok)))
                }
                Err(e) => Outcome::Read(Err(err_code(&e))),
            };
            close(sim, w, run, sess, h, o, done)
        },
        |cb| sess.read(sim, w, h, 0, size, cb)
    );
}

/// Replay the completion-ordered log against a fresh `ModelFs` (with the
/// stream homes that setup laid down) and count the ops whose outcome
/// differs; the first few are described in `samples`. The model writes
/// prefixes of `model_pattern`; a real read was recorded as correct when
/// it returned a prefix of `real_pattern`, so the model's bytes are judged
/// against that same buffer — together the two checks say the real bytes
/// equal the model's.
pub fn oracle_diff(
    streams: &[Rc<[TraceOp]>],
    model_pattern: &[u8],
    real_pattern: &[u8],
    log: &[(u32, u32, Outcome)],
    samples: &mut Vec<String>,
) -> (u64, ModelFs) {
    let mut m = ModelFs::new();
    for i in 0..streams.len() {
        m.mkdir(&home(i)).expect("model home");
    }
    let mut divergences = 0;
    for (s, i, real) in log {
        let op = &streams[*s as usize][*i as usize];
        let want = model_apply(&mut m, op, model_pattern, real_pattern);
        if *real != want {
            divergences += 1;
            if samples.len() < 8 {
                samples.push(format!(
                    "oracle: {} {}: real {real:?} vs model {want:?}",
                    op.kind.kw(),
                    op.path
                ));
            }
        }
    }
    (divergences, m)
}

/// The outcome the model gives `op`, shaped like the recorded one.
fn model_apply(m: &mut ModelFs, op: &TraceOp, pattern: &[u8], real_pattern: &[u8]) -> Outcome {
    let c = |r: Result<(), FsError>| r.map_err(|e| err_code(&e));
    match op.kind {
        TraceOpKind::Mkdir => Outcome::Unit(c(m.mkdir(&op.path).map(|_| ()))),
        TraceOpKind::Unlink => Outcome::Unit(c(m.unlink(&op.path))),
        TraceOpKind::Rename => Outcome::Unit(c(
            m.rename(&op.path, op.path2.as_deref().expect("rename target"))
        )),
        TraceOpKind::Stat => Outcome::Attr(
            m.stat(&op.path)
                .map(|a| (a.size, a.is_dir))
                .map_err(|e| err_code(&e)),
        ),
        TraceOpKind::Readdir => Outcome::List(m.readdir(&op.path).map_err(|e| err_code(&e))),
        TraceOpKind::Create => Outcome::Unit(c(m.open(&op.path, OpenFlags::Write).map(|_| ()))),
        TraceOpKind::Write => Outcome::Unit(c(m
            .open(&op.path, OpenFlags::Write)
            .and_then(|id| m.write(id, 0, &pattern[..op.size as usize])))),
        TraceOpKind::Read => Outcome::Read(
            m.open(&op.path, OpenFlags::Read)
                .and_then(|id| m.read(id, 0, op.size))
                .map(|b| {
                    let ok =
                        b.len() <= real_pattern.len() && b.as_slice() == &real_pattern[..b.len()];
                    (b.len() as u64, ok)
                })
                .map_err(|e| err_code(&e)),
        ),
    }
}

/// One repetition over a fresh world.
pub fn rep(input: &Input) -> Rep {
    rep_against(input, &input.pattern)
}

/// [`rep`], with the oracle expecting writes to have put `oracle_pattern`
/// (the written one, except in the self-test that feeds it a wrong one).
pub fn rep_against(input: &Input, oracle_pattern: &[u8]) -> Rep {
    let t_rep = Instant::now();
    let mut out = Rep {
        input_fp: input.fp,
        ..Rep::default()
    };
    let World {
        mut sim,
        mut w,
        sessions,
        mut probe,
    } = setup(input, &mut out);
    let (sim, w) = (&mut sim, &mut w);

    let before = span(spans::DRIVER, || Snap::of(sim, w));
    let t_run = harness::Clock::start();
    let run = span(spans::DRIVER, || {
        Rc::new(Run {
            led: Led::default(),
            streams: input.streams.clone(),
            pattern: input.pattern.clone(),
            log: RefCell::new(Vec::with_capacity(
                input.streams.iter().map(|s| s.len()).sum(),
            )),
            running: Cell::new(sessions.len() as u32),
        })
    });
    span(spans::DRIVER, || {
        for (s, sess) in sessions.iter().enumerate() {
            next(sim, w, run.clone(), *sess, s, 0);
        }
    });
    drive(sim, w, &mut probe);
    out.run_s = t_run.secs();
    out.counts = span(spans::DRIVER, || Snap::of(sim, w).since(&before));

    if run.running.get() != 0 {
        out.problems
            .push(format!("{} streams did not drain", run.running.get()));
    }
    out.problems.extend(harness::verify_world(sim, w));
    span(spans::ORACLE, || {
        let mut samples = Vec::new();
        let (divergences, model) = oracle_diff(
            &input.streams,
            oracle_pattern,
            &input.pattern,
            &run.log.borrow(),
            &mut samples,
        );
        let real_tree = w.fss[0].core.tree_fingerprint();
        if real_tree != model.tree_fingerprint() {
            samples.push("oracle: final trees differ".into());
        }
        out.divergences = divergences + u64::from(real_tree != model.tree_fingerprint());
        for msg in samples {
            run.led.fail(msg);
        }
        // A divergence beyond the sampled few is still a failed call.
        let counted = out.divergences.min(8);
        for _ in counted..out.divergences {
            run.led.fail("oracle: divergence".into());
        }
    });
    out.probe = probe;
    out.ledger = std::mem::take(&mut *run.led.0.borrow_mut());
    out.wall_s = harness::secs(t_rep);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_oracle_answer_is_a_failed_call() {
        let input = generate(Cfg::tiny(), 11);
        let mut wrong = input.pattern.to_vec();
        wrong[100] ^= 0x40;
        let r = rep_against(&input, &wrong);
        assert!(
            r.divergences > 0,
            "the differ accepted a wrong model answer"
        );
        assert_eq!(r.ledger.failed, r.divergences);
        assert!(
            r.ledger.failures.iter().all(|f| f.starts_with("oracle")),
            "{:?}",
            r.ledger.failures
        );
    }

    #[test]
    fn tiny_trace_mix_runs_clean() {
        let input = generate(Cfg::tiny(), 11);
        let r = rep(&input);
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        assert_eq!(r.ledger.failed, 0, "{:?}", r.ledger.failures);
        assert_eq!(r.divergences, 0);
        assert!(r.ledger.completed > 100);
    }
}
