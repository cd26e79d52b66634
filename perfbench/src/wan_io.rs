//! `wan_io`: the paper's wide-area data path.
//!
//! A home site serves a filesystem from an NSD farm backed by a RAID-5 8+P
//! SATA array with stored payloads. Two client sites sit behind 10 Gb/s WAN
//! links at about 60 ms and about 80 ms round trip. Each seed places them
//! on the TeraGrid paths of `scenarios::common::delay_ms`: the near site
//! between the SDSC-ANL (28 ms one way) and SDSC-NCSA (30 ms) paths, the
//! far one between the SDSC-show-floor path through the Chicago hub
//! (39 ms) and SDSC-Baltimore (40 ms). A replica farm is attached at the
//! farther site through `ReplicaCatalog::attach_site`.
//!
//! Writers at both client sites write their own files in 1 MiB calls, then
//! fsync and close. When every writer is done the benchmark installs a copy
//! of every file at the far replica farm. Readers at both sites (more at the
//! near one, so each latency percentile falls inside one site's band and
//! does not flip between the two from seed to seed) then re-read
//! a hot set that fits their page pool several times and scan a set at
//! least four times the pool; far-site readers are served from the replica
//! farm. Every read is compared byte for byte with the pattern written.

use crate::call;
use crate::harness::{self, drive, Probe, Rep, Snap};
use crate::ledger::{hash_str, mix, Kind, Led};
use crate::spans::{self, span};
use bytes::Bytes;
use gfs::session::Session;
use gfs::types::{FsError, FsId, Handle, OpenFlags, Owner};
use gfs::world::GfsWorld;
use gfs_auth::handshake::AccessMode;
use rand::Rng;
use scenarios::builder::{pattern_bytes, NsdFarm, ScenarioBuilder};
use simcore::{det_rng, Bandwidth, Sim, SimDuration, SimTime};
use simsan::ArraySpec;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

const MIB: u64 = 1 << 20;
/// Size of every file.
const FILE_BYTES: u64 = 2 * MIB;
/// Bytes of one read or write call, and the block size.
const CALL_BYTES: u64 = MIB;
/// Client sites: name, WAN link name.
const SITES: [(&str, &str); 2] = [("near", "wan-near"), ("far", "wan-far")];

/// Range (inclusive, ms) of each client site's one-way WAN delay: the
/// repository's TeraGrid paths from SDSC to ANL and NCSA for the near
/// site, to a show floor through the Chicago hub and to Baltimore for the
/// far one.
fn wan_delay_ms() -> [(u64, u64); 2] {
    use scenarios::common::delay_ms::*;
    let to_chicago = SDSC_LA + LA_CHICAGO;
    [
        (to_chicago + CHICAGO_ANL, to_chicago + CHICAGO_NCSA),
        (to_chicago + SHOWFLOOR_HUB, SDSC_BALTIMORE_ONEWAY),
    ]
}

/// Workload shape.
#[derive(Clone, Copy, Debug)]
pub struct Cfg {
    /// Writers at the near and the far site.
    pub writers: [u32; 2],
    /// Files each writer writes.
    pub files_per_writer: u32,
    /// Readers at the near and the far site.
    pub readers: [u32; 2],
    /// Reader page pool, in 1 MiB pages.
    pub pool_pages: u32,
    /// Passes over the hot set.
    pub hot_passes: u32,
    /// NSD servers of the home farm.
    pub servers: u32,
}

impl Cfg {
    /// The benchmark size.
    pub fn full() -> Cfg {
        Cfg {
            writers: [4, 4],
            files_per_writer: 8,
            readers: [40, 24],
            pool_pages: 8,
            hot_passes: 4,
            servers: 8,
        }
    }

    /// A size for self-tests.
    pub fn tiny() -> Cfg {
        Cfg {
            writers: [1, 1],
            files_per_writer: 12,
            readers: [1, 1],
            pool_pages: 4,
            hot_passes: 2,
            servers: 2,
        }
    }

    /// Hot sets stay within three quarters of the pool.
    pub fn hot_bytes(&self) -> u64 {
        u64::from(self.pool_pages) * MIB * 3 / 4
    }

    /// Scan sets reach at least four pools.
    pub fn scan_bytes(&self) -> u64 {
        u64::from(self.pool_pages) * MIB * 4
    }
}

/// One written file.
#[derive(Clone, Debug)]
pub struct File {
    pub path: String,
    /// What writers write: `pattern_bytes` from a per-file starting
    /// offset, so a block served from the wrong file or offset never
    /// matches. Writes hand out slices of it, so the benchmark allocates no
    /// payload inside the timed region.
    pub data: Bytes,
    /// What reads must return (the same buffer as `data`).
    pub expect: Bytes,
}

/// The generated inputs.
pub struct Input {
    pub cfg: Cfg,
    pub seed: u64,
    /// One-way WAN delays (µs) of the near and far sites.
    pub delays_us: [u64; 2],
    /// Per writer: its site and its files.
    pub writers: Vec<(usize, Vec<usize>)>,
    pub files: Vec<File>,
    /// Per reader: its site, its hot set and its scan set.
    pub readers: Vec<(usize, Vec<usize>, Vec<usize>)>,
    pub fp: u64,
}

/// Generate the WAN delays, the files and every reader's hot and scan sets.
pub fn generate(cfg: Cfg, seed: u64) -> Input {
    let mut rng = det_rng(seed, "wan-io");
    let delays_us =
        wan_delay_ms().map(|(lo, hi)| lo * 1000 + rng.gen::<u64>() % ((hi - lo) * 1000 + 1));
    let site_of = |counts: [u32; 2]| (0..2).flat_map(move |s| (0..counts[s]).map(move |_| s));
    let mut files = Vec::new();
    let mut writers = Vec::new();
    for (wi, site) in site_of(cfg.writers).enumerate() {
        let mut mine = Vec::new();
        for f in 0..cfg.files_per_writer {
            mine.push(files.len());
            let data = pattern_bytes(files.len() as u64 * 1_000_003, FILE_BYTES);
            files.push(File {
                path: format!("/wan/w{wi:02}/f{f:03}"),
                expect: data.clone(),
                data,
            });
        }
        writers.push((site, mine));
    }
    let mut readers = Vec::new();
    for site in site_of(cfg.readers) {
        let mut order: Vec<usize> = (0..files.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (rng.gen::<u64>() % (i as u64 + 1)) as usize);
        }
        let (mut hot, mut scan) = (Vec::new(), Vec::new());
        let (mut hot_b, mut scan_b) = (0, 0);
        for i in order {
            let size = files[i].data.len() as u64;
            if hot_b + size <= cfg.hot_bytes() {
                hot.push(i);
                hot_b += size;
            } else if scan_b < cfg.scan_bytes() {
                scan.push(i);
                scan_b += size;
            }
        }
        assert!(
            scan_b >= cfg.scan_bytes(),
            "wan_io: {} files cannot fill a scan set",
            files.len()
        );
        readers.push((site, hot, scan));
    }
    let mut fp = mix(mix(mix(0, seed), delays_us[0]), delays_us[1]);
    for f in &files {
        fp = mix(hash_str(fp, &f.path), f.data.len() as u64);
    }
    for (site, hot, scan) in &readers {
        fp = mix(fp, *site as u64);
        for i in hot.iter().chain(scan) {
            fp = mix(fp, *i as u64);
        }
        fp = mix(fp, u64::MAX);
    }
    Input {
        cfg,
        seed,
        delays_us,
        writers,
        files,
        readers,
        fp,
    }
}

/// A world ready for the first timed op.
struct World {
    sim: Sim<GfsWorld>,
    w: GfsWorld,
    fs: FsId,
    writers: Vec<Session>,
    readers: Vec<Session>,
    replica_site: u32,
    probe: Probe,
}

fn setup(input: &Input, out: &mut Rep) -> World {
    let cfg = input.cfg;
    let t_setup = Instant::now();
    let t_build = Instant::now();
    let (fs, writers, readers, rep_servers, run) = span(spans::BUILD, || {
        let mut sb = ScenarioBuilder::new(input.seed);
        let fs = sb.nsd_farm(
            "home",
            NsdFarm::new("wan", cfg.servers)
                .block_size(CALL_BYTES)
                .server_nic(Bandwidth::gbit(10.0))
                .array_backed(ArraySpec::ds4100_sata())
                .stored_data(),
        );
        for ((site, link), us) in SITES.iter().zip(input.delays_us) {
            sb.wan(
                "home",
                site,
                Bandwidth::gbit(10.0),
                SimDuration::from_micros(us),
                link,
            );
        }
        // The replica farm's servers sit on the far site's switch.
        let far = sb.site("far");
        let rep_servers: Vec<_> = (0..4)
            .map(|k| {
                let name = format!("rep-far-srv{k}");
                let b = sb.world_builder().topo();
                let n = b.node(name.clone());
                b.duplex_link(
                    n,
                    far,
                    Bandwidth::gbit(10.0),
                    SimDuration::from_micros(50),
                    name,
                );
                n
            })
            .collect();
        let nic = Bandwidth::gbit(10.0);
        let dly = SimDuration::from_micros(100);
        let pool = cfg.pool_pages as usize;
        let mut clients = |site: usize| sb.clients(SITES[site].0, 1, nic, dly, pool)[0];
        let writers: Vec<Session> = input.writers.iter().map(|(s, _)| clients(*s)).collect();
        let readers: Vec<Session> = input.readers.iter().map(|(s, _, _)| clients(*s)).collect();
        (
            fs,
            writers,
            readers,
            rep_servers,
            sb.run(SimTime::from_secs(1)),
        )
    });
    out.build_s = harness::secs(t_build);
    let (mut sim, mut w) = (run.sim, run.world);
    let t_pop = Instant::now();
    out.populated = span(spans::POPULATE, || {
        let core = &mut w.fss[fs.0 as usize].core;
        let owner = Owner::local(0, 0);
        core.mkdir("/wan", owner.clone(), 0).expect("populate /wan");
        for wi in 0..writers.len() {
            core.mkdir(&format!("/wan/w{wi:02}"), owner.clone(), 0)
                .expect("populate writer dir");
        }
        1 + writers.len() as u64
    });
    out.populate_ns = t_pop.elapsed().as_nanos() as u64;
    let (replica_site, mut probe) = span(spans::DRIVER, || {
        sim.set_horizon(SimTime::from_secs(1_000_000));
        let site = w.fss[fs.0 as usize].replicas.attach_site(
            "rep-far",
            rep_servers,
            8,
            1e9,
            SimDuration::from_micros(200),
        );
        (site, Probe::new(&w, &SITES.map(|(_, link)| link)))
    });
    span(spans::MOUNT, || {
        let failed = Rc::new(Cell::new(0u32));
        for s in writers.iter().chain(&readers) {
            let f = failed.clone();
            s.mount(
                &mut sim,
                &mut w,
                "wan",
                AccessMode::ReadWrite,
                move |_, _, r| f.set(f.get() + u32::from(r.is_err())),
            );
        }
        drive(&mut sim, &mut w, &mut probe);
        assert_eq!(failed.get(), 0, "wan_io: mount failed");
    });
    out.setup_s = harness::secs(t_setup);
    World {
        sim,
        w,
        fs,
        writers,
        readers,
        replica_site,
        probe,
    }
}

/// Host seconds of one setup alone.
pub fn setup_s(input: &Input) -> f64 {
    let mut out = Rep::default();
    setup(input, &mut out);
    out.setup_s
}

/// State shared by every chain of one repetition.
struct Run {
    led: Led,
    files: Vec<File>,
    writers_left: Cell<u32>,
    /// Launches the read phase once the last writer is done.
    read_phase: RefCell<Option<Next>>,
}

type Next = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld)>;

fn failed_open(run: &Run, path: &str, r: &Result<Handle, FsError>) {
    if let Err(e) = r {
        if !crate::ledger::gave_up(e) {
            run.led.fail(format!("open {path}: {e:?}"));
        }
    }
}

/// Write file `fi` through `sess`: open, 1 MiB writes, fsync, close, then
/// `next`.
fn write_file(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    fi: usize,
    next: Next,
) {
    let led = run.led.clone();
    let path = run.files[fi].path.clone();
    call!(
        led,
        sim,
        Kind::Open,
        move |sim, w, r: Result<Handle, FsError>| {
            failed_open(&run, &run.files[fi].path, &r);
            match r {
                Ok(h) => write_calls(sim, w, run, sess, fi, h, 0, next),
                Err(_) => next(sim, w),
            }
        },
        |cb| sess.open(sim, w, &path, OpenFlags::Write, Owner::local(0, 0), cb)
    );
}

#[allow(clippy::too_many_arguments)]
fn write_calls(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    fi: usize,
    h: Handle,
    off: u64,
    next: Next,
) {
    let led = run.led.clone();
    let f = &run.files[fi];
    let size = f.data.len() as u64;
    if off >= size {
        call!(
            led,
            sim,
            Kind::Fsync,
            move |sim, w, r: Result<(), FsError>| {
                if let Err(e) = &r {
                    if !crate::ledger::gave_up(e) {
                        run.led.fail(format!("fsync {}: {e:?}", run.files[fi].path));
                    }
                }
                close(sim, w, run, sess, h, next)
            },
            |cb| sess.fsync(sim, w, h, cb)
        );
        return;
    }
    let n = CALL_BYTES.min(size - off);
    let data = f.data.slice(off as usize..(off + n) as usize);
    call!(
        led,
        sim,
        Kind::Write,
        move |sim, w, r: Result<(), FsError>| {
            match &r {
                Ok(()) => run.led.wrote_bytes(n),
                Err(e) if !crate::ledger::gave_up(e) => {
                    run.led.fail(format!("write {}: {e:?}", run.files[fi].path))
                }
                Err(_) => {}
            }
            write_calls(sim, w, run, sess, fi, h, off + n, next)
        },
        |cb| sess.write(sim, w, h, off, data, cb)
    );
}

fn close(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    h: Handle,
    next: Next,
) {
    let led = run.led.clone();
    call!(
        led,
        sim,
        Kind::Close,
        move |sim, w, r: Result<(), FsError>| {
            if let Err(e) = &r {
                if !crate::ledger::gave_up(e) {
                    run.led.fail(format!("close: {e:?}"));
                }
            }
            next(sim, w)
        },
        |cb| sess.close(sim, w, h, cb)
    );
}

/// Read file `fi` through `sess`: stat, open, 1 MiB reads checked against
/// the pattern, close, then `next`.
fn read_file(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    fi: usize,
    next: Next,
) {
    let led = run.led.clone();
    let path = run.files[fi].path.clone();
    call!(
        led,
        sim,
        Kind::Stat,
        move |sim, w, r: Result<gfs::FileAttr, FsError>| {
            let f = &run.files[fi];
            match &r {
                Ok(a) if a.size != f.data.len() as u64 => run.led.fail(format!(
                    "stat {}: size {} not {}",
                    f.path,
                    a.size,
                    f.data.len()
                )),
                Err(e) if !crate::ledger::gave_up(e) => {
                    run.led.fail(format!("stat {}: {e:?}", f.path))
                }
                _ => {}
            }
            let led = run.led.clone();
            let path = f.path.clone();
            call!(
                led,
                sim,
                Kind::Open,
                move |sim, w, r: Result<Handle, FsError>| {
                    failed_open(&run, &run.files[fi].path, &r);
                    match r {
                        Ok(h) => read_calls(sim, w, run, sess, fi, h, 0, next),
                        Err(_) => next(sim, w),
                    }
                },
                |cb| sess.open(sim, w, &path, OpenFlags::Read, Owner::local(0, 0), cb)
            );
        },
        |cb| sess.stat(sim, w, &path, cb)
    );
}

#[allow(clippy::too_many_arguments)]
fn read_calls(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    fi: usize,
    h: Handle,
    off: u64,
    next: Next,
) {
    let size = run.files[fi].data.len() as u64;
    if off >= size {
        close(sim, w, run, sess, h, next);
        return;
    }
    let led = run.led.clone();
    let n = CALL_BYTES.min(size - off);
    call!(
        led,
        sim,
        Kind::Read,
        move |sim, w, r: Result<Bytes, FsError>| {
            let f = &run.files[fi];
            match &r {
                Ok(got) => {
                    run.led.read_bytes(got.len() as u64);
                    let want = &f.expect[off as usize..(off + n) as usize];
                    // Payloads travel zero-copy from the writer's buffer through
                    // the NSD store and the pools, so a read usually returns the
                    // very bytes the benchmark wrote: same address and length
                    // proves equality without a 1 MiB compare in the timed
                    // region. Anything else is compared byte for byte.
                    let same = got.len() == want.len() && got.as_ptr() == want.as_ptr();
                    if !same && got.as_ref() != want {
                        run.led.fail(format!("read {} @{off}: wrong bytes", f.path));
                    }
                }
                Err(e) if !crate::ledger::gave_up(e) => {
                    run.led.fail(format!("read {}: {e:?}", f.path))
                }
                Err(_) => {}
            }
            read_calls(sim, w, run, sess, fi, h, off + n, next)
        },
        |cb| sess.read(sim, w, h, off, n, cb)
    );
}

/// Run `files` in order through `op`, then `done`.
#[allow(clippy::too_many_arguments)]
fn chain(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    run: Rc<Run>,
    sess: Session,
    files: Rc<[usize]>,
    i: usize,
    op: fn(&mut Sim<GfsWorld>, &mut GfsWorld, Rc<Run>, Session, usize, Next),
    done: Next,
) {
    let Some(&fi) = files.get(i) else {
        done(sim, w);
        return;
    };
    let run2 = run.clone();
    op(
        sim,
        w,
        run,
        sess,
        fi,
        Box::new(move |sim, w| chain(sim, w, run2, sess, files, i + 1, op, done)),
    );
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
        writers,
        readers,
        replica_site,
        mut probe,
    } = setup(input, &mut out);
    let (sim, w) = (&mut sim, &mut w);

    let before = span(spans::DRIVER, || Snap::of(sim, w));
    let t_run = harness::Clock::start();
    let run = span(spans::DRIVER, || {
        Rc::new(Run {
            led: Led::default(),
            files: input.files.clone(),
            writers_left: Cell::new(writers.len() as u32),
            read_phase: RefCell::new(None),
        })
    });
    // The read phase: install a current copy of every file at the far
    // replica farm, then start every reader's hot passes and scan.
    {
        let run2 = run.clone();
        let plans = input.readers.clone();
        let passes = cfg.hot_passes as usize;
        *run.read_phase.borrow_mut() = Some(Box::new(move |sim, w| {
            span(spans::DRIVER, || {
                let inst = &mut w.fss[fs.0 as usize];
                for f in &run2.files {
                    let ino = inst.core.lookup(&f.path).expect("written file exists");
                    inst.replicas.register(ino);
                    inst.replicas
                        .install_copy(ino, replica_site, f.data.len() as u64);
                }
            });
            for (sess, (_, hot, scan)) in readers.iter().zip(plans) {
                let mut order: Vec<usize> = Vec::new();
                for _ in 0..passes {
                    order.extend(&hot);
                }
                order.extend(&scan);
                let led = run2.led.clone();
                chain(
                    sim,
                    w,
                    run2.clone(),
                    *sess,
                    order.into(),
                    0,
                    read_file,
                    Box::new(move |sim, _| led.done_at(sim.now())),
                );
            }
        }));
    }
    span(spans::DRIVER, || {
        for (sess, (_, mine)) in writers.iter().zip(&input.writers) {
            let run2 = run.clone();
            let files: Rc<[usize]> = mine.clone().into();
            chain(
                sim,
                w,
                run.clone(),
                *sess,
                files,
                0,
                write_file,
                Box::new(move |sim, w| {
                    run2.writers_left.set(run2.writers_left.get() - 1);
                    if run2.writers_left.get() == 0 {
                        let go = run2
                            .read_phase
                            .borrow_mut()
                            .take()
                            .expect("read phase armed once");
                        go(sim, w);
                    }
                }),
            );
        }
    });
    drive(sim, w, &mut probe);
    out.run_s = t_run.secs();
    out.counts = span(spans::DRIVER, || Snap::of(sim, w).since(&before));

    if run.read_phase.borrow().is_some() {
        out.problems.push("writers did not all finish".into());
    }
    if out.counts.stale_reads > 0 {
        out.problems.push(format!(
            "{} stale replica reads served",
            out.counts.stale_reads
        ));
    }
    out.problems.extend(harness::verify_world(sim, w));
    out.probe = probe;
    out.ledger = std::mem::take(&mut *run.led.0.borrow_mut());
    out.wall_s = harness::secs(t_rep);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrong_expected_byte_is_a_failed_call() {
        let mut input = generate(Cfg::tiny(), 3);
        let mut v = input.files[0].expect.to_vec();
        v[12345] ^= 1;
        input.files[0].expect = Bytes::from(v);
        let r = rep(&input);
        // Every read call covering that byte fails; nothing else does.
        assert!(
            r.ledger.failed > 0,
            "a corrupted expectation went unnoticed"
        );
        assert!(
            r.ledger.failures.iter().all(|f| f.contains("wrong bytes")),
            "{:?}",
            r.ledger.failures
        );
        assert!(crate::report::failed_frac(&r.ledger) > 0.0);
    }

    #[test]
    fn tiny_wan_io_runs_clean() {
        let r = rep(&generate(Cfg::tiny(), 3));
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        assert_eq!(r.ledger.failed, 0, "{:?}", r.ledger.failures);
        assert_eq!(r.ledger.completed, r.ledger.attempted);
        assert!(
            r.counts.remote_picks > 0,
            "far readers never read a replica"
        );
    }
}
