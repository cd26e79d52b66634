//! Client-side filesystem operations: mount (local and multi-cluster),
//! open/read/write/fsync/close, and metadata calls — each one sequenced
//! through simulated RPCs, token negotiation, NSD service and bulk data
//! flows.
//!
//! The concurrency protocol is the GPFS one:
//!
//! * Every read/write first secures a **byte-range token** from the token
//!   manager. Conflicting holders are revoked — each revocation is a real
//!   message exchange, and a revoked writer must *flush its dirty pages*
//!   before the new grant proceeds (so readers always observe flushed
//!   data).
//! * Reads fill the client **page pool**; sequential patterns ramp
//!   prefetch. Writes are **write-behind**: they dirty pages and return;
//!   data reaches the NSDs on fsync/close/eviction/revocation.
//! * Remote-cluster mounts run the full §6 RSA handshake over the WAN
//!   before any data moves.

use crate::cache::{DirtyPage, PageKey, PrefetchState};
use crate::faults::RecoveryWhat;
use crate::metaop::Reply;
use crate::replica;
use crate::tokens::{ByteRange, TokenMode};
use crate::types::{BlockAddr, ClientId, FsError, FsId, Handle, InodeId, NsdId, OpenFlags, Owner};
use crate::world::{GfsWorld, Mount};
use bytes::Bytes;
use gfs_auth::handshake::AccessMode;
use rand::Rng;
use simcore::{Sim, SimDuration, SimTime};
use simnet::{FlowSpec, Network, NodeId};
use simsan::IoKind;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Callback type for operations yielding `T`.
pub type Cb<T> = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, T)>;

/// Flow accounting tags used by the client layer.
pub mod tags {
    /// NSD read traffic (server → client).
    pub const NSD_READ: u32 = 1;
    /// NSD write traffic (client → server).
    pub const NSD_WRITE: u32 = 2;
}

pub(crate) fn client_node(w: &GfsWorld, c: ClientId) -> NodeId {
    w.clients[c.0 as usize].node
}

fn inflight_enter(w: &mut GfsWorld, c: ClientId, fs: FsId, inode: InodeId) {
    *w.clients[c.0 as usize]
        .inflight
        .entry((fs, inode))
        .or_insert(0) += 1;
}

fn inflight_exit(w: &mut GfsWorld, c: ClientId, fs: FsId, inode: InodeId) {
    let cnt = w.clients[c.0 as usize]
        .inflight
        .get_mut(&(fs, inode))
        .expect("inflight_exit without enter");
    *cnt -= 1;
    if *cnt == 0 {
        w.clients[c.0 as usize].inflight.remove(&(fs, inode));
    }
}

fn inflight_busy(w: &GfsWorld, c: ClientId, fs: FsId, inode: InodeId) -> bool {
    w.clients[c.0 as usize]
        .inflight
        .get(&(fs, inode))
        .is_some_and(|n| *n > 0)
}

/// One request/response RPC: request message, execute `f` at the far node,
/// response message, then `cb` with the result.
fn rpc<T: 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    from: NodeId,
    to: NodeId,
    f: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld) -> T + 'static,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, T) + 'static,
) {
    let bytes = w.costs.rpc_bytes;
    Network::send_msg(sim, w, from, to, bytes, move |sim, w| {
        let result = f(sim, w);
        let bytes = w.costs.rpc_bytes;
        Network::send_msg(sim, w, to, from, bytes, move |sim, w| cb(sim, w, result));
    });
}

/// Join helper: run `cb` once `n` completions have been counted.
struct Join {
    remaining: Cell<usize>,
    cb: RefCell<Option<Cb<()>>>,
}

impl Join {
    fn new(n: usize, cb: Cb<()>) -> Rc<Self> {
        Rc::new(Join {
            remaining: Cell::new(n),
            cb: RefCell::new(Some(cb)),
        })
    }

    fn arrive(self: &Rc<Self>, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld) {
        let left = self.remaining.get();
        debug_assert!(left > 0, "join over-arrived");
        self.remaining.set(left - 1);
        if left == 1 {
            if let Some(cb) = self.cb.borrow_mut().take() {
                cb(sim, w, ());
            }
        }
    }

    /// Fire immediately when n == 0.
    fn maybe_done(self: &Rc<Self>, sim: &mut Sim<GfsWorld>, w: &mut GfsWorld) {
        if self.remaining.get() == 0 {
            if let Some(cb) = self.cb.borrow_mut().take() {
                cb(sim, w, ());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mounting
// ---------------------------------------------------------------------

/// Mount a device, dispatching on what the name means for the client's
/// cluster ([`GfsWorld::resolve_device`]): a locally-owned filesystem costs
/// one RPC to the configuration manager; an `mmremotefs` device runs the
/// full §6.2 RSA challenge–response over the WAN before installing the
/// mount. Unknown devices surface [`FsError::NotMounted`]; export/grant
/// problems surface [`FsError::AuthFailed`] — no variant-mismatch panics.
pub fn mount(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    mode: AccessMode,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let cl = w.clients[client.0 as usize].cluster;
    let device = device.to_string();
    let Some((fs, remote)) = w.resolve_device(cl, &device) else {
        cb(sim, w, Err(FsError::NotMounted(device)));
        return;
    };
    if !remote {
        let from = client_node(w, client);
        let to = w.fss[fs.0 as usize].manager_node;
        rpc(
            sim,
            w,
            from,
            to,
            move |_sim, _w| (),
            move |sim, w, ()| {
                w.clients[client.0 as usize].mounts.insert(
                    device,
                    Mount {
                        fs,
                        mode,
                        session_key: None,
                    },
                );
                cb(sim, w, Ok(()));
            },
        );
        return;
    }
    let inst = &w.fss[fs.0 as usize];
    if !inst.exported {
        cb(
            sim,
            w,
            Err(FsError::AuthFailed(format!("{device}: not exported"))),
        );
        return;
    }
    let serving = inst.owning_cluster;
    let rfs = w.clusters[cl.0 as usize]
        .remote_fs
        .get(&device)
        .expect("resolve_device found it");
    let remote_name = rfs.cluster.clone();
    let contact = w.clusters[cl.0 as usize]
        .remote_clusters
        .get(&remote_name)
        .expect("mmremotecluster entry required before mount")
        .contact;
    let fs_name = w.fss[fs.0 as usize].core.config.name.clone();
    let from = client_node(w, client);

    // HELLO: client -> contact node of the serving cluster.
    let rpcb = w.costs.rpc_bytes;
    let client_cluster_name = w.clusters[cl.0 as usize].name.clone();
    Network::send_msg(sim, w, from, contact, rpcb, move |sim, w| {
        // Serving cluster issues a challenge.
        let challenge = {
            let (clusters, rng) = (&mut w.clusters, &mut w.rng);
            clusters[serving.0 as usize]
                .auth
                .issue_challenge(&client_cluster_name, rng)
        };
        let rpcb = w.costs.rpc_bytes;
        Network::send_msg(sim, w, contact, from, rpcb, move |sim, w| {
            // Client signs the challenge (charge RSA sign time).
            let sign_time = w.costs.sign_time;
            sim.after(sign_time, move |sim, w| {
                let cl = w.clients[client.0 as usize].cluster;
                let response =
                    w.clusters[cl.0 as usize]
                        .auth
                        .respond(&challenge, &fs_name, mode);
                let challenge_id = challenge.id;
                let rpcb = w.costs.rpc_bytes;
                Network::send_msg(sim, w, from, contact, rpcb, move |sim, w| {
                    // Server verifies (charge RSA verify time).
                    let verify_time = w.costs.verify_time;
                    sim.after(verify_time, move |sim, w| {
                        let outcome = {
                            let (clusters, rng) = (&mut w.clusters, &mut w.rng);
                            clusters[serving.0 as usize].auth.verify_response(
                                challenge_id,
                                &response,
                                rng,
                            )
                        };
                        let rpcb = w.costs.rpc_bytes;
                        Network::send_msg(sim, w, contact, from, rpcb, move |sim, w| {
                            match outcome {
                                Ok(grant) => {
                                    let cl = w.clients[client.0 as usize].cluster;
                                    let key =
                                        w.clusters[cl.0 as usize].auth.open_session_key(&grant);
                                    w.clients[client.0 as usize].mounts.insert(
                                        device,
                                        Mount {
                                            fs,
                                            mode: grant.mode,
                                            session_key: key,
                                        },
                                    );
                                    cb(sim, w, Ok(()));
                                }
                                Err(e) => cb(sim, w, Err(FsError::AuthFailed(format!("{e:?}")))),
                            }
                        });
                    });
                });
            });
        });
    });
}

// ---------------------------------------------------------------------
// Metadata operations
// ---------------------------------------------------------------------

pub(crate) fn mount_of(w: &GfsWorld, client: ClientId, device: &str) -> Result<Mount, FsError> {
    w.clients[client.0 as usize]
        .mounts
        .get(device)
        .cloned()
        .ok_or_else(|| FsError::NotMounted(device.to_string()))
}

// Manager-side op bodies, shared between the per-client free functions
// below (one `meta_rpc` each) and the session fan-in envelopes
// (`crate::session`), so both call surfaces apply byte-identical state
// changes. `client` is the mount context whose dentry cache resolution
// warms/seeds.

pub(crate) fn mkdir_apply(
    w: &mut GfsWorld,
    fs: FsId,
    now: u64,
    client: ClientId,
    path: &str,
    owner: &Owner,
) -> Result<InodeId, FsError> {
    let ch = w.fss[fs.0 as usize].core.mkdir_entry(path, owner.clone(), now)?;
    // Seed the creator's dentry cache — it will almost always resolve the
    // new directory next.
    let dentry = &mut w.clients[client.0 as usize].dentry;
    dentry.insert(fs, ch.parent, ch.name, ch.id);
    Ok(ch.id)
}

pub(crate) fn stat_apply(
    w: &mut GfsWorld,
    fs: FsId,
    client: ClientId,
    path: &str,
) -> Result<crate::fscore::FileAttr, FsError> {
    let (fss, clients) = (&w.fss, &mut w.clients);
    let core = &fss[fs.0 as usize].core;
    let id = core.lookup_via(fs, &mut clients[client.0 as usize].dentry, path)?;
    core.stat_id(id)
}

pub(crate) fn readdir_apply(
    w: &mut GfsWorld,
    fs: FsId,
    client: ClientId,
    path: &str,
) -> Result<Vec<String>, FsError> {
    let (fss, clients) = (&w.fss, &mut w.clients);
    let core = &fss[fs.0 as usize].core;
    let id = core.lookup_via(fs, &mut clients[client.0 as usize].dentry, path)?;
    core.readdir_id(id).map_err(|e| match e {
        // readdir_id only knows the inode; report the path the caller
        // actually asked about, as `readdir` always has.
        FsError::NotADirectory(_) => FsError::NotADirectory(path.to_string()),
        other => other,
    })
}

pub(crate) fn unlink_apply(w: &mut GfsWorld, fs: FsId, path: &str) -> Result<(), FsError> {
    let ch = w.fss[fs.0 as usize].core.unlink_entry(path)?;
    // Invalidate everywhere (the manager broadcasts in GPFS; we apply the
    // effect directly and charge nothing extra — unlink of an
    // open-elsewhere file is out of scope). Dentry caches drop the
    // `(parent, name)` mapping so no client resolves the dead entry.
    for c in &mut w.clients {
        c.pool.invalidate_file(fs, ch.id);
        c.dentry.invalidate(fs, ch.parent, ch.name);
    }
    Ok(())
}

pub(crate) fn rename_apply(
    w: &mut GfsWorld,
    fs: FsId,
    client: ClientId,
    from: &str,
    to: &str,
) -> Result<(), FsError> {
    let ch = w.fss[fs.0 as usize].core.rename_entry(from, to)?;
    // Every client must stop resolving the old name, and — when the rename
    // atomically replaced an existing target — stop resolving the old
    // target and drop its cached pages. The mover's cache learns the new
    // entry immediately.
    for c in &mut w.clients {
        c.dentry.invalidate(fs, ch.from_parent, ch.from_name);
        c.dentry.invalidate(fs, ch.to_parent, ch.to_name);
        if let Some(rid) = ch.replaced {
            c.pool.invalidate_file(fs, rid);
        }
    }
    let dentry = &mut w.clients[client.0 as usize].dentry;
    dentry.insert(fs, ch.to_parent, ch.to_name, ch.id);
    Ok(())
}

pub(crate) fn open_apply(
    w: &mut GfsWorld,
    fs: FsId,
    now: u64,
    client: ClientId,
    path: &str,
    flags: OpenFlags,
    owner: &Owner,
) -> Result<(FsId, InodeId), FsError> {
    let (fss, clients) = (&mut w.fss, &mut w.clients);
    let core = &mut fss[fs.0 as usize].core;
    let dentry = &mut clients[client.0 as usize].dentry;
    let inode = match core.lookup_via(fs, dentry, path) {
        Ok(id) => {
            if core.inode(id)?.is_dir() {
                return Err(FsError::IsADirectory(path.to_string()));
            }
            id
        }
        Err(FsError::NotFound(_)) if flags.writes() => {
            let ch = core.create_file_entry(path, owner.clone(), now)?;
            dentry.insert(fs, ch.parent, ch.name, ch.id);
            ch.id
        }
        Err(e) => return Err(e),
    };
    Ok((fs, inode))
}

// Manager-side op bodies for fan-in envelopes (run through
// `crate::metaop::MetaOp::apply`). Envelopes execute *at* the manager,
// which resolves straight against the namespace instead of modeling a
// client dentry walk — the per-client free functions above keep their
// exact resolution behavior. Mutating bodies invalidate every client
// cache through the shared broadcast, so mixed legacy+session workloads
// on one filesystem stay coherent.

pub(crate) fn mkdir_apply_mgr(
    w: &mut GfsWorld,
    fs: FsId,
    now: u64,
    path: &str,
    owner: &Owner,
) -> Result<InodeId, FsError> {
    let ch = w.fss[fs.0 as usize]
        .core
        .mkdir_entry(path, owner.clone(), now)?;
    Ok(ch.id)
}

pub(crate) fn stat_apply_mgr(
    w: &GfsWorld,
    fs: FsId,
    path: &str,
) -> Result<crate::fscore::FileAttr, FsError> {
    let core = &w.fss[fs.0 as usize].core;
    core.stat_id(core.lookup(path)?)
}

pub(crate) fn readdir_apply_mgr(
    w: &GfsWorld,
    fs: FsId,
    path: &str,
) -> Result<Vec<String>, FsError> {
    let core = &w.fss[fs.0 as usize].core;
    core.readdir_id(core.lookup(path)?).map_err(|e| match e {
        FsError::NotADirectory(_) => FsError::NotADirectory(path.to_string()),
        other => other,
    })
}

pub(crate) fn unlink_apply_mgr(w: &mut GfsWorld, fs: FsId, path: &str) -> Result<(), FsError> {
    let ch = w.fss[fs.0 as usize].core.unlink_entry(path)?;
    for c in &mut w.clients {
        c.pool.invalidate_file(fs, ch.id);
        c.dentry.invalidate(fs, ch.parent, ch.name);
    }
    Ok(())
}

pub(crate) fn rename_apply_mgr(
    w: &mut GfsWorld,
    fs: FsId,
    from: &str,
    to: &str,
) -> Result<(), FsError> {
    let ch = w.fss[fs.0 as usize].core.rename_entry(from, to)?;
    for c in &mut w.clients {
        c.dentry.invalidate(fs, ch.from_parent, ch.from_name);
        c.dentry.invalidate(fs, ch.to_parent, ch.to_name);
        if let Some(rid) = ch.replaced {
            c.pool.invalidate_file(fs, rid);
        }
    }
    Ok(())
}

pub(crate) fn open_apply_mgr(
    w: &mut GfsWorld,
    fs: FsId,
    now: u64,
    path: &str,
    flags: OpenFlags,
    owner: &Owner,
) -> Result<(FsId, InodeId), FsError> {
    let core = &mut w.fss[fs.0 as usize].core;
    let inode = match core.lookup(path) {
        Ok(id) => {
            if core.inode(id)?.is_dir() {
                return Err(FsError::IsADirectory(path.to_string()));
            }
            id
        }
        Err(FsError::NotFound(_)) if flags.writes() => {
            core.create_file_entry(path, owner.clone(), now)?.id
        }
        Err(e) => return Err(e),
    };
    Ok((fs, inode))
}

/// A manager-bound RPC with the full survival envelope: watchdog timeout,
/// exponential backoff with seeded jitter, re-resolution of the *acting*
/// manager on every attempt (so requests follow a failover), and
/// exactly-once semantics for mutating operations.
///
/// Exactly-once works the GPFS way: every client request carries a unique
/// op ID; the manager keeps a dedup table of applied mutations and their
/// results. A retry whose original attempt did execute (the *reply* was
/// lost, not the request) replays the recorded result instead of running
/// `f` twice — without this, a lost mkdir reply would retry into
/// `AlreadyExists` and a lost rename reply into `NotFound`.
///
/// Requests reaching a crashed, recovering, or superseded manager are
/// dropped at delivery; the watchdog is how the client learns. Read-only
/// ops (`mutating == false`) skip the dedup table and simply re-execute.
/// Results are recorded in the manager's typed store as a
/// [`crate::metaop::MetaReply`] (see [`Reply`]), the same store fan-in
/// envelopes use.
fn manager_rpc<T: Reply + Clone + 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    shard: u32,
    mutating: bool,
    f: impl FnMut(&mut Sim<GfsWorld>, &mut GfsWorld, FsId) -> Result<T, FsError> + 'static,
    cb: Cb<Result<T, FsError>>,
) {
    let op_id = w.clients[client.0 as usize].next_op_id();
    let slot: Once<Result<T, FsError>> = Rc::new(RefCell::new(Some(cb)));
    let f: Rc<RefCell<dyn FnMut(&mut Sim<GfsWorld>, &mut GfsWorld, FsId) -> Result<T, FsError>>> =
        Rc::new(RefCell::new(f));
    manager_rpc_attempt(sim, w, client, fs, shard, mutating, op_id, f, 0, None, slot);
}

type ManagerOp<T> =
    Rc<RefCell<dyn FnMut(&mut Sim<GfsWorld>, &mut GfsWorld, FsId) -> Result<T, FsError>>>;

#[allow(clippy::too_many_arguments)]
fn manager_rpc_attempt<T: Reply + Clone + 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    shard: u32,
    mutating: bool,
    op_id: u64,
    f: ManagerOp<T>,
    attempt: u32,
    prev_mgr: Option<NodeId>,
    cb: Once<Result<T, FsError>>,
) {
    // Each attempt re-resolves the shard's acting manager, so a retry lands
    // on the recovered (possibly relocated) manager rather than the dead
    // home.
    let mgr = w.fss[fs.0 as usize].manager_endpoint(shard);
    log_failover(sim, w, client, prev_mgr, mgr);
    let from = client_node(w, client);
    let rpcb = w.costs.rpc_bytes;
    let timeout = w.costs.request_timeout;
    let watchdog = {
        let cb = cb.clone();
        let f = f.clone();
        sim.timer_after(timeout, move |sim, w| {
            w.recovery
                .log(sim.now(), RecoveryWhat::TimeoutDetected { client, server: mgr });
            if attempt >= w.costs.max_retries {
                if let Some(cb) = take(&cb) {
                    cb(sim, w, Err(FsError::Timeout));
                }
                return;
            }
            let delay = backoff_delay(w, attempt);
            sim.after(delay, move |sim, w| {
                manager_rpc_attempt(
                    sim,
                    w,
                    client,
                    fs,
                    shard,
                    mutating,
                    op_id,
                    f,
                    attempt + 1,
                    Some(mgr),
                    cb,
                );
            });
        })
    };
    Network::send_msg(sim, w, from, mgr, rpcb, move |sim, w| {
        // A crashed, recovering, or superseded manager drops the request
        // silently; only the watchdog tells the client.
        {
            let inst = &w.fss[fs.0 as usize];
            let ms = &inst.mgrs[shard as usize];
            if inst.down_servers.contains(&mgr) || ms.recovering || ms.acting != mgr {
                return;
            }
        }
        // Exactly-once: if an earlier attempt of this mutating op already
        // applied (its reply was lost in flight), replay the recorded
        // result instead of executing twice.
        let replay = if mutating {
            w.fss[fs.0 as usize].mgrs[shard as usize]
                .applied_result(op_id)
                .map(|r| r.clone().map(T::from_reply))
        } else {
            None
        };
        let result: Result<T, FsError> = match replay {
            Some(r) => r,
            None => {
                let r = (f.borrow_mut())(sim, w, fs);
                if mutating {
                    let rec = Rc::new(r.clone().map(T::into_reply));
                    w.fss[fs.0 as usize].mgrs[shard as usize].record(op_id, rec);
                }
                r
            }
        };
        let rpcb = w.costs.rpc_bytes;
        Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
            if !sim.cancel_timer(watchdog) {
                return; // watchdog fired first; the retry owns this op
            }
            if let Some(cb) = take(&cb) {
                cb(sim, w, result);
            }
        });
    });
}

/// Generic metadata RPC against a mounted device's manager, under the
/// [`manager_rpc`] survival envelope. `route_path` picks the owning
/// manager shard (cross-shard legacy ops — a rename whose destination
/// lives on another shard — run at the source's owner; the shared-disk
/// `FsCore` makes that correct, and only sessions model the two-phase
/// peer charge).
fn meta_rpc<T: Reply + Clone + 'static>(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    route_path: &str,
    needs_write: bool,
    mut f: impl FnMut(&mut GfsWorld, FsId, u64) -> Result<T, FsError> + 'static,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static,
) {
    let m = match mount_of(w, client, device) {
        Ok(m) => m,
        Err(e) => {
            cb(sim, w, Err(e));
            return;
        }
    };
    if needs_write && m.mode == AccessMode::ReadOnly {
        cb(sim, w, Err(FsError::ReadOnly));
        return;
    }
    let shard = w.fss[m.fs.0 as usize].core.shards.shard_of(route_path);
    // The legacy path votes on hotspot placement too — without this,
    // single-session storms never accumulate heat and the rebalance
    // policy is blind to them.
    if w.fss[m.fs.0 as usize].core.shards.shards() > 1 {
        w.fss[m.fs.0 as usize].core.shards.note_heat(route_path);
    }
    manager_rpc(
        sim,
        w,
        client,
        m.fs,
        shard,
        needs_write,
        move |sim, w, fs| {
            let now = sim.now().as_nanos();
            f(w, fs, now)
        },
        Box::new(cb),
    );
}

/// Create a directory.
pub fn mkdir(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    path: &str,
    owner: Owner,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<InodeId, FsError>) + 'static,
) {
    let path = path.to_string();
    let route = path.clone();
    meta_rpc(
        sim,
        w,
        client,
        device,
        &route,
        true,
        move |w, fs, now| mkdir_apply(w, fs, now, client, &path, &owner),
        cb,
    );
}

/// `stat` a path.
pub fn stat(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    path: &str,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<crate::fscore::FileAttr, FsError>)
        + 'static,
) {
    let path = path.to_string();
    let route = path.clone();
    meta_rpc(
        sim,
        w,
        client,
        device,
        &route,
        false,
        move |w, fs, _| stat_apply(w, fs, client, &path),
        cb,
    );
}

/// List a directory.
pub fn readdir(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    path: &str,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Vec<String>, FsError>) + 'static,
) {
    let path = path.to_string();
    let route = path.clone();
    meta_rpc(
        sim,
        w,
        client,
        device,
        &route,
        false,
        move |w, fs, _| readdir_apply(w, fs, client, &path),
        cb,
    );
}

/// Remove a file or empty directory.
pub fn unlink(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    path: &str,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let path = path.to_string();
    let route = path.clone();
    meta_rpc(
        sim,
        w,
        client,
        device,
        &route,
        true,
        move |w, fs, _| unlink_apply(w, fs, &path),
        cb,
    );
}

/// Rename a file or directory within one filesystem.
pub fn rename(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    from: &str,
    to: &str,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let from = from.to_string();
    let to = to.to_string();
    let route = from.clone();
    meta_rpc(
        sim,
        w,
        client,
        device,
        &route,
        true,
        move |w, fs, _| {
            let r = rename_apply(w, fs, client, &from, &to);
            // The destination may live on another shard. The legacy path
            // runs the whole op at the source's owner (correct over the
            // shared-disk core) and only *counts* the cross-shard commit;
            // the session envelope path models the peer's two-phase
            // service charge and journal record.
            let inst = &mut w.fss[fs.0 as usize];
            if inst.core.shards.shard_of(&from) != inst.core.shards.shard_of(&to) {
                inst.cross_shard_ops += 1;
            }
            r
        },
        cb,
    );
}

/// Truncate an open file to `new_size` (shrinking frees blocks; extending
/// creates a hole). Requires a write-capable handle; takes a whole-file
/// write token, as GPFS does for size changes.
pub fn truncate(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    handle: Handle,
    new_size: u64,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let Some(of) = w.clients[client.0 as usize].handles.get(&handle).cloned() else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    if !of.flags.writes() {
        cb(sim, w, Err(FsError::ReadOnly));
        return;
    }
    let (fs, inode) = (of.fs, of.inode);
    let cb: Cb<Result<(), FsError>> = Box::new(cb);
    acquire_token(
        sim,
        w,
        client,
        fs,
        inode,
        ByteRange::whole(),
        TokenMode::Write,
        Box::new(move |sim, w, r| {
            if let Err(e) = r {
                cb(sim, w, Err(e));
                return;
            }
            // Flush this client's dirty pages first: data written below
            // the new size must survive the truncate (POSIX), and the
            // cache is invalidated afterwards.
            let dirty = w.clients[client.0 as usize].pool.dirty_pages_of(fs, inode);
            let after_flush: Cb<Result<(), FsError>> =
                Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, r| {
                    // If any write-back failed the on-disk state below the
                    // new size is not durable; surface the error instead of
                    // truncating over it.
                    if let Err(e) = r {
                        cb(sim, w, Err(e));
                        return;
                    }
                    // Size changes ride the same channel as tokens: shard 0,
                    // which doubles as the filesystem's block/token manager.
                    manager_rpc(
                        sim,
                        w,
                        client,
                        fs,
                        0,
                        true,
                        move |sim, w, fs| {
                            let now = sim.now().as_nanos();
                            w.fss[fs.0 as usize].core.truncate(inode, new_size, now)
                        },
                        Box::new(move |sim, w, r| {
                            // Cached pages past the new EOF are stale; drop
                            // the whole file conservatively.
                            if r.is_ok() {
                                w.clients[client.0 as usize].pool.invalidate_file(fs, inode);
                            }
                            cb(sim, w, r);
                        }),
                    );
                });
            flush_dirty_pages(sim, w, client, dirty, after_flush);
        }),
    );
}

/// Open (and possibly create) a file.
pub fn open(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    path: &str,
    flags: OpenFlags,
    owner: Owner,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Handle, FsError>) + 'static,
) {
    let path = path.to_string();
    let path2 = path.clone();
    let route = path.clone();
    meta_rpc(
        sim,
        w,
        client,
        device,
        &route,
        flags.writes(),
        move |w, fs, now| open_apply(w, fs, now, client, &path, flags, &owner),
        move |sim, w, r| match r {
            Ok((fs, inode)) => {
                let h = w.alloc_handle();
                let c = &mut w.clients[client.0 as usize];
                c.handles.insert(
                    h,
                    crate::world::OpenFile {
                        fs,
                        inode,
                        flags,
                        path: path2,
                    },
                );
                c.prefetch.insert(h, PrefetchState::new(16));
                cb(sim, w, Ok(h));
            }
            Err(e) => cb(sim, w, Err(e)),
        },
    );
}

// ---------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------

/// Acquire a byte-range token, paying for revocations (including the
/// revoked holders' dirty-page flushes).
///
/// The exchange runs under a two-stage watchdog. Stage one covers the
/// request leg: if the manager never acknowledges (crashed, recovering, or
/// the message was lost to a link flap), the attempt is retried with
/// backoff against the re-resolved acting manager. Stage two covers the
/// revocation phase with a much longer fuse — revoking holders legitimately
/// takes as long as their dirty-page flushes, so only a manager that died
/// *mid-grant* trips it. A retry after the grant was installed but the
/// reply lost hits the token manager's `already_held` fast path, which
/// makes re-acquisition idempotent.
fn acquire_token(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    inode: InodeId,
    range: ByteRange,
    mode: TokenMode,
    cb: Cb<Result<(), FsError>>,
) {
    let slot: Once<Result<(), FsError>> = Rc::new(RefCell::new(Some(cb)));
    acquire_token_attempt(sim, w, client, fs, inode, range, mode, 0, None, slot);
}

#[allow(clippy::too_many_arguments)]
fn acquire_token_attempt(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    inode: InodeId,
    range: ByteRange,
    mode: TokenMode,
    attempt: u32,
    prev_mgr: Option<NodeId>,
    cb: Once<Result<(), FsError>>,
) {
    // Checked per attempt, not just on entry: a previous attempt may have
    // delivered the grant even though its reply raced the watchdog.
    if w.clients[client.0 as usize].holds_token(fs, inode, range, mode) {
        if let Some(cb) = take(&cb) {
            cb(sim, w, Ok(()));
        }
        return;
    }
    // Tokens are a whole-filesystem concern; shard 0's manager serves them
    // regardless of how the namespace is partitioned.
    let mgr = w.fss[fs.0 as usize].manager_endpoint(0);
    log_failover(sim, w, client, prev_mgr, mgr);
    let from = client_node(w, client);
    let rpcb = w.costs.rpc_bytes;
    let timeout = w.costs.request_timeout;

    let retry = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, cb: Once<Result<(), FsError>>| {
        w.recovery
            .log(sim.now(), RecoveryWhat::TimeoutDetected { client, server: mgr });
        if attempt >= w.costs.max_retries {
            if let Some(cb) = take(&cb) {
                cb(sim, w, Err(FsError::Timeout));
            }
            return;
        }
        let delay = backoff_delay(w, attempt);
        sim.after(delay, move |sim, w| {
            acquire_token_attempt(
                sim,
                w,
                client,
                fs,
                inode,
                range,
                mode,
                attempt + 1,
                Some(mgr),
                cb,
            );
        });
    };

    // Stage-one watchdog: request → manager acknowledgment.
    let ack_watchdog = {
        let cb = cb.clone();
        sim.timer_after(timeout, move |sim, w| retry(sim, w, cb))
    };

    Network::send_msg(sim, w, from, mgr, rpcb, move |sim, w| {
        {
            let inst = &w.fss[fs.0 as usize];
            let ms = &inst.mgrs[0];
            if inst.down_servers.contains(&mgr) || ms.recovering || ms.acting != mgr {
                return; // dropped; stage-one watchdog will retry
            }
        }
        let outcome = w.fss[fs.0 as usize]
            .tokens
            .acquire(inode, client, range, mode);
        // Distinct clients that must be revoked before the grant lands.
        let mut holders: Vec<ClientId> = outcome.revoked.iter().map(|g| g.client).collect();
        holders.sort();
        holders.dedup();

        // Immediate acknowledgment so the requester stops the short fuse;
        // the grant itself arrives only after every revocation completes.
        // The fuse slot hands the stage-two watchdog from the ack's
        // delivery (where it is armed) to the grant's (where it is
        // disarmed); the ack always travels first on the same path.
        let fuse_slot: Rc<Cell<Option<simcore::TimerId>>> = Rc::new(Cell::new(None));
        let rpcb = w.costs.rpc_bytes;
        let cb_ack = cb.clone();
        let fuse_arm = fuse_slot.clone();
        Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
            if !sim.cancel_timer(ack_watchdog) {
                return; // a retry owns the acquire now
            }
            // Stage-two watchdog: revocations can legitimately take flush
            // time, so the fuse is generous; it only trips if the manager
            // (or the grant reply's path) died mid-exchange.
            let fuse = SimDuration::from_secs_f64(
                w.costs.request_timeout.as_secs_f64() * (2 + w.costs.max_retries) as f64,
            );
            fuse_arm.set(Some(sim.timer_after(fuse, move |sim, w| retry(sim, w, cb_ack))));
        });

        let finish: Cb<()> = Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ()| {
            // Grant reply to the requester.
            let rpcb = w.costs.rpc_bytes;
            Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
                if let Some(t) = fuse_slot.take() {
                    if !sim.cancel_timer(t) {
                        return; // stage-two fuse fired; the retry owns this
                    }
                }
                let held = w.clients[client.0 as usize]
                    .held_tokens
                    .entry((fs, inode))
                    .or_default();
                // A retried acquire can deliver the same grant twice; the
                // mirror must not double-count it.
                if !held.contains(&(range, mode)) {
                    held.push((range, mode));
                }
                if let Some(cb) = take(&cb) {
                    cb(sim, w, Ok(()));
                }
            });
        });
        let join = Join::new(holders.len(), finish);
        join.maybe_done(sim, w);
        for holder in holders {
            let join = join.clone();
            revoke_from(sim, w, holder, fs, inode, mgr, Box::new(move |sim, w, ()| {
                join.arrive(sim, w)
            }));
        }
    });
}

/// Revoke `holder`'s tokens on an inode: message out, dirty-page flush at
/// the holder, cache invalidation, acknowledgment back.
fn revoke_from(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    holder: ClientId,
    fs: FsId,
    inode: InodeId,
    mgr: NodeId,
    cb: Cb<()>,
) {
    let holder_node = client_node(w, holder);
    let rpcb = w.costs.rpc_bytes;
    Network::send_msg(sim, w, mgr, holder_node, rpcb, move |sim, w| {
        revoke_at_holder(sim, w, holder, fs, inode, mgr, holder_node, cb);
    });
}

/// Runs at the holder: defers until the holder's in-flight operations on
/// the inode complete (GPFS semantics), then flushes, invalidates and acks.
#[allow(clippy::too_many_arguments)]
fn revoke_at_holder(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    holder: ClientId,
    fs: FsId,
    inode: InodeId,
    mgr: NodeId,
    holder_node: NodeId,
    cb: Cb<()>,
) {
    if inflight_busy(w, holder, fs, inode) {
        sim.after(simcore::SimDuration::from_micros(500), move |sim, w| {
            revoke_at_holder(sim, w, holder, fs, inode, mgr, holder_node, cb);
        });
        return;
    }
    {
        // Flush the holder's dirty pages for this inode, then invalidate.
        // A failed write-back does not block revocation: the token is being
        // taken away and the cached copy is invalidated regardless;
        // durability of the lost page is the failed flush's problem.
        let dirty = w.clients[holder.0 as usize].pool.dirty_pages_of(fs, inode);
        let after_flush: Cb<Result<(), FsError>> =
            Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, _r| {
                let c = &mut w.clients[holder.0 as usize];
                c.pool.invalidate_file(fs, inode);
                c.held_tokens.remove(&(fs, inode));
                let rpcb = w.costs.rpc_bytes;
                Network::send_msg(sim, w, holder_node, mgr, rpcb, move |sim, w| cb(sim, w, ()));
            });
        flush_dirty_pages(sim, w, holder, dirty, after_flush);
    }
}

// ---------------------------------------------------------------------
// Subtree leases
// ---------------------------------------------------------------------
//
// A per-site subtree lease (XUFS-style delegation) lets a mount context
// run metadata ops on a top-level subtree against a *local delegate*
// instead of crossing the WAN to the owning manager: the session layer
// checks the client's lease mirror and, on a hit, charges only the
// delegate's service queue. The manager keeps the authoritative lease
// table; a conflicting op from anyone else breaks the lease exactly like
// a token revocation (message out, deferral while the delegate has ops
// in flight, ack back). A holder that never acks — partitioned or dead —
// is *expelled* when its lease term runs out: the manager reclaims the
// subtree and releases every token the node held, and the node itself,
// knowing its term expired, stops trusting its mirror without needing to
// hear from anyone. The next word from the expelled client re-admits it.

/// Acquire a subtree lease on the top-level component of `path` for this
/// client's site. Runs against the owning shard's manager without the
/// retry envelope — leasing is an optimization, callers acquire from a
/// healthy manager or simply keep paying the remote path.
pub fn acquire_lease(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    path: &str,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let m = match mount_of(w, client, device) {
        Ok(m) => m,
        Err(e) => {
            cb(sim, w, Err(e));
            return;
        }
    };
    if m.mode == AccessMode::ReadOnly {
        cb(sim, w, Err(FsError::ReadOnly));
        return;
    }
    let top = crate::fscore::top_component(path);
    if top.is_empty() {
        // The root itself is never leased — that would privatize the
        // entire namespace to one site.
        cb(sim, w, Err(FsError::InvalidArgument(path.to_string())));
        return;
    }
    acquire_lease_attempt(sim, w, client, m.fs, top.into(), Box::new(cb));
}

fn acquire_lease_attempt(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    top: Box<str>,
    cb: Cb<Result<(), FsError>>,
) {
    let shard = w.fss[fs.0 as usize].core.shards.shard_of(&top);
    let mgr = w.fss[fs.0 as usize].manager_endpoint(shard);
    let from = client_node(w, client);
    let rpcb = w.costs.rpc_bytes;
    Network::send_msg(sim, w, from, mgr, rpcb, move |sim, w| {
        {
            let inst = &w.fss[fs.0 as usize];
            let ms = &inst.mgrs[shard as usize];
            if inst.down_servers.contains(&mgr) || ms.recovering || ms.acting != mgr {
                // Dropped at a dead manager; re-poll after a timeout.
                let t = w.costs.request_timeout;
                sim.after(t, move |sim, w| {
                    acquire_lease_attempt(sim, w, client, fs, top, cb);
                });
                return;
            }
        }
        // An expelled client asking for a lease is back on the air; the
        // manager re-admits it before considering the grant.
        readmit_if_expelled(sim, w, fs, client);
        let holder = w.fss[fs.0 as usize].leases.get(&top).copied();
        match holder {
            Some(h) if h != client => {
                // Someone else's delegate owns the subtree: break its
                // lease, then come back for the grant.
                start_lease_break(sim, w, fs, top.clone(), h);
                sim.after(SimDuration::from_millis(10), move |sim, w| {
                    acquire_lease_attempt(sim, w, client, fs, top, cb);
                });
            }
            _ => {
                let inst = &mut w.fss[fs.0 as usize];
                if inst.leases.insert(top.clone(), client).is_none() {
                    inst.lease_grants += 1;
                }
                let rpcb = w.costs.rpc_bytes;
                Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
                    w.clients[client.0 as usize].leases.insert((fs, top));
                    cb(sim, w, Ok(()));
                });
            }
        }
    });
}

/// Break `holder`'s lease on `top` (manager side). Idempotent while a
/// break is already in flight. Arms the expulsion fuse: a holder that
/// does not ack within `costs.lease_break_timeout` loses its membership,
/// not just the lease.
pub(crate) fn start_lease_break(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    fs: FsId,
    top: Box<str>,
    holder: ClientId,
) {
    {
        let inst = &mut w.fss[fs.0 as usize];
        if !inst.breaking.insert(top.clone()) {
            return; // a break for this subtree is already under way
        }
        inst.lease_breaks += 1;
    }
    let shard = w.fss[fs.0 as usize].core.shards.shard_of(&top);
    let mgr = w.fss[fs.0 as usize].mgrs[shard as usize].acting;
    let holder_node = client_node(w, holder);
    let rpcb = w.costs.rpc_bytes;
    let fuse = {
        let top = top.clone();
        sim.timer_after(w.costs.lease_break_timeout, move |sim, w| {
            expel(sim, w, fs, top, holder);
        })
    };
    Network::send_msg(sim, w, mgr, holder_node, rpcb, move |sim, w| {
        lease_break_at_holder(sim, w, fs, top, holder, mgr, holder_node, fuse);
    });
}

/// Runs at the lease holder: defers until the local delegate drains its
/// in-flight ops (GPFS revocation semantics), drops the mirror entry,
/// reconciles the writeback journal with the owning manager (one bulk
/// envelope through the dedup table), then acks back to the manager.
#[allow(clippy::too_many_arguments)]
fn lease_break_at_holder(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    fs: FsId,
    top: Box<str>,
    holder: ClientId,
    mgr: NodeId,
    holder_node: NodeId,
    fuse: simcore::TimerId,
) {
    if w.clients[holder.0 as usize].delegate_inflight > 0 {
        sim.after(SimDuration::from_micros(500), move |sim, w| {
            lease_break_at_holder(sim, w, fs, top, holder, mgr, holder_node, fuse);
        });
        return;
    }
    w.clients[holder.0 as usize].leases.remove(&(fs, top.clone()));
    let ack_top = top.clone();
    crate::session::reconcile_journal(
        sim,
        w,
        holder,
        fs,
        top,
        Box::new(move |sim, w| {
            let top = ack_top;
            let rpcb = w.costs.rpc_bytes;
            Network::send_msg(sim, w, holder_node, mgr, rpcb, move |sim, w| {
                if !sim.cancel_timer(fuse) {
                    return; // the term expired first; the expulsion owns this lease
                }
                let inst = &mut w.fss[fs.0 as usize];
                if inst.leases.get(&top) == Some(&holder) {
                    inst.leases.remove(&top);
                }
                inst.breaking.remove(&top);
            });
        }),
    );
}

/// Lease-term expiry: the holder never acked the break. The manager
/// reclaims the subtree and expels the node — every token it held is
/// released so nobody else blocks on a dead delegate. The node side
/// needs no message: its own term clock tells it the lease (and its
/// cluster membership) lapsed, so it stops trusting every cached grant.
fn expel(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, fs: FsId, top: Box<str>, holder: ClientId) {
    {
        let inst = &mut w.fss[fs.0 as usize];
        inst.breaking.remove(&top);
        if inst.leases.get(&top) != Some(&holder) {
            return; // the break completed on another path after all
        }
        inst.leases.remove(&top);
        inst.expelled.insert(holder);
        inst.expulsions += 1;
        inst.tokens.release_client(holder);
    }
    let c = &mut w.clients[holder.0 as usize];
    c.leases.retain(|(f, _)| *f != fs);
    c.held_tokens.retain(|(f, _), _| *f != fs);
    // The writeback journal dies with the membership: an expelled node's
    // locally-applied mutations will never reconcile (the shared-disk
    // state already holds them; only the manager-side records are lost) —
    // journaled so operators can see what the expulsion cost.
    let dropped = c.journal.iter().filter(|e| e.fs == fs).count() as u64;
    c.journal.retain(|e| e.fs != fs);
    w.recovery
        .log(sim.now(), RecoveryWhat::Expelled { client: holder });
    if dropped > 0 {
        w.recovery.log(
            sim.now(),
            RecoveryWhat::JournalDiscarded { client: holder, ops: dropped },
        );
    }
}

/// First contact from an expelled client lifts the expulsion — GPFS
/// re-admits a node the moment it rejoins quorum, and its caches were
/// already discarded at expulsion time.
pub(crate) fn readmit_if_expelled(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    fs: FsId,
    client: ClientId,
) {
    if w.fss[fs.0 as usize].expelled.remove(&client) {
        w.fss[fs.0 as usize].readmissions += 1;
        w.recovery
            .log(sim.now(), RecoveryWhat::Readmitted { client });
    }
}

/// Voluntarily give a subtree lease back: drain the local delegate,
/// reconcile the writeback journal with the owning shard, then release
/// the lease at the manager. Completes with `Ok` immediately when the
/// client no longer holds the lease (a break or expulsion won the race).
pub fn surrender_lease(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    device: &str,
    path: &str,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let m = match mount_of(w, client, device) {
        Ok(m) => m,
        Err(e) => {
            cb(sim, w, Err(e));
            return;
        }
    };
    let top = crate::fscore::top_component(path);
    if top.is_empty() {
        cb(sim, w, Err(FsError::InvalidArgument(path.to_string())));
        return;
    }
    surrender_drain(sim, w, client, m.fs, top.into(), Box::new(cb));
}

/// Surrender stage 1: wait out in-flight delegate ops (including batches
/// still parked this instant — they count in `delegate_inflight` from
/// park time), like a lease break does.
fn surrender_drain(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    top: Box<str>,
    cb: Cb<Result<(), FsError>>,
) {
    if !w.clients[client.0 as usize].leases.contains(&(fs, top.clone())) {
        cb(sim, w, Ok(()));
        return;
    }
    if w.clients[client.0 as usize].delegate_inflight > 0 {
        sim.after(SimDuration::from_micros(500), move |sim, w| {
            surrender_drain(sim, w, client, fs, top, cb);
        });
        return;
    }
    // Mirror entry goes first: from here no new op delegates, so the
    // journal taken by the reconcile below is complete.
    w.clients[client.0 as usize].leases.remove(&(fs, top.clone()));
    let release_top = top.clone();
    crate::session::reconcile_journal(
        sim,
        w,
        client,
        fs,
        top,
        Box::new(move |sim, w| {
            surrender_release(sim, w, client, fs, release_top, cb);
        }),
    );
}

/// Surrender stage 2 (post-reconcile): release the lease at the owning
/// shard's acting manager. A dead or recovering manager re-polls — the
/// release must eventually land or the manager-side grant would leak.
fn surrender_release(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    top: Box<str>,
    cb: Cb<Result<(), FsError>>,
) {
    let shard = w.fss[fs.0 as usize].core.shards.shard_of(&top);
    let mgr = w.fss[fs.0 as usize].manager_endpoint(shard);
    let from = client_node(w, client);
    let rpcb = w.costs.rpc_bytes;
    Network::send_msg(sim, w, from, mgr, rpcb, move |sim, w| {
        {
            let inst = &w.fss[fs.0 as usize];
            let ms = &inst.mgrs[shard as usize];
            if inst.down_servers.contains(&mgr) || ms.recovering || ms.acting != mgr {
                let t = w.costs.request_timeout;
                sim.after(t, move |sim, w| {
                    surrender_release(sim, w, client, fs, top, cb);
                });
                return;
            }
        }
        let inst = &mut w.fss[fs.0 as usize];
        if inst.leases.get(&top) == Some(&client) {
            inst.leases.remove(&top);
        }
        let rpcb = w.costs.rpc_bytes;
        Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
            cb(sim, w, Ok(()));
        });
    });
}

/// How many subtree moves one rebalance drain cycle may batch. A single
/// move cannot close a gap wider than twice the hottest movable subtree;
/// batching the top-K drains a pile-up in one cycle instead of K.
const REBALANCE_MOVES_PER_STEP: usize = 3;

/// One step of the live rebalance policy: plan the next authority
/// migration batch from accumulated heat (up to
/// [`REBALANCE_MOVES_PER_STEP`] subtrees when a single move cannot close
/// the load gap), drain every involved manager's queued envelopes, then
/// commit — flipping each subtree's owner and journaling a migration
/// record in *both* shards' WALs (either manager can prove the handoff
/// after a crash). Ops already routed keep their captured shard: the
/// shared-disk core and per-shard dedup tables make the straggler window
/// correct, exactly like a cross-shard op. Returns whether a migration
/// was planned (commit lands once the involved queues drain).
pub fn maybe_rebalance(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, fs: FsId) -> bool {
    if w.fss[fs.0 as usize].migrating {
        return false; // previous migration still draining
    }
    let moves = w.fss[fs.0 as usize]
        .core
        .shards
        .plan_rebalance_moves(REBALANCE_MOVES_PER_STEP);
    if moves.is_empty() {
        return false;
    }
    let inst = &mut w.fss[fs.0 as usize];
    inst.migrating = true;
    let drain = moves
        .iter()
        .flat_map(|&(_, from, to)| [from, to])
        .map(|s| inst.mgrs[s as usize].busy_until)
        .fold(sim.now(), SimTime::max);
    sim.at(drain, move |_sim, w| {
        let inst = &mut w.fss[fs.0 as usize];
        for (top, from, to) in &moves {
            // Migration records live in the bit-62 op-id namespace —
            // disjoint from legacy client ids and bit-63 session ids, so
            // they can never collide with (or be retired by) ordinary op
            // acks.
            let op_id = (1u64 << 62) | inst.migration_seq;
            inst.migration_seq += 1;
            let rec = Rc::new(Ok(crate::metaop::MetaReply::Migrated {
                top: top.clone(),
                from: *from,
                to: *to,
            }));
            inst.mgrs[*from as usize].record(op_id, rec.clone());
            inst.mgrs[*to as usize].record(op_id, rec);
        }
        inst.core.shards.commit_moves(&moves);
        inst.migrating = false;
    });
    true
}

// ---------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------
//
// Every NSD request runs under a watchdog: if no response arrives within
// `costs.request_timeout` the attempt is abandoned and retried after a
// bounded exponential backoff with seeded jitter, re-resolving the target
// server each time so requests fail over to the next healthy NSD server in
// the ring. The watchdog is a cancellable timer ([`Sim::timer_after`]): the
// response path revokes it on arrival, so completed requests leave nothing
// behind in the event queue, and a response arriving after its watchdog
// fired finds the cancel refused and is dropped (the retry owns the
// operation). The completion callback lives in a shared one-shot slot that
// successive attempts hand forward; `costs.max_retries` timeouts surface
// `FsError::Timeout`, and no reachable server at all is
// `FsError::ServerDown`.

/// Shared one-shot completion slot: the watchdog and the response path race
/// to take it.
type Once<T> = Rc<RefCell<Option<Cb<T>>>>;

fn take<T>(slot: &Once<T>) -> Option<Cb<T>> {
    slot.borrow_mut().take()
}

/// Backoff delay before retry `attempt + 1`: `retry_base * 2^attempt`,
/// scaled by a deterministic jitter in `[0.5, 1.5)` drawn from the world's
/// seeded RNG (so colliding clients decorrelate but reruns reproduce).
pub(crate) fn backoff_delay(w: &mut GfsWorld, attempt: u32) -> SimDuration {
    let jitter = 0.5 + w.rng.gen::<f64>();
    let scale = (1u64 << attempt.min(16)) as f64;
    SimDuration::from_secs_f64(w.costs.retry_base.as_secs_f64() * scale * jitter)
}

/// Note a failover in the recovery log when a retry lands on a new server.
pub(crate) fn log_failover(sim: &Sim<GfsWorld>, w: &mut GfsWorld, client: ClientId, prev: Option<NodeId>, now_srv: NodeId) {
    if let Some(prev) = prev {
        if prev != now_srv {
            w.recovery.log(
                sim.now(),
                RecoveryWhat::FailedOver {
                    client,
                    from: prev,
                    to: now_srv,
                },
            );
        }
    }
}

/// Group per-block requests into maximal scatter-gather runs: same file,
/// same NSD, consecutive *disk* blocks. Runs are issued in file order (by
/// each run's lowest file-block index), so a fully striped access — where
/// consecutive file blocks land on different NSDs — degenerates to the
/// exact one-request-per-block sequence of the uncoalesced path.
fn coalesce<T>(mut items: Vec<(PageKey, BlockAddr, T)>) -> Vec<(BlockAddr, Vec<(PageKey, T)>)> {
    items.sort_by_key(|(k, a, _)| (k.fs.0, k.inode.0, a.nsd, a.block));
    let mut runs: Vec<(BlockAddr, Vec<(PageKey, T)>)> = Vec::new();
    for (key, addr, payload) in items {
        if let Some((base, members)) = runs.last_mut() {
            let head = &members[0].0;
            if head.fs == key.fs
                && head.inode == key.inode
                && base.nsd == addr.nsd
                && base.block + members.len() as u64 == addr.block
            {
                members.push((key, payload));
                continue;
            }
        }
        runs.push((addr, vec![(key, payload)]));
    }
    runs.sort_by_key(|(_, members)| {
        let head = &members[0].0;
        let first_file_block = members.iter().map(|(k, _)| k.block).min().unwrap_or(0);
        (head.fs.0, head.inode.0, first_file_block)
    });
    runs
}

/// Fetch one block into the page pool (cache-aware). `cb` receives the
/// block's full contents, or the error after the retry budget is spent.
/// Single-block convenience over [`fetch_run`], used by read-modify-write.
fn fetch_block(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    fs: FsId,
    inode: InodeId,
    block_idx: u64,
    cb: Cb<Result<Bytes, FsError>>,
) {
    let key = PageKey {
        fs,
        inode,
        block: block_idx,
    };
    if let Some(data) = w.clients[client.0 as usize].pool.get(key) {
        cb(sim, w, Ok(data));
        return;
    }
    let inst = &w.fss[fs.0 as usize];
    let block_size = inst.core.config.block_size;
    let addr = inst
        .core
        .block_map(inode, block_idx * block_size, 1)
        .ok()
        .and_then(|m| m.first().and_then(|(_, a)| *a));
    let Some(addr) = addr else {
        // Hole or past-EOF: zeros, no I/O (and no allocation — the zero
        // block is a shared refcounted payload).
        let zeros = inst.core.zero_block();
        cb(sim, w, Ok(zeros));
        return;
    };
    fetch_run(
        sim,
        w,
        client,
        vec![key],
        addr,
        block_size,
        Box::new(move |sim, w, r| {
            cb(sim, w, r.map(|mut parts| parts.pop().expect("one block requested")))
        }),
    );
}

/// Fetch a scatter-gather run of disk-contiguous blocks (one request
/// message, one NSD service, one bulk flow, one watchdog for the whole
/// run). `keys[i]` is the file block stored at disk block `addr.block + i`.
/// `cb` receives the per-block payloads in run order.
fn fetch_run(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    keys: Vec<PageKey>,
    addr: BlockAddr,
    block_size: u64,
    cb: Cb<Result<Vec<Bytes>, FsError>>,
) {
    let slot: Once<Result<Vec<Bytes>, FsError>> = Rc::new(RefCell::new(Some(cb)));
    fetch_run_attempt(sim, w, client, keys, addr, block_size, 0, None, slot);
}

#[allow(clippy::too_many_arguments)]
fn fetch_run_attempt(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    keys: Vec<PageKey>,
    addr: BlockAddr,
    block_size: u64,
    attempt: u32,
    prev_server: Option<NodeId>,
    cb: Once<Result<Vec<Bytes>, FsError>>,
) {
    let fs = keys[0].fs;
    let nblocks = keys.len() as u64;
    let Some(server) = w.fss[fs.0 as usize].try_server_of(NsdId(addr.nsd)) else {
        if let Some(cb) = take(&cb) {
            cb(sim, w, Err(FsError::ServerDown));
        }
        return;
    };
    log_failover(sim, w, client, prev_server, server);
    w.nsd_stats.record(nblocks, nblocks * block_size);
    let from = client_node(w, client);
    let rpcb = w.costs.rpc_bytes;
    let window = w.costs.flow_window;

    // Watchdog: a cancellable timer the response path revokes on arrival.
    // If it fires, this attempt is abandoned and the retry owns the slot.
    let timeout = w.costs.request_timeout;
    let watchdog = {
        let cb = cb.clone();
        let keys = keys.clone();
        sim.timer_after(timeout, move |sim, w| {
            w.recovery
                .log(sim.now(), RecoveryWhat::TimeoutDetected { client, server });
            if attempt >= w.costs.max_retries {
                if let Some(cb) = take(&cb) {
                    cb(sim, w, Err(FsError::Timeout));
                }
                return;
            }
            let delay = backoff_delay(w, attempt);
            sim.after(delay, move |sim, w| {
                fetch_run_attempt(
                    sim,
                    w,
                    client,
                    keys,
                    addr,
                    block_size,
                    attempt + 1,
                    Some(server),
                    cb,
                );
            });
        })
    };

    Network::send_msg(sim, w, from, server, rpcb, move |sim, w| {
        // A crashed server silently drops the request: the watchdog is the
        // only way the client learns about it.
        if w.fss[fs.0 as usize].down_servers.contains(&server) {
            return;
        }
        // NSD service at the server: one seek, `nblocks` contiguous blocks.
        let inst = &mut w.fss[fs.0 as usize];
        let done = inst.nsds[addr.nsd as usize].serve(
            &mut w.arrays,
            sim.now(),
            IoKind::Read,
            addr.block * block_size,
            nblocks * block_size,
        );
        sim.at(done, move |sim, w| {
            // Bulk data back to the client.
            let spec = FlowSpec {
                src: server,
                dst: from,
                bytes: nblocks * block_size,
                window: Some(window),
                tag: tags::NSD_READ,
            };
            Network::start_flow(sim, w, spec, move |sim, w| {
                if !sim.cancel_timer(watchdog) {
                    return; // watchdog fired first; a retry owns this fetch
                }
                let parts = w.fss[fs.0 as usize].core.get_block_run(addr, nblocks);
                for (key, data) in keys.iter().zip(parts.iter()) {
                    let evicted = w.clients[client.0 as usize]
                        .pool
                        .insert_clean(*key, data.clone());
                    flush_evicted(sim, w, client, evicted);
                }
                if let Some(cb) = take(&cb) {
                    cb(sim, w, Ok(parts));
                }
            });
        });
    });
}

/// Fetch a scatter-gather run from a replica site — the nearest-replica
/// read path. Identical envelope to [`fetch_run`] (one request message,
/// one service queue pass, one bulk flow, one watchdog) except the
/// request targets the replica site's server and queues instead of the
/// home farm's. Two guarantees on top:
///
/// * **Never serve stale.** The copy's currency
///   ([`crate::replica::ReplicaCatalog::copy_current`]) is re-checked at
///   issue and again at completion; a write that invalidated the copy in
///   between makes the fetch fall back to the home farm (counted as a
///   `stale_fallback`), so `stale_reads` stays zero by construction.
/// * **No availability regression.** A watchdog timeout retries against
///   the *home* farm with the shared retry budget — a dead or
///   partitioned replica site degrades to the single-home path instead
///   of failing the read.
fn fetch_run_replica(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    keys: Vec<PageKey>,
    addr: BlockAddr,
    block_size: u64,
    site: u32,
    cb: Cb<Result<Vec<Bytes>, FsError>>,
) {
    let slot: Once<Result<Vec<Bytes>, FsError>> = Rc::new(RefCell::new(Some(cb)));
    fetch_run_replica_attempt(sim, w, client, keys, addr, block_size, site, 0, slot);
}

fn fetch_run_replica_attempt(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    keys: Vec<PageKey>,
    addr: BlockAddr,
    block_size: u64,
    site: u32,
    attempt: u32,
    cb: Once<Result<Vec<Bytes>, FsError>>,
) {
    let fs = keys[0].fs;
    let inode = keys[0].inode;
    let nblocks = keys.len() as u64;
    let (server, current) = {
        let inst = &w.fss[fs.0 as usize];
        let s = &inst.replicas.sites[site as usize];
        (
            s.servers[addr.nsd as usize % s.servers.len()],
            inst.replicas.copy_current(inode, site),
        )
    };
    if !current || w.fss[fs.0 as usize].down_servers.contains(&server) {
        // The plan raced a write (or the site's server is down): never
        // serve a non-current copy — re-fetch from the home farm.
        if !current {
            w.fss[fs.0 as usize].replicas.counters.stale_fallbacks += 1;
        }
        fetch_run_attempt(sim, w, client, keys, addr, block_size, attempt, None, cb);
        return;
    }
    w.nsd_stats.record(nblocks, nblocks * block_size);
    let from = client_node(w, client);
    let rpcb = w.costs.rpc_bytes;
    let window = w.costs.flow_window;

    // Watchdog: like the home path's, but the retry goes *home* — the
    // replica site already failed to answer once.
    let timeout = w.costs.request_timeout;
    let watchdog = {
        let cb = cb.clone();
        let keys = keys.clone();
        sim.timer_after(timeout, move |sim, w| {
            w.recovery
                .log(sim.now(), RecoveryWhat::TimeoutDetected { client, server });
            if attempt >= w.costs.max_retries {
                if let Some(cb) = take(&cb) {
                    cb(sim, w, Err(FsError::Timeout));
                }
                return;
            }
            let delay = backoff_delay(w, attempt);
            sim.after(delay, move |sim, w| {
                fetch_run_attempt(
                    sim,
                    w,
                    client,
                    keys,
                    addr,
                    block_size,
                    attempt + 1,
                    Some(server),
                    cb,
                );
            });
        })
    };

    Network::send_msg(sim, w, from, server, rpcb, move |sim, w| {
        if w.fss[fs.0 as usize].down_servers.contains(&server) {
            return; // crashed mid-flight; the watchdog handles it
        }
        // Service at the replica site's own queue for this stripe slot.
        let inst = &mut w.fss[fs.0 as usize];
        let nq = inst.replicas.sites[site as usize].nsds.len();
        let done = inst.replicas.sites[site as usize].nsds[addr.nsd as usize % nq].serve(
            &mut w.arrays,
            sim.now(),
            IoKind::Read,
            addr.block * block_size,
            nblocks * block_size,
        );
        sim.at(done, move |sim, w| {
            let spec = FlowSpec {
                src: server,
                dst: from,
                bytes: nblocks * block_size,
                window: Some(window),
                tag: tags::NSD_READ,
            };
            Network::start_flow(sim, w, spec, move |sim, w| {
                if !sim.cancel_timer(watchdog) {
                    return; // watchdog fired first; a retry owns this fetch
                }
                // Completion-side currency check: a write that landed
                // while the data was in flight invalidated this copy.
                // Serving it now would be exactly the stale-after-
                // invalidate read the invariants forbid — go home.
                if !w.fss[fs.0 as usize].replicas.copy_current(inode, site) {
                    w.fss[fs.0 as usize].replicas.counters.stale_fallbacks += 1;
                    fetch_run_attempt(sim, w, client, keys, addr, block_size, 0, None, cb);
                    return;
                }
                {
                    let s = &mut w.fss[fs.0 as usize].replicas.sites[site as usize];
                    s.reads += 1;
                    s.bytes_served += nblocks * block_size;
                }
                let parts = w.fss[fs.0 as usize].core.get_block_run(addr, nblocks);
                for (key, data) in keys.iter().zip(parts.iter()) {
                    let evicted = w.clients[client.0 as usize]
                        .pool
                        .insert_clean(*key, data.clone());
                    flush_evicted(sim, w, client, evicted);
                }
                if let Some(cb) = take(&cb) {
                    cb(sim, w, Ok(parts));
                }
            });
        });
    });
}

/// Flush a batch of dirty pages, coalescing disk-contiguous blocks into
/// scatter-gather write runs. `done` fires once every page has settled,
/// carrying the first flush error (if any). Pages whose blocks were freed
/// underneath (truncate/unlink raced the flush) settle immediately.
fn flush_dirty_pages(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    dirty: Vec<DirtyPage>,
    done: Cb<Result<(), FsError>>,
) {
    let first_err: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
    let first_err_f = first_err.clone();
    let finish: Cb<()> = Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ()| {
        match first_err_f.borrow_mut().take() {
            Some(e) => done(sim, w, Err(e)),
            None => done(sim, w, Ok(())),
        }
    });
    let join = Join::new(dirty.len(), finish);
    let mut items = Vec::with_capacity(dirty.len());
    for page in dirty {
        let inst = &w.fss[page.key.fs.0 as usize];
        let block_size = inst.core.config.block_size;
        let addr = inst
            .core
            .block_map(page.key.inode, page.key.block * block_size, 1)
            .ok()
            .and_then(|m| m.first().and_then(|(_, a)| *a));
        match addr {
            Some(addr) => items.push((page.key, addr, page.data)),
            None => join.arrive(sim, w),
        }
    }
    for (addr, members) in coalesce(items) {
        let (keys, data): (Vec<PageKey>, Vec<Bytes>) = members.into_iter().unzip();
        let block_size = w.fss[keys[0].fs.0 as usize].core.config.block_size;
        let run_len = keys.len();
        let join = join.clone();
        let first_err = first_err.clone();
        flush_run(
            sim,
            w,
            client,
            keys,
            data,
            addr,
            block_size,
            Box::new(move |sim, w, r| {
                if let Err(e) = r {
                    first_err.borrow_mut().get_or_insert(e);
                }
                for _ in 0..run_len {
                    join.arrive(sim, w);
                }
            }),
        );
    }
    join.maybe_done(sim, w);
}

/// Flush a scatter-gather run of dirty pages to disk-contiguous blocks on
/// one NSD, with the same timeout/retry/failover envelope as reads: one
/// bulk flow, one NSD service, one ack, one watchdog for the whole run.
#[allow(clippy::too_many_arguments)]
fn flush_run(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    keys: Vec<PageKey>,
    data: Vec<Bytes>,
    addr: BlockAddr,
    block_size: u64,
    cb: Cb<Result<(), FsError>>,
) {
    let slot: Once<Result<(), FsError>> = Rc::new(RefCell::new(Some(cb)));
    flush_run_attempt(sim, w, client, keys, data, addr, block_size, 0, None, slot);
}

#[allow(clippy::too_many_arguments)]
fn flush_run_attempt(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    keys: Vec<PageKey>,
    data: Vec<Bytes>,
    addr: BlockAddr,
    block_size: u64,
    attempt: u32,
    prev_server: Option<NodeId>,
    cb: Once<Result<(), FsError>>,
) {
    let fs = keys[0].fs;
    let nblocks = keys.len() as u64;
    let Some(server) = w.fss[fs.0 as usize].try_server_of(NsdId(addr.nsd)) else {
        if let Some(cb) = take(&cb) {
            cb(sim, w, Err(FsError::ServerDown));
        }
        return;
    };
    log_failover(sim, w, client, prev_server, server);
    w.nsd_stats.record(nblocks, nblocks * block_size);
    let from = client_node(w, client);
    let window = w.costs.flow_window;

    // Watchdog: cancelled by the ack path; on fire the retry owns the slot.
    let timeout = w.costs.request_timeout;
    let watchdog = {
        let cb = cb.clone();
        let keys = keys.clone();
        let data = data.clone();
        sim.timer_after(timeout, move |sim, w| {
            w.recovery
                .log(sim.now(), RecoveryWhat::TimeoutDetected { client, server });
            if attempt >= w.costs.max_retries {
                if let Some(cb) = take(&cb) {
                    cb(sim, w, Err(FsError::Timeout));
                }
                return;
            }
            let delay = backoff_delay(w, attempt);
            sim.after(delay, move |sim, w| {
                flush_run_attempt(
                    sim,
                    w,
                    client,
                    keys,
                    data,
                    addr,
                    block_size,
                    attempt + 1,
                    Some(server),
                    cb,
                );
            });
        })
    };

    let spec = FlowSpec {
        src: from,
        dst: server,
        bytes: nblocks * block_size,
        window: Some(window),
        tag: tags::NSD_WRITE,
    };
    Network::start_flow(sim, w, spec, move |sim, w| {
        // Crashed mid-transfer: the data never lands, no ack comes back.
        if w.fss[fs.0 as usize].down_servers.contains(&server) {
            return;
        }
        let inst = &mut w.fss[fs.0 as usize];
        let done = inst.nsds[addr.nsd as usize].serve(
            &mut w.arrays,
            sim.now(),
            IoKind::Write,
            addr.block * block_size,
            nblocks * block_size,
        );
        sim.at(done, move |sim, w| {
            w.fss[fs.0 as usize].core.put_block_run(addr, data);
            // Ack back to the client.
            let rpcb = w.costs.rpc_bytes;
            Network::send_msg(sim, w, server, from, rpcb, move |sim, w| {
                if !sim.cancel_timer(watchdog) {
                    return; // a retry owns this flush now
                }
                for key in &keys {
                    w.clients[client.0 as usize].pool.mark_clean(*key);
                }
                if let Some(cb) = take(&cb) {
                    cb(sim, w, Ok(()));
                }
            });
        });
    });
}

fn flush_evicted(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    evicted: Vec<DirtyPage>,
) {
    if evicted.is_empty() {
        return;
    }
    // Background write-behind: errors surface on the next explicit
    // fsync/close of the file, not here.
    flush_dirty_pages(sim, w, client, evicted, Box::new(|_, _, _| {}));
}

/// Read `len` bytes at `offset`. Returns short data at EOF (like POSIX).
pub fn read(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    handle: Handle,
    offset: u64,
    len: u64,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Bytes, FsError>) + 'static,
) {
    let Some(of) = w.clients[client.0 as usize].handles.get(&handle).cloned() else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    let (fs, inode) = (of.fs, of.inode);
    let size = match w.fss[fs.0 as usize].core.inode(inode) {
        Ok(ino) => ino.size(),
        Err(e) => {
            cb(sim, w, Err(e));
            return;
        }
    };
    let end = (offset + len).min(size);
    if offset >= end {
        cb(sim, w, Ok(Bytes::new()));
        return;
    }
    let len = end - offset;
    let block_size = w.fss[fs.0 as usize].core.config.block_size;
    let cb: Cb<Result<Bytes, FsError>> = Box::new(cb);

    acquire_token(
        sim,
        w,
        client,
        fs,
        inode,
        ByteRange::new(offset, end),
        TokenMode::Read,
        Box::new(move |sim, w, r| {
            if let Err(e) = r {
                cb(sim, w, Err(e));
                return;
            }
            // Read atomicity: defer revocations while assembling.
            inflight_enter(w, client, fs, inode);
            let first = offset / block_size;
            let last = end.div_ceil(block_size);
            let nblocks = (last - first) as usize;
            let parts: Rc<RefCell<Vec<Option<Bytes>>>> =
                Rc::new(RefCell::new(vec![None; nblocks]));
            let first_err: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
            let finish: Cb<()> = {
                let parts = parts.clone();
                let first_err = first_err.clone();
                Box::new(move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ()| {
                    if let Some(e) = first_err.borrow_mut().take() {
                        inflight_exit(w, client, fs, inode);
                        cb(sim, w, Err(e));
                        return;
                    }
                    // Assemble the byte range from the block parts. A read
                    // inside one block is a zero-copy slice of the page.
                    let out = if nblocks == 1 {
                        let parts = parts.borrow();
                        let data = parts[0].as_ref().expect("all parts fetched");
                        let bstart = first * block_size;
                        data.slice((offset - bstart) as usize..(end - bstart) as usize)
                    } else {
                        let mut out = Vec::with_capacity(len as usize);
                        for (i, part) in parts.borrow().iter().enumerate() {
                            let block = first + i as u64;
                            let data = part.as_ref().expect("all parts fetched");
                            let bstart = block * block_size;
                            let s = offset.max(bstart) - bstart;
                            let e = (end.min(bstart + block_size)) - bstart;
                            out.extend_from_slice(&data[s as usize..e as usize]);
                        }
                        Bytes::from(out)
                    };
                    // Prefetch ramp: observe the last block touched.
                    let depth = w.clients[client.0 as usize]
                        .prefetch
                        .get_mut(&handle)
                        .map(|p| p.observe(last - 1))
                        .unwrap_or(0);
                    let total_blocks = w.fss[fs.0 as usize]
                        .core
                        .inode(inode)
                        .map(|i| i.size().div_ceil(block_size))
                        .unwrap_or(0);
                    let mut ahead_misses = Vec::new();
                    for ahead in 0..u64::from(depth) {
                        let b = last + ahead;
                        if b >= total_blocks {
                            break;
                        }
                        let key = PageKey {
                            fs,
                            inode,
                            block: b,
                        };
                        if w.clients[client.0 as usize].pool.contains(key) {
                            continue;
                        }
                        // Count the miss (the uncoalesced path probed the
                        // pool per fetch), then resolve the block address.
                        let _ = w.clients[client.0 as usize].pool.get(key);
                        let addr = w.fss[fs.0 as usize]
                            .core
                            .block_map(inode, b * block_size, 1)
                            .ok()
                            .and_then(|m| m.first().and_then(|(_, a)| *a));
                        if let Some(addr) = addr {
                            ahead_misses.push((key, addr, ()));
                        }
                    }
                    let plan_now = sim.now();
                    let from_node = client_node(w, client);
                    for (addr, members) in coalesce(ahead_misses) {
                        let keys: Vec<PageKey> = members.into_iter().map(|(k, ())| k).collect();
                        let segs = replica::plan_run(
                            &mut w.net,
                            &mut w.fss[fs.0 as usize],
                            from_node,
                            inode,
                            addr,
                            keys.len(),
                            plan_now,
                        );
                        for seg in segs {
                            let seg_keys: Vec<PageKey> = keys[seg.first..seg.first + seg.len].to_vec();
                            let seg_addr = BlockAddr {
                                nsd: addr.nsd,
                                block: addr.block + seg.first as u64,
                            };
                            let run_len = seg_keys.len();
                            let done: Cb<Result<Vec<Bytes>, FsError>> =
                                Box::new(move |_sim, w, _r| {
                                    if seg.tracked {
                                        w.fss[fs.0 as usize]
                                            .replicas
                                            .release_pending(seg.source, run_len as u64);
                                    }
                                });
                            match seg.source {
                                replica::Source::Home => {
                                    fetch_run(sim, w, client, seg_keys, seg_addr, block_size, done)
                                }
                                replica::Source::Site(s) => fetch_run_replica(
                                    sim, w, client, seg_keys, seg_addr, block_size, s, done,
                                ),
                            }
                        }
                    }
                    inflight_exit(w, client, fs, inode);
                    cb(sim, w, Ok(out));
                })
            };
            let join = Join::new(nblocks, finish);
            // One block-map resolution for the whole range; cache hits and
            // holes settle inline, misses coalesce into scatter-gather runs.
            let map = w.fss[fs.0 as usize]
                .core
                .block_map(inode, offset, len)
                .unwrap_or_default();
            let mut misses = Vec::new();
            for i in 0..nblocks {
                let key = PageKey {
                    fs,
                    inode,
                    block: first + i as u64,
                };
                if let Some(data) = w.clients[client.0 as usize].pool.get(key) {
                    parts.borrow_mut()[i] = Some(data);
                    join.arrive(sim, w);
                    continue;
                }
                match map.get(i).and_then(|(_, a)| *a) {
                    None => {
                        // Hole or past-EOF: zeros, no I/O.
                        parts.borrow_mut()[i] = Some(w.fss[fs.0 as usize].core.zero_block());
                        join.arrive(sim, w);
                    }
                    Some(addr) => misses.push((key, addr, ())),
                }
            }
            // Replica-aware dispatch: each coalesced run is planned across
            // the home farm and any current replica copies by modeled RTT
            // plus queue depth. With an inert catalog the planner returns a
            // single untracked Home segment and this reduces to exactly the
            // legacy one-fetch-per-run path.
            let plan_now = sim.now();
            let from_node = client_node(w, client);
            for (addr, members) in coalesce(misses) {
                let keys: Vec<PageKey> = members.into_iter().map(|(k, ())| k).collect();
                let segs = replica::plan_run(
                    &mut w.net,
                    &mut w.fss[fs.0 as usize],
                    from_node,
                    inode,
                    addr,
                    keys.len(),
                    plan_now,
                );
                for seg in segs {
                    let seg_keys: Vec<PageKey> = keys[seg.first..seg.first + seg.len].to_vec();
                    let seg_addr = BlockAddr {
                        nsd: addr.nsd,
                        block: addr.block + seg.first as u64,
                    };
                    let parts = parts.clone();
                    let join = join.clone();
                    let first_err = first_err.clone();
                    let run_len = seg_keys.len();
                    let done_keys = seg_keys.clone();
                    let done: Cb<Result<Vec<Bytes>, FsError>> = Box::new(move |sim, w, r| {
                        if seg.tracked {
                            w.fss[fs.0 as usize]
                                .replicas
                                .release_pending(seg.source, run_len as u64);
                        }
                        match r {
                            Ok(data) => {
                                for (key, part) in done_keys.iter().zip(data) {
                                    parts.borrow_mut()[(key.block - first) as usize] = Some(part);
                                }
                            }
                            Err(e) => {
                                first_err.borrow_mut().get_or_insert(e);
                            }
                        }
                        for _ in 0..run_len {
                            join.arrive(sim, w);
                        }
                    });
                    match seg.source {
                        replica::Source::Home => {
                            fetch_run(sim, w, client, seg_keys, seg_addr, block_size, done);
                        }
                        replica::Source::Site(s) => {
                            fetch_run_replica(
                                sim, w, client, seg_keys, seg_addr, block_size, s, done,
                            );
                        }
                    }
                }
            }
            join.maybe_done(sim, w);
        }),
    );
}

/// Write `data` at `offset` (write-behind: completes once the pages are
/// dirty in the pool and space/size are recorded at the manager).
pub fn write(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    handle: Handle,
    offset: u64,
    data: Bytes,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let Some(of) = w.clients[client.0 as usize].handles.get(&handle).cloned() else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    if !of.flags.writes() {
        cb(sim, w, Err(FsError::ReadOnly));
        return;
    }
    if data.is_empty() {
        cb(sim, w, Ok(()));
        return;
    }
    let (fs, inode) = (of.fs, of.inode);
    let block_size = w.fss[fs.0 as usize].core.config.block_size;
    let end = offset + data.len() as u64;
    let cb: Cb<Result<(), FsError>> = Box::new(cb);

    acquire_token(
        sim,
        w,
        client,
        fs,
        inode,
        ByteRange::new(offset, end),
        TokenMode::Write,
        Box::new(move |sim, w, r| {
            if let Err(e) = r {
                cb(sim, w, Err(e));
                return;
            }
            // The token is held: mark the operation in flight so a
            // concurrent revocation waits for us (write atomicity).
            inflight_enter(w, client, fs, inode);
            // Allocation + size RPC to the manager — block allocation is
            // shard 0's job regardless of namespace partitioning.
            manager_rpc(
                sim,
                w,
                client,
                fs,
                0,
                true,
                move |sim, w, fs| -> Result<(), FsError> {
                    let now = sim.now().as_nanos();
                    let inst = &mut w.fss[fs.0 as usize];
                    let first = offset / block_size;
                    let last = end.div_ceil(block_size);
                    for b in first..last {
                        inst.core.ensure_block(inode, b)?;
                    }
                    inst.core.note_write(inode, offset, end - offset, now)?;
                    // Write-consistency hook: bump the file generation and
                    // invalidate (or patch, under Update policy) replica
                    // copies. Rides the byte-range token revocation that
                    // already serialized this write against readers.
                    inst.replicas.on_write(inode, end - offset);
                    Ok(())
                },
                Box::new(move |sim, w, alloc_result| {
                    if let Err(e) = alloc_result {
                        inflight_exit(w, client, fs, inode);
                        cb(sim, w, Err(e));
                        return;
                    }
                    // Merge data into pages; partial blocks may need the
                    // old contents first.
                    let first = offset / block_size;
                    let last = end.div_ceil(block_size);
                    let first_err: Rc<RefCell<Option<FsError>>> = Rc::new(RefCell::new(None));
                    let first_err_f = first_err.clone();
                    let finish: Cb<()> = Box::new(move |sim: &mut Sim<GfsWorld>, w, ()| {
                        inflight_exit(w, client, fs, inode);
                        match first_err_f.borrow_mut().take() {
                            Some(e) => cb(sim, w, Err(e)),
                            None => cb(sim, w, Ok(())),
                        }
                    });
                    let join = Join::new((last - first) as usize, finish);
                    join.maybe_done(sim, w);
                    for b in first..last {
                        let bstart = b * block_size;
                        let bend = bstart + block_size;
                        let s = offset.max(bstart);
                        let e = end.min(bend);
                        let slice =
                            data.slice((s - offset) as usize..(e - offset) as usize);
                        let full_cover = s == bstart && e == bend;
                        let key = PageKey {
                            fs,
                            inode,
                            block: b,
                        };
                        let join = join.clone();
                        let join_err = join.clone();
                        let first_err = first_err.clone();
                        let merge = move |sim: &mut Sim<GfsWorld>,
                                          w: &mut GfsWorld,
                                          old: Option<Bytes>| {
                            // A fully covered block dirties the caller's
                            // slice as-is (zero-copy); a partial write
                            // merges into a copy of the old contents.
                            let page = match old {
                                None => slice.clone(),
                                Some(old) => {
                                    let mut buf = old.to_vec();
                                    buf.resize(block_size as usize, 0);
                                    buf[(s - bstart) as usize..(e - bstart) as usize]
                                        .copy_from_slice(&slice);
                                    Bytes::from(buf)
                                }
                            };
                            let evicted = w.clients[client.0 as usize]
                                .pool
                                .insert_dirty(key, page);
                            flush_evicted(sim, w, client, evicted);
                            join.arrive(sim, w);
                        };
                        if full_cover {
                            merge(sim, w, None);
                        } else if let Some(old) = w.clients[client.0 as usize].pool.get(key) {
                            merge(sim, w, Some(old));
                        } else {
                            // Read-modify-write: a failed fetch fails the
                            // write for this block rather than merging into
                            // stale or zeroed contents.
                            fetch_block(
                                sim,
                                w,
                                client,
                                fs,
                                inode,
                                b,
                                Box::new(move |sim, w, r| match r {
                                    Ok(old) => merge(sim, w, Some(old)),
                                    Err(e) => {
                                        first_err.borrow_mut().get_or_insert(e);
                                        join_err.arrive(sim, w);
                                    }
                                }),
                            );
                        }
                    }
                }),
            );
        }),
    );
}

/// Flush all dirty pages of the file behind `handle`.
pub fn fsync(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    handle: Handle,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let c = &w.clients[client.0 as usize];
    let Some(of) = c.handles.get(&handle) else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    let dirty = c.pool.dirty_pages_of(of.fs, of.inode);
    flush_dirty_pages(sim, w, client, dirty, Box::new(cb));
}

/// Close: flush, release tokens at the manager, drop the handle.
pub fn close(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    client: ClientId,
    handle: Handle,
    cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
) {
    let Some(of) = w.clients[client.0 as usize].handles.get(&handle).cloned() else {
        cb(sim, w, Err(FsError::BadHandle));
        return;
    };
    let (fs, inode) = (of.fs, of.inode);
    let cb: Cb<Result<(), FsError>> = Box::new(cb);
    fsync(sim, w, client, handle, move |sim, w, r| {
        if let Err(e) = r {
            cb(sim, w, Err(e));
            return;
        }
        // Token releases go where tokens live: shard 0's manager.
        manager_rpc(
            sim,
            w,
            client,
            fs,
            0,
            true,
            move |_sim, w, fs| {
                w.fss[fs.0 as usize].tokens.release_all(inode, client);
                Ok(())
            },
            Box::new(move |sim, w, r: Result<(), FsError>| {
                if let Err(e) = r {
                    cb(sim, w, Err(e));
                    return;
                }
                let c = &mut w.clients[client.0 as usize];
                c.held_tokens.remove(&(fs, inode));
                c.handles.remove(&handle);
                c.prefetch.remove(&handle);
                cb(sim, w, Ok(()));
            }),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::FsConfig;
    use crate::world::{FsParams, WorldBuilder};
    use simcore::{Bandwidth, SimDuration};

    /// Two sites over a WAN: SDSC owns the fs; a remote client at "far"
    /// reaches it over a 30 ms link. A local client sits next to the
    /// manager.
    struct TestBed {
        sim: Sim<GfsWorld>,
        w: GfsWorld,
        local: ClientId,
        remote: ClientId,
    }

    fn bed() -> TestBed {
        let mut b = WorldBuilder::new(42);
        b.key_bits(384);
        let mgr = b.topo().node("sdsc-mgr");
        let loc = b.topo().node("sdsc-client");
        let far = b.topo().node("ncsa-client");
        b.topo().duplex_link(
            loc,
            mgr,
            Bandwidth::gbit(1.0),
            SimDuration::from_micros(50),
            "lan",
        );
        b.topo().duplex_link(
            far,
            mgr,
            Bandwidth::gbit(1.0),
            SimDuration::from_millis(30),
            "wan",
        );
        let sdsc = b.cluster("sdsc.teragrid");
        let ncsa = b.cluster("ncsa.teragrid");
        let _fs = b.filesystem(
            sdsc,
            FsParams::ideal(
                FsConfig::small_test("gpfs-wan"),
                mgr,
                vec![mgr],
                Bandwidth::mbyte(400.0),
                SimDuration::from_micros(300),
            ),
        );
        let local = b.client(sdsc, loc, 256);
        let remote = b.client(ncsa, far, 256);
        let (sim, mut w) = b.build();
        // Wire multi-cluster trust: SDSC grants NCSA; NCSA defines remote.
        let ncsa_key = w.clusters[ncsa.0 as usize].auth.public_key();
        let sdsc_auth = &mut w.clusters[sdsc.0 as usize].auth;
        sdsc_auth.mmauth_add("ncsa.teragrid", ncsa_key);
        sdsc_auth.mmauth_grant("ncsa.teragrid", "gpfs-wan", AccessMode::ReadWrite);
        w.clusters[ncsa.0 as usize].remote_clusters.insert(
            "sdsc.teragrid".into(),
            crate::world::RemoteClusterDef { contact: mgr },
        );
        w.clusters[ncsa.0 as usize].remote_fs.insert(
            "gpfs-wan".into(),
            crate::world::RemoteFsDef {
                cluster: "sdsc.teragrid".into(),
                remote_device: "gpfs-wan".into(),
            },
        );
        TestBed {
            sim,
            w,
            local,
            remote,
        }
    }

    /// Drive the sim to completion and panic on hangs.
    fn run(bed: &mut TestBed) {
        bed.sim.run(&mut bed.w);
    }

    fn owner() -> Owner {
        Owner::local(500, 100)
    }

    /// Shared result capture for callbacks.
    type Slot<T> = Rc<RefCell<Option<T>>>;
    fn slot<T>() -> Slot<T> {
        Rc::new(RefCell::new(None))
    }

    #[test]
    fn legacy_meta_path_votes_shard_heat() {
        // Single-session (fan_in = false) clients route metadata through
        // the legacy `meta_rpc` path, which must still vote subtree heat —
        // otherwise a storm of legacy clients leaves the rebalance policy
        // blind to the hotspot they create.
        let mut t = bed();
        let local = t.local;
        t.w.fss[0].core.shards.set_shards(2);
        // Pin the test top to shard 0 so the one-manager bed still serves
        // it; the vote, not the placement, is under test.
        t.w.fss[0].core.shards.assign("d", 0);
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            mkdir(sim, w, local, "gpfs-wan", "/d", owner(), move |sim, w, r| {
                r.unwrap();
                stat(sim, w, local, "gpfs-wan", "/d", move |_sim, _w, r| {
                    r.unwrap();
                    ok2.set(true);
                });
            });
        });
        run(&mut t);
        assert!(ok.get(), "legacy op chain did not complete");
        assert!(
            t.w.fss[0].core.shards.heat_of("d") >= 2,
            "legacy mkdir + stat must each vote heat, got {}",
            t.w.fss[0].core.shards.heat_of("d")
        );
    }

    #[test]
    fn local_mount_write_read_roundtrip() {
        let mut t = bed();
        let done: Slot<Bytes> = slot();
        let d2 = done.clone();
        let local = t.local;
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
            r.unwrap();
            open(
                sim,
                w,
                local,
                "gpfs-wan",
                "/hello.txt",
                OpenFlags::ReadWrite,
                owner(),
                move |sim, w, r| {
                    let h = r.unwrap();
                    let payload = Bytes::from_static(b"global file systems for grid computing");
                    let expect = payload.clone();
                    write(sim, w, local, h, 0, payload, move |sim, w, r| {
                        r.unwrap();
                        read(sim, w, local, h, 0, expect.len() as u64, move |sim, w, r| {
                            let got = r.unwrap();
                            assert_eq!(got, expect);
                            close(sim, w, local, h, move |_sim, _w, r| r.unwrap());
                            *d2.borrow_mut() = Some(got);
                        });
                    });
                },
            );
        });
        run(&mut t);
        assert!(done.borrow().is_some(), "operation chain did not complete");
    }

    #[test]
    fn cross_block_write_and_readback() {
        let mut t = bed();
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        // 200 KB spanning four 64 KiB blocks, written at an unaligned offset.
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let payload = Bytes::from(payload);
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            open(
                sim,
                w,
                local,
                "gpfs-wan",
                "/span.bin",
                OpenFlags::ReadWrite,
                owner(),
                move |sim, w, r| {
                    let h = r.unwrap();
                    let expect = payload.clone();
                    write(sim, w, local, h, 1000, payload, move |sim, w, r| {
                        r.unwrap();
                        read(sim, w, local, h, 1000, expect.len() as u64, move |sim, w, r| {
                            assert_eq!(r.unwrap(), expect);
                            // Unwritten prefix reads as zeros.
                            read(sim, w, local, h, 0, 1000, move |_s, _w, r| {
                                let z = r.unwrap();
                                assert_eq!(z.len(), 1000);
                                assert!(z.iter().all(|b| *b == 0));
                                ok2.set(true);
                            });
                        });
                    });
                },
            );
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn remote_mount_handshake_and_io() {
        let mut t = bed();
        let (local, remote) = (t.local, t.remote);
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        // Local writes; remote mounts over the WAN and reads the data back.
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            open(
                sim,
                w,
                local,
                "gpfs-wan",
                "/shared.dat",
                OpenFlags::ReadWrite,
                owner(),
                move |sim, w, r| {
                    let h = r.unwrap();
                    let payload = Bytes::from(vec![0x5au8; 100_000]);
                    write(sim, w, local, h, 0, payload, move |sim, w, r| {
                        r.unwrap();
                        close(sim, w, local, h, move |sim, w, r| {
                            r.unwrap();
                            mount(
                                sim,
                                w,
                                remote,
                                "gpfs-wan",
                                AccessMode::ReadWrite,
                                move |sim, w, r| {
                                    r.unwrap();
                                    open(
                                        sim,
                                        w,
                                        remote,
                                        "gpfs-wan",
                                        "/shared.dat",
                                        OpenFlags::Read,
                                        owner(),
                                        move |sim, w, r| {
                                            let h = r.unwrap();
                                            read(sim, w, remote, h, 0, 100_000, move |_s, _w, r| {
                                                let got = r.unwrap();
                                                assert_eq!(got.len(), 100_000);
                                                assert!(got.iter().all(|b| *b == 0x5a));
                                                ok2.set(true);
                                            });
                                        },
                                    );
                                },
                            );
                        });
                    });
                },
            );
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn readonly_grant_rejects_writes_at_mount_and_op() {
        let mut t = bed();
        let remote = t.remote;
        // Downgrade the grant to read-only (PTF 2 behaviour).
        let sdsc = t.w.cluster_by_name("sdsc.teragrid").unwrap();
        t.w.clusters[sdsc.0 as usize].auth.mmauth_grant(
            "ncsa.teragrid",
            "gpfs-wan",
            AccessMode::ReadOnly,
        );
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        // RW mount must fail; RO mount succeeds but write-opens fail.
        mount(
            &mut t.sim,
            &mut t.w,
            remote,
            "gpfs-wan",
            AccessMode::ReadWrite,
            move |sim, w, r| {
                assert!(matches!(r, Err(FsError::AuthFailed(_))));
                mount(sim, w, remote, "gpfs-wan", AccessMode::ReadOnly, move |sim, w, r| {
                    r.unwrap();
                    open(
                        sim,
                        w,
                        remote,
                        "gpfs-wan",
                        "/new.dat",
                        OpenFlags::Write,
                        owner(),
                        move |_s, _w, r| {
                            assert_eq!(r.unwrap_err(), FsError::ReadOnly);
                            ok2.set(true);
                        },
                    );
                });
            },
        );
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn token_revocation_flushes_writer() {
        let mut t = bed();
        let (a, b_) = (t.local, t.remote);
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, a, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            mount(sim, w, b_, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, r| {
                r.unwrap();
                open(sim, w, a, "gpfs-wan", "/contested", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                    let ha = r.unwrap();
                    let payload = Bytes::from(vec![7u8; 65536]);
                    // A writes but does NOT fsync: data is dirty in A's pool.
                    write(sim, w, a, ha, 0, payload, move |sim, w, r| {
                        r.unwrap();
                        // B reads: the manager must revoke A's write token,
                        // forcing A's flush, before B's read proceeds.
                        open(sim, w, b_, "gpfs-wan", "/contested", OpenFlags::Read, owner(), move |sim, w, r| {
                            let hb = r.unwrap();
                            read(sim, w, b_, hb, 0, 65536, move |_s, w, r| {
                                let got = r.unwrap();
                                assert!(got.iter().all(|x| *x == 7), "B saw unflushed data");
                                // A's token is gone.
                                let fs = FsId(0);
                                let c = &w.clients[a.0 as usize];
                                assert!(!c.held_tokens.contains_key(&(fs, InodeId(1))));
                                ok2.set(true);
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn cache_hits_on_reread() {
        let mut t = bed();
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            open(sim, w, local, "gpfs-wan", "/c", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                let h = r.unwrap();
                write(sim, w, local, h, 0, Bytes::from(vec![1u8; 65536]), move |sim, w, r| {
                    r.unwrap();
                    read(sim, w, local, h, 0, 65536, move |sim, w, r| {
                        r.unwrap();
                        let hits_before = w.clients[local.0 as usize].pool.hits;
                        read(sim, w, local, h, 0, 65536, move |_s, w, r| {
                            r.unwrap();
                            assert!(w.clients[local.0 as usize].pool.hits > hits_before);
                            ok2.set(true);
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn sequential_reads_trigger_prefetch() {
        let mut t = bed();
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            open(sim, w, local, "gpfs-wan", "/seq", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                let h = r.unwrap();
                // 1 MB file = 16 blocks of 64 KiB.
                write(sim, w, local, h, 0, Bytes::from(vec![9u8; 1 << 20]), move |sim, w, r| {
                    r.unwrap();
                    fsync(sim, w, local, h, move |sim, w, r| {
                        r.unwrap();
                        // Drop cache to force fresh fetches.
                        w.clients[local.0 as usize].pool.invalidate_file(FsId(0), InodeId(1));
                        let bs = 65536u64;
                        read(sim, w, local, h, 0, bs, move |sim, w, r| {
                            r.unwrap();
                            read(sim, w, local, h, bs, bs, move |sim, w, r| {
                                r.unwrap();
                                read(sim, w, local, h, 2 * bs, bs, move |sim, _w, r| {
                                    r.unwrap();
                                    // After three sequential block reads the
                                    // prefetcher must be fetching ahead.
                                    sim.after(SimDuration::from_secs(1), move |_s, w: &mut GfsWorld| {
                                        let key = PageKey { fs: FsId(0), inode: InodeId(1), block: 4 };
                                        assert!(
                                            w.clients[local.0 as usize].pool.contains(key),
                                            "block 4 was not prefetched"
                                        );
                                        ok2.set(true);
                                    });
                                });
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn metadata_ops_over_rpc() {
        let mut t = bed();
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            mkdir(sim, w, local, "gpfs-wan", "/data", owner(), move |sim, w, r| {
                r.unwrap();
                open(sim, w, local, "gpfs-wan", "/data/f1", OpenFlags::Write, owner(), move |sim, w, r| {
                    let h = r.unwrap();
                    write(sim, w, local, h, 0, Bytes::from(vec![1u8; 100]), move |sim, w, r| {
                        r.unwrap();
                        close(sim, w, local, h, move |sim, w, r| {
                            r.unwrap();
                            stat(sim, w, local, "gpfs-wan", "/data/f1", move |sim, w, r| {
                                let st = r.unwrap();
                                assert_eq!(st.size, 100);
                                readdir(sim, w, local, "gpfs-wan", "/data", move |sim, w, r| {
                                    assert_eq!(r.unwrap(), vec!["f1".to_string()]);
                                    unlink(sim, w, local, "gpfs-wan", "/data/f1", move |sim, w, r| {
                                        r.unwrap();
                                        stat(sim, w, local, "gpfs-wan", "/data/f1", move |_s, _w, r| {
                                            assert!(matches!(r, Err(FsError::NotFound(_))));
                                            ok2.set(true);
                                        });
                                    });
                                });
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn dentry_invalidation_on_unlink_and_rename() {
        // A second client's dentry cache, warmed by stat, must not serve
        // entries another client has since removed or renamed — the
        // broadcast invalidation in unlink/rename is what this pins.
        let mut t = bed();
        let (local, remote) = (t.local, t.remote);
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            mkdir(sim, w, local, "gpfs-wan", "/d", owner(), move |sim, w, r| {
                r.unwrap();
                open(sim, w, local, "gpfs-wan", "/d/x", OpenFlags::Write, owner(), move |sim, w, r| {
                    let h = r.unwrap();
                    close(sim, w, local, h, move |sim, w, r| {
                        r.unwrap();
                        mount(sim, w, remote, "gpfs-wan", AccessMode::ReadOnly, move |sim, w, r| {
                            r.unwrap();
                            // Warm the remote client's dentry cache.
                            stat(sim, w, remote, "gpfs-wan", "/d/x", move |sim, w, r| {
                                r.unwrap();
                                unlink(sim, w, local, "gpfs-wan", "/d/x", move |sim, w, r| {
                                    r.unwrap();
                                    stat(sim, w, remote, "gpfs-wan", "/d/x", move |sim, w, r| {
                                        assert!(
                                            matches!(r, Err(FsError::NotFound(_))),
                                            "remote resolved an unlinked entry: {r:?}"
                                        );
                                        open(sim, w, local, "gpfs-wan", "/d/y", OpenFlags::Write, owner(), move |sim, w, r| {
                                            let h = r.unwrap();
                                            close(sim, w, local, h, move |sim, w, r| {
                                                r.unwrap();
                                                stat(sim, w, remote, "gpfs-wan", "/d/y", move |sim, w, r| {
                                                    let before = r.unwrap();
                                                    rename(sim, w, local, "gpfs-wan", "/d/y", "/d/z", move |sim, w, r| {
                                                        r.unwrap();
                                                        stat(sim, w, remote, "gpfs-wan", "/d/y", move |sim, w, r| {
                                                            assert!(
                                                                matches!(r, Err(FsError::NotFound(_))),
                                                                "remote resolved a renamed-away entry: {r:?}"
                                                            );
                                                            stat(sim, w, remote, "gpfs-wan", "/d/z", move |_s, _w, r| {
                                                                let after = r.unwrap();
                                                                assert_eq!(after.inode, before.inode);
                                                                ok2.set(true);
                                                            });
                                                        });
                                                    });
                                                });
                                            });
                                        });
                                    });
                                });
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
        // The remote cache was genuinely exercised, not bypassed.
        let dc = &t.w.clients[remote.0 as usize].dentry;
        assert!(dc.hits + dc.misses > 0, "remote dentry cache never probed");
    }

    #[test]
    fn read_past_eof_is_short() {
        let mut t = bed();
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            open(sim, w, local, "gpfs-wan", "/short", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                let h = r.unwrap();
                write(sim, w, local, h, 0, Bytes::from(vec![3u8; 100]), move |sim, w, r| {
                    r.unwrap();
                    read(sim, w, local, h, 50, 1000, move |sim, w, r| {
                        assert_eq!(r.unwrap().len(), 50);
                        read(sim, w, local, h, 200, 10, move |_s, _w, r| {
                            assert_eq!(r.unwrap().len(), 0);
                            ok2.set(true);
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn wan_latency_slows_remote_ops() {
        // The same op sequence takes longer from the 30 ms-away client than
        // from the local one — the paper's latency question, in miniature.
        let mut t = bed();
        let (local, remote) = (t.local, t.remote);
        let t_local = Rc::new(Cell::new(0u64));
        let t_remote = Rc::new(Cell::new(0u64));
        let (tl, tr) = (t_local.clone(), t_remote.clone());
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |sim, w, _| {
            let start = sim.now();
            open(sim, w, local, "gpfs-wan", "/lat", OpenFlags::ReadWrite, owner(), move |sim, w, r| {
                let h = r.unwrap();
                write(sim, w, local, h, 0, Bytes::from(vec![1u8; 65536]), move |sim, w, r| {
                    r.unwrap();
                    close(sim, w, local, h, move |sim, w, r| {
                        r.unwrap();
                        tl.set(sim.now().since(start).as_nanos());
                        // Now remote does a read of the same file.
                        mount(sim, w, remote, "gpfs-wan", AccessMode::ReadOnly, move |sim, w, r| {
                            r.unwrap();
                            let start_r = sim.now();
                            open(sim, w, remote, "gpfs-wan", "/lat", OpenFlags::Read, owner(), move |sim, w, r| {
                                let h = r.unwrap();
                                read(sim, w, remote, h, 0, 65536, move |sim, _w, r| {
                                    r.unwrap();
                                    tr.set(sim.now().since(start_r).as_nanos());
                                });
                            });
                        });
                    });
                });
            });
        });
        run(&mut t);
        assert!(t_local.get() > 0 && t_remote.get() > 0);
        assert!(
            t_remote.get() > t_local.get(),
            "remote ops ({}) should be slower than local ({})",
            t_remote.get(),
            t_local.get()
        );
        // But the WAN read still completes in well under a second — the
        // paper's core claim that latency is survivable.
        assert!(t_remote.get() < 1_000_000_000);
    }

    #[test]
    fn bad_handle_errors() {
        let mut t = bed();
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        read(&mut t.sim, &mut t.w, local, Handle(999), 0, 10, move |_s, _w, r| {
            assert_eq!(r.unwrap_err(), FsError::BadHandle);
            ok2.set(true);
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn unmounted_device_errors() {
        let mut t = bed();
        let local = t.local;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        stat(&mut t.sim, &mut t.w, local, "gpfs-wan", "/x", move |_s, _w, r| {
            assert!(matches!(r, Err(FsError::NotMounted(_))));
            ok2.set(true);
        });
        run(&mut t);
        assert!(ok.get());
    }

    #[test]
    fn unified_mount_dispatches_and_errors_typed() {
        // Unknown device: typed NotMounted, no panic.
        let mut t = bed();
        let local = t.local;
        let remote = t.remote;
        let ok = Rc::new(Cell::new(0u32));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "no-such-dev", AccessMode::ReadWrite, move |_s, _w, r| {
            assert!(matches!(r, Err(FsError::NotMounted(_))));
            ok2.set(ok2.get() + 1);
        });
        // One call surface dispatches both ways: local device on the SDSC
        // client, mmremotefs device on the NCSA client.
        let ok3 = ok.clone();
        mount(&mut t.sim, &mut t.w, local, "gpfs-wan", AccessMode::ReadWrite, move |_s, w, r| {
            r.unwrap();
            assert!(w.clients[local.0 as usize].mounts["gpfs-wan"].session_key.is_none());
            ok3.set(ok3.get() + 1);
        });
        let ok4 = ok.clone();
        mount(&mut t.sim, &mut t.w, remote, "gpfs-wan", AccessMode::ReadWrite, move |_s, w, r| {
            r.unwrap();
            assert_eq!(w.clients[remote.0 as usize].mounts["gpfs-wan"].mode, AccessMode::ReadWrite);
            ok4.set(ok4.get() + 1);
        });
        run(&mut t);
        assert_eq!(ok.get(), 3);
    }

    #[test]
    fn unexported_device_fails_auth_not_panics() {
        let mut t = bed();
        let remote = t.remote;
        t.w.fss[0].exported = false;
        let ok = Rc::new(Cell::new(false));
        let ok2 = ok.clone();
        mount(&mut t.sim, &mut t.w, remote, "gpfs-wan", AccessMode::ReadWrite, move |_s, _w, r| {
            assert!(matches!(r, Err(FsError::AuthFailed(_))));
            ok2.set(true);
        });
        run(&mut t);
        assert!(ok.get());
    }

}
