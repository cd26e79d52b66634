//! Flyweight sessions and manager-RPC fan-in: the million-client envelope.
//!
//! The storm scenarios topped out at tens of clients because every
//! [`crate::world::Client`] is a heavyweight mount context — its own page
//! pool, token mirror, dentry cache and mount table — and every operation
//! is a one-shot free function taking a [`ClientId`]. Real wide-area
//! deployments (XUFS-style per-user sessions over shared per-site state,
//! Grid Datafarm's worldwide user counts) need thousands of *users* per
//! mounting node.
//!
//! A [`Session`] is a flyweight over one mount context: thousands of
//! sessions share a `Client`'s pool / tokens / dentry cache, while
//! per-session state is just a slab-allocated handle table, a cwd, a bound
//! device and an in-flight counter ([`SessionState`]). The facade methods
//! (`sess.mkdir(sim, w, path, cb)` …) replace the loose `client::*` free
//! functions as the scenario-facing call surface; the old `ClientId` paths
//! remain as single-session delegates, byte-identical to the pre-session
//! event sequences.
//!
//! **Fan-in**: on mount contexts built with
//! [`crate::world::WorldBuilder::mount_context`], sessions batch
//! same-instant metadata RPCs into one *envelope* per `(context, fs)` —
//! one request message, one watchdog, one response for the whole batch,
//! with per-op results demuxed in submission order. Each op is a typed
//! [`MetaOp`] run by one `match` at the manager (or at a lease delegate)
//! and answered with a [`MetaResult`]. Exactly-once semantics are
//! preserved per session op id: a retried envelope replays recorded
//! results from the manager's dedup table instead of re-running mutations.
//! This is what makes a 100k-session, 10M-op storm affordable: the
//! simulator pays a handful of events per *envelope* instead of four per
//! op.

use crate::cache::PrefetchState;
use crate::client;
use crate::faults::RecoveryWhat;
use crate::fscore::top_component;
use crate::metaop::{MetaOp, MetaResult, Reply};
use crate::types::{ClientId, FsError, FsId, Handle, InodeId, OpenFlags, Owner, SessionId};
use crate::world::{GfsWorld, JournalEntry, OpenFile};
use bytes::Bytes;
use gfs_auth::handshake::AccessMode;
use simcore::fxhash::{FxHashMap, FxHashSet};
use simcore::{Sim, SimDuration};
use simnet::Network;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-session state: everything a simulated user owns that is *not*
/// shared with the other users of the mount context. Deliberately tiny —
/// the design target is 100k+ live sessions per world.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// The shared mount context this session rides on.
    pub ctx: ClientId,
    /// Open handles, slab-allocated (session-local fd → shared [`Handle`]).
    pub handles: crate::slab::Slab<Handle>,
    /// Current working directory for relative-path resolution.
    pub cwd: String,
    /// Device name ops resolve against (bound by `mount`/`bind_device`).
    pub device: Option<String>,
    /// Facade operations currently in flight (invariant: drains to 0).
    pub inflight_ops: u32,
    /// Sequence for session op ids (high bit set, session id in bits
    /// 62..32, sequence below — disjoint from per-client op ids, so both
    /// populations share one manager dedup table safely).
    pub next_op_seq: u64,
    /// Highest sequence this session has told the manager to retire:
    /// every result at or below it was delivered, so the manager may drop
    /// its recorded copy (see [`crate::world::ManagerState::retire`]).
    pub acked_seq: u64,
}

impl SessionState {
    /// Fresh session state on mount context `ctx`.
    pub fn new(ctx: ClientId) -> Self {
        SessionState {
            ctx,
            handles: crate::slab::Slab::new(),
            cwd: "/".to_string(),
            device: None,
            inflight_ops: 0,
            next_op_seq: 0,
            acked_seq: 0,
        }
    }
}

/// Where an op's result goes: the caller's continuation, the one box an
/// op carries.
type Deliver = Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, MetaResult)>;

/// One operation inside a fan-in envelope (or a delegate batch): the typed
/// op plus its envelope bookkeeping and the client-side demux callback.
pub struct BatchOp {
    op_id: u64,
    /// Op-id range the manager may retire before running this op: the
    /// session acks delivered results so the dedup table stays bounded.
    ack: Option<(u64, u64)>,
    /// Journal replays whose reconcile response the mount context had
    /// received when this op's envelope formed: retired with the ack.
    reconciled: Vec<u64>,
    /// Owning shard of the *other* path of a cross-shard op (rename whose
    /// destination lives elsewhere, mkdir at a shard boundary). `None` for
    /// single-shard ops.
    peer: Option<u32>,
    /// Times this op was deferred and re-queued (lease break in progress,
    /// peer shard recovering); bounded so a wedged peer surfaces as
    /// `Timeout` instead of an endless re-poll.
    defers: u32,
    op: MetaOp,
    /// Taken when the result is delivered (the op itself stays in its
    /// envelope, which a late duplicate attempt may still re-apply).
    deliver: Option<Deliver>,
}

/// Manager-RPC fan-in state on the world: per-`(mount ctx, fs, shard)`
/// batches open in the current instant, plus envelope accounting.
#[derive(Default)]
pub struct FanIn {
    /// Batches still collecting ops this instant (flushed by a scheduled
    /// same-instant event), keyed by `(ctx, fs, manager shard)` — each
    /// envelope travels to the one manager that owns every op inside it.
    pending: FxHashMap<(u32, u32, u32), Vec<BatchOp>>,
    /// Per-shard envelope gate (multi-shard worlds only): envelopes in
    /// flight per `(ctx, fs, shard)`. While nonzero, newly-submitted ops
    /// for that shard park in `pending` instead of flushing — they re-form
    /// as the next envelope the instant the in-flight one returns. Gating
    /// per shard (rather than one barrier across the whole context) keeps
    /// batching without a convoy: a slow envelope — say one carrying a
    /// multi-hop two-phase rename — stalls only its own shard's stream
    /// while the other shards keep pipelining. Without any gate, per-shard
    /// routing fragments the PR-6 batching: each shard's queue completes
    /// at a different instant, the session cohort splinters ~M-ways per
    /// round, and envelopes degenerate to one op each.
    outstanding: FxHashMap<(u32, u32, u32), u32>,
    /// `(ctx, fs, shard)` keys with a same-instant flush already scheduled
    /// (dedups the flush event across many same-instant submits).
    armed: FxHashSet<(u32, u32, u32)>,
    /// Journal-replay op ids per `(ctx, fs)` whose reconcile response
    /// arrived, waiting to ride the context's next envelope to the fs as
    /// retirement acks (the session's own ack covered them before the
    /// replay was recorded).
    reconciled: FxHashMap<(u32, u32), Vec<u64>>,
    /// Delegate batches collecting this instant, keyed by `(ctx, fs)` —
    /// writeback-delegated ops batch exactly like envelopes do, paying a
    /// couple of simulator events per *batch* on the local delegate queue.
    dpending: FxHashMap<(u32, u32), Vec<BatchOp>>,
    /// Envelopes sent (first attempts; retries counted separately).
    pub envelopes: u64,
    /// Total ops carried by those envelopes.
    pub envelope_ops: u64,
    /// Whole-envelope retries after a watchdog timeout.
    pub retries: u64,
    /// Largest single envelope seen.
    pub max_batch: u64,
    /// Ops served by a site-local subtree-lease delegate instead of a
    /// manager envelope.
    pub delegated: u64,
}

impl FanIn {
    /// Ops sitting in not-yet-flushed batches. Unlike the single-shard
    /// world this is *not* zero between events in wave mode (parked ops
    /// wait out the in-flight wave), but it still drains to 0 with the
    /// sim — every park either has a flush armed or a wave outstanding
    /// whose return arms one.
    pub fn pending_ops(&self) -> usize {
        self.pending.values().map(Vec::len).sum()
    }

    /// Delegate ops sitting in not-yet-flushed batches (invariant: 0 once
    /// the sim drains — every submit schedules a same-instant flush).
    pub fn delegate_pending_ops(&self) -> usize {
        self.dpending.values().map(Vec::len).sum()
    }
}

impl GfsWorld {
    /// Open a new flyweight session on mount context `ctx`.
    pub fn open_session(&mut self, ctx: ClientId) -> Session {
        assert!(
            (ctx.0 as usize) < self.clients.len(),
            "open_session on unknown client {ctx:?}"
        );
        Session(SessionId(self.sessions.insert(SessionState::new(ctx))))
    }

    /// Close a session. Panics if it still has open handles or in-flight
    /// operations — sessions must quiesce before ending.
    pub fn end_session(&mut self, s: SessionId) {
        let st = self.sessions.remove(s.0).expect("end_session on unknown session");
        assert!(st.handles.is_empty(), "session {s:?} ended with open handles");
        assert_eq!(st.inflight_ops, 0, "session {s:?} ended with in-flight ops");
    }
}

/// A copyable handle to one flyweight session. All filesystem operations
/// hang off this — it is the redesigned client call surface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Session(pub SessionId);

impl Session {
    /// The session's id.
    pub fn id(self) -> SessionId {
        self.0
    }

    /// The shared mount context this session rides on.
    pub fn ctx(self, w: &GfsWorld) -> ClientId {
        self.state(w).ctx
    }

    fn state(self, w: &GfsWorld) -> &SessionState {
        w.sessions.get(self.0 .0).expect("session no longer exists")
    }

    fn state_mut(self, w: &mut GfsWorld) -> &mut SessionState {
        w.sessions.get_mut(self.0 .0).expect("session no longer exists")
    }

    /// A fresh op id in the session space (see
    /// [`SessionState::next_op_seq`]) plus the retirement range this op
    /// carries to the manager. When nothing else is in flight for the
    /// session, every sequence below the new one has been delivered —
    /// the op acks them so the manager can drop their recorded results.
    fn next_op_id(self, w: &mut GfsWorld) -> (u64, Option<(u64, u64)>) {
        let base = (1u64 << 63) | (u64::from(self.0 .0) << 32);
        let st = self.state_mut(w);
        st.next_op_seq += 1;
        let seq = st.next_op_seq & 0xffff_ffff;
        let ack = if st.inflight_ops == 1 && st.acked_seq + 1 < seq {
            let lo = st.acked_seq + 1;
            st.acked_seq = seq - 1;
            Some((base | lo, base | (seq - 1)))
        } else {
            None
        };
        (base | seq, ack)
    }

    /// A fresh op id for a writeback-delegated op: same session id space
    /// (the reconcile envelope will present it to the manager dedup
    /// table), but no retirement ack — the manager has not seen this
    /// session's earlier results delivered, and `acked_seq` must not skip
    /// past envelope results the manager still holds.
    fn next_delegate_op_id(self, w: &mut GfsWorld) -> u64 {
        let base = (1u64 << 63) | (u64::from(self.0 .0) << 32);
        let st = self.state_mut(w);
        st.next_op_seq += 1;
        base | (st.next_op_seq & 0xffff_ffff)
    }

    fn enter(self, w: &mut GfsWorld) {
        self.state_mut(w).inflight_ops += 1;
    }

    fn exit(self, w: &mut GfsWorld) {
        let st = self.state_mut(w);
        debug_assert!(st.inflight_ops > 0, "session inflight underflow");
        st.inflight_ops -= 1;
    }

    /// Bind `device` as the session's target without mounting — the
    /// flyweight path when another session already mounted it on the
    /// shared context.
    pub fn bind_device(self, w: &mut GfsWorld, device: &str) {
        self.state_mut(w).device = Some(device.to_string());
    }

    /// Change the working directory (no resolution round-trip is charged;
    /// the next op pays for any lookup as usual).
    pub fn chdir(self, w: &mut GfsWorld, path: &str) {
        let abs = self.resolve(w, path);
        self.state_mut(w).cwd = abs;
    }

    /// Resolve a possibly-relative path against the session cwd.
    fn resolve(self, w: &GfsWorld, path: &str) -> String {
        if path.starts_with('/') {
            return path.to_string();
        }
        let cwd = &self.state(w).cwd;
        if cwd == "/" {
            format!("/{path}")
        } else {
            format!("{cwd}/{path}")
        }
    }

    fn device(self, w: &GfsWorld) -> Result<String, FsError> {
        self.state(w)
            .device
            .clone()
            .ok_or_else(|| FsError::NotMounted("no device bound to session".to_string()))
    }

    /// Does this session's context batch manager RPCs?
    fn fan_in(self, w: &GfsWorld) -> bool {
        w.clients[self.ctx(w).0 as usize].fan_in
    }

    /// Mount `device` on the shared context ([`client::mount`] dispatches
    /// local vs remote) and bind it as the session's target.
    pub fn mount(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        device: &str,
        mode: AccessMode,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        self.enter(w);
        let ctx = self.ctx(w);
        let dev = device.to_string();
        client::mount(sim, w, ctx, device, mode, move |sim, w, r| {
            if r.is_ok() {
                self.state_mut(w).device = Some(dev);
            }
            self.exit(w);
            cb(sim, w, r);
        });
    }

    /// Create a directory.
    pub fn mkdir(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        owner: Owner,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<InodeId, FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        let ctx = self.ctx(w);
        if !self.fan_in(w) {
            self.enter(w);
            let device = match self.device(w) {
                Ok(d) => d,
                Err(e) => {
                    self.exit(w);
                    cb(sim, w, Err(e));
                    return;
                }
            };
            client::mkdir(sim, w, ctx, &device, &path, owner, move |sim, w, r| {
                self.exit(w);
                cb(sim, w, r);
            });
            return;
        }
        // The parent directory may live on a different shard (a mkdir at
        // the namespace's first level); routing carries it as the peer so
        // the envelope runs the boundary op as a two-phase record.
        self.submit_meta(sim, w, MetaOp::Mkdir { path, owner }, cb);
    }

    /// `stat` a path.
    pub fn stat(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<crate::fscore::FileAttr, FsError>)
            + 'static,
    ) {
        let path = self.resolve(w, path);
        let ctx = self.ctx(w);
        if !self.fan_in(w) {
            self.enter(w);
            let device = match self.device(w) {
                Ok(d) => d,
                Err(e) => {
                    self.exit(w);
                    cb(sim, w, Err(e));
                    return;
                }
            };
            client::stat(sim, w, ctx, &device, &path, move |sim, w, r| {
                self.exit(w);
                cb(sim, w, r);
            });
            return;
        }
        self.submit_meta(sim, w, MetaOp::Stat { path }, cb);
    }

    /// List a directory.
    pub fn readdir(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Vec<String>, FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        let ctx = self.ctx(w);
        if !self.fan_in(w) {
            self.enter(w);
            let device = match self.device(w) {
                Ok(d) => d,
                Err(e) => {
                    self.exit(w);
                    cb(sim, w, Err(e));
                    return;
                }
            };
            client::readdir(sim, w, ctx, &device, &path, move |sim, w, r| {
                self.exit(w);
                cb(sim, w, r);
            });
            return;
        }
        self.submit_meta(sim, w, MetaOp::Readdir { path }, cb);
    }

    /// Remove a file or empty directory.
    pub fn unlink(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        let ctx = self.ctx(w);
        if !self.fan_in(w) {
            self.enter(w);
            let device = match self.device(w) {
                Ok(d) => d,
                Err(e) => {
                    self.exit(w);
                    cb(sim, w, Err(e));
                    return;
                }
            };
            client::unlink(sim, w, ctx, &device, &path, move |sim, w, r| {
                self.exit(w);
                cb(sim, w, r);
            });
            return;
        }
        self.submit_meta(sim, w, MetaOp::Unlink { path }, cb);
    }

    /// Rename within the bound filesystem.
    pub fn rename(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        from: &str,
        to: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let from = self.resolve(w, from);
        let to = self.resolve(w, to);
        let ctx = self.ctx(w);
        if !self.fan_in(w) {
            self.enter(w);
            let device = match self.device(w) {
                Ok(d) => d,
                Err(e) => {
                    self.exit(w);
                    cb(sim, w, Err(e));
                    return;
                }
            };
            client::rename(sim, w, ctx, &device, &from, &to, move |sim, w, r| {
                self.exit(w);
                cb(sim, w, r);
            });
            return;
        }
        // A rename coordinates at the source's owning shard; when the
        // destination hashes elsewhere the envelope runs it as a two-phase
        // op, charging and journaling on both managers.
        self.submit_meta(sim, w, MetaOp::Rename { from, to }, cb);
    }

    /// Open (and possibly create) a file. The handle is shared-context
    /// scoped (usable by `read`/`write`) and tracked in the session's slab
    /// handle table until `close`.
    pub fn open(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        flags: OpenFlags,
        owner: Owner,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Handle, FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        let ctx = self.ctx(w);
        if !self.fan_in(w) {
            self.enter(w);
            let device = match self.device(w) {
                Ok(d) => d,
                Err(e) => {
                    self.exit(w);
                    cb(sim, w, Err(e));
                    return;
                }
            };
            client::open(sim, w, ctx, &device, &path, flags, owner, move |sim, w, r| {
                if let Ok(h) = r {
                    self.state_mut(w).handles.insert(h);
                }
                self.exit(w);
                cb(sim, w, r);
            });
            return;
        }
        let path2 = path.clone();
        self.submit_meta(
            sim,
            w,
            MetaOp::Open { path, flags, owner },
            move |sim, w, r: Result<(FsId, InodeId), FsError>| match r {
                Ok((fs, inode)) => {
                    let h = w.alloc_handle();
                    let c = &mut w.clients[ctx.0 as usize];
                    c.handles.insert(
                        h,
                        OpenFile {
                            fs,
                            inode,
                            flags,
                            path: path2,
                        },
                    );
                    c.prefetch.insert(h, PrefetchState::new(16));
                    self.state_mut(w).handles.insert(h);
                    cb(sim, w, Ok(h));
                }
                Err(e) => cb(sim, w, Err(e)),
            },
        );
    }

    /// Close: flush, release tokens at the manager, drop the handle from
    /// both the shared context and the session table.
    pub fn close(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let ctx = self.ctx(w);
        if !self.fan_in(w) {
            self.enter(w);
            client::close(sim, w, ctx, handle, move |sim, w, r| {
                if r.is_ok() {
                    self.forget_handle(w, handle);
                }
                self.exit(w);
                cb(sim, w, degrade(r));
            });
            return;
        }
        let Some((fs, inode)) = w.clients[ctx.0 as usize]
            .handles
            .get(&handle)
            .map(|of| (of.fs, of.inode))
        else {
            self.enter(w);
            self.exit(w);
            cb(sim, w, Err(FsError::BadHandle));
            return;
        };
        self.enter(w);
        // Write-behind pages flush first, exactly as the per-client path
        // does; the token release then rides a fan-in envelope.
        client::fsync(sim, w, ctx, handle, move |sim, w, r| {
            if let Err(e) = r {
                self.exit(w);
                cb(sim, w, Err(degrade_err(e)));
                return;
            }
            // Pure-metadata close: if the shared context holds no tokens
            // on this inode there is nothing to release at the manager —
            // complete locally instead of spending an envelope slot. (The
            // common case for the create/stat/list storms, where opens
            // never touch data.)
            if !w.clients[ctx.0 as usize].held_tokens.contains_key(&(fs, inode)) {
                let c = &mut w.clients[ctx.0 as usize];
                c.handles.remove(&handle);
                c.prefetch.remove(&handle);
                self.forget_handle(w, handle);
                self.exit(w);
                cb(sim, w, Ok(()));
                return;
            }
            // Token releases go where tokens live: shard 0's manager.
            self.submit_mgr(
                sim,
                w,
                fs,
                0,
                None,
                MetaOp::ReleaseTokens { inode, ctx },
                move |sim, w, r: Result<(), FsError>| {
                    if r.is_ok() {
                        let c = &mut w.clients[ctx.0 as usize];
                        c.held_tokens.remove(&(fs, inode));
                        c.handles.remove(&handle);
                        c.prefetch.remove(&handle);
                        self.forget_handle(w, handle);
                    }
                    cb(sim, w, r);
                },
            );
        });
    }

    /// Read through the shared page pool. Total NSD-server loss surfaces
    /// as [`FsError::Degraded`] at the session surface.
    pub fn read(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        offset: u64,
        len: u64,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<Bytes, FsError>) + 'static,
    ) {
        self.enter(w);
        let ctx = self.ctx(w);
        client::read(sim, w, ctx, handle, offset, len, move |sim, w, r| {
            self.exit(w);
            cb(sim, w, degrade(r));
        });
    }

    /// Write-behind through the shared page pool. Total NSD-server loss
    /// surfaces as [`FsError::Degraded`] at the session surface.
    pub fn write(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        offset: u64,
        data: Bytes,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        self.enter(w);
        let ctx = self.ctx(w);
        client::write(sim, w, ctx, handle, offset, data, move |sim, w, r| {
            self.exit(w);
            cb(sim, w, degrade(r));
        });
    }

    /// Flush the handle's dirty pages.
    pub fn fsync(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        self.enter(w);
        let ctx = self.ctx(w);
        client::fsync(sim, w, ctx, handle, move |sim, w, r| {
            self.exit(w);
            cb(sim, w, degrade(r));
        });
    }

    /// Truncate an open file.
    pub fn truncate(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        handle: Handle,
        new_size: u64,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        self.enter(w);
        let ctx = self.ctx(w);
        client::truncate(sim, w, ctx, handle, new_size, move |sim, w, r| {
            self.exit(w);
            cb(sim, w, degrade(r));
        });
    }

    fn forget_handle(self, w: &mut GfsWorld, handle: Handle) {
        let st = self.state_mut(w);
        let key = st
            .handles
            .iter()
            .find(|(_, h)| **h == handle)
            .map(|(k, _)| k);
        if let Some(k) = key {
            st.handles.remove(k);
        }
    }

    /// Fan-in metadata submit against the session's bound device: mount +
    /// access-mode preflight, then shard routing by the op's route and
    /// peer route. When the mount context holds a subtree lease covering
    /// the op and the op stays within that subtree, it runs at the
    /// site-local delegate instead of crossing to the manager at all.
    fn submit_meta<T: Reply + 'static>(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        op: MetaOp,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static,
    ) {
        self.enter(w);
        let ctx = self.ctx(w);
        // Borrow the bound device and its mount in place — no per-op
        // clones.
        let mount = match self.state(w).device.as_deref() {
            Some(dev) => w.clients[ctx.0 as usize]
                .mounts
                .get(dev)
                .map(|m| (m.fs, m.mode))
                .ok_or_else(|| FsError::NotMounted(dev.to_string())),
            None => Err(FsError::NotMounted("no device bound to session".to_string())),
        };
        let (fs, mode) = match mount {
            Ok(m) => m,
            Err(e) => {
                self.exit(w);
                cb(sim, w, Err(e));
                return;
            }
        };
        if op.mutating() && mode == AccessMode::ReadOnly {
            self.exit(w);
            cb(sim, w, Err(FsError::ReadOnly));
            return;
        }
        let (shard, peer) = {
            let sm = &w.fss[fs.0 as usize].core.shards;
            let shard = sm.shard_of(op.route());
            let peer = op
                .peer_route()
                .map(|p| sm.shard_of(p))
                .filter(|&b| b != shard);
            (shard, peer)
        };
        // Writeback-delegate fast path: the context leases this subtree
        // and the op stays entirely inside it — serve it at the site-local
        // delegate with zero manager events. Mutations additionally journal
        // their recorded result; the journal reconciles with the owning
        // shard (as bulk envelopes through the dedup table) when the lease
        // is surrendered or broken. Expulsion needs no check here: losing
        // the lease term clears the mirror. Ops whose secondary path leaves
        // the subtree (cross-top renames, even same-shard ones) never
        // delegate — the lease does not cover the other end.
        let delegate = peer.is_none()
            && op.peer_route().is_none_or(|p| top_component(p) == op.top())
            && w.clients[ctx.0 as usize].holds_lease(fs, op.top());
        if delegate {
            let op_id = self.next_delegate_op_id(w);
            w.fss[fs.0 as usize].delegated_ops += 1;
            w.fanin.delegated += 1;
            let op = BatchOp {
                op_id,
                ack: None,
                reconciled: Vec::new(),
                peer: None,
                defers: 0,
                op,
                deliver: Some(self.deliver(cb)),
            };
            submit_delegate(sim, w, ctx, fs, op);
            return;
        }
        // Heat votes feed the rebalance policy, so they track *manager*
        // load: only ops that actually travel to a shard vote here.
        // Delegated ops cost the manager nothing until reconciliation —
        // their journal replay votes in `reconcile_journal` instead;
        // letting them vote at full weight here would make the policy
        // strip the delegates' home shard of far more authority than the
        // cheap replays ever put on it.
        if w.fss[fs.0 as usize].core.shards.shards() > 1 {
            w.fss[fs.0 as usize].core.shards.note_heat(op.route());
        }
        self.submit_mgr(sim, w, fs, shard, peer, op, cb);
    }

    /// Enqueue one manager op into the `(ctx, fs, shard)` envelope forming
    /// this instant (the caller has already done any preflight). The first
    /// op of an instant schedules the same-instant flush event.
    fn submit_mgr<T: Reply + 'static>(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        fs: FsId,
        shard: u32,
        peer: Option<u32>,
        op: MetaOp,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static,
    ) {
        let ctx = self.ctx(w);
        let (op_id, ack) = self.next_op_id(w);
        let op = BatchOp {
            op_id,
            ack,
            reconciled: Vec::new(),
            peer,
            defers: 0,
            op,
            deliver: Some(self.deliver(cb)),
        };
        submit_batch(sim, w, ctx, fs, shard, op);
    }

    /// The op's continuation: leave the session, hand the caller its
    /// typed result.
    fn deliver<T: Reply + 'static>(
        self,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static,
    ) -> Deliver {
        Box::new(move |sim, w, r| {
            self.exit(w);
            cb(sim, w, r.map(T::from_reply));
        })
    }

    /// Acquire a subtree lease (on the top-level component of `path`) for
    /// this session's mount context, enabling the delegate fast path for
    /// every session sharing the context.
    pub fn acquire_lease(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        self.enter(w);
        let ctx = self.ctx(w);
        let device = match self.device(w) {
            Ok(d) => d,
            Err(e) => {
                self.exit(w);
                cb(sim, w, Err(e));
                return;
            }
        };
        client::acquire_lease(sim, w, ctx, &device, &path, move |sim, w, r| {
            self.exit(w);
            cb(sim, w, r);
        });
    }

    /// Surrender a subtree lease voluntarily: drain in-flight delegate
    /// ops, reconcile the writeback journal with the owning manager shard
    /// (one bulk envelope through the dedup table), then release the lease
    /// at the manager. A context that no longer holds the lease (broken or
    /// expelled meanwhile) completes immediately with `Ok`.
    pub fn surrender_lease(
        self,
        sim: &mut Sim<GfsWorld>,
        w: &mut GfsWorld,
        path: &str,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<(), FsError>) + 'static,
    ) {
        let path = self.resolve(w, path);
        self.enter(w);
        let ctx = self.ctx(w);
        let device = match self.device(w) {
            Ok(d) => d,
            Err(e) => {
                self.exit(w);
                cb(sim, w, Err(e));
                return;
            }
        };
        client::surrender_lease(sim, w, ctx, &device, &path, move |sim, w, r| {
            self.exit(w);
            cb(sim, w, r);
        });
    }
}

/// Map total-server-loss to the session surface's degraded-service error.
fn degrade<T>(r: Result<T, FsError>) -> Result<T, FsError> {
    r.map_err(degrade_err)
}

fn degrade_err(e: FsError) -> FsError {
    match e {
        FsError::ServerDown => {
            FsError::Degraded("all NSD servers for the filesystem are down".to_string())
        }
        other => other,
    }
}

/// Push one op into the `(ctx, fs, shard)` batch.
///
/// Single-shard worlds keep the PR-6 rule byte-for-byte: the first op of
/// an instant schedules the same-instant flush (`sim.immediately` runs
/// *after* every event already queued at the current instant, so all
/// same-instant submits land in the same envelope).
///
/// Multi-shard worlds run the **per-shard gate** instead: ops park while
/// an envelope of this `(ctx, fs, shard)` is in flight and flush the
/// instant it returns. Each shard stream pipelines back-to-back envelopes
/// independently — a slow envelope holds only its own shard. Without the
/// gate, staggered per-shard completions splinter the session cohort into
/// ever-smaller batches until every envelope carries one op.
fn submit_batch(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ctx: ClientId,
    fs: FsId,
    shard: u32,
    op: BatchOp,
) {
    let key = (ctx.0, fs.0, shard);
    let wave = w.fss[fs.0 as usize].core.shards.shards() > 1;
    let q = w.fanin.pending.entry(key).or_default();
    q.push(op);
    if !wave {
        if q.len() == 1 {
            sim.immediately(move |sim, w| flush_shard_batch(sim, w, ctx, fs, shard));
        }
        return;
    }
    if w.fanin.outstanding.get(&key).copied().unwrap_or(0) == 0 {
        arm_shard_flush(sim, w, ctx, fs, shard);
    }
}

/// Schedule (once) the same-instant event that flushes the parked batch of
/// `(ctx, fs, shard)`. No-op if a flush is already armed for this instant;
/// the flush itself is a no-op if a racing event emptied the batch or
/// launched an envelope first.
fn arm_shard_flush(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, shard: u32) {
    let key = (ctx.0, fs.0, shard);
    if !w.fanin.armed.insert(key) {
        return;
    }
    // Nagle-style gather window: hold the launch for `envelope_gather` so
    // ops submitted just after the gate freed (staggered envelope returns,
    // delegate batch deliveries) ride this envelope instead of the next
    // one. The window trades per-op latency for batch mass — a lone op on
    // an idle stream still pays it — which is the right trade for the
    // saturated storms this path exists for; latency-sensitive callers
    // can zero `envelope_gather` (single-shard namespaces never take this
    // path at all, so the M=1 flows are unaffected either way).
    let delay = w.costs.envelope_gather;
    let fire = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
        w.fanin.armed.remove(&key);
        if w.fanin.outstanding.get(&key).copied().unwrap_or(0) > 0 {
            return; // a racing flush already launched an envelope
        }
        flush_shard_batch(sim, w, ctx, fs, shard);
    };
    if delay == SimDuration::ZERO {
        sim.immediately(fire);
    } else {
        sim.after(delay, fire);
    }
}

/// Flush one `(ctx, fs, shard)` batch as an envelope (shared by both the
/// single-shard immediate flush and the wave flush).
fn flush_shard_batch(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, shard: u32) {
    let mut ops = w.fanin.pending.remove(&(ctx.0, fs.0, shard)).unwrap_or_default();
    if ops.is_empty() {
        return;
    }
    if let Some(ids) = w.fanin.reconciled.remove(&(ctx.0, fs.0)) {
        ops[0].reconciled = ids;
    }
    w.fanin.envelopes += 1;
    w.fanin.envelope_ops += ops.len() as u64;
    w.fanin.max_batch = w.fanin.max_batch.max(ops.len() as u64);
    if w.fss[fs.0 as usize].core.shards.shards() > 1 {
        *w.fanin.outstanding.entry((ctx.0, fs.0, shard)).or_insert(0) += 1;
    }
    let env = Rc::new(RefCell::new(ops));
    envelope_attempt(sim, w, ctx, fs, shard, env, 0, None);
}

/// One envelope of `(ctx, fs, shard)` reached a terminal state (response
/// accepted or retry budget exhausted). In gated mode this re-arms the
/// shard's flush — the deliveries running in this same event re-submit
/// their follow-up ops first, so the armed flush sweeps them all into the
/// next envelope.
fn envelope_done(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, shard: u32) {
    if w.fss[fs.0 as usize].core.shards.shards() <= 1 {
        return;
    }
    let o = w
        .fanin
        .outstanding
        .get_mut(&(ctx.0, fs.0, shard))
        .expect("envelope_done without an outstanding envelope");
    *o -= 1;
    if *o == 0 {
        w.fanin.outstanding.remove(&(ctx.0, fs.0, shard));
        arm_shard_flush(sim, w, ctx, fs, shard);
    }
}

/// Park one writeback-delegated op into the `(ctx, fs)` delegate batch;
/// the first op of an instant schedules the same-instant flush. The whole
/// batch charges the delegate's FIFO service queue in one slot
/// (`manager_op_service` per op, like an envelope at the manager) and
/// applies at the slot's end: each mutation runs against the shared-disk
/// core (the lease guarantees exclusivity) and journals its recorded
/// result for later reconciliation. Two simulator events per batch —
/// that is the entire cost; no message, no watchdog, no manager.
fn submit_delegate(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, ctx: ClientId, fs: FsId, op: BatchOp) {
    // Counted at park time so a lease break arriving between park and
    // apply defers (`delegate_inflight > 0`) instead of slipping past a
    // batch whose journal entries it would strand.
    w.clients[ctx.0 as usize].delegate_inflight += 1;
    let key = (ctx.0, fs.0);
    let q = w.fanin.dpending.entry(key).or_default();
    q.push(op);
    if q.len() == 1 {
        sim.immediately(move |sim, w| {
            let ops = w.fanin.dpending.remove(&key).unwrap_or_default();
            if ops.is_empty() {
                return;
            }
            let n = ops.len() as u64;
            let c = &mut w.clients[ctx.0 as usize];
            let start = c.delegate_busy_until.max(sim.now());
            let done = start + w.costs.manager_op_service * n;
            c.delegate_busy_until = done;
            sim.at(done, move |sim, w| {
                let now = sim.now().as_nanos();
                for op in ops {
                    let r = op.op.apply(w, fs, now);
                    let c = &mut w.clients[ctx.0 as usize];
                    c.delegate_inflight -= 1;
                    // Journal mutations only while the lease still stands —
                    // an expulsion mid-batch already discarded the journal,
                    // and a record with no lease would never reconcile.
                    if op.op.mutating() && c.holds_lease(fs, op.op.top()) {
                        c.journal.push(JournalEntry {
                            fs,
                            top: op.op.top().into(),
                            op_id: op.op_id,
                            result: op.op.record_of(&r),
                        });
                    }
                    if let Some(d) = op.deliver {
                        d(sim, w, r);
                    }
                }
                // Watermark writeback: once the journal grows past the
                // high-water mark, replay it now (the entries are already
                // applied; reconciling early just trickles the bulk
                // envelopes through the race instead of dumping one giant
                // replay on the owning shard at surrender time).
                if w.clients[ctx.0 as usize].journal.len() >= DELEGATE_JOURNAL_WATERMARK {
                    let mut tops: Vec<Box<str>> = w.clients[ctx.0 as usize]
                        .journal
                        .iter()
                        .filter(|e| e.fs == fs)
                        .map(|e| e.top.clone())
                        .collect();
                    tops.sort_unstable();
                    tops.dedup();
                    for top in tops {
                        reconcile_journal(sim, w, ctx, fs, top, Box::new(|_, _| {}));
                    }
                }
            });
        });
    }
}

/// Replay the context's delegate journal for `(fs, top)` to the subtree's
/// owning manager shard as one bulk envelope, then run `done`. Each
/// journal entry becomes a [`MetaOp::Replay`] under its original session
/// op id, carrying the journal's shared result: the manager records that
/// copy through the ordinary dedup table, so a crash mid-reconcile
/// retries the whole envelope and replays — never re-records — entries
/// the first attempt already landed.
/// Exactly-once costs nothing new here; it is the same machinery every
/// envelope mutation already rides.
pub(crate) fn reconcile_journal(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ctx: ClientId,
    fs: FsId,
    top: Box<str>,
    done: Box<dyn FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld)>,
) {
    let entries: Vec<JournalEntry> = w.clients[ctx.0 as usize]
        .journal
        .extract_if(.., |e| e.fs == fs && e.top == top)
        .collect();
    if entries.is_empty() {
        done(sim, w);
        return;
    }
    // Route by the subtree's *current* owner — a migration between journal
    // time and reconcile time just redirects the whole envelope.
    let shard = w.fss[fs.0 as usize].core.shards.shard_of(&top);
    // Replays are the moment delegated work actually lands on a manager,
    // so this is where it votes heat (cheap appends — one vote per two
    // entries keeps the weight roughly proportional to service cost).
    for _ in 0..entries.len().div_ceil(2) {
        w.fss[fs.0 as usize].core.shards.note_heat(&top);
    }
    let left = Rc::new(std::cell::Cell::new(entries.len()));
    let done = Rc::new(RefCell::new(Some(done)));
    for e in entries {
        let left = left.clone();
        let done = done.clone();
        let op_id = e.op_id;
        let op = BatchOp {
            op_id,
            ack: None,
            reconciled: Vec::new(),
            peer: None,
            defers: 0,
            op: MetaOp::Replay {
                top: e.top,
                result: e.result,
            },
            deliver: Some(Box::new(move |sim, w, _r| {
                w.fanin
                    .reconciled
                    .entry((ctx.0, fs.0))
                    .or_default()
                    .push(op_id);
                left.set(left.get() - 1);
                if left.get() == 0 {
                    if let Some(d) = done.borrow_mut().take() {
                        d(sim, w);
                    }
                }
            })),
        };
        submit_batch(sim, w, ctx, fs, shard, op);
    }
}

/// How many times an op may be deferred (lease break in flight, peer shard
/// recovering) before it fails with `Timeout`. At the 10ms re-poll cadence
/// this gives a wedged dependency two full seconds to clear — more than
/// any modeled recovery, far less than forever.
const MAX_DEFERS: u32 = 200;

/// Delegate journal high-water mark: a delegate batch whose client journal
/// reaches this many entries kicks an early reconcile of every journaled
/// subtree on that filesystem. Keeps surrender/break replay envelopes
/// bounded and spreads the replay load across the run.
const DELEGATE_JOURNAL_WATERMARK: usize = 4096;

/// Deferred-op re-poll cadence.
fn requeue_delay() -> simcore::SimDuration {
    simcore::SimDuration::from_millis(10)
}

/// One wire attempt of a whole envelope, under the same survival rules as
/// [`client`]'s per-op `manager_rpc`: watchdog timeout, exponential
/// backoff, acting-manager re-resolution per attempt, drop at a crashed /
/// recovering / superseded manager, per-op exactly-once via the dedup
/// table. One message out, one watchdog, one message back — per *batch*.
///
/// The envelope travels to `shard`'s acting manager. At the service slot's
/// end each op may additionally:
/// - hit a subtree lease held by another context — the manager starts a
///   lease break (revocation-style) and the op is re-queued after a
///   re-poll delay rather than executed over the delegate's head;
/// - reach across to a peer shard (two-phase op): if the peer is healthy
///   the op runs now, charges the peer's service queue, and journals on
///   *both* managers under the same op id (the commit record); if the
///   peer is down the op is re-queued until the peer recovers.
#[allow(clippy::too_many_arguments)]
fn envelope_attempt(
    sim: &mut Sim<GfsWorld>,
    w: &mut GfsWorld,
    ctx: ClientId,
    fs: FsId,
    shard: u32,
    env: Rc<RefCell<Vec<BatchOp>>>,
    attempt: u32,
    prev_mgr: Option<simnet::NodeId>,
) {
    let mgr = w.fss[fs.0 as usize].manager_endpoint(shard);
    client::log_failover(sim, w, ctx, prev_mgr, mgr);
    let from = client::client_node(w, ctx);
    let rpcb = w.costs.rpc_bytes;
    let timeout = w.costs.request_timeout;
    let watchdog = {
        let env = env.clone();
        sim.timer_after(timeout, move |sim, w| {
            w.recovery.log(
                sim.now(),
                RecoveryWhat::TimeoutDetected { client: ctx, server: mgr },
            );
            if attempt >= w.costs.max_retries {
                // Terminal: the shard's gate slot frees *before* the error
                // deliveries run, so any ops they re-submit start a fresh
                // envelope instead of deadlocking on this dead one.
                envelope_done(sim, w, ctx, fs, shard);
                let delivers: Vec<_> = env
                    .borrow_mut()
                    .iter_mut()
                    .map(|op| op.deliver.take())
                    .collect();
                for d in delivers.into_iter().flatten() {
                    d(sim, w, Err(FsError::Timeout));
                }
                return;
            }
            w.fanin.retries += 1;
            let delay = client::backoff_delay(w, attempt);
            sim.after(delay, move |sim, w| {
                envelope_attempt(sim, w, ctx, fs, shard, env, attempt + 1, Some(mgr));
            });
        })
    };
    let env2 = env.clone();
    Network::send_msg(sim, w, from, mgr, rpcb, move |sim, w| {
        // A crashed, recovering, or superseded manager drops the whole
        // envelope silently; only the watchdog tells the sessions.
        {
            let inst = &w.fss[fs.0 as usize];
            let ms = &inst.mgrs[shard as usize];
            if inst.down_servers.contains(&mgr) || ms.recovering || ms.acting != mgr {
                return;
            }
        }
        // First word from an expelled context re-admits it before anything
        // else happens at the manager.
        client::readmit_if_expelled(sim, w, fs, ctx);
        // Manager CPU: envelopes serialize FIFO through this shard's
        // acting manager, `manager_op_service` per op. Execution happens
        // at the slot's *end*, so cross-envelope op ordering is exactly
        // arrival order — the same interleaving the uncharged model
        // produced, just later on the clock.
        let (n_live, n_replay) = {
            let ops = env2.borrow();
            let nr = ops
                .iter()
                .filter(|o| matches!(o.op, MetaOp::Replay { .. }))
                .count() as u64;
            (ops.len() as u64 - nr, nr)
        };
        let svc = w.costs.manager_op_service * n_live + w.costs.manager_replay_per_op * n_replay;
        let start = w.fss[fs.0 as usize].mgrs[shard as usize].busy_until.max(sim.now());
        let done = start + svc;
        let ms = &mut w.fss[fs.0 as usize].mgrs[shard as usize];
        ms.busy_until = done;
        ms.service_ns += svc.as_nanos();
        sim.at(done, move |sim, w| {
            // Re-check: the manager may have died while this envelope sat
            // in its queue. The crash wiped the queue; whatever was in it
            // dies with the node and the watchdogs drive the retries.
            {
                let inst = &w.fss[fs.0 as usize];
                let ms = &inst.mgrs[shard as usize];
                if inst.down_servers.contains(&mgr) || ms.recovering || ms.acting != mgr {
                    return;
                }
            }
            // Apply (or replay) every op in submission order. A mutation's
            // result is recorded once, shared by the dedup table, the WAL
            // and a two-phase peer's commit record, so a retried envelope
            // demuxes identically; read-only ops are never recorded and
            // skip the dedup probe. `None` marks an op deferred by a lease
            // conflict or an unavailable peer shard — delivered to nobody,
            // it is re-queued when the response lands.
            let ops = env2.borrow();
            let mut results: Vec<Option<MetaResult>> = Vec::with_capacity(ops.len());
            // Two-phase ops wait for their peer's service slot; the
            // envelope's response leaves when the last peer commit is in.
            let mut response_at = sim.now();
            let now = sim.now().as_nanos();
            for op in ops.iter() {
                // Acked history first: results the session has proven
                // delivered are retired before anything else runs. Re-runs
                // on an envelope retry are no-ops (the ids are already
                // gone).
                if op.ack.is_some() || !op.reconciled.is_empty() {
                    for ms in &mut w.fss[fs.0 as usize].mgrs {
                        if let Some((lo, hi)) = op.ack {
                            ms.retire(lo..=hi);
                        }
                        ms.retire(op.reconciled.iter().copied());
                    }
                }
                // A subtree leased to someone else's delegate: the op must
                // not run behind the delegate's back. Break the lease
                // (token-revocation style) and re-poll.
                let conflict = {
                    let inst = &w.fss[fs.0 as usize];
                    if inst.leases.is_empty() {
                        None
                    } else {
                        inst.leases.get(op.op.top()).copied().filter(|&h| h != ctx)
                    }
                };
                if let Some(holder) = conflict {
                    client::start_lease_break(sim, w, fs, op.op.top().into(), holder);
                    results.push(None);
                    continue;
                }
                // A cross-shard op needs its peer manager up to take the
                // commit record; during the peer's WAL replay the op waits.
                if let Some(b) = op.peer {
                    if !w.fss[fs.0 as usize].manager_available(b) {
                        results.push(None);
                        continue;
                    }
                }
                let mutating = op.op.mutating();
                let recorded = if mutating {
                    w.fss[fs.0 as usize].mgrs[shard as usize]
                        .applied_result(op.op_id)
                        .cloned()
                } else {
                    None
                };
                let r = match recorded {
                    Some(r) => r,
                    None => {
                        let r = op.op.apply(w, fs, now);
                        let rec = mutating.then(|| op.op.record_of(&r));
                        if let Some(rec) = &rec {
                            w.fss[fs.0 as usize].mgrs[shard as usize].record(op.op_id, rec.clone());
                        }
                        if let Some(b) = op.peer {
                            // Two-phase commit record: the peer journals the
                            // already-validated result under the same op id,
                            // so either manager can replay the op after a
                            // crash. The append is *priority* work — it
                            // holds the coordinator's locks, so it cuts
                            // ahead of the peer's ordinary envelope backlog
                            // (which is pushed back by the same amount)
                            // rather than waiting out the whole queue; the
                            // response waits only for the append itself.
                            let pdone = sim.now() + w.costs.manager_replay_per_op;
                            let inst = &mut w.fss[fs.0 as usize];
                            let pm = &mut inst.mgrs[b as usize];
                            pm.busy_until =
                                pm.busy_until.max(sim.now()) + w.costs.manager_replay_per_op;
                            if let Some(rec) = rec {
                                pm.record(op.op_id, rec);
                            }
                            inst.cross_shard_ops += 1;
                            response_at = response_at.max(pdone);
                        }
                        r
                    }
                };
                results.push(Some(r));
            }
            drop(ops);
            let respond = move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld| {
                let rpcb = w.costs.rpc_bytes;
                Network::send_msg(sim, w, mgr, from, rpcb, move |sim, w| {
                    if !sim.cancel_timer(watchdog) {
                        return; // watchdog fired first; the retry owns the envelope
                    }
                    // Terminal: free the shard's gate slot first, so deliveries
                    // below park their follow-up ops into the next
                    // envelope (armed as this one completes).
                    envelope_done(sim, w, ctx, fs, shard);
                    // This delivery now owns the envelope exclusively:
                    // deferred ops are peeled off and re-queued as fresh
                    // envelopes (same op id — exactly-once holds), the
                    // rest demux their results.
                    for (i, r) in results.into_iter().enumerate() {
                        match r {
                            Some(r) => {
                                let d = env2.borrow_mut()[i].deliver.take();
                                if let Some(d) = d {
                                    d(sim, w, r);
                                }
                            }
                            None => {
                                // The op stays in this envelope for any late
                                // duplicate attempt; the re-queued copy owns
                                // the delivery.
                                let mut requeued = {
                                    let mut ops = env2.borrow_mut();
                                    let op = &mut ops[i];
                                    BatchOp {
                                        op_id: op.op_id,
                                        ack: None,
                                        reconciled: Vec::new(),
                                        peer: op.peer,
                                        defers: op.defers + 1,
                                        op: op.op.clone(),
                                        deliver: op.deliver.take(),
                                    }
                                };
                                if requeued.defers > MAX_DEFERS {
                                    if let Some(d) = requeued.deliver.take() {
                                        d(sim, w, Err(FsError::Timeout));
                                    }
                                    continue;
                                }
                                sim.after(requeue_delay(), move |sim, w| {
                                    submit_batch(sim, w, ctx, fs, shard, requeued);
                                });
                            }
                        }
                    }
                });
            };
            if response_at > sim.now() {
                sim.at(response_at, respond);
            } else {
                respond(sim, w);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fscore::FsConfig;
    use crate::types::NsdId;
    use crate::world::{FsParams, WorldBuilder};
    use bytes::Bytes;
    use simcore::{Bandwidth, SimDuration};
    use std::cell::{Cell, RefCell};

    struct Bed {
        sim: Sim<GfsWorld>,
        w: GfsWorld,
        sessions: Vec<Session>,
    }

    /// One cluster, one manager/NSD node, one mount context carrying
    /// `n_sessions` flyweight sessions.
    fn bed(n_sessions: usize) -> Bed {
        bed_sharded(n_sessions, 1)
    }

    /// [`bed`] with the namespace split over `managers` shards (all
    /// homed on the one manager node).
    fn bed_sharded(n_sessions: usize, managers: u32) -> Bed {
        let mut b = WorldBuilder::new(7);
        b.key_bits(384);
        let mgr = b.topo().node("mgr");
        let cn = b.topo().node("ctx");
        b.topo().duplex_link(
            cn,
            mgr,
            Bandwidth::gbit(1.0),
            SimDuration::from_micros(50),
            "lan",
        );
        let site = b.cluster("site.teragrid");
        let mut p = FsParams::ideal(
            FsConfig::small_test("gpfs0"),
            mgr,
            vec![mgr],
            Bandwidth::mbyte(400.0),
            SimDuration::from_micros(300),
        );
        p.managers = managers;
        b.filesystem(site, p);
        let ctx = b.mount_context(site, cn, 256);
        let ids: Vec<_> = (0..n_sessions).map(|_| b.session(ctx)).collect();
        let (sim, w) = b.build();
        Bed {
            sim,
            w,
            sessions: ids.into_iter().map(Session).collect(),
        }
    }

    fn owner() -> Owner {
        Owner::local(500, 100)
    }

    /// Mount via the first session, bind the rest, then hand control to
    /// `body` in a single event (so everything it submits shares one
    /// instant).
    fn mounted(bed: &mut Bed, body: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld) + 'static) {
        let sessions = bed.sessions.clone();
        let s0 = sessions[0];
        s0.mount(
            &mut bed.sim,
            &mut bed.w,
            "gpfs0",
            AccessMode::ReadWrite,
            move |sim, w, r| {
                r.unwrap();
                for s in &sessions[1..] {
                    s.bind_device(w, "gpfs0");
                }
                body(sim, w);
            },
        );
        bed.sim.run(&mut bed.w);
    }

    #[test]
    fn same_instant_ops_share_one_envelope() {
        let mut t = bed(4);
        let sessions = t.sessions.clone();
        let oks = Rc::new(Cell::new(0u32));
        let oks2 = oks.clone();
        mounted(&mut t, move |sim, w| {
            for (i, s) in sessions.iter().enumerate() {
                let oks = oks2.clone();
                s.mkdir(sim, w, &format!("/d{i}"), owner(), move |_s, _w, r| {
                    r.unwrap();
                    oks.set(oks.get() + 1);
                });
            }
        });
        assert_eq!(oks.get(), 4, "every batched op must demux its result");
        assert_eq!(t.w.fanin.envelopes, 1, "same-instant ops must share one envelope");
        assert_eq!(t.w.fanin.envelope_ops, 4);
        assert_eq!(t.w.fanin.max_batch, 4);
        assert_eq!(t.w.fanin.pending_ops(), 0);
        for s in &t.sessions {
            assert_eq!(s.state(&t.w).inflight_ops, 0);
        }
    }

    /// Starve attempt 0 of the next envelope: the watchdog fires before
    /// the ~100µs RTT completes, so the response is dropped and the
    /// envelope retries — after the manager already applied and recorded
    /// the op. A sane timeout is restored before the backoff (>= 50ms)
    /// fires, so attempt 1 can complete.
    fn starve_first_attempt(sim: &mut Sim<GfsWorld>, w: &mut GfsWorld) {
        w.costs.request_timeout = SimDuration::from_micros(1);
        sim.after(SimDuration::from_millis(10), |_sim, w| {
            w.costs.request_timeout = SimDuration::from_millis(1500);
        });
    }

    #[test]
    fn retried_envelope_replays_from_dedup_table() {
        let mut t = bed(1);
        let s = t.sessions[0];
        let got = Rc::new(RefCell::new(None));
        let got2 = got.clone();
        mounted(&mut t, move |sim, w| {
            starve_first_attempt(sim, w);
            s.mkdir(sim, w, "/d", owner(), move |_sim, _w, r| {
                *got2.borrow_mut() = Some(r);
            });
        });
        // A re-run would have answered AlreadyExists; the replay hands
        // back the recorded inode.
        let id = t.w.fss[0].core.lookup("/d").unwrap();
        assert_eq!(
            *got.borrow(),
            Some(Ok(id)),
            "retried op must deliver its recorded result"
        );
        assert_eq!(
            t.w.fss[0].mgrs[0].wal_len(),
            1,
            "mutating op must run exactly once across retries"
        );
        assert!(
            t.w.fanin.retries >= 1,
            "the starved attempt must have retried"
        );
        assert_eq!(t.sessions[0].state(&t.w).inflight_ops, 0);
    }

    #[test]
    fn retried_envelope_replays_a_recorded_error() {
        let mut t = bed(1);
        let s = t.sessions[0];
        t.w.fss[0].core.mkdir("/d", owner(), 0).unwrap();
        let resolves0 = t.w.fss[0].core.meta_snapshot().resolves;
        let got = Rc::new(RefCell::new(None));
        let got2 = got.clone();
        mounted(&mut t, move |sim, w| {
            starve_first_attempt(sim, w);
            s.mkdir(sim, w, "/d", owner(), move |_sim, _w, r| {
                *got2.borrow_mut() = Some(r);
            });
        });
        assert_eq!(
            *got.borrow(),
            Some(Err(FsError::AlreadyExists("/d".to_string()))),
            "the retry must replay the recorded error identically"
        );
        assert!(
            t.w.fanin.retries >= 1,
            "the starved attempt must have retried"
        );
        assert_eq!(
            t.w.fss[0].mgrs[0].wal_len(),
            1,
            "the failed mkdir is recorded once"
        );
        assert_eq!(
            t.w.fss[0].core.meta_snapshot().resolves - resolves0,
            1,
            "the op must resolve (run) exactly once"
        );
    }

    #[test]
    fn delegate_journal_reconciles_through_typed_results() {
        let mut t = bed(4);
        let sessions = t.sessions.clone();
        t.w.fss[0].core.mkdir("/proj", owner(), 0).unwrap();
        t.w.fss[0].core.mkdir("/proj/taken", owner(), 0).unwrap();
        let s0 = sessions[0];
        let results = Rc::new(RefCell::new(Vec::new()));
        let results2 = results.clone();
        mounted(&mut t, move |sim, w| {
            s0.acquire_lease(sim, w, "/proj", move |sim, w, r| {
                r.unwrap();
                // Three fresh dirs, one collision (a journaled error) and a
                // stat (delegated, never journaled) in one delegate batch.
                for (i, s) in sessions.iter().enumerate() {
                    let name = if i == 3 {
                        "/proj/taken".to_string()
                    } else {
                        format!("/proj/d{i}")
                    };
                    let out = results2.clone();
                    s.mkdir(sim, w, &name, owner(), move |_sim, _w, r| {
                        out.borrow_mut().push(r.map(|_| ()));
                    });
                }
                s0.stat(sim, w, "/proj/taken", |_sim, _w, r| {
                    assert!(r.unwrap().is_dir)
                });
            });
        });
        let ctx = t.sessions[0].ctx(&t.w);
        assert_eq!(t.w.fanin.delegated, 5);
        assert_eq!(results.borrow().iter().filter(|r| r.is_ok()).count(), 3);
        let journal: Vec<(u64, MetaResult)> = t.w.clients[ctx.0 as usize]
            .journal
            .iter()
            .map(|e| (e.op_id, (*e.result).clone()))
            .collect();
        assert_eq!(journal.len(), 4, "mutations journal, the stat does not");
        assert!(journal
            .iter()
            .any(|(_, r)| *r == Err(FsError::AlreadyExists("/proj/taken".to_string()))));
        let wal0 = t.w.fss[0].mgrs[0].wal_len();
        let done = Rc::new(Cell::new(false));
        let done2 = done.clone();
        t.sessions[0].surrender_lease(&mut t.sim, &mut t.w, "/proj", move |_sim, _w, r| {
            r.unwrap();
            done2.set(true);
        });
        t.sim.run(&mut t.w);
        assert!(done.get());
        let inst = &t.w.fss[0];
        assert_eq!(
            inst.reconcile_ops,
            journal.len() as u64,
            "each entry applies exactly once"
        );
        assert_eq!(inst.mgrs[0].wal_len() - wal0, journal.len());
        for (op_id, r) in &journal {
            assert_eq!(
                inst.mgrs[0].applied_result(*op_id),
                Some(r),
                "the manager records the journaled result"
            );
        }
        assert!(t.w.clients[ctx.0 as usize].journal.is_empty());
    }

    #[test]
    fn reconciled_replays_retire_with_the_next_envelope() {
        // A session acks its journaled ops with its next manager op, before
        // the reconcile records them; the context acks the replays once
        // their response is in, on its next envelope (here another
        // session's), and every shard drops them.
        let mut t = bed_sharded(2, 2);
        let (s0, s1) = (t.sessions[0], t.sessions[1]);
        t.w.fss[0].core.mkdir("/proj", owner(), 0).unwrap();
        mounted(&mut t, move |sim, w| {
            s0.acquire_lease(sim, w, "/proj", move |sim, w, r| {
                r.unwrap();
                for i in 0..3 {
                    s0.mkdir(sim, w, &format!("/proj/d{i}"), owner(), |_sim, _w, r| {
                        r.unwrap();
                    });
                }
            });
        });
        let ctx = s0.ctx(&t.w);
        let ids: Vec<u64> = t.w.clients[ctx.0 as usize]
            .journal
            .iter()
            .map(|e| e.op_id)
            .collect();
        assert_eq!(ids.len(), 3);
        let recorded =
            |w: &GfsWorld, id: u64| w.fss[0].mgrs.iter().any(|m| m.applied_result(id).is_some());
        s0.stat(&mut t.sim, &mut t.w, "/", |_sim, _w, r| {
            assert!(r.unwrap().is_dir)
        });
        t.sim.run(&mut t.w);
        s0.surrender_lease(&mut t.sim, &mut t.w, "/proj", |_sim, _w, r| r.unwrap());
        t.sim.run(&mut t.w);
        assert!(
            ids.iter().all(|&id| recorded(&t.w, id)),
            "the reconcile records each replay"
        );
        s1.stat(&mut t.sim, &mut t.w, "/proj/d0", |_sim, _w, r| {
            assert!(r.unwrap().is_dir)
        });
        t.sim.run(&mut t.w);
        assert!(
            ids.iter().all(|&id| !recorded(&t.w, id)),
            "the next envelope retires them"
        );
        assert_eq!(t.w.fss[0].reconcile_ops, 3);
    }

    /// A shard that lost a subtree and got it back must not answer from
    /// what it resolved before: between the moves the other shard
    /// replaced the entry. (A per-manager path cache once returned the
    /// dead inode here — `NotFound("inode 2")`.)
    #[test]
    fn resolution_survives_a_subtree_round_trip_between_shards() {
        let mut t = bed_sharded(1, 2);
        let s = t.sessions[0];
        {
            let core = &mut t.w.fss[0].core;
            core.mkdir("/a", owner(), 0).unwrap();
            core.mkdir("/a/x", owner(), 0).unwrap();
            core.shards.assign("a", 0);
        }
        let got = Rc::new(RefCell::new(None));
        let got2 = got.clone();
        mounted(&mut t, move |sim, w| {
            s.stat(sim, w, "/a/x", move |sim, w, r| {
                assert!(r.unwrap().is_dir);
                w.fss[0].core.shards.assign("a", 1);
                s.unlink(sim, w, "/a/x", move |sim, w, r| {
                    r.unwrap();
                    s.open(
                        sim,
                        w,
                        "/a/x",
                        OpenFlags::Write,
                        owner(),
                        move |sim, w, r| {
                            let h = r.unwrap();
                            s.close(sim, w, h, move |sim, w, r| {
                                r.unwrap();
                                w.fss[0].core.shards.assign("a", 0);
                                s.stat(sim, w, "/a/x", move |_sim, _w, r| {
                                    *got2.borrow_mut() = Some(r);
                                });
                            });
                        },
                    );
                });
            });
        });
        let attr = got
            .borrow_mut()
            .take()
            .expect("final stat never completed")
            .unwrap();
        assert!(!attr.is_dir, "the re-created file, not the dead directory");
        assert_eq!(attr.inode, t.w.fss[0].core.lookup("/a/x").unwrap());
    }

    #[test]
    fn total_server_loss_surfaces_as_degraded() {
        let mut t = bed(1);
        let s = t.sessions[0];
        let saw = Rc::new(Cell::new(false));
        let saw2 = saw.clone();
        mounted(&mut t, move |sim, w| {
            let saw = saw2;
            s.open(sim, w, "/f", OpenFlags::Write, owner(), move |sim, w, r| {
                let h = r.unwrap();
                s.write(sim, w, h, 0, Bytes::from(vec![7u8; 4096]), move |sim, w, r| {
                    r.unwrap();
                    let servers = w.fss[0].nsd_servers.clone();
                    for n in servers {
                        w.fss[0].fail_server(n);
                    }
                    assert!(w.fss[0].try_server_of(NsdId(0)).is_none());
                    s.fsync(sim, w, h, move |_sim, _w, r| {
                        assert!(
                            matches!(r, Err(FsError::Degraded(_))),
                            "total server loss must surface as Degraded, got {r:?}"
                        );
                        saw.set(true);
                    });
                });
            });
        });
        assert!(saw.get());
    }

    #[test]
    fn open_write_read_close_roundtrip_with_relative_paths() {
        let mut t = bed(2);
        let s = t.sessions[1];
        let data = Rc::new(Cell::new(0usize));
        let data2 = data.clone();
        mounted(&mut t, move |sim, w| {
            let data = data2;
            s.mkdir(sim, w, "/home", owner(), move |sim, w, r| {
                r.unwrap();
                s.chdir(w, "/home");
                s.open(sim, w, "out.dat", OpenFlags::Write, owner(), move |sim, w, r| {
                    let h = r.unwrap();
                    assert_eq!(s.state(w).handles.len(), 1);
                    s.write(sim, w, h, 0, Bytes::from(vec![3u8; 8192]), move |sim, w, r| {
                        r.unwrap();
                        s.read(sim, w, h, 0, 8192, move |sim, w, r| {
                            let bytes = r.unwrap();
                            data.set(bytes.len());
                            s.close(sim, w, h, move |_sim, w, r| {
                                r.unwrap();
                                assert!(s.state(w).handles.is_empty());
                            });
                        });
                    });
                });
            });
        });
        assert_eq!(data.get(), 8192);
        // The cwd-relative open must have landed under /home.
        let ids = t.w.fss[0].core.lookup("/home/out.dat");
        assert!(ids.is_ok(), "relative open should create /home/out.dat");
        assert_eq!(t.sessions[1].state(&t.w).inflight_ops, 0);
        let sid = t.sessions[1].id();
        t.w.end_session(sid);
        assert_eq!(t.w.sessions.len(), 1);
    }

    #[test]
    fn unbound_session_errors_with_not_mounted() {
        let mut t = bed(1);
        let s = t.sessions[0];
        let saw = Rc::new(Cell::new(false));
        let saw2 = saw.clone();
        s.stat(&mut t.sim, &mut t.w, "/x", move |_sim, _w, r| {
            assert!(matches!(r, Err(FsError::NotMounted(_))));
            saw2.set(true);
        });
        t.sim.run(&mut t.w);
        assert!(saw.get());
    }
}
