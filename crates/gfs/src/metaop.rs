//! Typed manager ops: the one vocabulary fan-in envelopes, lease delegates
//! and the manager's dedup table / WAL share.
//!
//! A session metadata call becomes a [`MetaOp`] carrying the session's
//! resolved path (moved in, never cloned into a separate route). The op
//! names everything routing needs — the owning shard comes from
//! [`MetaOp::route`], the two-phase peer from [`MetaOp::peer_route`], the
//! lease subtree is a slice of the route ([`MetaOp::top`]) — and one
//! `match` ([`MetaOp::apply`]) runs it at the manager or at the site-local
//! delegate. Every op answers with a [`MetaResult`]; recorded mutations
//! keep one shared `Rc<MetaResult>` in the WAL, the dedup table, the peer
//! shard's commit record and the delegate journal alike.

use crate::client;
use crate::fscore::{top_component, FileAttr};
use crate::types::{ClientId, FsError, FsId, InodeId, OpenFlags, Owner};
use crate::world::GfsWorld;
use std::rc::Rc;

/// One manager-side metadata operation.
#[derive(Clone, Debug)]
pub enum MetaOp {
    /// Create a directory.
    Mkdir { path: String, owner: Owner },
    /// Attributes of a path.
    Stat { path: String },
    /// Sorted entry names of a directory.
    Readdir { path: String },
    /// Remove a file or empty directory.
    Unlink { path: String },
    /// Move `from` to `to` (two-phase when `to` lives on another shard).
    Rename { from: String, to: String },
    /// Resolve (and, for writing opens, create) a file.
    Open {
        path: String,
        flags: OpenFlags,
        owner: Owner,
    },
    /// Drop every byte-range token `ctx` holds on `inode` (close).
    ReleaseTokens { inode: InodeId, ctx: ClientId },
    /// Install a delegate-journaled result at the owning shard: the
    /// mutation already ran under the subtree lease `top`, so the manager
    /// only records `result` (charged `manager_replay_per_op`).
    Replay {
        top: Box<str>,
        result: Rc<MetaResult>,
    },
}

/// What a [`MetaOp`] answers on success.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaReply {
    /// Unlink, rename, token release.
    Unit,
    /// Mkdir: the new directory.
    Inode(InodeId),
    /// Stat (boxed: keeps recorded results small — stats are never
    /// recorded, mutations are).
    Attr(Box<FileAttr>),
    /// Readdir.
    Names(Vec<String>),
    /// Open: the file's filesystem and inode.
    Opened(FsId, InodeId),
    /// Not an op's answer: the record a rebalance commit journals in both
    /// shards' WALs when subtree `top` moves from shard `from` to `to`.
    Migrated { top: Box<str>, from: u32, to: u32 },
}

/// An op's outcome, as delivered and as recorded.
pub type MetaResult = Result<MetaReply, FsError>;

impl MetaOp {
    /// True when the op changes state and is therefore recorded (dedup
    /// table, WAL, delegate journal). Read-only ops are never recorded, so
    /// they also never probe the dedup table.
    pub fn mutating(&self) -> bool {
        match self {
            MetaOp::Stat { .. } | MetaOp::Readdir { .. } => false,
            MetaOp::Open { flags, .. } => flags.writes(),
            MetaOp::Mkdir { .. }
            | MetaOp::Unlink { .. }
            | MetaOp::Rename { .. }
            | MetaOp::ReleaseTokens { .. }
            | MetaOp::Replay { .. } => true,
        }
    }

    /// The path the op primarily touches: it picks the owning shard.
    /// Token releases live outside the namespace (`""`, shard 0); a replay
    /// routes by its subtree.
    pub fn route(&self) -> &str {
        match self {
            MetaOp::Mkdir { path, .. }
            | MetaOp::Stat { path }
            | MetaOp::Readdir { path }
            | MetaOp::Unlink { path }
            | MetaOp::Open { path, .. } => path,
            MetaOp::Rename { from, .. } => from,
            MetaOp::ReleaseTokens { .. } => "",
            MetaOp::Replay { top, .. } => top,
        }
    }

    /// The other path of a potentially cross-shard op: a rename's
    /// destination, a mkdir's parent (a mkdir at the namespace's first
    /// level lands in the root, owned by shard 0).
    pub fn peer_route(&self) -> Option<&str> {
        match self {
            MetaOp::Mkdir { path, .. } => Some(match path.rfind('/') {
                Some(0) | None => "/",
                Some(i) => &path[..i],
            }),
            MetaOp::Rename { to, .. } => Some(to),
            _ => None,
        }
    }

    /// Top-level namespace component the op touches — the lease
    /// granularity — as a slice of [`Self::route`] (`""` outside the
    /// namespace).
    pub fn top(&self) -> &str {
        top_component(self.route())
    }

    /// Run the op against filesystem `fs` at time `now` (ns). The same
    /// bodies serve the manager and the lease delegate.
    pub fn apply(&self, w: &mut GfsWorld, fs: FsId, now: u64) -> MetaResult {
        match self {
            MetaOp::Mkdir { path, owner } => {
                client::mkdir_apply_mgr(w, fs, now, path, owner).map(MetaReply::Inode)
            }
            MetaOp::Stat { path } => {
                client::stat_apply_mgr(w, fs, path).map(|a| MetaReply::Attr(Box::new(a)))
            }
            MetaOp::Readdir { path } => {
                client::readdir_apply_mgr(w, fs, path).map(MetaReply::Names)
            }
            MetaOp::Unlink { path } => {
                client::unlink_apply_mgr(w, fs, path).map(|()| MetaReply::Unit)
            }
            MetaOp::Rename { from, to } => {
                client::rename_apply_mgr(w, fs, from, to).map(|()| MetaReply::Unit)
            }
            MetaOp::Open { path, flags, owner } => {
                client::open_apply_mgr(w, fs, now, path, *flags, owner)
                    .map(|(fs, inode)| MetaReply::Opened(fs, inode))
            }
            MetaOp::ReleaseTokens { inode, ctx } => {
                w.fss[fs.0 as usize].tokens.release_all(*inode, *ctx);
                Ok(MetaReply::Unit)
            }
            MetaOp::Replay { result, .. } => {
                // Reached only when the dedup table has no record yet — the
                // counter is the proof each entry applied exactly once.
                w.fss[fs.0 as usize].reconcile_ops += 1;
                (**result).clone()
            }
        }
    }

    /// The shared record of `r`, the result this op just produced: a
    /// replay re-uses the journal's copy, anything else gets a fresh one.
    pub fn record_of(&self, r: &MetaResult) -> Rc<MetaResult> {
        match self {
            MetaOp::Replay { result, .. } => result.clone(),
            _ => Rc::new(r.clone()),
        }
    }
}

/// A typed op result that travels as a [`MetaReply`]: how the session
/// facade hands typed values to its callers and how the per-client
/// `manager_rpc` records and replays through the shared result store.
pub trait Reply: Sized {
    /// Wrap for recording.
    fn into_reply(self) -> MetaReply;
    /// Unwrap a reply produced by an op of the matching kind.
    fn from_reply(r: MetaReply) -> Self;
}

#[cold]
fn kind_mismatch(want: &str, got: &MetaReply) -> ! {
    panic!("manager op answered {got:?}, expected {want}")
}

impl Reply for () {
    fn into_reply(self) -> MetaReply {
        MetaReply::Unit
    }
    fn from_reply(r: MetaReply) -> Self {
        match r {
            MetaReply::Unit => (),
            other => kind_mismatch("Unit", &other),
        }
    }
}

impl Reply for InodeId {
    fn into_reply(self) -> MetaReply {
        MetaReply::Inode(self)
    }
    fn from_reply(r: MetaReply) -> Self {
        match r {
            MetaReply::Inode(id) => id,
            other => kind_mismatch("Inode", &other),
        }
    }
}

impl Reply for FileAttr {
    fn into_reply(self) -> MetaReply {
        MetaReply::Attr(Box::new(self))
    }
    fn from_reply(r: MetaReply) -> Self {
        match r {
            MetaReply::Attr(a) => *a,
            other => kind_mismatch("Attr", &other),
        }
    }
}

impl Reply for Vec<String> {
    fn into_reply(self) -> MetaReply {
        MetaReply::Names(self)
    }
    fn from_reply(r: MetaReply) -> Self {
        match r {
            MetaReply::Names(n) => n,
            other => kind_mismatch("Names", &other),
        }
    }
}

impl Reply for (FsId, InodeId) {
    fn into_reply(self) -> MetaReply {
        MetaReply::Opened(self.0, self.1)
    }
    fn from_reply(r: MetaReply) -> Self {
        match r {
            MetaReply::Opened(fs, inode) => (fs, inode),
            other => kind_mismatch("Opened", &other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_peers_and_tops_are_slices_of_the_op_paths() {
        let owner = Owner::local(1, 1);
        let mk = MetaOp::Mkdir {
            path: "/proj/a/b".into(),
            owner: owner.clone(),
        };
        assert_eq!(mk.route(), "/proj/a/b");
        assert_eq!(mk.peer_route(), Some("/proj/a"));
        assert_eq!(mk.top(), "proj");
        let first = MetaOp::Mkdir {
            path: "/proj".into(),
            owner,
        };
        assert_eq!(
            first.peer_route(),
            Some("/"),
            "first-level mkdirs land in the root"
        );
        let mv = MetaOp::Rename {
            from: "/a/x".into(),
            to: "/b/y".into(),
        };
        assert_eq!(
            (mv.route(), mv.peer_route(), mv.top()),
            ("/a/x", Some("/b/y"), "a")
        );
        let rel = MetaOp::ReleaseTokens {
            inode: InodeId(3),
            ctx: ClientId(0),
        };
        assert_eq!((rel.route(), rel.top(), rel.peer_route()), ("", "", None));
        let rp = MetaOp::Replay {
            top: "w01".into(),
            result: Rc::new(Ok(MetaReply::Unit)),
        };
        assert_eq!(rp.top(), "w01");
        assert!(rp.mutating());
        assert!(!MetaOp::Stat { path: "/a".into() }.mutating());
        let ro = MetaOp::Open {
            path: "/a".into(),
            flags: OpenFlags::Read,
            owner: Owner::local(1, 1),
        };
        assert!(!ro.mutating());
    }

    #[test]
    fn replies_round_trip_through_the_typed_store() {
        let id = InodeId(9);
        assert_eq!(InodeId::from_reply(id.into_reply()), id);
        let opened = (FsId(1), InodeId(4));
        assert_eq!(<(FsId, InodeId)>::from_reply(opened.into_reply()), opened);
        let names = vec!["a".to_string(), "b".to_string()];
        assert_eq!(Vec::<String>::from_reply(names.clone().into_reply()), names);
        <()>::from_reply(().into_reply());
    }

    #[test]
    fn a_replay_records_the_journal_copy_itself() {
        let shared = Rc::new(Ok(MetaReply::Inode(InodeId(7))));
        let rp = MetaOp::Replay {
            top: "w".into(),
            result: shared.clone(),
        };
        assert!(Rc::ptr_eq(&rp.record_of(&Ok(MetaReply::Unit)), &shared));
    }
}
