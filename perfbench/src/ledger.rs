//! The per-call ledger: modeled latency, outcome and bytes of every
//! `Session` call the generator issues, plus percentile extraction.

use crate::spans;
use gfs::types::FsError;
use gfs::world::GfsWorld;
use simcore::{Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// `Session` call kinds the benchmark issues.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Mkdir,
    Open,
    Close,
    Stat,
    Readdir,
    Unlink,
    Rename,
    Read,
    Write,
    Fsync,
}

impl Kind {
    /// Every kind, in span/metric order.
    pub const ALL: [Kind; 10] = [
        Kind::Mkdir,
        Kind::Open,
        Kind::Close,
        Kind::Stat,
        Kind::Readdir,
        Kind::Unlink,
        Kind::Rename,
        Kind::Read,
        Kind::Write,
        Kind::Fsync,
    ];

    /// Metric-name component.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Mkdir => "mkdir",
            Kind::Open => "open",
            Kind::Close => "close",
            Kind::Stat => "stat",
            Kind::Readdir => "readdir",
            Kind::Unlink => "unlink",
            Kind::Rename => "rename",
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::Fsync => "fsync",
        }
    }

    /// Namespace call (counted in `meta_*`) rather than data call (`io_*`).
    pub fn is_meta(self) -> bool {
        !matches!(self, Kind::Read | Kind::Write | Kind::Fsync)
    }
}

/// The run gave up on the call: the error classes `failed_op_frac` counts
/// whatever the workload.
pub fn gave_up(e: &FsError) -> bool {
    matches!(
        e,
        FsError::Timeout | FsError::ServerDown | FsError::Degraded(_)
    )
}

/// Small stable code per error variant, for result fingerprints.
pub fn err_code(e: &FsError) -> u64 {
    match e {
        FsError::NotFound(_) => 1,
        FsError::AlreadyExists(_) => 2,
        FsError::NotADirectory(_) => 3,
        FsError::IsADirectory(_) => 4,
        FsError::NotEmpty(_) => 5,
        FsError::NoSpace => 6,
        FsError::BadHandle => 7,
        FsError::ReadOnly => 8,
        FsError::NotMounted(_) => 9,
        FsError::AuthFailed(_) => 10,
        FsError::InvalidArgument(_) => 11,
        FsError::Timeout => 12,
        FsError::ServerDown => 13,
        FsError::Degraded(_) => 14,
    }
}

/// Order-sensitive 64-bit mixer for fingerprints.
#[inline]
pub fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Fingerprint of a string, for input fingerprints.
pub fn hash_str(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(mix(h, s.len() as u64), |h, b| mix(h, u64::from(b)))
}

/// Nearest-rank percentile `p` (in `(0, 1)`) of ascending `sorted`, or
/// `None` when fewer than ten samples lie beyond it — the rule under which
/// a percentile is reported at all.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// A modeled interval: first issue to last completion of some calls.
#[derive(Clone, Copy, Default)]
struct Window {
    start: Option<SimTime>,
    end: SimTime,
}

impl Window {
    fn open(&mut self, t: SimTime) {
        self.start.get_or_insert(t);
    }

    fn close(&mut self, t: SimTime) {
        self.end = self.end.max(t);
    }

    fn ns(&self) -> u64 {
        match self.start {
            Some(t0) => self.end.max(t0).since(t0).as_nanos(),
            None => 0,
        }
    }
}

/// Everything recorded about the calls of one run.
#[derive(Default)]
pub struct Ledger {
    lat: [Vec<u64>; 10],
    /// Calls issued.
    pub attempted: u64,
    /// Calls whose callback fired.
    pub completed: u64,
    /// Calls that failed: gave up, wrong bytes, unexpected error, or an
    /// oracle divergence.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Bytes returned by read calls.
    pub bytes_read: u64,
    /// Bytes accepted by write calls.
    pub bytes_written: u64,
    first_issue: Option<SimTime>,
    last_done: SimTime,
    /// Write phase: first write issued to last write or fsync completed.
    write_phase: Window,
    /// Read phase: first read issued to last read completed.
    read_phase: Window,
    /// Order-sensitive fingerprint over every call's kind and outcome.
    pub result_fp: u64,
}

/// Shared handle to a run's ledger.
#[derive(Clone, Default)]
pub struct Led(pub Rc<RefCell<Ledger>>);

impl Led {
    /// Register a call of `kind` issued now, and wrap its completion
    /// callback: the wrapper records the modeled latency (`Sim::now()` at
    /// issue and in the callback) and the outcome, then runs `cb` inside a
    /// callback span.
    pub fn track<T: 'static>(
        &self,
        sim: &Sim<GfsWorld>,
        kind: Kind,
        cb: impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static,
    ) -> impl FnOnce(&mut Sim<GfsWorld>, &mut GfsWorld, Result<T, FsError>) + 'static {
        let t0 = sim.now();
        {
            let mut l = self.0.borrow_mut();
            l.attempted += 1;
            l.first_issue.get_or_insert(t0);
            match kind {
                Kind::Write => l.write_phase.open(t0),
                Kind::Read => l.read_phase.open(t0),
                _ => {}
            }
        }
        let led = self.clone();
        move |sim: &mut Sim<GfsWorld>, w: &mut GfsWorld, r: Result<T, FsError>| {
            {
                let now = sim.now();
                let mut l = led.0.borrow_mut();
                l.lat[kind as usize].push(now.since(t0).as_nanos());
                l.completed += 1;
                l.last_done = l.last_done.max(now);
                match kind {
                    Kind::Write | Kind::Fsync => l.write_phase.close(now),
                    Kind::Read => l.read_phase.close(now),
                    _ => {}
                }
                let code = match &r {
                    Ok(_) => 0,
                    Err(e) => err_code(e),
                };
                l.result_fp = mix(l.result_fp, (kind as u64) << 8 | code);
                if let Err(e) = &r {
                    if gave_up(e) {
                        l.fail(format!("{} gave up: {e}", kind.name()));
                    }
                }
            }
            spans::span(spans::CALLBACK, || cb(sim, w, r))
        }
    }

    /// Count one failed call.
    pub fn fail(&self, why: String) {
        self.0.borrow_mut().fail(why);
    }

    /// Account bytes returned by a read.
    pub fn read_bytes(&self, n: u64) {
        self.0.borrow_mut().bytes_read += n;
    }

    /// Account bytes accepted by a write.
    pub fn wrote_bytes(&self, n: u64) {
        self.0.borrow_mut().bytes_written += n;
    }

    /// Extend the modeled makespan to `t` (work the run waits for that is
    /// not itself a tracked call, such as a lease surrender's reconcile).
    pub fn done_at(&self, t: SimTime) {
        let mut l = self.0.borrow_mut();
        l.last_done = l.last_done.max(t);
    }
}

impl Ledger {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Modeled makespan in ns: first issue to last completion.
    pub fn makespan_ns(&self) -> u64 {
        match self.first_issue {
            Some(t0) => self.last_done.max(t0).since(t0).as_nanos(),
            None => 0,
        }
    }

    /// Modeled ns of the write phase: first write call issued to the last
    /// write or fsync completed, so the time to make the bytes durable
    /// counts.
    pub fn write_phase_ns(&self) -> u64 {
        self.write_phase.ns()
    }

    /// Modeled ns of the read phase: first read call issued to the last
    /// read completed.
    pub fn read_phase_ns(&self) -> u64 {
        self.read_phase.ns()
    }

    /// Latency samples (ns) of `kind`, ascending.
    pub fn sorted(&self, kind: Kind) -> Vec<u64> {
        let mut v = self.lat[kind as usize].clone();
        v.sort_unstable();
        v
    }

    /// Latency samples (ns) of every kind matching `pick`, ascending.
    pub fn sorted_where(&self, pick: impl Fn(Kind) -> bool) -> Vec<u64> {
        let mut v: Vec<u64> = Kind::ALL
            .iter()
            .filter(|k| pick(**k))
            .flat_map(|k| self.lat[*k as usize].iter().copied())
            .collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_runs_from_first_issue_to_last_completion() {
        let mut w = Window::default();
        assert_eq!(w.ns(), 0);
        w.open(SimTime::from_micros(10));
        w.close(SimTime::from_micros(40));
        // Later issues do not move the start; earlier completions do not
        // move the end.
        w.open(SimTime::from_micros(20));
        w.close(SimTime::from_micros(30));
        assert_eq!(w.ns(), 30_000);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.9), Some(90));
        // 100 samples: p99 is rank 99 with a single sample beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.99), Some(990));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7; 10], 0.5), None);
        assert_eq!(percentile(&[7; 20], 0.5), Some(7));
    }
}
