//! The socket fabric's [`Bootstrap`]: a rendezvous over the driver's
//! listener instead of a shared segment, and the epoch protocol carried
//! as frames.
//!
//! Rank 0 binds a listener (`MPISIM_SOCK_ADDR`, or an auto-assigned UDS
//! path); each re-exec'd worker binds its own listener, dials rank 0 with
//! retry/backoff, announces itself with a JOIN frame carrying its address,
//! receives the full address TABLE back, and mesh-connects to every
//! lower-ranked worker. Deposits to a peer whose dial has not landed yet
//! simply queue in the link's replay buffer — no completion barrier is
//! needed.
//!
//! Epochs: rank 0 broadcasts a start word, runs its own share, collects a
//! DONE per worker, and broadcasts a release word (the two-phase epoch
//! barrier). A death is a DEATH broadcast on top of the local flag; a
//! vanished host is caught by the link heartbeat/reconnect machinery
//! itself.

use super::link::{is_uds, K_CMD, K_DEATH, K_DONE, K_JOIN, K_TABLE};
use super::{CtrlState, SockTransport};
use crate::transport::process::{Bootstrap, Workers};
use crate::transport::Transport;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Environment key of the hidden worker mode (distinct from the shm
/// fabric's, so the two launch protocols cannot cross wires).
const ENV_SOCK_RANK: &str = "MPISIM_SOCK_WORKER_RANK";
/// Rendezvous address: the driver's listener, passed to workers (and
/// honored as the bind spec when set on the driver itself).
const ENV_SOCK_ADDR: &str = "MPISIM_SOCK_ADDR";

/// Epoch command word: `(job << JOB_SHIFT) | (epoch << 1) | release_bit`.
const JOB_SHIFT: u32 = 48;
const EPOCH_MASK: u64 = (1 << JOB_SHIFT) - 1;
const CMD_STOP: u64 = u64::MAX;

fn cmd_word(job: usize, epoch: u64, release: bool) -> u64 {
    ((job as u64) << JOB_SHIFT) | (epoch << 1) | release as u64
}

fn stall_period() -> Duration {
    Duration::from_millis(crate::stall::stall_ms())
}

pub(crate) struct SockBoot {
    sock: Arc<SockTransport>,
    rank: usize,
    n_ranks: usize,
}

impl SockBoot {
    /// Send one frame to every peer (none in a one-rank world, whose
    /// loopback self-link would only echo it back).
    fn broadcast(&self, kind: u8, body: &[u8]) {
        if self.n_ranks > 1 {
            for link in self.sock.links.iter().flatten() {
                link.send_frame(kind, body);
            }
        }
    }

    /// Block on the control inbox until `ready` yields a value, running
    /// `stall` each stall period in which nothing arrives.
    fn wait_ctrl<T>(
        &self,
        stall: &dyn Fn(),
        mut ready: impl FnMut(&mut CtrlState) -> Option<T>,
    ) -> T {
        let ctrl = &self.sock.ctrl;
        let mut st = ctrl.st.lock();
        loop {
            if let Some(t) = ready(&mut st) {
                return t;
            }
            if ctrl.cv.wait_for(&mut st, stall_period()).timed_out() {
                drop(st);
                stall();
                st = ctrl.st.lock();
            }
        }
    }

    /// Wait for the next command word; `Some(job)` when it matches this
    /// epoch (+ phase), `None` on the stop command.
    fn await_cmd(&self, epoch: u64, release: bool, stall: &dyn Fn()) -> Option<usize> {
        let word = self.wait_ctrl(stall, |st| st.cmds.pop_front());
        if word == CMD_STOP {
            return None;
        }
        let (job, ep, rel) = (
            (word >> JOB_SHIFT) as usize,
            (word & EPOCH_MASK) >> 1,
            word & 1 == 1,
        );
        assert_eq!(
            (ep, rel),
            (epoch, release),
            "epoch protocol desync on rank {}: got epoch {ep} (release {rel}), \
             expected {epoch} (release {release})",
            self.rank
        );
        Some(job)
    }

    /// Best-effort wait until every queued frame has reached the kernel's
    /// socket buffers (they survive process exit; the writer thread does
    /// not).
    fn flush_links(&self, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        for link in self.sock.links.iter().flatten() {
            loop {
                {
                    let st = link.st.lock();
                    if st.dead || st.shutdown || st.writer_sock.is_none() || st.sent >= st.tx_seq {
                        break;
                    }
                }
                if Instant::now() >= deadline {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

impl Bootstrap for SockBoot {
    fn rank_key() -> &'static str {
        ENV_SOCK_RANK
    }

    fn create(n_ranks: usize) -> (Self, Arc<dyn Transport>) {
        let sock = if n_ranks == 1 {
            SockTransport::loopback(1) // no peers: plain loopback fabric
        } else {
            let listen_spec =
                std::env::var(ENV_SOCK_ADDR).unwrap_or_else(|_| super::link::auto_addr());
            SockTransport::bind(0, n_ranks, &listen_spec)
        };
        let boot = SockBoot {
            sock: Arc::clone(&sock),
            rank: 0,
            n_ranks,
        };
        (boot, sock)
    }

    fn join(n_ranks: usize, rank: usize) -> (Self, Arc<dyn Transport>) {
        let driver_addr = std::env::var(ENV_SOCK_ADDR).expect("worker mode without driver address");
        // match the driver's address family so a TCP rendezvous yields a
        // TCP mesh (cross-host shape), a UDS one stays on-disk
        let listen_spec = if is_uds(&driver_addr) {
            super::link::auto_addr()
        } else {
            "127.0.0.1:0".to_string()
        };
        let sock = SockTransport::bind(rank, n_ranks, &listen_spec);
        sock.connect_to(0, &driver_addr)
            .unwrap_or_else(|e| panic!("rank {rank} cannot join the world: {e}"));
        let mut join = Vec::with_capacity(8 + sock.listener_addr.len());
        join.extend_from_slice(&(rank as u32).to_le_bytes());
        join.extend_from_slice(&(sock.listener_addr.len() as u32).to_le_bytes());
        join.extend_from_slice(sock.listener_addr.as_bytes());
        sock.links[0]
            .as_ref()
            .expect("driver link")
            .send_frame(K_JOIN, &join);
        let boot = SockBoot {
            sock: Arc::clone(&sock),
            rank,
            n_ranks,
        };
        (boot, sock)
    }

    fn worker_env(&self) -> (&'static str, String) {
        (ENV_SOCK_ADDR, self.sock.listener_addr.clone())
    }

    /// Collect one JOIN per worker, then broadcast the address table. A
    /// worker that exits before the table is out fails the launch (its
    /// death is announced first, so joined workers abort too).
    fn gather(&self, workers: &mut Workers, stall: &dyn Fn()) {
        if self.n_ranks == 1 {
            return;
        }
        let mut addrs = vec![String::new(); self.n_ranks];
        addrs[0] = self.sock.listener_addr.clone();
        let mut joined = 1;
        self.wait_ctrl(stall, |st| {
            for (rank, addr) in st.joins.drain(..) {
                assert!(
                    rank < self.n_ranks && addrs[rank].is_empty(),
                    "bogus or duplicate JOIN from rank {rank}"
                );
                addrs[rank] = addr;
                joined += 1;
            }
            for rank in 1..self.n_ranks {
                if let Some(status) = workers.exited(rank) {
                    self.announce_death(rank);
                    panic!("bootstrap failed: worker rank {rank} exited ({status})");
                }
            }
            (joined == self.n_ranks).then_some(())
        });
        let mut table = Vec::new();
        table.extend_from_slice(&(self.n_ranks as u32).to_le_bytes());
        for a in &addrs {
            table.extend_from_slice(&(a.len() as u32).to_le_bytes());
            table.extend_from_slice(a.as_bytes());
        }
        self.broadcast(K_TABLE, &table);
        // keep the driver's own copy: `reaped` scrubs a worker's UDS
        // listener path by its table entry
        self.sock.ctrl.st.lock().table = Some(addrs);
    }

    /// Await the address table, then mesh-connect to lower ranks.
    fn attach(&self, stall: &dyn Fn()) {
        let rank = self.rank;
        let table = self.wait_ctrl(stall, |st| st.table.take());
        assert_eq!(
            table.len(),
            self.n_ranks,
            "rank {rank}: address table covers {} ranks, world has {}",
            table.len(),
            self.n_ranks
        );
        for (peer, addr) in table.iter().enumerate().take(rank).skip(1) {
            self.sock
                .connect_to(peer, addr)
                .unwrap_or_else(|e| panic!("rank {rank} cannot mesh with rank {peer}: {e}"));
        }
    }

    fn open_epoch(&self, job: usize, epoch: u64) {
        self.broadcast(K_CMD, &cmd_word(job, epoch, false).to_le_bytes());
    }

    fn await_epoch(&self, epoch: u64, stall: &dyn Fn()) -> Option<usize> {
        self.await_cmd(epoch, false, stall)
    }

    /// Two-phase barrier: workers send DONE and wait for the release word;
    /// rank 0 collects a DONE per worker, then broadcasts the release.
    fn close_epoch(&self, epoch: u64, stall: &dyn Fn()) {
        if self.rank != 0 {
            let mut done = Vec::with_capacity(12);
            done.extend_from_slice(&(self.rank as u32).to_le_bytes());
            done.extend_from_slice(&epoch.to_le_bytes());
            self.sock.links[0]
                .as_ref()
                .expect("driver link")
                .send_frame(K_DONE, &done);
            assert!(
                self.await_cmd(epoch, true, stall).is_some(),
                "driver stopped inside epoch {epoch}"
            );
            return;
        }
        if self.n_ranks == 1 {
            return;
        }
        self.wait_ctrl(stall, |st| {
            let done = st.dones.iter().filter(|(_, e)| *e == epoch).count();
            (done == self.n_ranks - 1).then(|| st.dones.retain(|(_, e)| *e != epoch))
        });
        self.broadcast(K_CMD, &cmd_word(0, epoch, true).to_le_bytes());
    }

    /// Raise the local flag, wake local waiters and tell every peer. This
    /// rank's own death is flushed to the kernel before the process exits
    /// or unwinds, so blocked receives across the mesh abort loudly.
    fn announce_death(&self, rank: usize) {
        self.sock.note_rank_panic(Some(rank));
        self.sock.ctrl.cv.notify_all();
        self.broadcast(K_DEATH, &(rank as u32).to_le_bytes());
        if rank == self.rank {
            self.flush_links(Duration::from_secs(2));
        }
    }

    /// Remove a reaped worker's UDS listener path. A worker that dies
    /// without unwinding (the `SIGKILL` shape, or a fault-plan kill) never
    /// runs its own `leave`, and the stale name would litter the temp
    /// directory; removing it again after a clean exit is a harmless
    /// no-op.
    fn reaped(&self, rank: usize) {
        let addr = self
            .sock
            .ctrl
            .st
            .lock()
            .table
            .as_ref()
            .and_then(|t| t.get(rank).cloned());
        if let Some(addr) = addr {
            if is_uds(&addr) {
                let _ = std::fs::remove_file(&addr);
            }
        }
    }

    fn stop(&self) {
        self.broadcast(K_CMD, &CMD_STOP.to_le_bytes());
        self.flush_links(Duration::from_secs(2));
    }

    fn await_stop(&self) -> bool {
        let ctrl = &self.sock.ctrl;
        loop {
            {
                let mut st = ctrl.st.lock();
                match st.cmds.pop_front() {
                    Some(CMD_STOP) => return true,
                    Some(w) => unreachable!("stray command word {w:#x} at shutdown"),
                    None => {
                        ctrl.cv.wait_for(&mut st, stall_period());
                    }
                }
            }
            if self.sock.peer_failure().is_some() {
                return false;
            }
        }
    }

    /// Unlink this process's UDS listener path: workers exit without
    /// dropping the transport.
    fn leave(&self) {
        if is_uds(&self.sock.listener_addr) {
            let _ = std::fs::remove_file(&self.sock.listener_addr);
        }
    }
}
