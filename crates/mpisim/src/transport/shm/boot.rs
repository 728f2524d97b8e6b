//! The shm fabric's [`Bootstrap`]: workers attach to the driver's
//! segment by path, and the epoch protocol lives in the segment header
//! (a command word plus an all-ranks barrier).

use super::segment::{Segment, CMD_STOP};
use super::ShmTransport;
use crate::transport::process::{Bootstrap, Workers};
use crate::transport::Transport;
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Environment keys of the hidden worker mode (distinct from the sock
/// fabric's, so the two launch protocols cannot cross wires).
const ENV_WORKER_RANK: &str = "MPISIM_WORKER_RANK";
const ENV_WORKER_SEG: &str = "MPISIM_WORKER_SEG";

/// Test hook: `MPISIM_ATTACH_FAIL_ONCE="<rank>:<marker_path>"` makes that
/// worker rank exit before attaching, exactly once (the marker file records
/// the first death), exercising the driver's pre-attach respawn policy.
const ENV_ATTACH_FAIL_ONCE: &str = "MPISIM_ATTACH_FAIL_ONCE";

/// `MPISIM_RESPAWN_MAX`: per-rank cap on pre-attach worker respawns.
const DEFAULT_RESPAWN_MAX: u32 = 2;

fn respawn_max() -> u32 {
    std::env::var("MPISIM_RESPAWN_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_RESPAWN_MAX)
}

/// Epoch command word: `(job << JOB_SHIFT) | epoch`, or [`CMD_STOP`].
const JOB_SHIFT: u32 = 48;
const EPOCH_MASK: u64 = (1 << JOB_SHIFT) - 1;

pub(crate) struct ShmBoot {
    seg: Arc<Segment>,
    rank: usize,
}

impl Bootstrap for ShmBoot {
    fn rank_key() -> &'static str {
        ENV_WORKER_RANK
    }

    fn create(n_ranks: usize) -> (Self, Arc<dyn Transport>) {
        let transport = ShmTransport::create(n_ranks);
        let seg = Arc::clone(transport.segment());
        seg.pid_slot(0).store(std::process::id(), Ordering::SeqCst);
        (ShmBoot { seg, rank: 0 }, transport)
    }

    fn join(n_ranks: usize, rank: usize) -> (Self, Arc<dyn Transport>) {
        if let Ok(spec) = std::env::var(ENV_ATTACH_FAIL_ONCE) {
            if let Some((r, marker)) = spec.split_once(':') {
                if r.parse() == Ok(rank)
                    && std::fs::OpenOptions::new()
                        .write(true)
                        .create_new(true)
                        .open(marker)
                        .is_ok()
                {
                    // deterministic pre-attach death for the respawn tests
                    std::process::exit(17);
                }
            }
        }
        let seg_path = std::env::var(ENV_WORKER_SEG).expect("worker mode without segment path");
        let transport = ShmTransport::attach(&seg_path);
        let seg = Arc::clone(transport.segment());
        assert_eq!(
            seg.n_ranks(),
            n_ranks,
            "worker launched for a {n_ranks}-rank world but the segment has {}",
            seg.n_ranks()
        );
        (ShmBoot { seg, rank }, transport)
    }

    fn worker_env(&self) -> (&'static str, String) {
        (ENV_WORKER_SEG, self.seg.path().display().to_string())
    }

    /// Attach barrier with a self-healing stall probe. A worker that dies
    /// BEFORE storing its pid slot is invisible to the fabric's death
    /// detection (zero pid slots are skipped, and the watchdog is not
    /// running yet), so the barrier would hang forever; respawn such
    /// workers with a capped per-rank budget, aborting loudly past it.
    /// Workers that died AFTER attaching are caught by the pid sweep of
    /// the shared stall probe as usual.
    fn gather(&self, workers: &mut Workers, stall: &dyn Fn()) {
        let workers = RefCell::new(workers);
        let respawns = RefCell::new(vec![0u32; self.seg.n_ranks()]);
        self.seg.barrier(&|| {
            stall();
            let mut workers = workers.borrow_mut();
            let mut used = respawns.borrow_mut();
            for rank in 1..self.seg.n_ranks() {
                if self.seg.pid_slot(rank).load(Ordering::SeqCst) != 0 {
                    continue; // attached; no longer this loop's problem
                }
                if let Some(status) = workers.exited(rank) {
                    assert!(
                        used[rank] < respawn_max(),
                        "worker rank {rank} died before attaching ({status}) and \
                         exhausted its respawn budget of {} (MPISIM_RESPAWN_MAX)",
                        respawn_max()
                    );
                    used[rank] += 1;
                    eprintln!(
                        "mpisim: worker rank {rank} exited before attaching \
                         ({status}); respawning (attempt {}/{})",
                        used[rank],
                        respawn_max()
                    );
                    std::thread::sleep(std::time::Duration::from_millis(20 * used[rank] as u64));
                    workers.respawn(rank);
                }
            }
        });
        // every process holds a mapping now; drop the /dev/shm name so the
        // segment cannot outlive the world
        self.seg.unlink();
    }

    fn attach(&self, stall: &dyn Fn()) {
        self.seg
            .pid_slot(self.rank)
            .store(std::process::id(), Ordering::SeqCst);
        self.seg.barrier(stall);
    }

    fn open_epoch(&self, job: usize, epoch: u64) {
        self.seg.post_cmd(((job as u64) << JOB_SHIFT) | epoch);
    }

    fn await_epoch(&self, epoch: u64, stall: &dyn Fn()) -> Option<usize> {
        loop {
            let cmd = self.seg.read_cmd();
            if cmd == CMD_STOP {
                return None;
            }
            if cmd & EPOCH_MASK == epoch {
                return Some((cmd >> JOB_SHIFT) as usize);
            }
            assert!(
                cmd & EPOCH_MASK < epoch,
                "epoch protocol desync: driver is at {}, this rank expects {epoch}",
                cmd & EPOCH_MASK
            );
            self.seg.park_cmd();
            if self.seg.read_cmd() == cmd {
                stall(); // nothing moved
            }
        }
    }

    fn close_epoch(&self, _epoch: u64, stall: &dyn Fn()) {
        self.seg.barrier(stall);
    }

    fn announce_death(&self, rank: usize) {
        self.seg.note_rank_death(rank);
    }

    fn stop(&self) {
        self.seg.post_cmd(CMD_STOP);
    }

    fn await_stop(&self) -> bool {
        while self.seg.read_cmd() != CMD_STOP {
            self.seg.park_cmd();
            self.seg.check_alive();
        }
        true
    }
}
