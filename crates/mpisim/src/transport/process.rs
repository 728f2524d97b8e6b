//! Ranks as separate OS processes: one launcher over a per-fabric
//! [`Bootstrap`].
//!
//! [`ProcessWorld`] is the SPMD entry point of both process fabrics
//! ([`crate::World::spawn_processes`] over shm,
//! [`crate::World::spawn_sock`] over sockets). Rank 0 creates the fabric
//! and re-execs the current binary once per peer rank in a hidden worker
//! mode, selected by the fabric's worker environment keys, with the
//! original argv preserved so workers land in the same `main` path.
//! Re-exec rather than `fork`: the driver is multi-threaded by the time it
//! launches (fabric flushers, link readers and writers, the test harness),
//! and a forked child of a threaded process may only call async-signal-safe
//! functions; a fresh exec rebuilds every process-global (tag space, env
//! parses) the same deterministic way on every rank. Every process then
//! runs the same program; each [`ProcessWorld::run`] call is one epoch,
//! opened by rank 0's command and closed by an all-ranks barrier.
//!
//! What the fabrics do differently — rendezvous, how a command travels,
//! the barrier, how a death is announced, stop — sits behind
//! [`Bootstrap`]; the rest is written once here: the launch guard, the
//! re-exec, the child-reaping watchdog, the epoch protocol, the deadline
//! checks and shutdown.
//!
//! Death containment mirrors the thread pool's guarantee: a rank that
//! panics announces its death before dying, and rank 0's watchdog
//! announces ranks that die *without* unwinding (SIGKILL, `exit`), so
//! every peer blocked in the fabric aborts loudly on its next stall probe
//! instead of deadlocking. An exit the watchdog observes after the driver
//! decided to stop is never a death.
//!
//! Workers never return past the world: dropping a worker's handle waits
//! for the stop command and exits the process, because the code after the
//! world in `main` is the driver's (result checks, a second world) and a
//! worker running it would act as a driver of its own.
//!
//! The driver/server split ([`ProcessWorld::epoch_job`] /
//! [`ProcessWorld::serve`]) exists for benchmarks: rank 0 drives many
//! epochs over a fixed job table while workers loop in `serve`, so
//! per-iteration cost is the epoch protocol plus the job itself — no
//! process spawning on the hot path.

use super::Transport;
use crate::ctx::RankCtx;
use crate::state::WorldState;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::process::{Child, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the watchdog waits for workers to obey the stop command
/// before killing them, so the driver's drop cannot hang.
const STOP_GRACE: Duration = Duration::from_secs(5);

/// What a process fabric does differently; everything else about a
/// process world is [`ProcessWorld`]'s. `stall` arguments are the shared
/// stall probe (peer death and deadline aborts): a blocked wait runs it
/// once per stall period in which nothing moved.
pub(crate) trait Bootstrap: Send + Sync {
    /// Environment key carrying a re-exec'd worker's rank; its presence
    /// selects worker mode.
    fn rank_key() -> &'static str
    where
        Self: Sized;

    /// Driver side: create the fabric of an `n_ranks` world.
    fn create(n_ranks: usize) -> (Self, Arc<dyn Transport>)
    where
        Self: Sized;

    /// Worker side: open `rank`'s end of the driver's fabric.
    fn join(n_ranks: usize, rank: usize) -> (Self, Arc<dyn Transport>)
    where
        Self: Sized;

    /// The fabric's environment entry a re-exec'd worker needs to
    /// [`Bootstrap::join`] (besides its rank).
    fn worker_env(&self) -> (&'static str, String);

    /// Rendezvous, driver side: return once every worker is attached.
    /// `workers` lets the fabric watch (and restart) the children.
    fn gather(&self, workers: &mut Workers, stall: &dyn Fn());

    /// Rendezvous, worker side: return once the whole world is attached.
    fn attach(&self, stall: &dyn Fn());

    /// Driver: open `epoch`, running job `job` of the workers' table.
    fn open_epoch(&self, job: usize, epoch: u64);

    /// Worker: wait for the driver to open `epoch`; `Some(job)` when it
    /// does, `None` on the stop command.
    fn await_epoch(&self, epoch: u64, stall: &dyn Fn()) -> Option<usize>;

    /// The all-ranks barrier closing `epoch`.
    fn close_epoch(&self, epoch: u64, stall: &dyn Fn());

    /// Tell the world `rank` died (this rank before it exits or unwinds,
    /// or a worker the watchdog reaped): raise the fabric's death flag,
    /// attributed to `rank`, where every blocked peer's probe sees it.
    fn announce_death(&self, rank: usize);

    /// The watchdog reaped worker `rank`, dead or stopped.
    fn reaped(&self, _rank: usize) {}

    /// Driver: post the stop command.
    fn stop(&self);

    /// Worker: wait for the stop command; `false` when the world was lost
    /// first.
    fn await_stop(&self) -> bool;

    /// Worker: last step before this process exits.
    fn leave(&self) {}
}

/// Set by the first launch of either fabric: a process is either the
/// driver of one world or a worker of it, so a second launch (of any
/// fabric) would re-exec workers that re-enter `main` as drivers.
static LAUNCHED: AtomicBool = AtomicBool::new(false);

/// The driver's re-exec'd worker processes; worker `rank` is
/// `children[rank - 1]`.
pub(crate) struct Workers {
    exe: std::path::PathBuf,
    rank_key: &'static str,
    env: (&'static str, String),
    children: Vec<Child>,
}

impl Workers {
    fn spawn(n_ranks: usize, rank_key: &'static str, env: (&'static str, String)) -> Workers {
        let mut workers = Workers {
            exe: std::env::current_exe().expect("current_exe for worker re-exec"),
            rank_key,
            env,
            children: Vec::with_capacity(n_ranks.saturating_sub(1)),
        };
        for rank in 1..n_ranks {
            let child = workers.start(rank);
            workers.children.push(child);
        }
        workers
    }

    fn start(&self, rank: usize) -> Child {
        std::process::Command::new(&self.exe)
            .args(std::env::args_os().skip(1))
            .env(self.rank_key, rank.to_string())
            .env(self.env.0, &self.env.1)
            .spawn()
            .unwrap_or_else(|e| panic!("spawn worker rank {rank}: {e}"))
    }

    /// Worker `rank`'s exit status, if it has exited.
    pub(crate) fn exited(&mut self, rank: usize) -> Option<ExitStatus> {
        self.children[rank - 1].try_wait().ok().flatten()
    }

    /// Replace an exited worker `rank` with a fresh process.
    pub(crate) fn respawn(&mut self, rank: usize) {
        self.children[rank - 1] = self.start(rank);
    }
}

/// An SPMD world whose ranks are separate OS processes on one host (shm)
/// or across stream sockets (sock).
///
/// All ranks construct it through [`crate::World::spawn_processes`] or
/// [`crate::World::spawn_sock`] and then execute the same sequence of
/// [`ProcessWorld::run`] calls; results are per-rank local (there is no
/// cross-process result gather — ranks exchange what they need through
/// the fabric itself). Dropping it shuts the world down: rank 0 posts the
/// stop command and reaps its children; workers wait for the stop command
/// and exit, never returning to the caller's code after the world.
pub struct ProcessWorld {
    state: Arc<WorldState>,
    boot: Arc<dyn Bootstrap>,
    rank: usize,
    epoch: Cell<u64>,
    /// The driver's decision to stop, recorded before the stop command is
    /// posted: the watchdog reads it to tell obedient exits from deaths.
    stopping: Arc<AtomicBool>,
    watchdog: Option<std::thread::JoinHandle<()>>,
}

impl ProcessWorld {
    /// World rank of this process.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn n_ranks(&self) -> usize {
        self.state.n_ranks
    }

    /// True in worker processes (rank != 0).
    pub fn is_worker(&self) -> bool {
        self.rank != 0
    }

    /// Launch (or join) a process world of `n_ranks` ranks over fabric
    /// `B`. In the driver this creates the fabric and spawns `n_ranks - 1`
    /// copies of the current executable; in a worker it joins the driver's
    /// fabric instead. Either way it returns once every rank has attached.
    /// One launch per process execution: the re-exec protocol cannot nest.
    pub(crate) fn launch<B: Bootstrap + 'static>(n_ranks: usize) -> ProcessWorld {
        assert!(
            !LAUNCHED.swap(true, Ordering::SeqCst),
            "a process world was already launched in this process execution \
             (one World::spawn_processes / World::spawn_sock per execution: \
             the worker re-exec protocol cannot nest)"
        );
        assert!(n_ranks >= 1, "process world needs at least one rank");
        let worker_rank = std::env::var(B::rank_key())
            .ok()
            .map(|r| r.parse::<usize>().expect("worker rank"));
        let rank = worker_rank.unwrap_or(0);
        let (boot, transport) = match worker_rank {
            Some(rank) => B::join(n_ranks, rank),
            None => B::create(n_ranks),
        };
        let boot: Arc<dyn Bootstrap> = Arc::new(boot);
        let state = crate::runtime::faulted_state(n_ranks, None, transport, None);
        let stopping = Arc::new(AtomicBool::new(false));
        // the world exists only once the rendezvous is complete: a failed
        // one unwinds without running `Drop`'s shutdown protocol
        let start = Instant::now();
        let stall = || state.check_stall(rank, "bootstrap rendezvous", start, true);
        let watchdog = if worker_rank.is_some() {
            boot.attach(&stall);
            None
        } else {
            let mut workers = Workers::spawn(n_ranks, B::rank_key(), boot.worker_env());
            boot.gather(&mut workers, &stall);
            let (boot, stopping) = (Arc::clone(&boot), Arc::clone(&stopping));
            let reaper = move || {
                watchdog(
                    workers.children,
                    &stopping,
                    &|rank| boot.announce_death(rank),
                    &|rank| boot.reaped(rank),
                )
            };
            Some(
                std::thread::Builder::new()
                    .name("mpisim-watchdog".into())
                    .spawn(reaper)
                    .expect("spawn watchdog thread"),
            )
        };
        ProcessWorld {
            state,
            boot,
            rank,
            epoch: Cell::new(0),
            stopping,
            watchdog,
        }
    }

    /// Run one SPMD epoch: every rank of the world calls `run` with the
    /// same closure (same program, same call sequence) and gets its own
    /// rank's result. Rank 0 opens the epoch; workers wait for it; an
    /// all-ranks barrier closes it.
    ///
    /// A panic in this rank's closure announces its death (so blocked
    /// peers abort) and then propagates — from worker processes via exit
    /// code 101, which rank 0's watchdog also observes.
    pub fn run<F, R>(&self, f: F) -> R
    where
        F: FnOnce(&mut RankCtx) -> R,
    {
        if self.rank == 0 {
            return self.epoch_job(0, f); // job index 0: the SPMD closure
        }
        let epoch = self.epoch.get() + 1;
        self.epoch.set(epoch);
        let job = self.await_epoch(epoch);
        assert!(job.is_some(), "driver stopped before epoch {epoch}");
        self.execute(epoch, f)
    }

    /// Driver side of the benchmark protocol (rank 0 only): run job `job`
    /// of the server's table as one epoch, executing `f` for rank 0's own
    /// share of the work.
    pub fn epoch_job<F, R>(&self, job: usize, f: F) -> R
    where
        F: FnOnce(&mut RankCtx) -> R,
    {
        assert_eq!(
            self.rank, 0,
            "epoch_job is the driver side; workers serve()"
        );
        assert!(
            (job as u64) < (1 << 15),
            "job index overflows the command word"
        );
        let epoch = self.epoch.get() + 1;
        self.epoch.set(epoch);
        self.boot.open_epoch(job, epoch);
        self.execute(epoch, f)
    }

    /// Server side of the benchmark protocol (workers only): loop epochs,
    /// running `jobs[job]` for each command rank 0 posts, until the stop
    /// command arrives. The caller then drops the world, which exits the
    /// process.
    pub fn serve(&self, jobs: &[&dyn Fn(&mut RankCtx)]) {
        assert!(
            self.rank != 0,
            "serve is the worker side; rank 0 drives epoch_job"
        );
        loop {
            let epoch = self.epoch.get() + 1;
            let Some(job) = self.await_epoch(epoch) else {
                return; // stop command: world is shutting down
            };
            self.epoch.set(epoch);
            let job_fn = jobs
                .get(job)
                .unwrap_or_else(|| panic!("driver posted job {job}, table has {}", jobs.len()));
            self.execute(epoch, job_fn);
        }
    }

    fn await_epoch(&self, epoch: u64) -> Option<usize> {
        let start = Instant::now();
        self.boot
            .await_epoch(epoch, &|| self.stall(start, "epoch-command wait"))
    }

    /// The stall probe of every launcher wait: abort with a
    /// [`crate::StallReport`] on peer death or past the world's deadline
    /// (see `MPISIM_DEADLINE_MS`).
    fn stall(&self, start: Instant, kind: &str) {
        self.state.check_stall(self.rank, kind, start, true);
    }

    /// Run this rank's share of `epoch`, then close it.
    fn execute<F, R>(&self, epoch: u64, f: F) -> R
    where
        F: FnOnce(&mut RankCtx) -> R,
    {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut ctx = RankCtx::new(Arc::clone(&self.state), self.rank);
            f(&mut ctx)
        }));
        match result {
            Ok(r) => {
                let start = Instant::now();
                self.boot
                    .close_epoch(epoch, &|| self.stall(start, "epoch barrier"));
                r
            }
            Err(p) => {
                // announce (attributed to this rank) BEFORE dying so peers
                // blocked on this rank's messages abort instead of waiting
                // forever
                self.boot.announce_death(self.rank);
                if self.rank != 0 {
                    eprintln!(
                        "mpisim: rank {} panicked; aborting the epoch across the world",
                        self.rank
                    );
                    self.boot.leave();
                    std::process::exit(101);
                }
                resume_unwind(p);
            }
        }
    }
}

impl Drop for ProcessWorld {
    fn drop(&mut self) {
        if self.rank == 0 {
            // record the decision BEFORE posting stop: a worker can only
            // obey a stop it has seen, so every exit that follows it finds
            // the decision already recorded and is not reported as a death
            self.stopping.store(true, Ordering::SeqCst);
            self.boot.stop();
            if let Some(w) = self.watchdog.take() {
                let _ = w.join();
            }
        } else {
            // hold the process alive until the stop command: rank 0's
            // watchdog treats an earlier exit as a death; a world lost
            // first exits nonzero so the failure stays visible
            let stopped = self.boot.await_stop();
            self.boot.leave();
            // workers never run the program past the world
            std::process::exit(if stopped { 0 } else { 102 });
        }
    }
}

/// Rank 0's child reaper; worker `rank` is `children[rank - 1]`. Runs
/// until every child is reaped. A child that exits before the driver
/// decided to stop (`stopping`) is a death, reported through `died`
/// (panicking workers announce themselves before exiting nonzero; this
/// catches SIGKILL and stray `exit` calls, which leave no flag behind).
/// Exits after the decision are expected; children still running
/// [`STOP_GRACE`] after it are killed so the driver's drop cannot hang.
/// Every reaped child, dead or stopped, is passed to `reaped`.
fn watchdog(
    children: Vec<Child>,
    stopping: &AtomicBool,
    died: &dyn Fn(usize),
    reaped: &dyn Fn(usize),
) {
    let mut live: Vec<(usize, Child)> = (1..).zip(children).collect();
    let mut grace_end: Option<Instant> = None;
    while !live.is_empty() {
        live.retain_mut(|(rank, child)| {
            let Ok(Some(status)) = child.try_wait() else {
                return true;
            };
            // read the decision only AFTER seeing the exit: an exit that
            // obeyed the stop happened after it was recorded
            if !stopping.load(Ordering::SeqCst) {
                eprintln!(
                    "mpisim: worker rank {rank} (pid {}) exited mid-world ({status}); \
                     aborting the epoch",
                    child.id()
                );
                died(*rank);
            }
            reaped(*rank);
            false
        });
        if stopping.load(Ordering::SeqCst)
            && Instant::now() >= *grace_end.get_or_insert_with(|| Instant::now() + STOP_GRACE)
        {
            for (rank, mut child) in live.drain(..) {
                eprintln!("mpisim: worker rank {rank} ignored the stop command; killing it");
                let _ = child.kill();
                let _ = child.wait();
                reaped(rank);
            }
        }
        if !live.is_empty() {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// Reap one already-exited child with the stop decision recorded (or
    /// not) beforehand; returns the ranks reported dead and reaped.
    fn reap_exited(stop_recorded: bool) -> (Vec<usize>, Vec<usize>) {
        let mut child = std::process::Command::new("true")
            .spawn()
            .expect("spawn `true`");
        // wait first: the status is cached, so the watchdog's `try_wait`
        // sees the exit on its first pass, deterministically
        child.wait().expect("wait for `true`");
        let stopping = AtomicBool::new(stop_recorded);
        let (died, reaped) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
        watchdog(
            vec![child],
            &stopping,
            &|r| died.borrow_mut().push(r),
            &|r| reaped.borrow_mut().push(r),
        );
        (died.into_inner(), reaped.into_inner())
    }

    #[test]
    fn exit_after_the_stop_decision_is_not_a_death() {
        assert_eq!(reap_exited(true), (vec![], vec![1]));
    }

    #[test]
    fn exit_before_the_stop_decision_is_a_death() {
        assert_eq!(reap_exited(false), (vec![1], vec![1]));
    }
}
