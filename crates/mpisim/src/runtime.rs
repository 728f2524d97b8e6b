//! Launching SPMD worlds: one-shot scoped worlds ([`World::run`]) and
//! pooled persistent worlds ([`WorldPool`]) that keep their rank threads —
//! and their pre-matched channel registry — warm across closures. Worlds
//! whose ranks are OS processes ([`World::spawn_processes`],
//! [`World::spawn_sock`]) are [`ProcessWorld`]s (`transport/process.rs`).

use crate::ctx::RankCtx;
use crate::state::{ModelCtx, WorldState};
use crate::transport::fault::{FaultPlan, FaultTransport};
use crate::transport::process::ProcessWorld;
use crate::transport::shm::boot::ShmBoot;
use crate::transport::shm::ShmTransport;
use crate::transport::sock::boot::SockBoot;
use crate::transport::sock::SockTransport;
use crate::transport::thread::ThreadTransport;
use crate::transport::Transport;
use locality::Topology;
use parking_lot::{Condvar, Mutex};
use perfmodel::CostModel;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Structured failure of one pooled epoch (see [`WorldPool::try_run`]):
/// which rank failed first (by rank order), with what panic payload, plus
/// every other rank that failed the same epoch. A stalled epoch surfaces
/// here too — the deadline abort is a panic whose message carries the
/// [`crate::StallReport`].
#[derive(Debug)]
pub struct EpochError {
    /// Lowest-ranked failure of the epoch.
    pub rank: usize,
    /// Its panic payload, rendered (`String`/`&str` payloads verbatim).
    pub message: String,
    /// All failures of the epoch, in rank order (`(rank, message)`).
    pub failures: Vec<(usize, String)>,
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "epoch failed on rank {}: {}", self.rank, self.message)?;
        if self.failures.len() > 1 {
            write!(f, " (and {} more rank failures)", self.failures.len() - 1)?;
        }
        Ok(())
    }
}

impl std::error::Error for EpochError {}

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Build a world state over `inner`, wrapped by a fault plan when one is
/// given (or found in `MPISIM_FAULTS`). The wait deadline resolves as:
/// plan's `deadline_ms` override, else `MPISIM_DEADLINE_MS`.
pub(crate) fn faulted_state(
    n_ranks: usize,
    model: Option<ModelCtx>,
    inner: Arc<dyn Transport>,
    plan: Option<FaultPlan>,
) -> Arc<WorldState> {
    let plan = plan.or_else(FaultPlan::from_env);
    let deadline = plan
        .as_ref()
        .and_then(|p| p.deadline())
        .or_else(crate::stall::env_deadline_ms);
    let transport = match plan {
        Some(p) => FaultTransport::wrap(n_ranks, p, inner),
        None => inner,
    };
    WorldState::with_transport_deadline(n_ranks, model, transport, deadline)
}

fn thread_state(
    n_ranks: usize,
    model: Option<ModelCtx>,
    plan: Option<FaultPlan>,
) -> Arc<WorldState> {
    faulted_state(
        n_ranks,
        model,
        Arc::new(ThreadTransport::new(n_ranks)),
        plan,
    )
}

fn shm_state(n_ranks: usize, plan: Option<FaultPlan>) -> Arc<WorldState> {
    let t = ShmTransport::create(n_ranks);
    // all ranks are threads of this process: nobody will attach by
    // path, so drop the name immediately (the mapping lives on)
    t.segment().unlink();
    faulted_state(n_ranks, None, t as Arc<dyn Transport>, plan)
}

fn sock_state(n_ranks: usize, plan: Option<FaultPlan>) -> Arc<WorldState> {
    let t = SockTransport::loopback(n_ranks);
    faulted_state(n_ranks, None, t as Arc<dyn Transport>, plan)
}

/// Entry point: spawn `n` ranks, each running the same closure.
pub struct World;

impl World {
    /// Run `f` on `n_ranks` ranks (one OS thread each) without a cost model;
    /// virtual clocks stay at zero. Returns each rank's result, indexed by
    /// rank. Panics in any rank propagate to the caller.
    pub fn run<F, R>(n_ranks: usize, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        match std::env::var("MPISIM_TRANSPORT").as_deref() {
            Ok("shm") => return Self::run_shm(n_ranks, f),
            Ok("sock") => return Self::run_sock(n_ranks, f),
            _ => {}
        }
        Self::launch(thread_state(n_ranks, None, None), f)
    }

    /// [`World::run`] under a deterministic [`FaultPlan`] (thread
    /// transport): delivery delays, legal reorders, spurious wakeups, and
    /// rank kills replay identically for one seed. A plan's
    /// `deadline_ms` bounds every blocked wait without touching the
    /// process environment.
    pub fn with_faults<F, R>(n_ranks: usize, plan: FaultPlan, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::launch(thread_state(n_ranks, None, Some(plan)), f)
    }

    /// [`World::with_faults`] over the shared-memory fabric (ranks as
    /// threads of this process; see [`World::run_shm`]).
    pub fn with_faults_shm<F, R>(n_ranks: usize, plan: FaultPlan, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::launch(shm_state(n_ranks, Some(plan)), f)
    }

    /// [`World::with_faults`] over the socket fabric (ranks as threads of
    /// this process; see [`World::run_sock`]).
    pub fn with_faults_sock<F, R>(n_ranks: usize, plan: FaultPlan, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::launch(sock_state(n_ranks, Some(plan)), f)
    }

    /// [`World::run`] over the cross-process shared-memory fabric, with the
    /// ranks still living as threads of this process — the shm transport
    /// (rings, futex parking, byte payloads) under test without process
    /// management. Also reachable from [`World::run`] via
    /// `MPISIM_TRANSPORT=shm`. For ranks as real OS processes, use
    /// [`World::spawn_processes`].
    pub fn run_shm<F, R>(n_ranks: usize, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::launch(shm_state(n_ranks, None), f)
    }

    /// [`World::run`] over the socket fabric's loopback mesh, with the
    /// ranks still living as threads of this process — the sock transport
    /// (framing, sequencing, acks, heartbeats, reconnect) under test
    /// without process management. Also reachable from [`World::run`] via
    /// `MPISIM_TRANSPORT=sock`. For ranks as real OS processes over
    /// sockets, use [`World::spawn_sock`].
    pub fn run_sock<F, R>(n_ranks: usize, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        Self::launch(sock_state(n_ranks, None), f)
    }

    /// Launch `n_ranks` as separate OS processes over the socket fabric
    /// and return this process's [`ProcessWorld`] handle. Rank 0 (the
    /// caller) re-execs itself `n_ranks - 1` times in a hidden worker
    /// mode; workers rendezvous over the driver's listening socket, mesh
    /// up, and never return past the world. See [`ProcessWorld`] for the
    /// epoch protocol; one process world per process execution.
    pub fn spawn_sock(n_ranks: usize) -> ProcessWorld {
        ProcessWorld::launch::<SockBoot>(n_ranks)
    }

    /// Launch `n_ranks` as separate OS processes over the shared-memory
    /// fabric and return this process's [`ProcessWorld`] handle. Rank 0
    /// (the caller) re-execs itself `n_ranks - 1` times in a hidden worker
    /// mode; workers attach to its segment and never return past the
    /// world. See [`ProcessWorld`] for the epoch protocol; one process
    /// world per process execution.
    pub fn spawn_processes(n_ranks: usize) -> ProcessWorld {
        ProcessWorld::launch::<ShmBoot>(n_ranks)
    }

    /// Run with a cost model attached: each rank's virtual clock advances
    /// with every message according to `model` over `topo`'s locality
    /// classes. The world size is `topo.n_ranks()`.
    pub fn run_modeled<F, R>(topo: Topology, model: Arc<dyn CostModel>, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        let n = topo.n_ranks();
        Self::launch(thread_state(n, Some(ModelCtx { model, topo }), None), f)
    }

    /// Create a persistent pooled world of `n_ranks` ranks: the threads
    /// (and the world's pre-matched channel registry) stay alive across
    /// [`WorldPool::run`] calls, so repeated closures measure transport,
    /// not thread startup.
    pub fn pool(n_ranks: usize) -> WorldPool {
        match std::env::var("MPISIM_TRANSPORT").as_deref() {
            Ok("shm") => return Self::pool_shm(n_ranks),
            Ok("sock") => return Self::pool_sock(n_ranks),
            _ => {}
        }
        WorldPool::launch(thread_state(n_ranks, None, None))
    }

    /// [`World::pool`] over the shared-memory fabric (ranks as threads of
    /// this process; see [`World::run_shm`]).
    pub fn pool_shm(n_ranks: usize) -> WorldPool {
        WorldPool::launch(shm_state(n_ranks, None))
    }

    /// [`World::pool`] over the socket fabric (ranks as threads of this
    /// process; see [`World::run_sock`]).
    pub fn pool_sock(n_ranks: usize) -> WorldPool {
        WorldPool::launch(sock_state(n_ranks, None))
    }

    /// Pooled counterpart of [`World::with_faults`]: every epoch of the
    /// pool runs under the same deterministic fault plan (op counters keep
    /// advancing across epochs, so a kill index lands in whichever epoch
    /// reaches it).
    pub fn pool_with_faults(n_ranks: usize, plan: FaultPlan) -> WorldPool {
        WorldPool::launch(thread_state(n_ranks, None, Some(plan)))
    }

    /// [`World::pool_with_faults`] over the shared-memory fabric.
    pub fn pool_with_faults_shm(n_ranks: usize, plan: FaultPlan) -> WorldPool {
        WorldPool::launch(shm_state(n_ranks, Some(plan)))
    }

    /// [`World::pool_with_faults`] over the socket fabric.
    pub fn pool_with_faults_sock(n_ranks: usize, plan: FaultPlan) -> WorldPool {
        WorldPool::launch(sock_state(n_ranks, Some(plan)))
    }

    fn launch<F, R>(state: Arc<WorldState>, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync,
        R: Send,
    {
        let n = state.n_ranks;
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let state = Arc::clone(&state);
                    scope.spawn(move || {
                        let mut ctx = RankCtx::new(Arc::clone(&state), rank);
                        match catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                            Ok(r) => r,
                            Err(p) => {
                                // let peers blocked on this rank's messages
                                // abort instead of waiting forever
                                state.note_rank_panic(Some(rank));
                                resume_unwind(p);
                            }
                        }
                    })
                })
                .collect();
            let mut results = Vec::with_capacity(n);
            let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    Err(p) => panic = panic.or(Some(p)),
                }
            }
            if let Some(p) = panic {
                std::panic::resume_unwind(p);
            }
            results
        })
    }
}

/// A type-erased epoch job borrowing the caller's environment for `'env`.
type JobFor<'env> = Arc<dyn Fn(&mut RankCtx) -> Box<dyn Any + Send> + Send + Sync + 'env>;
/// The storable form: every rank runs it once per epoch.
type Job = JobFor<'static>;

struct PoolCtrl {
    /// Monotonic epoch counter; workers run one job per increment.
    epoch: u64,
    job: Option<Job>,
    /// Per-rank result of the current epoch (`Err` carries a panic).
    results: Vec<Option<std::thread::Result<Box<dyn Any + Send>>>>,
    /// Ranks still running the current epoch.
    remaining: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Arc<WorldState>,
    ctrl: Mutex<PoolCtrl>,
    /// Workers park here between epochs.
    work_cv: Condvar,
    /// The driver parks here until `remaining` reaches zero.
    done_cv: Condvar,
    /// Serializes drivers: held across the whole of [`WorldPool::run`] so
    /// a second concurrent caller cannot install its epoch between the
    /// first epoch's completion and its result collection.
    epoch_lock: Mutex<()>,
}

/// A persistent SPMD world: rank threads spawned once and reused for many
/// closures via an epoch protocol.
///
/// [`WorldPool::run`] has the same shape as [`World::run`], but the rank
/// threads — and the underlying [`WorldState`], including its pre-matched
/// persistent channel registry — survive between calls. Re-registering a
/// collective with the same tags on a warm pool re-attaches to the
/// existing (drained) channels, and no per-call thread spawn/join cost is
/// paid: hundreds of `start`/`wait` iterations can run on one warm world,
/// which is what exposes true transport time in the benches.
///
/// Each epoch gets fresh [`RankCtx`]es (virtual clocks restart at zero).
/// A panic in any rank propagates from `run` once every rank has finished
/// the epoch: a panicking rank raises a world-wide flag that aborts peers
/// blocked waiting on its messages (their stall probes check it), so a
/// partial-rank panic ends the epoch loudly instead of deadlocking it.
/// In-flight traffic of the failed epoch (mailbox envelopes, undelivered
/// channel payloads) is then drained so it cannot leak into later epochs,
/// and the pool stays usable.
pub struct WorldPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorldPool {
    fn launch(state: Arc<WorldState>) -> Self {
        let n = state.n_ranks;
        let shared = Arc::new(PoolShared {
            state,
            ctrl: Mutex::new(PoolCtrl {
                epoch: 0,
                job: None,
                results: (0..n).map(|_| None).collect(),
                remaining: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            epoch_lock: Mutex::new(()),
        });
        let handles = (0..n)
            .map(|rank| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mpisim-pool-{rank}"))
                    .spawn(move || Self::worker(shared, rank))
                    .expect("spawn pool rank thread")
            })
            .collect();
        Self { shared, handles }
    }

    fn worker(shared: Arc<PoolShared>, rank: usize) {
        let mut seen = 0u64;
        loop {
            let job = {
                let mut ctrl = shared.ctrl.lock();
                loop {
                    if ctrl.shutdown {
                        return;
                    }
                    if ctrl.epoch > seen {
                        seen = ctrl.epoch;
                        break ctrl.job.clone().expect("epoch has a job");
                    }
                    shared.work_cv.wait(&mut ctrl);
                }
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut ctx = RankCtx::new(Arc::clone(&shared.state), rank);
                job(&mut ctx)
            }));
            if result.is_err() {
                // peers blocked on this rank's messages must not wait
                // forever: their stall probes see the flag and abort
                shared.state.note_rank_panic(Some(rank));
            }
            // drop this worker's job handle BEFORE reporting completion:
            // `run` may only return once no worker can still hold (and
            // later drop) a closure borrowing the caller's environment
            drop(job);
            let mut ctrl = shared.ctrl.lock();
            ctrl.results[rank] = Some(result);
            ctrl.remaining -= 1;
            if ctrl.remaining == 0 {
                shared.done_cv.notify_all();
            }
        }
    }

    /// World size of the pool.
    pub fn n_ranks(&self) -> usize {
        self.shared.state.n_ranks
    }

    /// Persistent channels the world has registered, over every
    /// communicator context. Nothing is ever unregistered, so on a
    /// long-lived pool this count is the registry's footprint.
    pub fn registered_channels(&self) -> usize {
        self.shared.state.registered_channels()
    }

    /// Undelivered payloads on the persistent channels of
    /// `comm_world().dup_for(stream)` — zero once every message sent on
    /// that context has been received. Call it between epochs.
    pub fn stream_pending(&self, stream: u64) -> usize {
        let ctx_id = crate::Comm::world(self.n_ranks(), 0).dup_for(stream).ctx_id;
        self.shared.state.context_pending(ctx_id)
    }

    /// Run `f` on every rank of the warm world and return each rank's
    /// result, indexed by rank — [`World::run`] semantics without the
    /// per-call thread spawn. Panics in any rank propagate to the caller
    /// after all ranks finish the epoch; the pool remains usable.
    pub fn run<'env, F, R>(&self, f: F) -> Vec<R>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync + 'env,
        R: Send + 'static,
    {
        let results = self.epoch_results(Arc::new(move |ctx| Box::new(f(ctx)) as _));
        let mut out = Vec::with_capacity(results.len());
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for r in results {
            match r {
                Ok(b) => out.push(*b.downcast::<R>().expect("epoch result type")),
                Err(p) => panic = panic.or(Some(p)),
            }
        }
        if let Some(p) = panic {
            // a rank died mid-closure: whatever it (or its peers) left in
            // flight must not leak into the next epoch's matching
            self.shared.state.drain_in_flight();
            resume_unwind(p);
        }
        out
    }

    /// [`WorldPool::run`] with graceful degradation: a failed epoch comes
    /// back as a structured [`EpochError`] — which rank failed first and
    /// with what payload (a fault-plan kill, a deadline abort carrying its
    /// [`crate::StallReport`], or an application panic) — instead of
    /// re-panicking the caller. The failed epoch's in-flight traffic is
    /// drained either way, so the pool stays usable for the next epoch.
    pub fn try_run<'env, F, R>(&self, f: F) -> Result<Vec<R>, EpochError>
    where
        F: Fn(&mut RankCtx) -> R + Send + Sync + 'env,
        R: Send + 'static,
    {
        let results = self.epoch_results(Arc::new(move |ctx| Box::new(f(ctx)) as _));
        let mut out = Vec::with_capacity(results.len());
        let mut failures: Vec<(usize, String)> = Vec::new();
        for (rank, r) in results.into_iter().enumerate() {
            match r {
                Ok(b) => out.push(*b.downcast::<R>().expect("epoch result type")),
                Err(p) => failures.push((rank, panic_message(p.as_ref()))),
            }
        }
        if failures.is_empty() {
            return Ok(out);
        }
        self.shared.state.drain_in_flight();
        let (rank, message) = failures[0].clone();
        Err(EpochError {
            rank,
            message,
            failures,
        })
    }

    /// Post one epoch and collect every rank's raw result. The common body
    /// of [`WorldPool::run`] and [`WorldPool::try_run`].
    fn epoch_results<'env>(
        &self,
        job: JobFor<'env>,
    ) -> Vec<std::thread::Result<Box<dyn Any + Send>>> {
        let n = self.n_ranks();
        // SAFETY: extend the job's lifetime to 'static for storage in the
        // long-lived pool. The borrow cannot escape this call: it blocks
        // until every worker has finished the epoch AND dropped its clone
        // of the job (workers drop before reporting completion), and the
        // control slot's clone is cleared below before returning.
        let job: Job = unsafe { std::mem::transmute::<JobFor<'env>, Job>(job) };
        // one driver at a time: held until results are collected, so a
        // concurrent `run` can neither interleave its epoch with ours nor
        // steal our results
        let _epoch = self.shared.epoch_lock.lock();
        let mut ctrl = self.shared.ctrl.lock();
        debug_assert_eq!(ctrl.remaining, 0, "epoch_lock held with ranks in flight");
        self.shared.state.clear_rank_panic();
        ctrl.job = Some(job);
        ctrl.epoch += 1;
        // mirror the epoch id into the world so stall reports can name it
        self.shared.state.set_epoch(ctrl.epoch);
        ctrl.remaining = n;
        ctrl.results.iter_mut().for_each(|r| *r = None);
        self.shared.work_cv.notify_all();
        while ctrl.remaining > 0 {
            self.shared.done_cv.wait(&mut ctrl);
        }
        ctrl.job = None;
        ctrl.results
            .iter_mut()
            .map(|r| r.take().expect("every rank reported"))
            .collect()
    }
}

impl Drop for WorldPool {
    fn drop(&mut self) {
        {
            let mut ctrl = self.shared.ctrl.lock();
            ctrl.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_indexed_by_rank() {
        let out = World::run(7, |ctx| ctx.rank() * ctx.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |ctx| {
            assert_eq!(ctx.size(), 1);
            "ok"
        });
        assert_eq!(out, vec!["ok"]);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn rank_panic_propagates() {
        World::run(3, |ctx| {
            if ctx.rank() == 2 {
                panic!("deliberate");
            }
        });
    }

    #[test]
    fn compute_charging_only_when_modeled() {
        let out = World::run(2, |ctx| {
            ctx.charge_compute(1.5);
            ctx.clock()
        });
        // Unmodeled worlds still accumulate explicit compute charges —
        // they simply never add communication time.
        assert_eq!(out, vec![1.5, 1.5]);
    }

    #[test]
    fn pool_reuses_threads_across_epochs() {
        let pool = World::pool(5);
        assert_eq!(pool.n_ranks(), 5);
        let out = pool.run(|ctx| ctx.rank() * ctx.rank());
        assert_eq!(out, vec![0, 1, 4, 9, 16]);
        // a second epoch with a different result type, on the same threads
        let names: Vec<String> = pool.run(|ctx| format!("r{}", ctx.rank()));
        assert_eq!(names[3], "r3");
        // borrowed environment: closures may capture references
        let base = [10usize, 20, 30, 40, 50];
        let out = pool.run(|ctx| base[ctx.rank()] + 1);
        assert_eq!(out, vec![11, 21, 31, 41, 51]);
    }

    #[test]
    fn pool_epochs_communicate_independently() {
        let pool = World::pool(4);
        for epoch in 0..3u64 {
            let out = pool.run(|ctx| {
                let comm = ctx.comm_world();
                let right = (ctx.rank() + 1) % ctx.size();
                let left = (ctx.rank() + ctx.size() - 1) % ctx.size();
                ctx.send(&comm, right, 0, &[ctx.rank() as u64 + 100 * epoch]);
                let v: Vec<u64> = ctx.recv(&comm, left, 0);
                v[0]
            });
            assert_eq!(
                out,
                vec![
                    3 + 100 * epoch,
                    100 * epoch,
                    1 + 100 * epoch,
                    2 + 100 * epoch
                ]
            );
        }
    }

    #[test]
    fn pool_panic_propagates_and_pool_survives() {
        let pool = World::pool(3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // every rank panics, so the epoch terminates cleanly
            pool.run(|ctx| -> usize { panic!("epoch failed on rank {}", ctx.rank()) });
        }));
        assert!(r.is_err());
        // the pool is still usable after a panicked epoch
        let out = pool.run(|ctx| ctx.rank() + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn pool_partial_rank_panic_does_not_hang() {
        // rank 0 dies before sending; rank 1 is blocked waiting for its
        // message. The stall probe must abort rank 1, the epoch must end
        // with a panic, and the pool must stay usable.
        let pool = World::pool(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    panic!("rank 0 dies before sending");
                }
                let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 5, 1);
                recv.start();
                recv.wait_with(ctx, |d| d[0])
            });
        }));
        assert!(r.is_err());
        let out = pool.run(|ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10]);
    }

    #[test]
    fn scoped_partial_rank_panic_does_not_hang() {
        // the same guarantee for one-shot worlds: a blocked plain recv
        // aborts when its peer dies
        let r = std::panic::catch_unwind(|| {
            World::run(2, |ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    panic!("rank 0 dies before sending");
                }
                let v: Vec<u64> = ctx.recv(&comm, 0, 5);
                v[0]
            });
        });
        assert!(r.is_err());
    }

    #[test]
    fn pool_drains_in_flight_traffic_after_panic() {
        // epoch 1: rank 0 deposits a persistent payload and a plain
        // envelope, then every rank panics before rank 1 receives either.
        // Epoch 2 reuses both signatures: it must see the NEW messages,
        // not epoch 1's stale ones.
        let pool = World::pool(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    let send = ctx.send_chan_init::<u64>(&comm, 1, 3, 1);
                    send.start_with(ctx, |b| b.push(111));
                    ctx.send(&comm, 1, 4, &[222u64]);
                }
                panic!("abandon epoch");
            });
        }));
        assert!(r.is_err());
        let out = pool.run(|ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                let send = ctx.send_chan_init::<u64>(&comm, 1, 3, 1);
                send.start_with(ctx, |b| b.push(1111));
                ctx.send(&comm, 1, 4, &[2222u64]);
                0
            } else {
                let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 3, 1);
                recv.start();
                let a = recv.wait_with(ctx, |d| d[0]);
                let b: Vec<u64> = ctx.recv(&comm, 0, 4);
                a + b[0]
            }
        });
        assert_eq!(out[1], 1111 + 2222);
    }

    #[test]
    fn shm_pool_drains_in_flight_traffic_after_panic() {
        // the same failed-epoch drain guarantee over the shm fabric: the
        // abandoned traffic lives in segment rings (persistent + mailbox)
        // and — for the oversized payload — in the sender-side spill
        // outbox, and all three must be gone before epoch 2 reuses the
        // same signatures
        let pool = World::pool_shm(2);
        let big_len = 80_000usize; // u64s: ~640 KB, overflows the 256 KiB mailbox ring
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    let send = ctx.send_chan_init::<u64>(&comm, 1, 3, 1);
                    send.start_with(ctx, |b| b.push(111));
                    ctx.send(&comm, 1, 4, &[222u64]);
                    let big = vec![333u64; big_len];
                    ctx.send(&comm, 1, 5, &big);
                }
                panic!("abandon epoch");
            });
        }));
        assert!(r.is_err());
        let out = pool.run(|ctx| {
            let comm = ctx.comm_world();
            if ctx.rank() == 0 {
                let send = ctx.send_chan_init::<u64>(&comm, 1, 3, 1);
                send.start_with(ctx, |b| b.push(1111));
                ctx.send(&comm, 1, 4, &[2222u64]);
                ctx.send(&comm, 1, 5, &[3333u64]);
                0
            } else {
                let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 3, 1);
                recv.start();
                let a = recv.wait_with(ctx, |d| d[0]);
                let b: Vec<u64> = ctx.recv(&comm, 0, 4);
                let c: Vec<u64> = ctx.recv(&comm, 0, 5);
                assert_eq!(c.len(), 1, "epoch 1's chunked payload leaked into epoch 2");
                a + b[0] + c[0]
            }
        });
        assert_eq!(out[1], 1111 + 2222 + 3333);
    }

    #[test]
    fn pool_persistent_channels_stay_warm() {
        // the same persistent signature re-registered across epochs
        // re-attaches to the drained channel and keeps delivering
        let pool = World::pool(2);
        for epoch in 0..3u64 {
            let out = pool.run(|ctx| {
                let comm = ctx.comm_world();
                if ctx.rank() == 0 {
                    let send = ctx.send_chan_init::<u64>(&comm, 1, 7, 1);
                    send.start_with(ctx, |buf| buf.push(epoch * 11));
                    0
                } else {
                    let mut recv = ctx.recv_chan_init::<u64>(&comm, 0, 7, 1);
                    recv.start();
                    recv.wait_with(ctx, |data| data[0])
                }
            });
            assert_eq!(out[1], epoch * 11);
        }
    }
}
