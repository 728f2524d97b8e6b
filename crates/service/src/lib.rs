//! The **solve service**: a multi-tenant job scheduler on one warm
//! [`WorldPool`] (DESIGN.md §12).
//!
//! The paper's collectives amortize setup across many iterations of one
//! solver; this crate amortizes the *world* across many solvers. A
//! [`SolveService`] owns a warm pool and accepts a stream of independent
//! jobs — each its own right-hand side and/or hierarchy, packaged as a
//! [`JobLogic`]. `run_pending` schedules every queued job onto the pool
//! in **one epoch**: per-rank, each admitted job becomes a task on the
//! futures layer's [`ProgressDriver`], so K tenants' halo exchanges are
//! in flight at once and the rank parks exactly once — on the union of
//! every tenant's wake set — instead of serializing job after job.
//!
//! Isolation is per job, on three axes:
//!
//! * **channels** — every job drives a [`Comm::dup_for`] duplicate of the
//!   world communicator on a stream no other job of its epoch holds, so
//!   its channel keys can never alias another tenant's; a stream is only
//!   reused once it is quiescent (see *Warm contexts* below), so a failed
//!   tenant's stale traffic can never reach a later job either;
//! * **panics** — each task is wrapped in
//!   [`CatchPanic`](mpi_advance::future::CatchPanic): a seeded `kill=`
//!   fault (or plain bug) inside one tenant resolves that task to `Err`,
//!   the scheduler absorbs the transport-level death flag
//!   ([`RankCtx::absorb_rank_failure`]) and broadcasts a cancel token on
//!   the job's control channels, and every *other* tenant's result stays
//!   byte-identical to a solo run;
//! * **stalls** — a wait-deadline abort while parked degrades to failing
//!   the rank's still-running jobs *with job attribution* (the deadline
//!   dump names every tenant it takes down), not to a hung world.
//!
//! **Plan once, serve many.** Tenants usually share a shape — one
//! hierarchy, many right-hand sides — so the service resolves each
//! distinct shape once and keeps the resolved [`PlannedBatch`] (plans,
//! tag bases, every rank's routing) in a plan cache. The key is
//! `(topology, backend, patterns)`: the topology and pattern signatures
//! only pick the hash, and a hit also needs full `==` equality of the
//! topology, the backend and every pattern, so a signature collision can
//! never alias two plans. The cache holds at most [`PLAN_CACHE_SPANS`]
//! tag spans and evicts the least recently used plan to stay under it,
//! so it never starves the process-wide `TagSpace`; there is no knob.
//! Tenants that share a cached plan in one epoch also share its tag
//! bases. That is safe because each job runs on its own
//! [`mpisim::Comm::dup_for`] context id, and channel keys carry the context id:
//! the same tags on two dup'd communicators are two disjoint channel
//! sets (`tests/serve.rs::dup_comm_isolation`).
//!
//! **Warm contexts.** Registering a job's channels is paid once per
//! *context*, not once per job: each cached plan keeps a free list of
//! streams whose `dup_for` contexts already registered that plan's
//! channels and are quiescent again. A job leases a stream from its
//! plan's list (or mints a fresh one), and its `init_all` then
//! re-attaches to the drained channels by lookup. The rules that keep
//! reuse byte-safe:
//!
//! * a stream goes back to its plan's list only after its job succeeded
//!   on every rank — a failed job's channels may hold stale payloads, so
//!   its stream is retired; an epoch error recycles nothing;
//! * the control communicator's stream is reused only after an epoch in
//!   which every job succeeded, so no stale cancel token survives;
//! * lists are per plan: only the same plan guarantees the same channel
//!   keys and element types; an evicted plan's streams are retired with
//!   it (its tags may be leased again to another shape), and a plan
//!   served uncached never recycles;
//! * a leased stream is held by one job until its epoch ends.
//!
//! Retired contexts' channels stay registered until `Comm::free` exists
//! (ROADMAP item 1); on the fault-free path the channel registry stops
//! growing once every shape is warm (`tests/soak.rs`).
//!
//! Admission control bounds how many jobs a rank *drives* concurrently
//! ([`SolveService::max_concurrent`]); registration is never bounded —
//! every queued job's channels are registered (and barrier-synchronized)
//! at epoch start, so a fast rank can deposit into job k's channels while
//! a slow rank is still driving job 0.

mod jobs;
mod plan_cache;
mod scheduler;

use std::sync::Arc;

use locality::Topology;
use mpi_advance::tagspace::{TagLease, TagSpace};
use mpi_advance::{Backend, CommPattern, EntryId, NeighborRequest, PlannedBatch};
use mpisim::{RankCtx, World, WorldPool};

use plan_cache::PlanCache;
pub use plan_cache::PLAN_CACHE_SPANS;

/// Job identifier, assigned at submit time and never reused by the
/// service, for reports and failure attribution. It does not name the
/// job's communicator: the [`mpisim::Comm::dup_for`] stream a job runs
/// on is leased from its plan and may have served earlier jobs of the
/// same shape (see the crate docs).
pub type JobId = u64;

/// What a job computes: its communication shape plus a per-rank state
/// machine. One batch entry per pattern; each of the [`JobLogic::iters`]
/// iterations posts every entry and folds each entry's arrived ghost
/// values into the rank state the moment they land.
pub trait JobLogic: Send + Sync {
    /// One halo pattern per batch entry.
    fn patterns(&self) -> Vec<CommPattern>;
    /// Whole-batch iterations the job runs.
    fn iters(&self) -> usize;
    /// Build rank `rank`'s worker state (called on the rank thread).
    fn rank_state(&self, rank: usize) -> Box<dyn RankState>;
}

/// A job's rank-local worker. `absorb` must be independent of the order
/// entries retire within one iteration (entries may complete in delivery
/// order) for the job's result to be deterministic under multi-tenancy.
pub trait RankState {
    /// Entry `e`'s send values for iteration `iter`, aligned with
    /// `req.input_index()`.
    fn input(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest) -> Vec<f64>;
    /// Entry `e`'s ghost values for iteration `iter` arrived, aligned
    /// with `req.output_index()`.
    fn absorb(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest, output: &[f64]);
    /// The rank's result, after the last iteration.
    fn finish(self: Box<Self>) -> Vec<f64>;
}

/// One tenant's submission: a name (for failure attribution), the
/// topology its batch plans against, the backend every entry runs on,
/// and the logic itself.
pub struct JobSpec {
    pub name: String,
    pub topo: Topology,
    pub backend: Backend,
    pub logic: Arc<dyn JobLogic>,
}

impl JobSpec {
    /// A job with the default model-driven backend ([`Backend::Auto`]).
    pub fn new(name: impl Into<String>, topo: Topology, logic: Arc<dyn JobLogic>) -> Self {
        Self {
            name: name.into(),
            topo,
            backend: Backend::Auto,
            logic,
        }
    }

    /// Override the backend every entry of the job runs on.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }
}

/// Why a job failed: which ranks reported it and the root cause.
#[derive(Debug, Clone)]
pub struct JobError {
    /// Ranks that reported the failure, ascending.
    pub ranks: Vec<usize>,
    /// The originating rank's own message — the rank the relayed cancel
    /// tokens name — in preference to any relayed cancellation; failing
    /// that, the lowest-ranked failure that is the rank's own.
    pub message: String,
}

impl JobError {
    /// Attribute one job's per-rank failures (ascending by rank).
    fn attribute(mut errs: Vec<(usize, RankFailure)>) -> Self {
        let own = |f: &RankFailure| f.relayed_from.is_none();
        let origin = errs.iter().find_map(|(_, f)| f.relayed_from);
        let pick = errs
            .iter()
            .position(|(r, f)| own(f) && Some(*r) == origin)
            .or_else(|| errs.iter().position(|(_, f)| own(f)))
            .unwrap_or(0);
        Self {
            ranks: errs.iter().map(|(r, _)| *r).collect(),
            message: errs.swap_remove(pick).1.message,
        }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed on ranks {:?}: {}", self.ranks, self.message)
    }
}

/// One rank's failure of one job.
pub(crate) struct RankFailure {
    pub(crate) message: String,
    /// The failing rank a cancel token named, when this rank only relayed
    /// the cancellation; `None` when the failure is this rank's own.
    pub(crate) relayed_from: Option<usize>,
}

/// One job's outcome: per-rank results (indexed by rank) or the failure.
/// A failure is *this job's alone* — the reports of the other jobs in the
/// same epoch are unaffected.
pub struct JobReport {
    pub id: JobId,
    pub name: String,
    pub outcome: Result<Vec<Vec<f64>>, JobError>,
}

/// A job of the running epoch: its logic, its resolved plan, and the
/// communicator stream it leased.
pub(crate) struct QueuedJob {
    pub(crate) id: JobId,
    pub(crate) name: String,
    pub(crate) logic: Arc<dyn JobLogic>,
    pub(crate) plan: Arc<PlannedBatch>,
    /// The [`mpisim::Comm::dup_for`] stream the job runs on.
    pub(crate) stream: u64,
    /// The plan-cache entry the stream returns to; `None` when the plan
    /// was served uncached (the stream is then retired after the epoch).
    home: Option<u64>,
}

/// The multi-tenant scheduler: a warm [`WorldPool`], a job queue, an
/// admission window and a plan cache. See the crate docs for the
/// isolation contract.
pub struct SolveService {
    pool: WorldPool,
    /// Resolved batches by job shape, reused across tenants and epochs.
    plans: PlanCache,
    max_concurrent: usize,
    /// Monotone job-id source; ids are never reused across epochs.
    next_id: JobId,
    /// Monotone source of fresh communicator streams.
    next_stream: u64,
    queue: Vec<(JobId, JobSpec)>,
    /// One leased tag span for the epoch's per-peer cancel-token
    /// channels (they live on a dedicated dup'd communicator, so one
    /// channel per peer serves every job).
    ctl_lease: TagLease,
    /// The control communicator's stream, kept while it is quiescent:
    /// after an epoch in which every job succeeded.
    ctl_stream: Option<u64>,
}

impl SolveService {
    /// A service on a fresh warm pool of `n_ranks` thread-fabric ranks.
    pub fn new(n_ranks: usize) -> Self {
        Self::with_pool(World::pool(n_ranks))
    }

    /// A service on an existing warm pool (any fabric, any fault plan).
    pub fn with_pool(pool: WorldPool) -> Self {
        Self {
            pool,
            plans: PlanCache::default(),
            max_concurrent: usize::MAX,
            next_id: 1,
            next_stream: 1,
            queue: Vec::new(),
            ctl_lease: TagSpace::global().lease_for(1, "service-ctl"),
            ctl_stream: None,
        }
    }

    /// Bound how many jobs each rank drives concurrently (default:
    /// unbounded). `1` serializes tenants — the bench baseline.
    pub fn max_concurrent(mut self, k: usize) -> Self {
        assert!(k >= 1, "the admission window must admit at least one job");
        self.max_concurrent = k;
        self
    }

    /// The warm pool (e.g. to check its size).
    pub fn pool(&self) -> &WorldPool {
        &self.pool
    }

    /// Distinct job shapes whose resolved plans are cached.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Tag spans the cached plans hold; never above [`PLAN_CACHE_SPANS`].
    pub fn cached_spans(&self) -> u64 {
        self.plans.spans()
    }

    /// Queue a job for the next `run_pending` epoch.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        assert_eq!(
            spec.topo.n_ranks(),
            self.pool.n_ranks(),
            "job topology must match the pool's world size"
        );
        let id = self.next_id;
        self.next_id += 1;
        self.queue.push((id, spec));
        id
    }

    /// Run every queued job in one epoch on the warm pool and report each
    /// job's outcome, in submission order. Tenant failures are isolated
    /// per job; only a failure the scheduler itself cannot attribute (a
    /// rank dying outside any task) fails the epoch, and then *every*
    /// queued job reports that epoch error.
    pub fn run_pending(&mut self) -> Vec<JobReport> {
        let queued = std::mem::take(&mut self.queue);
        if queued.is_empty() {
            return Vec::new();
        }
        let n_ranks = self.pool.n_ranks();
        // One plan per distinct job shape, resolved HERE on the submitting
        // thread before any rank observes it: resolution leases spans from
        // the process-global TagSpace, and per-rank resolution order would
        // not be deterministic. Tenants sharing a plan share its tag bases;
        // each leases its own stream, so their channels stay disjoint.
        let next_stream = &mut self.next_stream;
        let mut mint = || {
            *next_stream += 1;
            *next_stream - 1
        };
        let jobs: Vec<QueuedJob> = queued
            .into_iter()
            .map(|(id, spec)| {
                let (plan, home) =
                    self.plans
                        .get_or_plan(&spec.topo, spec.backend, spec.logic.patterns());
                let stream = home
                    .and_then(|h| self.plans.take_stream(h))
                    .unwrap_or_else(&mut mint);
                QueuedJob {
                    id,
                    name: spec.name,
                    logic: spec.logic,
                    plan,
                    stream,
                    home,
                }
            })
            .collect();
        let ctl_base = self.ctl_lease.entry_base(0);
        let ctl_stream = self.ctl_stream.take().unwrap_or_else(mint);
        let max_concurrent = self.max_concurrent;
        let outcome = self.pool.try_run(|ctx: &mut RankCtx| {
            scheduler::drive_rank(ctx, &jobs, ctl_stream, ctl_base, max_concurrent)
        });
        match outcome {
            Ok(per_rank) => {
                type RankRows = Vec<(usize, Result<Vec<f64>, RankFailure>)>;
                let mut per_job: Vec<RankRows> = (0..jobs.len()).map(|_| Vec::new()).collect();
                for (r, rr) in per_rank.into_iter().enumerate() {
                    assert_eq!(rr.len(), jobs.len());
                    for (j, res) in rr.into_iter().enumerate() {
                        per_job[j].push((r, res));
                    }
                }
                let reports: Vec<JobReport> = jobs
                    .iter()
                    .zip(per_job)
                    .map(|(q, rows)| {
                        let mut oks = Vec::with_capacity(n_ranks);
                        let mut errs: Vec<(usize, RankFailure)> = Vec::new();
                        for (r, res) in rows {
                            match res {
                                Ok(x) => oks.push(x),
                                Err(m) => errs.push((r, m)),
                            }
                        }
                        let outcome = if errs.is_empty() {
                            Ok(oks)
                        } else {
                            Err(JobError::attribute(errs))
                        };
                        JobReport {
                            id: q.id,
                            name: q.name.clone(),
                            outcome,
                        }
                    })
                    .collect();
                // recycle the streams of jobs that succeeded on every rank
                for (q, rep) in jobs.iter().zip(&reports) {
                    if let (Some(home), Ok(_)) = (q.home, &rep.outcome) {
                        self.debug_assert_quiescent(q.stream);
                        self.plans.give_back(home, q.stream);
                    }
                }
                if reports.iter().all(|r| r.outcome.is_ok()) {
                    self.debug_assert_quiescent(ctl_stream);
                    self.ctl_stream = Some(ctl_stream);
                }
                reports
            }
            Err(e) => {
                // Unattributable epoch failure: every job of the epoch
                // reports it, nothing is recycled (the pool stays warm
                // for the next epoch).
                let err = JobError {
                    ranks: e.failures.iter().map(|(r, _)| *r).collect(),
                    message: format!("epoch failed: {e}"),
                };
                jobs.iter()
                    .map(|q| JobReport {
                        id: q.id,
                        name: q.name.clone(),
                        outcome: Err(err.clone()),
                    })
                    .collect()
            }
        }
    }

    /// Debug builds: a stream about to be reused must have no payload
    /// pending on any of its channels. Release builds pay nothing.
    fn debug_assert_quiescent(&self, stream: u64) {
        debug_assert_eq!(
            self.pool.stream_pending(stream),
            0,
            "stream {stream} would be reused with payloads still pending"
        );
    }
}
