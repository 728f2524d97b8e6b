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
//!   world communicator keyed by its globally-unique job id, so its
//!   channel keys (and tag leases) can never alias another tenant's, or
//!   a failed tenant's stale traffic from an earlier epoch;
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

/// Globally-unique job identifier, assigned at submit time and never
/// reused — it keys the job's [`mpisim::Comm::dup_for`] communicator
/// stream, so channels of distinct jobs (across all epochs of the
/// service) can never alias.
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

pub(crate) struct QueuedJob {
    pub(crate) id: JobId,
    pub(crate) name: String,
    pub(crate) topo: Topology,
    pub(crate) backend: Backend,
    pub(crate) logic: Arc<dyn JobLogic>,
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
    queue: Vec<QueuedJob>,
    /// One leased tag span for the epoch's per-peer cancel-token
    /// channels (they live on a dedicated dup'd communicator, so one
    /// channel per peer serves every job).
    ctl_lease: TagLease,
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
            queue: Vec::new(),
            ctl_lease: TagSpace::global().lease_for(1, "service-ctl"),
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
        self.queue.push(QueuedJob {
            id,
            name: spec.name,
            topo: spec.topo,
            backend: spec.backend,
            logic: spec.logic,
        });
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
        // each runs on its own dup'd communicator, so their channels stay
        // disjoint.
        let plans: Vec<Arc<PlannedBatch>> = queued
            .iter()
            .map(|q| {
                self.plans
                    .get_or_plan(&q.topo, q.backend, q.logic.patterns())
            })
            .collect();
        let ctl_base = self.ctl_lease.entry_base(0);
        // the control communicator needs its own never-reused stream id;
        // it shares the job-id namespace
        let ctl_stream = self.next_id;
        self.next_id += 1;
        let max_concurrent = self.max_concurrent;
        let outcome = self.pool.try_run(|ctx: &mut RankCtx| {
            scheduler::drive_rank(ctx, &queued, &plans, ctl_stream, ctl_base, max_concurrent)
        });
        match outcome {
            Ok(per_rank) => {
                type RankRows = Vec<(usize, Result<Vec<f64>, RankFailure>)>;
                let mut per_job: Vec<RankRows> = (0..queued.len()).map(|_| Vec::new()).collect();
                for (r, rr) in per_rank.into_iter().enumerate() {
                    assert_eq!(rr.len(), queued.len());
                    for (j, res) in rr.into_iter().enumerate() {
                        per_job[j].push((r, res));
                    }
                }
                queued
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
                    .collect()
            }
            Err(e) => {
                // Unattributable epoch failure: every job of the epoch
                // reports it (and the pool stays warm for the next one).
                let err = JobError {
                    ranks: e.failures.iter().map(|(r, _)| *r).collect(),
                    message: format!("epoch failed: {e}"),
                };
                queued
                    .iter()
                    .map(|q| JobReport {
                        id: q.id,
                        name: q.name.clone(),
                        outcome: Err(err.clone()),
                    })
                    .collect()
            }
        }
    }
}
