//! Acceptance suite for the async solve service (`make test-serve`).
//!
//! Three contracts from DESIGN.md §12, each exercised end to end on the
//! warm pool:
//!
//! * **Equivalence** — K jobs driven concurrently produce byte-identical
//!   results to the same K jobs driven one at a time, and both match the
//!   serial reference replay, on every fabric.
//! * **Tenant isolation** — a seeded `kill=` fault that takes down one
//!   tenant mid-epoch fails *that* job with an attributed error while
//!   every surviving tenant's result stays byte-identical to its solo
//!   run.
//! * **Deadline attribution** — a wedged tenant trips the wait deadline
//!   and the resulting per-job errors name the jobs that were running on
//!   the parked rank.
//! * **Plan cache** — tenants of one shape share one resolved plan and
//!   stay byte-identical to their references; shapes that differ in a
//!   single slot never share one, and a shared plan survives a tenant's
//!   death.
//! * **Warm contexts** — recycled communicator contexts carry no stale
//!   traffic from a failed round, and alternating shapes keep the channel
//!   registry flat once both are warm.

mod common;

use std::f64::consts::FRAC_PI_4;
use std::sync::Arc;
use std::time::Duration;

use amg::{Hierarchy, HierarchyOptions, JacobiJob};
use common::{four_rank_pattern, EchoJob};
use locality::Topology;
use mpi_advance::{Backend, CommPattern, EntryId, NeighborRequest, Protocol};
use mpisim::{FaultPlan, World, WorldPool};
use proptest::prelude::*;
use service::{JobLogic, JobReport, JobSpec, RankState, SolveService};
use sparse::gen::diffusion_2d_7pt;

const RANKS: usize = 4;

fn topo() -> Topology {
    Topology::block_nodes(RANKS, 2)
}

/// A small AMG hierarchy plus K relaxation jobs with distinct right-hand
/// sides — the standard multi-tenant workload for this suite.
fn tenant_jobs(k: usize) -> Vec<Arc<JacobiJob>> {
    jobs_on(16, 8, k)
}

/// K relaxation jobs with distinct right-hand sides on a `w`×`h` grid's
/// hierarchy.
fn jobs_on(w: usize, h: usize, k: usize) -> Vec<Arc<JacobiJob>> {
    let a = diffusion_2d_7pt(w, h, 0.001, FRAC_PI_4);
    let n = a.n_rows();
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    (0..k)
        .map(|j| {
            let seed = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&h, RANKS, &rhs, 0.8, 5))
        })
        .collect()
}

fn submit_all(svc: &mut SolveService, jobs: &[Arc<JacobiJob>]) {
    for (k, j) in jobs.iter().enumerate() {
        svc.submit(JobSpec::new(
            format!("tenant-{k}"),
            topo(),
            Arc::clone(j) as Arc<dyn JobLogic>,
        ));
    }
}

fn expect_ok(reports: &[JobReport], jobs: &[Arc<JacobiJob>], label: &str) {
    assert_eq!(reports.len(), jobs.len(), "{label}");
    for (k, rep) in reports.iter().enumerate() {
        let got = rep
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{label}: job {k} failed: {e}"));
        assert_eq!(got, &jobs[k].reference_results(), "{label}: tenant {k}");
    }
}

/// K jobs overlapped on one warm pool == the same K jobs driven
/// sequentially == the serial reference, byte for byte, on all three
/// fabrics.
#[test]
fn concurrent_jobs_match_sequential_and_reference() {
    let jobs = tenant_jobs(4);
    type PoolCtor = fn(usize) -> WorldPool;
    let fabrics: [(&str, PoolCtor); 3] = [
        ("thread", World::pool),
        ("shm", World::pool_shm),
        ("sock", World::pool_sock),
    ];
    for (name, mk_pool) in fabrics {
        let mut conc = SolveService::with_pool(mk_pool(RANKS));
        submit_all(&mut conc, &jobs);
        let concurrent = conc.run_pending();
        expect_ok(&concurrent, &jobs, &format!("{name}/concurrent"));

        let mut seq = SolveService::with_pool(mk_pool(RANKS)).max_concurrent(1);
        submit_all(&mut seq, &jobs);
        let sequential = seq.run_pending();
        expect_ok(&sequential, &jobs, &format!("{name}/sequential"));

        for (c, s) in concurrent.iter().zip(&sequential) {
            assert_eq!(
                c.outcome.as_ref().unwrap(),
                s.outcome.as_ref().unwrap(),
                "{name}: overlap must not change bytes"
            );
        }
    }
}

/// The service outlives its epochs: the same warm pool accepts a second
/// round of submissions, and dup'd communicator ids never collide across
/// epochs.
#[test]
fn warm_pool_accepts_successive_rounds() {
    let jobs = tenant_jobs(2);
    let mut svc = SolveService::new(RANKS);
    for round in 0..3 {
        submit_all(&mut svc, &jobs);
        expect_ok(&svc.run_pending(), &jobs, &format!("round {round}"));
    }
}

/// Seeded fault: rank 1 dies at its nth transport operation. Scanning
/// nth moves the kill across tenants' traffic; wherever it lands, the
/// dead tenant's report is attributed and every surviving tenant is
/// byte-identical to its solo run. At least one nth in the scan must
/// actually split the tenants (some killed, some survivors) for the
/// isolation claim to be exercised.
#[test]
fn kill_fails_one_tenant_and_spares_the_rest() {
    let jobs = tenant_jobs(3);
    let mut saw_split = false;
    for nth in [40, 80, 120, 160] {
        let plan = FaultPlan::seeded(7).kill(1, nth);
        let mut svc = SolveService::with_pool(World::pool_with_faults(RANKS, plan));
        submit_all(&mut svc, &jobs);
        let reports = svc.run_pending();
        let failed: Vec<usize> = (0..jobs.len())
            .filter(|&k| reports[k].outcome.is_err())
            .collect();
        if !failed.is_empty() && failed.len() < jobs.len() {
            saw_split = true;
        }
        for (k, rep) in reports.iter().enumerate() {
            match &rep.outcome {
                Ok(got) => assert_eq!(
                    got,
                    &jobs[k].reference_results(),
                    "nth={nth}: surviving tenant {k} must be byte-identical to solo"
                ),
                Err(e) => {
                    assert!(
                        e.message.contains("rank 1") || e.message.contains("rank 1's"),
                        "nth={nth}: failure must be attributed to the dead rank: {e}"
                    );
                    assert!(
                        e.ranks.contains(&0) || e.ranks.contains(&1),
                        "nth={nth}: error must carry reporting ranks: {:?}",
                        e.ranks
                    );
                }
            }
        }
    }
    assert!(
        saw_split,
        "the nth scan never split the tenants; isolation was not exercised"
    );
}

/// Kill containment under locality-aware protocols. With 8 ranks at 4
/// per node, [`service::JobSpec`]'s default `Backend::Auto` plans
/// aggregated protocols whose local-gather steps block *synchronously*
/// inside a task's poll — a rank stuck there can never see a cancel
/// token, because its scheduler never regains control. Its only way out
/// is the transport death flag, which is why absorption is per rank:
/// the failing rank absorbing the flag for itself must not steal the
/// abort from peers still blocked on the dead tenant's traffic.
/// (Regression: this exact shape used to hang the epoch forever.)
#[test]
fn kill_is_contained_under_locality_protocols() {
    const N: usize = 8;
    let topo = Topology::block_nodes(N, 4);
    let a = diffusion_2d_7pt(24, 12, 0.001, FRAC_PI_4);
    let n = a.n_rows();
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    let jobs: Vec<Arc<JacobiJob>> = (0..6)
        .map(|j| {
            let seed = 0.11 + 0.17 * j as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).cos()).collect();
            Arc::new(JacobiJob::relaxation(&h, N, &rhs, 0.8, 4))
        })
        .collect();
    let mut saw_split = false;
    for nth in [20, 40, 60, 90] {
        let plan = FaultPlan::seeded(7).kill(1, nth);
        let mut svc = SolveService::with_pool(World::pool_with_faults(N, plan)).max_concurrent(3);
        for (k, j) in jobs.iter().enumerate() {
            svc.submit(JobSpec::new(
                format!("tenant-{k}"),
                topo.clone(),
                Arc::clone(j) as Arc<dyn JobLogic>,
            ));
        }
        // the real regression check is that run_pending RETURNS — the
        // epoch used to hang with a peer stuck in a synchronous
        // local-gather recv that no cancel token could reach
        let reports = svc.run_pending();
        let mut survivors = 0;
        for (k, rep) in reports.iter().enumerate() {
            match &rep.outcome {
                Ok(got) => {
                    assert_eq!(
                        got,
                        &jobs[k].reference_results(),
                        "nth={nth}: surviving tenant {k} must be byte-identical to solo"
                    );
                    survivors += 1;
                }
                Err(e) => assert!(
                    e.message.contains("rank 1"),
                    "nth={nth}: failure must be attributed to the dead rank: {e}"
                ),
            }
        }
        if survivors > 0 && survivors < jobs.len() {
            saw_split = true;
        }
    }
    assert!(
        saw_split,
        "no nth in the scan split the tenants; isolation was not exercised"
    );
}

// ---------------------------------------------------------------------
// deadline attribution: a wedged tenant names itself in the dump
// ---------------------------------------------------------------------

/// Wraps a job so one rank wedges (sleeps) inside its first input
/// callback — long enough to trip the epoch's wait deadline on every
/// other rank.
struct StallJob {
    inner: Arc<JacobiJob>,
    stall_rank: usize,
    stall: Duration,
}

struct StallState {
    inner: Box<dyn RankState>,
    stall: Option<Duration>,
}

impl JobLogic for StallJob {
    fn patterns(&self) -> Vec<CommPattern> {
        JobLogic::patterns(&*self.inner)
    }
    fn iters(&self) -> usize {
        JobLogic::iters(&*self.inner)
    }
    fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
        Box::new(StallState {
            inner: JobLogic::rank_state(&*self.inner, rank),
            stall: (rank == self.stall_rank).then_some(self.stall),
        })
    }
}

impl RankState for StallState {
    fn input(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest) -> Vec<f64> {
        if let Some(d) = self.stall.take() {
            std::thread::sleep(d);
        }
        self.inner.input(iter, e, req)
    }
    fn absorb(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest, output: &[f64]) {
        self.inner.absorb(iter, e, req, output)
    }
    fn finish(self: Box<Self>) -> Vec<f64> {
        self.inner.finish()
    }
}

/// With one tenant wedged on rank 3 past the wait deadline, the parked
/// ranks dump every job still running there — the per-job errors carry
/// the job names, so the operator can see exactly which tenants were in
/// flight.
#[test]
fn deadline_dump_attributes_running_jobs() {
    let jobs = tenant_jobs(2);
    let stalled = Arc::new(StallJob {
        inner: Arc::clone(&jobs[0]),
        stall_rank: RANKS - 1,
        stall: Duration::from_millis(1500),
    });
    let plan = FaultPlan::seeded(1).deadline_ms(300);
    let mut svc = SolveService::with_pool(World::pool_with_faults(RANKS, plan));
    svc.submit(JobSpec::new(
        "tenant-wedged",
        topo(),
        stalled as Arc<dyn JobLogic>,
    ));
    svc.submit(JobSpec::new(
        "tenant-bystander",
        topo(),
        Arc::clone(&jobs[1]) as Arc<dyn JobLogic>,
    ));
    let reports = svc.run_pending();
    let wedged = reports[0].outcome.as_ref().unwrap_err();
    assert!(
        wedged.message.contains("parked") || wedged.message.contains("cancelled"),
        "wedged tenant's error must come from the park/cancel path: {wedged}"
    );
    // at least one rank's dump names the in-flight jobs
    let dumped: Vec<&service::JobError> = reports
        .iter()
        .filter_map(|r| r.outcome.as_ref().err())
        .collect();
    assert!(
        dumped
            .iter()
            .any(|e| e.message.contains("tenant-wedged") && e.message.contains("parked")),
        "no deadline dump attributed the wedged tenant by name: {dumped:?}"
    );
}

// ---------------------------------------------------------------------
// the plan cache: one resolved plan per job shape
// ---------------------------------------------------------------------

/// One round mixing two hierarchies × two backends, two tenants per
/// shape: every tenant is byte-identical to its reference, the cache
/// holds exactly one plan per distinct `(topology, backend, patterns)`
/// key, and a second round is served from those plans alone.
#[test]
fn plan_cache_holds_one_plan_per_shape() {
    let shapes = [jobs_on(16, 8, 2), jobs_on(20, 10, 2)];
    let backends = [Backend::Auto, Backend::Protocol(Protocol::FullNeighbor)];
    let mut svc = SolveService::new(RANKS);
    for round in 0..2 {
        let mut want = Vec::new();
        for jobs in &shapes {
            for backend in backends {
                for job in jobs {
                    svc.submit(
                        JobSpec::new(
                            format!("tenant-{}", want.len()),
                            topo(),
                            Arc::clone(job) as Arc<dyn JobLogic>,
                        )
                        .backend(backend),
                    );
                    want.push(job.reference_results());
                }
            }
        }
        let reports = svc.run_pending();
        assert_eq!(reports.len(), want.len());
        for (rep, want) in reports.iter().zip(&want) {
            let got = rep
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("round {round}: {} failed: {e}", rep.name));
            assert_eq!(got, want, "round {round}: {}", rep.name);
        }
        assert_eq!(svc.cached_plans(), 4, "round {round}: one plan per key");
    }
}

/// Two patterns that differ in a single slot hash alike (the signature
/// counts sends, not index values) but must still miss: each tenant runs
/// on its own plan and receives exactly its own ghost values.
#[test]
fn plan_cache_misses_on_a_one_slot_difference() {
    let (p, q) = (four_rank_pattern(11), four_rank_pattern(12));
    assert_ne!(p, q);
    assert_eq!(p.pattern_signature(), q.pattern_signature());
    let mut svc = SolveService::new(RANKS);
    for (k, pattern) in [p.clone(), q, p].into_iter().enumerate() {
        let job = EchoJob {
            patterns: vec![pattern; 2],
            salt: 0.25 * k as f64,
        };
        svc.submit(JobSpec::new(format!("echo-{k}"), topo(), Arc::new(job)));
    }
    for rep in svc.run_pending() {
        assert!(rep.outcome.is_ok(), "{}: {:?}", rep.name, rep.outcome.err());
    }
    assert_eq!(svc.cached_plans(), 2, "the two slot variants share no plan");
}

/// A seeded kill of one of two tenants sharing a cached plan: the twin
/// stays byte-identical to its reference, and the next round, on the same
/// cached plan, succeeds for both.
#[test]
fn kill_of_a_plan_sharing_tenant_spares_its_twin() {
    let jobs = tenant_jobs(2);
    let mut saw_split = false;
    for nth in [20, 40, 60, 80, 120, 160] {
        let plan = FaultPlan::seeded(11).kill(1, nth);
        let mut svc = SolveService::with_pool(World::pool_with_faults(RANKS, plan));
        submit_all(&mut svc, &jobs);
        let reports = svc.run_pending();
        assert_eq!(svc.cached_plans(), 1, "nth={nth}: the twins share one plan");
        let failed = reports.iter().filter(|r| r.outcome.is_err()).count();
        if failed != 1 {
            continue;
        }
        saw_split = true;
        for (k, rep) in reports.iter().enumerate() {
            match &rep.outcome {
                Ok(got) => assert_eq!(
                    got,
                    &jobs[k].reference_results(),
                    "nth={nth}: the surviving twin must be byte-identical"
                ),
                Err(e) => assert!(
                    e.message.contains("rank 1"),
                    "nth={nth}: failure must be attributed to the dead rank: {e}"
                ),
            }
        }
        submit_all(&mut svc, &jobs);
        expect_ok(&svc.run_pending(), &jobs, &format!("nth={nth}: next round"));
        assert_eq!(
            svc.cached_plans(),
            1,
            "nth={nth}: served from the same plan"
        );
    }
    assert!(
        saw_split,
        "no nth in the scan killed exactly one twin; isolation was not exercised"
    );
}

// ---------------------------------------------------------------------
// warm contexts: finished jobs' communicators serve later tenants
// ---------------------------------------------------------------------

/// A seeded kill fails some tenants of round 1. Their contexts, and the
/// control context that may still hold their cancel tokens, are retired;
/// the survivors' contexts serve rounds 2 and 3, which must be
/// byte-identical with no job cancelled by a stale token.
#[test]
fn recycled_contexts_carry_no_stale_traffic() {
    let jobs = tenant_jobs(4);
    let mut saw_failure = false;
    for nth in [30, 60, 90, 120, 150] {
        let plan = FaultPlan::seeded(5).kill(2, nth);
        let mut svc = SolveService::with_pool(World::pool_with_faults(RANKS, plan));
        submit_all(&mut svc, &jobs);
        let first = svc.run_pending();
        let failed = first.iter().filter(|r| r.outcome.is_err()).count();
        if failed == 0 {
            continue;
        }
        saw_failure = true;
        for round in 2..=3 {
            submit_all(&mut svc, &jobs);
            let reports = svc.run_pending();
            for rep in &reports {
                if let Err(e) = &rep.outcome {
                    assert!(
                        !e.message.contains("cancelled"),
                        "nth={nth} round {round}: {} cancelled by a stale token: {e}",
                        rep.name
                    );
                }
            }
            expect_ok(&reports, &jobs, &format!("nth={nth} round {round}"));
        }
    }
    assert!(saw_failure, "no nth in the scan failed a tenant in round 1");
}

/// Wraps a job so one rank fails it only after every exchange is done:
/// its `finish` sleeps, then panics. The peers have finished the job and
/// left the epoch by then, so the cancel token the failing rank
/// broadcasts stays undelivered on the control channels.
struct FailLateJob {
    inner: Arc<JacobiJob>,
    rank: usize,
}

struct FailLateState {
    inner: Box<dyn RankState>,
    fail: bool,
}

impl JobLogic for FailLateJob {
    fn patterns(&self) -> Vec<CommPattern> {
        JobLogic::patterns(&*self.inner)
    }
    fn iters(&self) -> usize {
        JobLogic::iters(&*self.inner)
    }
    fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
        Box::new(FailLateState {
            inner: JobLogic::rank_state(&*self.inner, rank),
            fail: rank == self.rank,
        })
    }
}

impl RankState for FailLateState {
    fn input(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest) -> Vec<f64> {
        self.inner.input(iter, e, req)
    }
    fn absorb(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest, output: &[f64]) {
        self.inner.absorb(iter, e, req, output)
    }
    fn finish(self: Box<Self>) -> Vec<f64> {
        if self.fail {
            std::thread::sleep(Duration::from_millis(100));
            panic!("tenant fails after its last exchange");
        }
        self.inner.finish()
    }
}

/// A tenant that fails after its last exchange leaves its cancel token
/// undelivered on the peers' control channels. The control context is
/// therefore retired, and the next rounds run byte-identically with no
/// job cancelled by that stale token. (The deadline turns a stale-token
/// hang into a failure.)
#[test]
fn late_failure_leaves_no_stale_cancel_token() {
    let jobs = tenant_jobs(3);
    let plan = FaultPlan::seeded(1).deadline_ms(10_000);
    let mut svc = SolveService::with_pool(World::pool_with_faults(RANKS, plan));
    submit_all(&mut svc, &jobs[..2]);
    svc.submit(JobSpec::new(
        "tenant-late",
        topo(),
        Arc::new(FailLateJob {
            inner: Arc::clone(&jobs[2]),
            rank: RANKS - 1,
        }) as Arc<dyn JobLogic>,
    ));
    let first = svc.run_pending();
    expect_ok(&first[..2], &jobs[..2], "round 1 bystanders");
    let late = first[2]
        .outcome
        .as_ref()
        .expect_err("the late tenant fails");
    assert!(late.message.contains("after its last exchange"), "{late}");
    for round in 2..=3 {
        submit_all(&mut svc, &jobs);
        expect_ok(&svc.run_pending(), &jobs, &format!("round {round}"));
    }
}

/// Two shapes alternate round by round: FullNeighbor on one hierarchy,
/// `Auto` on another. Each plan recycles its own contexts, every round is
/// byte-identical, and the channel registry stops growing once both
/// shapes are warm.
#[test]
fn alternating_shapes_keep_the_registry_flat() {
    let shapes = [
        (jobs_on(16, 8, 3), Backend::Protocol(Protocol::FullNeighbor)),
        (jobs_on(20, 10, 3), Backend::Auto),
    ];
    let mut svc = SolveService::new(RANKS);
    let mut warm = None;
    for round in 0..8 {
        let (jobs, backend) = &shapes[round % 2];
        for (k, job) in jobs.iter().enumerate() {
            svc.submit(
                JobSpec::new(
                    format!("tenant-{k}"),
                    topo(),
                    Arc::clone(job) as Arc<dyn JobLogic>,
                )
                .backend(*backend),
            );
        }
        expect_ok(&svc.run_pending(), jobs, &format!("round {round}"));
        if round == 1 {
            warm = Some(svc.pool().registered_channels());
        }
    }
    assert_eq!(svc.cached_plans(), 2);
    assert_eq!(
        Some(svc.pool().registered_channels()),
        warm,
        "the registry grew after both shapes were warm"
    );
}

// ---------------------------------------------------------------------
// dup'd-communicator isolation, property-tested
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Two tenants running the *same* pattern with the *same* tags on
    /// dup'd communicators never cross traffic: each result is
    /// byte-identical to the job's solo run, across problem shapes.
    #[test]
    fn dup_comm_isolation(w in 8usize..20, h in 4usize..10, sweeps in 1usize..6) {
        let a = diffusion_2d_7pt(w, h, 0.001, FRAC_PI_4);
        let n = a.n_rows();
        let hier = Hierarchy::setup(a, HierarchyOptions::default());
        let rhs: Vec<f64> = (0..n).map(|i| (0.11 * i as f64).cos()).collect();
        let job = Arc::new(JacobiJob::relaxation(&hier, RANKS, &rhs, 0.8, sweeps));
        let reference = job.reference_results();

        // solo run
        let mut solo = SolveService::new(RANKS);
        solo.submit(JobSpec::new("solo", topo(), Arc::clone(&job) as Arc<dyn JobLogic>));
        let solo_out = solo.run_pending().remove(0).outcome.unwrap();
        prop_assert_eq!(&solo_out, &reference);

        // two identical tenants, overlapped on dup'd comms
        let mut both = SolveService::new(RANKS);
        for k in 0..2 {
            both.submit(JobSpec::new(
                format!("twin-{k}"),
                topo(),
                Arc::clone(&job) as Arc<dyn JobLogic>,
            ));
        }
        for rep in both.run_pending() {
            prop_assert_eq!(rep.outcome.unwrap(), solo_out.clone());
        }
    }
}
