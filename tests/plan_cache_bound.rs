//! The solve service's plan cache stays within its tag-span budget.
//!
//! Its own test binary: it reads the process-global `TagSpace`, so no
//! concurrently running test may lease from it. The tests of this binary
//! take [`TAGSPACE`] to run one at a time.

mod common;

use std::sync::{Arc, Mutex, MutexGuard};

use common::{four_rank_pattern, EchoJob};
use locality::Topology;
use mpi_advance::tagspace::TagSpace;
use mpi_advance::{Backend, Protocol};
use service::{JobReport, JobSpec, SolveService, PLAN_CACHE_SPANS};

/// Entries per job: each plain entry holds one tag span, so three shapes
/// fit the budget and a fourth evicts one.
const ENTRIES: usize = 20;
const SHAPES: usize = 8;

/// Serializes this binary's tests: each one leases from the global
/// `TagSpace` that `plan_cache_spans_stay_bounded` audits.
static TAGSPACE: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    TAGSPACE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Submit `tenants` echo jobs of shape `shape`, salted from `salt` on,
/// and run them.
fn serve(svc: &mut SolveService, shape: usize, tenants: usize, salt: f64) -> Vec<JobReport> {
    for k in 0..tenants {
        let job = EchoJob {
            patterns: vec![four_rank_pattern(100 + shape); ENTRIES],
            salt: salt + k as f64,
        };
        svc.submit(
            JobSpec::new(
                format!("shape-{shape}/{k}"),
                Topology::block_nodes(4, 2),
                Arc::new(job),
            )
            .backend(Backend::Protocol(Protocol::StandardNeighbor)),
        );
    }
    svc.run_pending()
}

/// Serve more distinct shapes than the span budget fits, twice over: the
/// cached spans never exceed the bound, every job still delivers, and
/// dropping the service hands every span back to the `TagSpace`.
#[test]
fn plan_cache_spans_stay_bounded() {
    let _serial = exclusive();
    let before = TagSpace::global().live_spans();
    let mut svc = SolveService::new(4);
    for round in 0..2 * SHAPES {
        for rep in serve(&mut svc, round % SHAPES, 1, round as f64) {
            assert!(rep.outcome.is_ok(), "{}: {:?}", rep.name, rep.outcome.err());
        }
        assert!(
            svc.cached_spans() <= PLAN_CACHE_SPANS,
            "round {round}: {} cached spans exceed the bound {PLAN_CACHE_SPANS}",
            svc.cached_spans()
        );
        assert!(
            svc.cached_plans() >= 1,
            "round {round}: the last shape is cached"
        );
    }
    let full = svc.cached_plans();
    assert_eq!(
        full as u64,
        PLAN_CACHE_SPANS / ENTRIES as u64,
        "the cache fills to its budget and no further"
    );
    // a plan larger than the whole budget is served, not cached
    let job = EchoJob {
        patterns: vec![four_rank_pattern(99); PLAN_CACHE_SPANS as usize + 1],
        salt: 0.5,
    };
    svc.submit(
        JobSpec::new("oversized", Topology::block_nodes(4, 2), Arc::new(job))
            .backend(Backend::Protocol(Protocol::StandardNeighbor)),
    );
    let rep = svc.run_pending().remove(0);
    assert!(rep.outcome.is_ok(), "oversized: {:?}", rep.outcome.err());
    assert_eq!(svc.cached_plans(), full, "an oversized plan evicts nothing");
    drop(svc);
    assert_eq!(
        TagSpace::global().live_spans(),
        before,
        "a dropped service must return every tag span"
    );
}

/// Serve a shape, evict it by serving more shapes than the span budget
/// fits (their plans lease its tags again), then serve it once more. The
/// evicted plan's contexts were retired with it, so the re-served shape
/// registers a fresh channel set, as many channels as its first serving,
/// and is byte-identical to that serving.
#[test]
fn evicted_shape_reserves_byte_identically() {
    let _serial = exclusive();
    let mut svc = SolveService::new(4);
    let outcomes = |reports: Vec<JobReport>| -> Vec<Vec<Vec<f64>>> {
        reports
            .into_iter()
            .map(|r| r.outcome.unwrap_or_else(|e| panic!("{}: {e}", r.name)))
            .collect()
    };
    // warm the control context, so registry growth counts job channels
    outcomes(serve(&mut svc, SHAPES - 1, 1, 0.0));
    let before = svc.pool().registered_channels();
    let first = outcomes(serve(&mut svc, 0, 3, 0.0));
    let fresh = svc.pool().registered_channels() - before;
    for shape in 1..SHAPES {
        outcomes(serve(&mut svc, shape, 3, 0.0));
    }
    assert!(
        (svc.cached_plans() as u64) < SHAPES as u64,
        "serving {SHAPES} shapes must evict some"
    );
    let before = svc.pool().registered_channels();
    assert_eq!(
        outcomes(serve(&mut svc, 0, 3, 0.0)),
        first,
        "re-served shape 0"
    );
    assert_eq!(
        svc.pool().registered_channels() - before,
        fresh,
        "re-served shape 0 must run on fresh contexts, not on retired ones"
    );
}
