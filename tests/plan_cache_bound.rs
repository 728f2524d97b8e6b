//! The solve service's plan cache stays within its tag-span budget.
//!
//! Its own test binary: it reads the process-global `TagSpace`, so no
//! concurrently running test may lease from it.

mod common;

use std::sync::Arc;

use common::{four_rank_pattern, EchoJob};
use locality::Topology;
use mpi_advance::tagspace::TagSpace;
use mpi_advance::{Backend, Protocol};
use service::{JobSpec, SolveService, PLAN_CACHE_SPANS};

/// Entries per job: each plain entry holds one tag span, so three shapes
/// fit the budget and a fourth evicts one.
const ENTRIES: usize = 20;
const SHAPES: usize = 8;

/// Serve more distinct shapes than the span budget fits, twice over: the
/// cached spans never exceed the bound, every job still delivers, and
/// dropping the service hands every span back to the `TagSpace`.
#[test]
fn plan_cache_spans_stay_bounded() {
    let before = TagSpace::global().live_spans();
    let mut svc = SolveService::new(4);
    for round in 0..2 * SHAPES {
        let shape = round % SHAPES;
        let job = EchoJob {
            patterns: vec![four_rank_pattern(100 + shape); ENTRIES],
            salt: round as f64,
        };
        svc.submit(
            JobSpec::new(
                format!("shape-{shape}"),
                Topology::block_nodes(4, 2),
                Arc::new(job),
            )
            .backend(Backend::Protocol(Protocol::StandardNeighbor)),
        );
        for rep in svc.run_pending() {
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
