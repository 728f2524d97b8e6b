//! Soak suite for the solve service (`make test-soak`).
//!
//! One `SolveService` serves 1000 one-sweep tenants, eight per round, on
//! each fabric. Every job must be byte-identical to its reference replay,
//! and the world's channel registry must not grow once the shape is warm:
//! a finished job's communicator context goes back to its plan's free
//! list and the next tenant re-attaches to it (DESIGN.md §12). Without
//! that reuse the registry grows by every job's channels, and the shm
//! fabric exhausts its segment within a few rounds.

use std::f64::consts::FRAC_PI_4;
use std::sync::Arc;

use amg::{Hierarchy, HierarchyOptions, JacobiJob};
use locality::Topology;
use mpisim::{World, WorldPool};
use service::{JobLogic, JobSpec, SolveService};
use sparse::gen::diffusion_2d_7pt;

const RANKS: usize = 4;
const PER_ROUND: usize = 8;
const ROUNDS: usize = 125;

fn same_bits(a: &[Vec<f64>], b: &[Vec<f64>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Serve `ROUNDS` rounds of `PER_ROUND` one-sweep tenants through one
/// service on `pool`.
fn soak(fabric: &str, pool: WorldPool) {
    let a = diffusion_2d_7pt(16, 8, 0.001, FRAC_PI_4);
    let n = a.n_rows();
    let h = Hierarchy::setup(a, HierarchyOptions::default());
    let jobs: Vec<Arc<JacobiJob>> = (0..PER_ROUND)
        .map(|k| {
            let seed = 0.13 + 0.19 * k as f64;
            let rhs: Vec<f64> = (0..n).map(|i| (seed * i as f64).sin()).collect();
            Arc::new(JacobiJob::relaxation(&h, RANKS, &rhs, 0.8, 1))
        })
        .collect();
    let reference: Vec<Vec<Vec<f64>>> = jobs.iter().map(|j| j.reference_results()).collect();
    let topo = Topology::block_nodes(RANKS, 2);

    let mut svc = SolveService::with_pool(pool);
    let mut warm = None;
    for round in 0..ROUNDS {
        for (k, job) in jobs.iter().enumerate() {
            svc.submit(JobSpec::new(
                format!("tenant-{k}"),
                topo.clone(),
                Arc::clone(job) as Arc<dyn JobLogic>,
            ));
        }
        for (k, rep) in svc.run_pending().iter().enumerate() {
            let got = rep
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{fabric} round {round}: tenant {k} failed: {e}"));
            assert!(
                same_bits(got, &reference[k]),
                "{fabric} round {round}: tenant {k} differs from its reference"
            );
        }
        if round == 1 {
            warm = Some(svc.pool().registered_channels());
        }
    }
    assert_eq!(
        svc.pool().registered_channels(),
        warm.expect("at least two rounds"),
        "{fabric}: the channel registry grew after the shape was warm"
    );
}

#[test]
fn soak_thread() {
    soak("thread", World::pool(RANKS));
}

#[test]
fn soak_shm() {
    soak("shm", World::pool_shm(RANKS));
}

#[test]
fn soak_sock() {
    soak("sock", World::pool_sock(RANKS));
}
