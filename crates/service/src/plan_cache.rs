//! The service's plan cache: each distinct job shape is resolved once and
//! every later tenant of that shape initializes from the same
//! [`PlannedBatch`] (DESIGN.md §12).
//!
//! The key is `(topology, backend, patterns)`. Signatures only pick the
//! hash bucket; a hit also needs full `==` equality of the topology, the
//! backend and every pattern, so two shapes whose signatures collide can
//! never share a plan. The cache is bounded by [`PLAN_CACHE_SPANS`] tag
//! spans and evicts least-recently-used plans to stay under it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use locality::Topology;
use mpi_advance::{topology_signature, Backend, CommPattern, NeighborBatch, PlannedBatch};

/// Most tag spans the cached plans of one service hold at once — an
/// eighth of the process-wide `TagSpace`, so a service can never starve
/// other collectives of tags. A plan that needs more than this is
/// served but not cached.
pub const PLAN_CACHE_SPANS: u64 = 64;

struct Entry {
    hash: u64,
    topo: Topology,
    backend: Backend,
    patterns: Vec<CommPattern>,
    plan: Arc<PlannedBatch>,
    last_used: u64,
}

#[derive(Default)]
pub(crate) struct PlanCache {
    entries: Vec<Entry>,
    /// Sum of the cached plans' spans.
    spans: u64,
    /// Use counter: the entry with the smallest `last_used` is evicted.
    clock: u64,
}

fn key_hash(topo: &Topology, backend: Backend, patterns: &[CommPattern]) -> u64 {
    let mut h = DefaultHasher::new();
    topology_signature(topo).hash(&mut h);
    backend.hash(&mut h);
    for p in patterns {
        p.pattern_signature().hash(&mut h);
    }
    h.finish()
}

impl PlanCache {
    /// The plan for this job shape: the cached one on a hit, else a
    /// freshly resolved one (cached when it fits the span budget).
    pub(crate) fn get_or_plan(
        &mut self,
        topo: &Topology,
        backend: Backend,
        patterns: Vec<CommPattern>,
    ) -> Arc<PlannedBatch> {
        self.clock += 1;
        let hash = key_hash(topo, backend, &patterns);
        if let Some(e) = self.entries.iter_mut().find(|e| {
            e.hash == hash && e.backend == backend && e.topo == *topo && e.patterns == patterns
        }) {
            e.last_used = self.clock;
            return Arc::clone(&e.plan);
        }
        let plan = Arc::clone(
            patterns
                .iter()
                .fold(NeighborBatch::new(topo), |b, p| b.entry(p, backend))
                .planned(),
        );
        let spans = plan.spans();
        if spans <= PLAN_CACHE_SPANS {
            while self.spans + spans > PLAN_CACHE_SPANS {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].last_used)
                    .expect("spans are held by some entry");
                self.spans -= self.entries.swap_remove(lru).plan.spans();
            }
            self.spans += spans;
            self.entries.push(Entry {
                hash,
                topo: topo.clone(),
                backend,
                patterns,
                plan: Arc::clone(&plan),
                last_used: self.clock,
            });
        }
        plan
    }

    /// Plans currently cached.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Tag spans the cached plans hold; never above [`PLAN_CACHE_SPANS`].
    pub(crate) fn spans(&self) -> u64 {
        self.spans
    }
}
