//! The service's plan cache: each distinct job shape is resolved once and
//! every later tenant of that shape initializes from the same
//! [`PlannedBatch`] (DESIGN.md §12).
//!
//! The key is `(topology, backend, patterns)`. Signatures only pick the
//! hash bucket; a hit also needs full `==` equality of the topology, the
//! backend and every pattern, so two shapes whose signatures collide can
//! never share a plan. The cache is bounded by [`PLAN_CACHE_SPANS`] tag
//! spans and evicts least-recently-used plans to stay under it.
//!
//! Each entry also keeps a free list of communicator streams: `dup_for`
//! contexts that have registered this plan's channels and are quiescent
//! again, so the next tenant of the shape re-attaches to them instead of
//! registering afresh. The lists are per plan because only the same plan
//! guarantees the same channel keys and element types; an evicted plan's
//! streams are retired with it, since its tags may be leased again to
//! another shape.

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
    /// Unique among every entry this cache ever held (the clock value at
    /// insertion), so a stream handed out before an eviction can tell
    /// that its entry is gone.
    id: u64,
    /// Quiescent streams that have registered this plan's channels.
    free: Vec<u64>,
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
    /// The plan for this job shape — the cached one on a hit, else a
    /// freshly resolved one (cached when it fits the span budget) — and
    /// the id of the entry holding it, `None` when served uncached.
    pub(crate) fn get_or_plan(
        &mut self,
        topo: &Topology,
        backend: Backend,
        patterns: Vec<CommPattern>,
    ) -> (Arc<PlannedBatch>, Option<u64>) {
        self.clock += 1;
        let hash = key_hash(topo, backend, &patterns);
        if let Some(e) = self.entries.iter_mut().find(|e| {
            e.hash == hash && e.backend == backend && e.topo == *topo && e.patterns == patterns
        }) {
            e.last_used = self.clock;
            return (Arc::clone(&e.plan), Some(e.id));
        }
        let plan = Arc::clone(
            patterns
                .iter()
                .fold(NeighborBatch::new(topo), |b, p| b.entry(p, backend))
                .planned(),
        );
        let spans = plan.spans();
        if spans > PLAN_CACHE_SPANS {
            return (plan, None);
        }
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
            id: self.clock,
            free: Vec::new(),
        });
        (plan, Some(self.clock))
    }

    /// A quiescent stream off entry `id`'s free list, if it has one.
    pub(crate) fn take_stream(&mut self, id: u64) -> Option<u64> {
        self.entries.iter_mut().find(|e| e.id == id)?.free.pop()
    }

    /// Return a quiescent `stream` to entry `id`'s free list. If the
    /// entry has been evicted meanwhile the stream is retired: the
    /// plan's tags may already be leased to another shape.
    pub(crate) fn give_back(&mut self, id: u64, stream: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.free.push(stream);
        }
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
