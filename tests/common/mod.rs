//! Shared fixtures for the service suites.

use mpi_advance::{CommPattern, EntryId, NeighborRequest};
use service::{JobLogic, RankState};

/// A synthetic tenant over hand-built patterns: every rank sends
/// `index + salt + iter` for each value it owns and checks that it
/// receives exactly its own pattern's ghost indices with those values, so
/// a job that ran on another shape's plan fails loudly.
pub struct EchoJob {
    pub patterns: Vec<CommPattern>,
    pub salt: f64,
}

struct EchoState {
    salt: f64,
    /// Per entry: the ghost indices this rank's pattern delivers to it.
    ghosts: Vec<Vec<usize>>,
    checked: usize,
}

impl JobLogic for EchoJob {
    fn patterns(&self) -> Vec<CommPattern> {
        self.patterns.clone()
    }
    fn iters(&self) -> usize {
        2
    }
    fn rank_state(&self, rank: usize) -> Box<dyn RankState> {
        let ghosts = self
            .patterns
            .iter()
            .map(|p| {
                let mut idx: Vec<usize> = p
                    .sends
                    .iter()
                    .flatten()
                    .filter(|(dst, _)| *dst == rank)
                    .flat_map(|(_, idx)| idx.iter().copied())
                    .collect();
                idx.sort_unstable();
                idx.dedup();
                idx
            })
            .collect();
        Box::new(EchoState {
            salt: self.salt,
            ghosts,
            checked: 0,
        })
    }
}

impl RankState for EchoState {
    fn input(&mut self, iter: usize, _e: EntryId, req: &dyn NeighborRequest) -> Vec<f64> {
        let off = self.salt + iter as f64;
        req.input_index().iter().map(|&i| i as f64 + off).collect()
    }
    fn absorb(&mut self, iter: usize, e: EntryId, req: &dyn NeighborRequest, output: &[f64]) {
        assert_eq!(
            req.output_index(),
            self.ghosts[e],
            "entry {e}: wrong ghost set"
        );
        let off = self.salt + iter as f64;
        for (&i, &v) in req.output_index().iter().zip(output) {
            assert_eq!(
                v,
                i as f64 + off,
                "entry {e}: ghost {i} carries a wrong value"
            );
        }
        self.checked += output.len();
    }
    fn finish(self: Box<Self>) -> Vec<f64> {
        vec![self.checked as f64]
    }
}

/// A 4-rank halo pattern; `moved` replaces the index rank 1 sends to
/// rank 3 — a one-slot change that leaves the pattern signature (which
/// hashes send counts, not index values) unchanged.
pub fn four_rank_pattern(moved: usize) -> CommPattern {
    CommPattern::new(
        4,
        vec![
            vec![(1, vec![0, 1]), (2, vec![1])],
            vec![(0, vec![10]), (3, vec![moved])],
            vec![(3, vec![20, 21])],
            vec![(0, vec![30]), (2, vec![30, 31])],
        ],
    )
}
