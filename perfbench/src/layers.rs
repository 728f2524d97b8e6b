//! Inputs and layer probes shared by the workloads.

use std::time::Instant;

use amg::{Hierarchy, HierarchyOptions};
use locality::Topology;
use mpi_advance::tagspace::TagSpace;
use mpi_advance::{choose_protocol, CommPattern, Plan, PlanStats, Protocol, RankRouting};
use mpisim::{World, WorldPool};
use perfmodel::LocalityModel;

use crate::report::{median, mix, Outcome};
use crate::trace::Recorder;

/// The fabric a 4-rank workload's world runs on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fabric {
    Thread,
    Sock,
}

impl Fabric {
    pub fn name(self) -> &'static str {
        match self {
            Fabric::Thread => "thread",
            Fabric::Sock => "sock",
        }
    }

    /// Launch a warm world of `n` ranks on this fabric.
    pub fn launch(self, n: usize) -> WorldPool {
        match self {
            Fabric::Thread => World::pool(n),
            Fabric::Sock => World::pool_sock(n),
        }
    }
}

/// The paper problem (7-point rotated anisotropic diffusion, θ = 45°,
/// ε = 0.001) on an `nx × ny` grid and its AMG hierarchy, with the PMIS
/// tiebreaks drawn from `seed`. `max_levels` caps the hierarchy depth.
pub fn hierarchy(nx: usize, ny: usize, seed: u64, max_levels: usize) -> Hierarchy {
    let a = sparse::gen::diffusion::paper_problem(nx, ny);
    let options = HierarchyOptions {
        seed: mix(seed),
        max_levels,
        ..HierarchyOptions::default()
    };
    Hierarchy::setup(a, options)
}

/// A right-hand side whose phase comes from `(seed, stream)`.
pub fn rhs(n: usize, seed: u64, stream: u64) -> Vec<f64> {
    let u = mix(mix(seed) ^ stream) >> 11;
    let phase = u as f64 / (1u64 << 53) as f64 * std::f64::consts::TAU;
    (0..n).map(|i| (phase + 0.37 * i as f64).cos()).collect()
}

/// Whether two results are the same bytes.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Exact plan counts, summed over the batch's levels: local messages,
/// global messages, global bytes, and the per-level maxima of global
/// messages per rank.
pub fn plan_counts(plans: &[(Protocol, Plan)]) -> [u64; 4] {
    let mut c = [0u64; 4];
    for (_, plan) in plans {
        let st = PlanStats::of(plan);
        c[0] += st.total_local_msgs as u64;
        c[1] += st.total_global_msgs as u64;
        c[2] += st.total_global_bytes as u64;
        c[3] += st.max_global_msgs as u64;
    }
    c
}

/// Checks that a later set-up's plan counts equal the first's, counting
/// one operation per comparison.
#[derive(Default)]
pub struct PlanCheck {
    first: Option<[u64; 4]>,
}

impl PlanCheck {
    pub fn check(&mut self, out: &mut Outcome, counts: [u64; 4]) {
        match self.first {
            None => self.first = Some(counts),
            Some(f) => out.count(1, u64::from(f != counts)),
        }
    }

    pub fn report(&self, out: &mut Outcome) {
        if let Some(c) = self.first {
            out.set("core.plan.local_msgs", c[0] as f64);
            out.set("core.plan.global_msgs", c[1] as f64);
            out.set("core.plan.global_bytes", c[2] as f64);
            out.set("core.plan.max_global_msgs", c[3] as f64);
        }
    }
}

/// Record how many levels run each protocol, as metrics and metadata.
pub fn report_levels(out: &mut Outcome, protocols: &[Protocol]) {
    for p in Protocol::ALL {
        let n = protocols.iter().filter(|&&q| q == p).count();
        out.set(level_metric(p), n as f64);
    }
    let mix: Vec<&str> = protocols.iter().map(|p| p.name()).collect();
    out.meta_str("level_protocols", &mix.join(","));
}

fn level_metric(p: Protocol) -> &'static str {
    match p {
        Protocol::StandardHypre => "core.auto.levels.StandardHypre",
        Protocol::StandardNeighbor => "core.auto.levels.StandardNeighbor",
        Protocol::PartialNeighbor => "core.auto.levels.PartialNeighbor",
        Protocol::FullNeighbor => "core.auto.levels.FullNeighbor",
    }
}

/// The resolve, rebuilt level by level from direct calls: planning each
/// protocol the resolve plans (`Protocol::plan`), Auto's model selection
/// on top of that planning (`choose_protocol`, minus its planning), and
/// each chosen plan's routing (`RankRouting::build_all`). `pinned` is the
/// pinned protocol, or `None` for an Auto batch.
pub struct ResolveParts {
    pub plan_s: f64,
    pub select_s: f64,
    pub routing_s: f64,
    pub chosen: Vec<Protocol>,
}

pub fn resolve_parts(
    rec: &mut Recorder,
    req: u64,
    patterns: &[CommPattern],
    topo: &Topology,
    pinned: Option<Protocol>,
) -> ResolveParts {
    let model = LocalityModel::lassen();
    let mut parts = ResolveParts {
        plan_s: 0.0,
        select_s: 0.0,
        routing_s: 0.0,
        chosen: Vec::new(),
    };
    let timed = |rec: &mut Recorder, name, f: &mut dyn FnMut()| {
        let t = Instant::now();
        rec.time(name, None, req, f);
        t.elapsed().as_secs_f64()
    };
    for pattern in patterns {
        let candidates: Vec<Protocol> = pinned.map_or(Protocol::ALL.to_vec(), |p| vec![p]);
        let mut plans = Vec::new();
        for &p in &candidates {
            parts.plan_s += timed(rec, "core.plan_build", &mut || {
                plans.push((p, p.plan(pattern, topo)))
            });
        }
        let chosen = match pinned {
            Some(p) => p,
            None => {
                let mut chosen = Protocol::StandardHypre;
                let t = timed(rec, "core.select", &mut || {
                    chosen = choose_protocol(pattern, topo, &model).0
                });
                parts.select_s += t;
                chosen
            }
        };
        let plan = &plans
            .iter()
            .find(|(p, _)| *p == chosen)
            .expect("the chosen protocol was planned")
            .1;
        parts.routing_s += timed(rec, "core.routing_build", &mut || {
            std::hint::black_box(RankRouting::build_all(pattern, plan, 0));
        });
        parts.chosen.push(chosen);
    }
    if pinned.is_none() {
        // choose_protocol re-plans every candidate: its own cost is what
        // is left after the planning measured above
        parts.select_s = (parts.select_s - parts.plan_s).max(0.0);
    }
    parts
}

/// Median wall time of `n` empty epochs on `pool`, in microseconds.
pub fn empty_epoch_us(pool: &WorldPool, n: usize) -> f64 {
    let mut v: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            pool.run(|_| ());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut v)
}

/// Median round trip of `RankCtx::send`/`recv` between ranks 0 and `peer`
/// for a payload of `len` doubles, in microseconds. Every echoed payload
/// is checked; mismatches are counted as failed operations.
pub fn pingpong_us(
    pool: &WorldPool,
    peer: usize,
    len: usize,
    iters: usize,
    out: &mut Outcome,
) -> f64 {
    const WARMUP: usize = 20;
    let lease = TagSpace::global().lease_for(1, "perfbench-pingpong");
    let tag = lease.entry_base(0);
    let res = pool.run(move |ctx| {
        let comm = ctx.comm_world();
        let payload: Vec<f64> = (0..len).map(|i| i as f64 + 0.5).collect();
        let mut rtts = Vec::with_capacity(iters);
        let mut bad = 0u64;
        match ctx.rank() {
            0 => {
                for i in 0..WARMUP + iters {
                    let t = Instant::now();
                    ctx.send(&comm, peer, tag, &payload);
                    let back: Vec<f64> = ctx.recv(&comm, peer, tag);
                    let dt = t.elapsed();
                    bad += u64::from(!same_bits(&back, &payload));
                    if i >= WARMUP {
                        rtts.push(dt.as_secs_f64() * 1e6);
                    }
                }
            }
            r if r == peer => {
                for _ in 0..WARMUP + iters {
                    let got: Vec<f64> = ctx.recv(&comm, 0, tag);
                    ctx.send(&comm, 0, tag, &got);
                }
            }
            _ => {}
        }
        (rtts, bad)
    });
    drop(lease);
    let (mut rtts, bad) = res.into_iter().next().expect("rank 0 result");
    out.count((WARMUP + iters) as u64, bad);
    median(&mut rtts)
}
