//! `amg_sweep_thread` / `amg_sweep_sock`: all-levels Jacobi sweeps over
//! one `NeighborBatch` pinned to `Protocol::FullNeighbor`, on a warm
//! 4-rank world in 2 regions.
//!
//! One sweep on a rank: every level's send values (`amg.input`), one
//! `start_all`, then a `wait_any` loop that runs `JacobiRankState::absorb`
//! (the level's `ParCsr::spmv` relaxation) for each level as it lands.
//! The sweeps run in blocks of [`BLOCK`]; each block starts from a fresh
//! rank state and ends with its final iterate compared byte for byte with
//! `JacobiJob::reference_results`. Between blocks rank 0 tells the others
//! whether to run another block, so a segment measures for its share of
//! the requested time on one epoch.
//!
//! The run is cut into [`SEGMENTS`] segments. Each is a fresh set-up
//! (pool launch, job build, resolve, `init_all`: `setup_s` runs to the
//! last rank's ready instant) followed by sweeps on that pool, so set-up
//! times are sampled across the whole run instead of in its first
//! tenth of a second.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use amg::JacobiJob;
use locality::Topology;
use mpi_advance::tagspace::TagSpace;
use mpi_advance::{Backend, NeighborBatch, Protocol};

use crate::layers::{self, Fabric, PlanCheck};
use crate::report::{median, peak_rss_kb, Chunks, Outcome};
use crate::trace::{Ledger, Recorder, Span, Trace};

pub const NX: usize = 128;
pub const NY: usize = 64;
pub const RANKS: usize = 4;
/// Ranks per region: 4 ranks in 2 regions.
pub const PPN: usize = 2;
const OMEGA: f64 = 0.8;
/// Sweeps per checked block.
pub const BLOCK: usize = 500;
/// Set-ups per run, one per segment.
const SEGMENTS: usize = 20;
/// Traced blocks per run at most (bounds the in-memory spans).
const MAX_TRACED_BLOCKS: usize = 12;
const SPAN_CAP: usize = MAX_TRACED_BLOCKS * BLOCK * 64;

/// Rank 0's instruction for the next block.
const STOP: f64 = 0.0;
const UNTRACED: f64 = 1.0;
const TRACED: f64 = 2.0;

/// One rank's view of one block.
struct BlockOut {
    start: Instant,
    end: Instant,
    /// Per-sweep times in ms, the block's first sweep left out.
    samples: Vec<f64>,
}

/// Blocks pooled over ranks as soon as every rank has deposited its part,
/// so a run keeps one block's samples at a time however long it measures.
#[derive(Default)]
struct BlockPool {
    pending: HashMap<usize, Vec<BlockOut>>,
    untraced: Chunks,
    /// Pooled median sweep of each traced block.
    traced_p50: Vec<f64>,
}

impl BlockPool {
    fn deposit(pool: &Mutex<Self>, index: usize, traced: bool, block: BlockOut) {
        let mut st = pool
            .lock()
            .expect("no rank panics while holding the block pool");
        let parts = st.pending.entry(index).or_default();
        parts.push(block);
        if parts.len() < RANKS {
            return;
        }
        let parts = st.pending.remove(&index).expect("entry just filled");
        let start = parts.iter().map(|k| k.start).min().expect("ranks");
        let end = parts.iter().map(|k| k.end).max().expect("ranks");
        let mut pooled: Vec<f64> = parts.into_iter().flat_map(|k| k.samples).collect();
        if traced {
            st.traced_p50.push(median(&mut pooled));
        } else {
            st.untraced
                .push(pooled, BLOCK as f64, (end - start).as_secs_f64());
        }
    }
}

struct RankOut {
    ready: Instant,
    sweeps: u64,
    bad_blocks: u64,
    spans: Vec<Span>,
    dropped: u64,
}

pub fn run(fabric: Fabric, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let base = Instant::now();

    // inputs: generated from the seed, not timed
    let h = layers::hierarchy(NX, NY, seed, usize::MAX);
    let n = h.levels[0].a.n_rows();
    let rhs = layers::rhs(n, seed, 0);
    let reference = JacobiJob::relaxation(&h, RANKS, &rhs, OMEGA, BLOCK).reference_results();
    let topo = Topology::block_nodes(RANKS, PPN);
    let ctl = TagSpace::global().lease_for(1, "perfbench-sweep-ctl");
    let ctl_tag = ctl.entry_base(0);

    let mut drv = Recorder::new(0, base, trace, 1 << 16);
    let mut setup_s = Vec::new();
    let mut plan_check = PlanCheck::default();
    let mut resolve_parts = Vec::new();
    let mut spans = Vec::new();
    let mut dropped = 0;
    let mut sweeps = 0;
    let mut last_pool = None;
    let blocks = Mutex::new(BlockPool::default());
    // block numbering and the traced-block budget span the segments;
    // only rank 0 touches them
    let next_block = AtomicUsize::new(0);
    let traced_blocks = AtomicUsize::new(0);
    let start = Instant::now();
    for seg in 0..SEGMENTS {
        let req = seg as u64;
        let deadline = Duration::from_secs_f64(seconds * (seg + 1) as f64 / SEGMENTS as f64);
        let t0 = Instant::now();
        let root = drv.open("setup", None, req);
        let pool = drv.time("mpisim.pool_launch", root, req, || fabric.launch(RANKS));
        let (job, patterns) = drv.time("amg.job_build", root, req, || {
            let job = JacobiJob::relaxation(&h, RANKS, &rhs, OMEGA, BLOCK);
            let patterns = job.patterns();
            (job, patterns)
        });
        let mut batch = NeighborBatch::new(&topo);
        for p in &patterns {
            batch = batch.entry(p, Backend::Protocol(Protocol::FullNeighbor));
        }
        drv.time("core.resolve", root, req, || {
            let _ = batch.tag_bases();
        });
        let epoch = drv.open("mpisim.init_epoch", root, req);
        let result = pool.try_run(|ctx| {
            let rank = ctx.rank();
            let mut rec = Recorder::new((seg * RANKS + rank + 1) as u64, base, trace, SPAN_CAP);
            let comm = ctx.comm_world();
            let init = rec.open("core.init_all", epoch, req);
            let mut session = batch.init_all(ctx, &comm);
            rec.close(init);
            let mut o = RankOut {
                ready: Instant::now(),
                sweeps: 0,
                bad_blocks: 0,
                spans: Vec::new(),
                dropped: 0,
            };
            let levels = session.len();
            let mut outputs: Vec<Vec<f64>> = session
                .requests()
                .iter()
                .map(|r| vec![0.0; r.output_index().len()])
                .collect();
            loop {
                // [mode, global block index]
                let order = if rank == 0 {
                    let index = next_block.load(Ordering::Relaxed);
                    let mode = if start.elapsed() >= deadline {
                        STOP
                    } else if trace
                        && index % 2 == 1
                        && traced_blocks.load(Ordering::Relaxed) < MAX_TRACED_BLOCKS
                    {
                        traced_blocks.fetch_add(1, Ordering::Relaxed);
                        TRACED
                    } else {
                        UNTRACED
                    };
                    if mode != STOP {
                        next_block.fetch_add(1, Ordering::Relaxed);
                    }
                    let order = [mode, index as f64];
                    for peer in 1..RANKS {
                        ctx.send(&comm, peer, ctl_tag, &order);
                    }
                    order
                } else {
                    let got = ctx.recv::<f64>(&comm, 0, ctl_tag);
                    [got[0], got[1]]
                };
                if order[0] == STOP {
                    break;
                }
                let traced = order[0] == TRACED;
                rec.set_on(traced);
                let mut state = job.rank_state(rank);
                let mut block = BlockOut {
                    start: Instant::now(),
                    end: Instant::now(),
                    samples: Vec::with_capacity(BLOCK),
                };
                for s in 0..BLOCK {
                    let req = o.sweeps;
                    let t = Instant::now();
                    let root = rec.open("sweep", None, req);
                    let inputs: Vec<Vec<f64>> = (0..levels)
                        .map(|e| {
                            rec.time("amg.input", root, req, || state.input(e, session.entry(e)))
                        })
                        .collect();
                    rec.time("core.start_all", root, req, || {
                        session.start_all(ctx, &inputs)
                    });
                    while session.in_flight() > 0 {
                        let e = rec.time("core.wait", root, req, || {
                            session.wait_any(ctx, &mut outputs)
                        });
                        rec.time("amg.absorb", root, req, || {
                            state.absorb(e, session.entry(e), &outputs[e])
                        });
                    }
                    rec.close(root);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    o.sweeps += 1;
                    // the first sweep of a block also builds each level's
                    // ghost index, so it is not a steady-state sample
                    if s > 0 {
                        block.samples.push(ms);
                    }
                }
                let result = state.finish();
                block.end = Instant::now();
                BlockPool::deposit(&blocks, order[1] as usize, traced, block);
                o.bad_blocks += u64::from(!layers::same_bits(&result, &reference[rank]));
            }
            o.dropped = rec.dropped();
            o.spans = rec.into_spans();
            o
        });
        let ranks = match result {
            Ok(ranks) => ranks,
            Err(e) => {
                out.count(1, 1);
                out.note(format!("segment {seg} failed: {e}"));
                return out;
            }
        };
        let ready = ranks.iter().map(|r| r.ready).max().expect("ranks");
        drv.close_at(epoch, ready);
        drv.close_at(root, ready);
        setup_s.push((ready - t0).as_secs_f64());
        out.count(1, 0);
        plan_check.check(&mut out, layers::plan_counts(batch.plans()));
        let seg_sweeps = ranks[0].sweeps;
        for r in ranks {
            out.count(r.sweeps, r.bad_blocks * BLOCK as u64);
            if r.sweeps != seg_sweeps {
                out.count(1, 1);
            }
            dropped += r.dropped;
            spans.extend(r.spans);
        }
        sweeps += seg_sweeps;
        if trace {
            resolve_parts.push(layers::resolve_parts(
                &mut drv,
                req,
                &patterns,
                &topo,
                Some(Protocol::FullNeighbor),
            ));
        }
        last_pool = Some(pool);
    }
    drop(ctl);
    let pool = last_pool.expect("a segment ran");

    let mut blocks = blocks
        .into_inner()
        .expect("ranks finished without panicking");
    let untraced_p50 = blocks.untraced.p50();
    let levels = h.n_levels();
    out.set("setup_s", median(&mut setup_s.clone()));
    blocks.untraced.report(&mut out);
    plan_check.report(&mut out);
    out.set("amg.levels", levels as f64);

    out.meta_str("fabric", fabric.name());
    out.meta_str("backend", "Protocol(FullNeighbor)");
    out.meta_num("ranks", RANKS as f64);
    out.meta_num("regions", topo.n_regions() as f64);
    out.meta_str("grid", &format!("{NX}x{NY}"));
    out.meta_num("levels", levels as f64);
    out.meta_num("sweeps_per_run", sweeps as f64);
    out.meta_num("sweep_block", BLOCK as f64);
    out.meta_str(
        "statistics",
        "per 500-sweep block: sweeps/s and sweep-time percentiles pooled over ranks; median block",
    );
    out.meta_num("setup_reps", SEGMENTS as f64);
    out.meta_str(
        "request",
        "one rank's sweep over every level; samples pooled over ranks",
    );
    layers::report_levels(&mut out, &vec![Protocol::FullNeighbor; levels]);

    if trace {
        out.set("mpisim.epoch_us", layers::empty_epoch_us(&pool, 400));
        crate::pingpongs(&mut out, &pool);
        let p = |f: fn(&layers::ResolveParts) -> f64| {
            let mut v: Vec<f64> = resolve_parts.iter().map(f).collect();
            median(&mut v)
        };
        out.set("core.plan_build_s", p(|r| r.plan_s));
        out.set("core.select_s", p(|r| r.select_s));
        out.set("core.routing_build_s", p(|r| r.routing_s));
        spans.extend(drv.into_spans());
        let trace = Trace::new(spans);
        out.set("trace.spans", trace.len() as f64);
        let mut init_all: Vec<f64> = trace
            .durations("core.init_all")
            .iter()
            .map(|&d| d as f64 / 1e3)
            .collect();
        out.set("core.init_all_us", median(&mut init_all));
        out.set("trace.dropped_spans", dropped as f64);
        crate::ledger_setup(&mut out, &trace);
        let sweep = Ledger::of(
            trace.requests("sweep", "sweep.unattributed"),
            &[
                "core.start_all",
                "core.wait",
                "amg.input",
                "amg.absorb",
                "sweep.unattributed",
            ],
        );
        if let Some(l) = sweep {
            out.set("core.start_all_us", l.part_ns("core.start_all") / 1e3);
            out.set("core.wait_us", l.part_ns("core.wait") / 1e3);
            out.set("amg.input_us", l.part_ns("amg.input") / 1e3);
            out.set("amg.absorb_us", l.part_ns("amg.absorb") / 1e3);
            out.set(
                "sweep.unattributed_us",
                l.part_ns("sweep.unattributed") / 1e3,
            );
            out.set("sweep.traced_us", l.band_ns / 1e3);
            out.note(l.render("sweep", 1e3, "us"));
        }
        crate::trace_overhead(&mut out, &mut untraced_p50.clone(), &mut blocks.traced_p50);
        crate::write_trace(&mut out, &trace);
    }
    out.set("rss_mb", peak_rss_kb() as f64 / 1024.0);
    drop(pool);
    out
}
