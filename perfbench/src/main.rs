//! The repository's benchmark: one command, four workloads, every output
//! checked. `BENCHMARK.json` gates on three of them; `setup_1024ranks`
//! (the paper-scale set-up) is run by hand, because its single-threaded
//! set-up time drifts with the host's load by more than any bound the
//! gate allows.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs come from `--seed`; each workload
//! is a closed loop driven by one process and measures for `--seconds`.
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones ([`END_TO_END`]); with `--trace 1` they
//! are the per-layer ones ([`PER_LAYER`]), taken from spans recorded
//! around the calls into each layer, with a ledger per workload that
//! reconciles the median request with the layer self times and a named
//! residual. A `meta:` line before the result records host and run
//! metadata. Traced runs write their spans to
//! `perfbench/out/<workload>-seed<n>.trace.json` (Chrome trace format).

mod layers;
mod paper_setup;
mod report;
mod sweep;
mod tenants;
mod trace;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use layers::Fabric;
use report::{json_num, json_object, json_str, Outcome};
use trace::{Ledger, Trace};

/// End-to-end metrics, reported by every workload with `--trace 0`.
///
/// A request is one rank's sweep (`amg_sweep_*`), one round of 8 tenants
/// (`service_tenants`) or one set-up (`setup_1024ranks`). Throughput
/// (sweeps, tenant jobs or set-ups per second) and the tail percentiles
/// are per-layer figures instead: on a 2-vCPU host shared with other
/// machines their run-to-run spread exceeds any bound worth gating on.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("latency_ms_p50", "ms"), ("rss_mb", "MB")];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload never calls reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    // set-up ledger
    ("mpisim.pool_launch_ms", "ms"),
    ("amg.job_build_s", "s"),
    ("sparse.comm_pkgs_s", "s"),
    ("amg.patterns_s", "s"),
    ("core.resolve_s", "s"),
    ("mpisim.init_epoch_ms", "ms"),
    ("core.init_all_us", "us"),
    ("setup.unattributed_s", "s"),
    ("setup.traced_s", "s"),
    // the resolve, rebuilt from direct calls
    ("core.plan_build_s", "s"),
    ("core.select_s", "s"),
    ("core.routing_build_s", "s"),
    ("core.resolve_unattributed_s", "s"),
    // fabric probes on the workload's own pool
    ("mpisim.epoch_us", "us"),
    ("mpisim.pingpong_8B_us", "us"),
    ("mpisim.pingpong_4KB_us", "us"),
    // sweep ledger
    ("core.start_all_us", "us"),
    ("core.wait_us", "us"),
    ("amg.input_us", "us"),
    ("amg.absorb_us", "us"),
    ("sweep.unattributed_us", "us"),
    ("sweep.traced_us", "us"),
    // round ledger
    ("service.submit_us", "us"),
    ("service.run_pending_ms", "ms"),
    ("service.round_unattributed_ms", "ms"),
    ("service.round_traced_ms", "ms"),
    ("service.direct_round_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("service.rss_kb_per_job", "KB"),
    // exact counts
    ("amg.levels", "count"),
    ("core.plan.local_msgs", "count"),
    ("core.plan.global_msgs", "count"),
    ("core.plan.global_bytes", "bytes"),
    ("core.plan.max_global_msgs", "count"),
    ("core.auto.levels.StandardHypre", "count"),
    ("core.auto.levels.StandardNeighbor", "count"),
    ("core.auto.levels.PartialNeighbor", "count"),
    ("core.auto.levels.FullNeighbor", "count"),
    // end-to-end figures too noisy on a shared 2-vCPU host to gate on
    ("throughput_per_s", "1/s"),
    ("tail.latency_ms_p90", "ms"),
    ("tail.latency_ms_p99", "ms"),
    // tracing itself
    ("trace.untraced_ms_p50", "ms"),
    ("trace.traced_ms_p50", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.dropped_spans", "count"),
];

const WORKLOADS: &[&str] = &[
    "amg_sweep_thread",
    "amg_sweep_sock",
    "service_tenants",
    "setup_1024ranks",
];

/// Where runs write traces and the sock fabric's socket files.
const OUT_DIR: &str = "perfbench/out";

/// Spans written to a trace file at most.
const TRACE_FILE_SPANS: usize = 20_000;

static TRACE_FILE: OnceLock<PathBuf> = OnceLock::new();

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600] seconds"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Before any thread exists: the runtime's environment knobs stay at
    // their defaults, and the sock fabric's socket files go to a
    // directory inside the tree.
    let tmp = Path::new(OUT_DIR).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!(
            "perfbench: cannot create {}: {e} (run from the repository root)",
            tmp.display()
        );
        std::process::exit(2);
    }
    for (k, _) in std::env::vars() {
        if k.starts_with("MPISIM_") {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("TMPDIR", &tmp);
    let _ = TRACE_FILE
        .set(Path::new(OUT_DIR).join(format!("{}-seed{}.trace.json", args.workload, args.seed)));

    let t = std::time::Instant::now();
    let mut out = match args.workload.as_str() {
        "amg_sweep_thread" => sweep::run(Fabric::Thread, args.seed, args.seconds, args.trace),
        "amg_sweep_sock" => sweep::run(Fabric::Sock, args.seed, args.seconds, args.trace),
        "service_tenants" => tenants::run(args.seed, args.seconds, args.trace),
        "setup_1024ranks" => paper_setup::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload names are checked by parse_args"),
    };
    if args.trace {
        resolve_residual(&mut out);
    }
    let wall = t.elapsed().as_secs_f64();

    for line in &out.notes {
        println!("{line}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut meta: Vec<(String, String)> = vec![
        ("workload".into(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_num(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        ("commit".into(), json_str(&report::commit())),
        ("nproc".into(), nproc.to_string()),
    ];
    if let Some((_, ranks)) = out.meta.iter().find(|(k, _)| *k == "ranks") {
        if let Ok(r) = ranks.parse::<f64>() {
            meta.push(("ranks_per_core".into(), json_num(r / nproc as f64)));
        }
    }
    meta.extend(out.meta.iter().map(|(k, v)| (k.to_string(), v.clone())));
    meta.push((
        "failed_frac".into(),
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
    ));
    meta.push(("wall_s".into(), json_num(wall)));
    println!("meta: {}", json_object(&meta));

    let (wanted, default) = if args.trace {
        (PER_LAYER, Some(0.0))
    } else {
        (END_TO_END, None)
    };
    let mut correct = out.failed == 0 && out.attempted > 0;
    let metrics: Vec<(String, String)> = wanted
        .iter()
        .map(|&(name, unit)| {
            let v = out.get(name).or(default).unwrap_or_else(|| {
                // an end-to-end metric the run could not measure
                correct = false;
                eprintln!("perfbench: {name} was not measured");
                0.0
            });
            let body = format!(
                "{{\"value\": {}, \"unit\": {}}}",
                json_num(v),
                json_str(unit)
            );
            (name.to_string(), body)
        })
        .collect();
    let result = vec![
        ("correct".to_string(), correct.to_string()),
        ("attempted".to_string(), out.attempted.max(1).to_string()),
        ("failed".to_string(), out.failed.to_string()),
        ("metrics".to_string(), json_object(&metrics)),
    ];
    println!("{}", json_object(&result));
}

/// `core.resolve_unattributed_s`: the resolve minus what the direct
/// planning, selection and routing calls account for (negative when the
/// batch's fused routing sweep beats the per-level calls).
fn resolve_residual(out: &mut Outcome) {
    let Some(resolve) = out.get("core.resolve_s") else {
        return;
    };
    let parts: f64 = ["core.plan_build_s", "core.select_s", "core.routing_build_s"]
        .iter()
        .filter_map(|n| out.get(n))
        .sum();
    out.set("core.resolve_unattributed_s", resolve - parts);
}

/// The set-up ledger: the median-band set-up against the layers it calls.
pub(crate) fn ledger_setup(out: &mut Outcome, trace: &Trace) {
    let order = [
        "mpisim.pool_launch",
        "amg.job_build",
        "sparse.comm_pkgs",
        "amg.patterns",
        "core.resolve",
        "mpisim.init_epoch",
        "service.submit",
        "service.run_pending",
        "setup.unattributed",
    ];
    let Some(l) = Ledger::of(trace.requests("setup", "setup.unattributed"), &order) else {
        return;
    };
    let s = |name| l.part_ns(name) / 1e9;
    out.set("mpisim.pool_launch_ms", s("mpisim.pool_launch") * 1e3);
    out.set("amg.job_build_s", s("amg.job_build"));
    out.set("sparse.comm_pkgs_s", s("sparse.comm_pkgs"));
    out.set("amg.patterns_s", s("amg.patterns"));
    out.set("core.resolve_s", s("core.resolve"));
    out.set("mpisim.init_epoch_ms", s("mpisim.init_epoch") * 1e3);
    out.set("setup.unattributed_s", s("setup.unattributed"));
    out.set("setup.traced_s", l.band_ns / 1e9);
    out.note(l.render("setup", 1e6, "ms"));
}

/// The traced against the untraced median, both from this run: of the
/// requests themselves, or of per-block medians where the workload pools
/// its requests in blocks.
pub(crate) fn trace_overhead(out: &mut Outcome, untraced_ms: &mut [f64], traced_ms: &mut [f64]) {
    if untraced_ms.is_empty() || traced_ms.is_empty() {
        return;
    }
    let u = report::median(untraced_ms);
    let t = report::median(traced_ms);
    out.set("trace.untraced_ms_p50", u);
    out.set("trace.traced_ms_p50", t);
    out.set("trace.overhead_frac", t / u - 1.0);
    out.note(format!(
        "tracing overhead: traced median {t:.4} ms ({} values) vs untraced {u:.4} ms ({} values): {:+.1}%",
        traced_ms.len(),
        untraced_ms.len(),
        (t / u - 1.0) * 100.0
    ));
}

/// Write the run's spans (the first [`TRACE_FILE_SPANS`]) to the trace file.
pub(crate) fn write_trace(out: &mut Outcome, trace: &Trace) {
    let path = TRACE_FILE.get().expect("trace path set in main");
    match trace.write_chrome(path, TRACE_FILE_SPANS) {
        Ok(()) => out.meta_str("trace_file", &path.to_string_lossy()),
        Err(e) => out.note(format!("could not write {}: {e}", path.display())),
    }
}

/// Round trips between rank 0 and rank 2 (another region) on `pool`.
pub(crate) fn pingpongs(out: &mut Outcome, pool: &mpisim::WorldPool) {
    let small = layers::pingpong_us(pool, 2, 1, 1000, out);
    let large = layers::pingpong_us(pool, 2, 512, 1000, out);
    out.set("mpisim.pingpong_8B_us", small);
    out.set("mpisim.pingpong_4KB_us", large);
}
