//! Statistics, process probes and the result/metadata output.

use std::fmt::Write as _;

/// Nearest-rank percentile `q` in [0, 1] of `v` (sorted in place).
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 0.5)
}

/// Least-squares slope of `ys` against `xs`.
pub fn slope(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    if xs.len() < 2 {
        return 0.0;
    }
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let sxy: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

/// A closed loop's statistics taken per chunk of requests (a block of
/// sweeps, a run of rounds) and reported as the median chunk, so a
/// stretch of host noise inside a run moves the result less.
#[derive(Default)]
pub struct Chunks {
    rate: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
    p99: Vec<f64>,
    samples: usize,
}

impl Chunks {
    /// One chunk: its request latencies in ms, the work items it completed
    /// and the wall time it took.
    pub fn push(&mut self, mut latencies_ms: Vec<f64>, work: f64, secs: f64) {
        self.samples += latencies_ms.len();
        self.rate.push(work / secs);
        self.p50.push(percentile(&mut latencies_ms, 0.5));
        self.p90.push(percentile(&mut latencies_ms, 0.9));
        self.p99.push(percentile(&mut latencies_ms, 0.99));
    }

    /// Each chunk's median latency.
    pub fn p50(&self) -> Vec<f64> {
        self.p50.clone()
    }

    pub fn report(&mut self, out: &mut Outcome) {
        if self.rate.is_empty() {
            return;
        }
        out.set("throughput_per_s", median(&mut self.rate));
        out.set("latency_ms_p50", median(&mut self.p50));
        out.set("tail.latency_ms_p90", median(&mut self.p90));
        out.set("tail.latency_ms_p99", median(&mut self.p99));
        out.meta_num("chunks", self.rate.len() as f64);
        out.meta_num("latency_samples", self.samples as f64);
    }
}

/// A `/proc/self/status` field in kB (0 where the field is unavailable).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Resident set size now, in kB.
pub fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// Peak resident set size of the process so far, in kB.
pub fn peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// splitmix64: one well-mixed word per input, so every input the run
/// derives from its seed is reproducible.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The commit the run was built from, read from `.git` when the tree is a
/// checkout with one, else `unknown`.
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric the workload measured, by name.
    pub values: Vec<(&'static str, f64)>,
    /// Run metadata: key and JSON value text.
    pub meta: Vec<(&'static str, String)>,
    /// Human-readable lines (ledgers, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    pub fn meta_str(&mut self, key: &'static str, v: &str) {
        self.meta.push((key, json_str(v)));
    }

    pub fn meta_num(&mut self, key: &'static str, v: f64) {
        self.meta.push((key, json_num(v)));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count `n` more operations, `bad` of them failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }
}

pub fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a JSON number");
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// `{"k": v, ...}` from pre-rendered values.
pub fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}
