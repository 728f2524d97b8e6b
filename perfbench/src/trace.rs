//! Span recording around calls into the library's layers.
//!
//! Every span carries a name, start, end, parent and request id (a sweep
//! index, a job or round id, or a set-up repetition). A [`Recorder`] is
//! owned by one thread (a rank or the main thread) and keeps its spans in
//! memory; nothing is shared while the run is measured. When the run ends
//! the recorders are merged, self times are computed from the spans, and
//! a bounded Chrome trace-event file is written.
//!
//! A switched-off recorder does nothing but return `None` from
//! [`Recorder::open`], so untraced runs pay one branch per call site.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Globally unique span id: recorder id in the high half, index in the low.
pub type SpanId = u64;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    /// Nanoseconds since the run's time base.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Recorder {
    id: u64,
    base: Instant,
    on: bool,
    cap: usize,
    spans: Vec<Span>,
    /// Spans not recorded because the recorder was full.
    dropped: u64,
}

impl Recorder {
    /// A recorder for one thread. `cap` bounds the spans it keeps.
    pub fn new(id: u64, base: Instant, on: bool, cap: usize) -> Self {
        Self {
            id,
            base,
            on,
            cap,
            spans: Vec::with_capacity(if on { cap.min(1 << 16) } else { 0 }),
            dropped: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off or the recorder is full.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let id = (self.id << 32) | self.spans.len() as u64;
        let start = self.now();
        self.spans.push(Span {
            id,
            name,
            start,
            end: start,
            parent,
            req,
        });
        Some(id)
    }

    /// Close a span opened by this recorder.
    pub fn close(&mut self, id: Option<SpanId>) {
        let end = self.now();
        self.set_end(id, end);
    }

    /// Close a span at an instant measured elsewhere (e.g. when the last
    /// rank finished its part of an epoch).
    pub fn close_at(&mut self, id: Option<SpanId>, at: Instant) {
        let end = at.saturating_duration_since(self.base).as_nanos() as u64;
        self.set_end(id, end);
    }

    fn set_end(&mut self, id: Option<SpanId>, end: u64) {
        if let Some(id) = id {
            let idx = (id & 0xffff_ffff) as usize;
            self.spans[idx].end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, parent, req);
        let r = f();
        self.close(s);
        r
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Every recorder's spans, merged when the run ends.
pub struct Trace {
    spans: Vec<Span>,
    /// Indices of each span's children, by span index.
    children: Vec<Vec<usize>>,
}

impl Trace {
    pub fn new(mut spans: Vec<Span>) -> Self {
        spans.sort_by_key(|s| (s.start, s.id));
        let index: HashMap<SpanId, usize> =
            spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent.and_then(|p| index.get(&p)) {
                children[*p].push(i);
            }
        }
        Self { spans, children }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Children of `i` recorded on the same thread. A span's self time and
    /// its request's decomposition follow only these: a child on another
    /// thread (a rank's part of an epoch the main thread waits on) runs in
    /// parallel with its parent instead of inside its time.
    fn local_children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let thread = self.spans[i].id >> 32;
        self.children[i]
            .iter()
            .copied()
            .filter(move |&c| self.spans[c].id >> 32 == thread)
    }

    /// Duration of the union of `i`'s local children's intervals, clipped
    /// to `i`.
    fn covered_ns(&self, i: usize) -> u64 {
        let (lo, hi) = (self.spans[i].start, self.spans[i].end);
        let mut iv: Vec<(u64, u64)> = self
            .local_children(i)
            .map(|c| (self.spans[c].start.max(lo), self.spans[c].end.min(hi)))
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut total = 0;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            cur = match cur {
                Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    total += cb - ca;
                    Some((a, b))
                }
                None => Some((a, b)),
            };
        }
        total + cur.map_or(0, |(a, b)| b - a)
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        self.spans[i].dur_ns() - self.covered_ns(i)
    }

    /// Per-request decomposition of every span named `root`: its duration,
    /// and each same-thread descendant layer's self time summed by name,
    /// with the root's own self time under `residual`.
    pub fn requests(&self, root: &str, residual: &'static str) -> Vec<Request> {
        let mut out = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != root {
                continue;
            }
            let mut parts: HashMap<&'static str, u64> = HashMap::new();
            let mut stack: Vec<usize> = self.local_children(i).collect();
            while let Some(c) = stack.pop() {
                *parts.entry(self.spans[c].name).or_default() += self.self_ns(c);
                stack.extend(self.local_children(c));
            }
            *parts.entry(residual).or_default() += self.self_ns(i);
            out.push(Request {
                dur_ns: s.dur_ns(),
                parts,
            });
        }
        out
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Write the first `limit` spans in Chrome trace-event format.
    pub fn write_chrome(&self, path: &std::path::Path, limit: usize) -> std::io::Result<()> {
        let mut s = String::from("{\"traceEvents\":[\n");
        for (k, sp) in self.spans.iter().take(limit).enumerate() {
            if k > 0 {
                s.push_str(",\n");
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{}}}}}",
                sp.name,
                sp.id >> 32,
                sp.start as f64 / 1e3,
                sp.dur_ns() as f64 / 1e3,
                sp.id,
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.req
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

/// One request's decomposition (see [`Trace::requests`]).
pub struct Request {
    pub dur_ns: u64,
    pub parts: HashMap<&'static str, u64>,
}

/// The ledger of the median request: the requests whose durations sit in
/// the middle tenth (at least one), averaged. Its parts sum exactly to
/// its duration, which approximates the median request.
pub struct Ledger {
    pub n_requests: usize,
    pub band: usize,
    pub median_ns: f64,
    pub band_ns: f64,
    pub parts: Vec<(&'static str, f64)>,
}

impl Ledger {
    pub fn of(mut reqs: Vec<Request>, order: &[&'static str]) -> Option<Self> {
        if reqs.is_empty() {
            return None;
        }
        reqs.sort_by_key(|r| r.dur_ns);
        let n = reqs.len();
        let median_ns = reqs[n / 2].dur_ns as f64;
        let width = (n / 10).max(1);
        let lo = (n / 2).saturating_sub(width / 2).min(n - width);
        let band = &reqs[lo..lo + width];
        let mean = |f: &dyn Fn(&Request) -> u64| {
            band.iter().map(|r| f(r) as f64).sum::<f64>() / width as f64
        };
        let parts = order
            .iter()
            .map(|&name| (name, mean(&|r| r.parts.get(name).copied().unwrap_or(0))))
            .collect();
        Some(Self {
            n_requests: n,
            band: width,
            median_ns,
            band_ns: mean(&|r| r.dur_ns),
            parts,
        })
    }

    pub fn part_ns(&self, name: &str) -> f64 {
        self.parts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// One line: `<what> <band> = part + part + ... (median m, n requests)`,
    /// every figure divided by `scale` and printed in `unit`; parts that
    /// took no time are left out.
    pub fn render(&self, what: &str, scale: f64, unit: &str) -> String {
        let mut s = format!("{what} {:.3} {unit} =", self.band_ns / scale);
        let shown = self.parts.iter().filter(|(_, v)| *v > 0.0);
        for (k, (name, v)) in shown.enumerate() {
            let _ = write!(
                s,
                "{} {name} {:.3}",
                if k == 0 { "" } else { " +" },
                v / scale
            );
        }
        let sum: f64 = self.parts.iter().map(|(_, v)| v).sum();
        let _ = write!(
            s,
            " (sum {:.3}; median {:.3} {unit}; band of {} of {} requests)",
            sum / scale,
            self.median_ns / scale,
            self.band,
            self.n_requests
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Trace::new(vec![
            span(1, "root", 0, 100, None),
            span(2, "a", 10, 40, Some(1)),
            span(3, "b", 30, 60, Some(1)),
            span(4, "c", 80, 90, Some(1)),
            span(5, "d", 12, 20, Some(2)),
        ]);
        let reqs = t.requests("root", "rest");
        assert_eq!(reqs.len(), 1);
        let p = &reqs[0].parts;
        assert_eq!(p["rest"], 100 - 50 - 10);
        assert_eq!(p["a"], 30 - 8);
        assert_eq!(p["d"], 8);
        let total: u64 = p.values().sum();
        // overlapping siblings a and b count their overlap twice
        assert_eq!(total, 100 + 10);
    }

    #[test]
    fn ledger_parts_sum_to_the_band() {
        let reqs: Vec<Request> = (1..=20u64)
            .map(|d| Request {
                dur_ns: d * 10,
                parts: [("x", d * 4), ("rest", d * 6)].into_iter().collect(),
            })
            .collect();
        let l = Ledger::of(reqs, &["x", "rest"]).expect("non-empty");
        let sum: f64 = l.parts.iter().map(|(_, v)| v).sum();
        assert!((sum - l.band_ns).abs() < 1e-9);
        assert_eq!(l.band, 2);
    }
}
