//! In-memory span recorder and process counters, read from outside the
//! library crates.
//!
//! A span records a name, its start and end (ns since the recorder was
//! created) and the index of the span that was open when it started. Spans
//! only ever open and close on the main thread, so one stack is enough.
//! When tracing is off, [`Tracer::span`] runs its closure without reading
//! the clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Per-name aggregate of the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Duration of every span with this name, in seconds, in record order.
    pub durations: Vec<f64>,
    /// Σ (duration − time covered by direct children), in seconds.
    pub self_secs: f64,
}

pub struct Tracer {
    origin: Instant,
    enabled: Cell<bool>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: Cell::new(false),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name` (a plain call when tracing is
    /// off).
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled.get() {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::stats_since`]).
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Top-level spans (no parent) recorded since `mark`, in seconds.
    pub fn top_level_secs_since(&self, mark: usize) -> f64 {
        self.spans.borrow()[mark..]
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::secs)
            .sum()
    }

    /// Aggregates every span recorded since `mark` by name.
    pub fn stats_since(&self, mark: usize) -> BTreeMap<String, SpanStats> {
        let spans = self.spans.borrow();
        let mut child_secs = vec![0.0f64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_secs[parent] += span.secs();
            }
        }
        let mut stats: BTreeMap<String, SpanStats> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate().skip(mark) {
            let entry = stats.entry(span.name.clone()).or_default();
            entry.durations.push(span.secs());
            entry.self_secs += span.secs() - child_secs[i];
        }
        stats
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// User and system CPU of this process so far, in seconds, from
/// `/proc/self/stat` (clock ticks at the kernel's fixed 100 Hz user rate).
/// Threads that have exited are included.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user: f64,
    pub system: f64,
}

impl CpuTimes {
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Self {
            user: ticks(11) / 100.0,
            system: ticks(12) / 100.0,
        }
    }

    pub fn total(&self) -> f64 {
        self.user + self.system
    }

    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user: self.user - earlier.user,
            system: self.system - earlier.system,
        }
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time and CPU of one measured stretch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stopwatch {
    pub wall: f64,
    pub cpu: CpuTimes,
}

/// Times `f`, returning its result with its wall and CPU time.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Stopwatch) {
    let cpu0 = CpuTimes::now();
    let t0 = Instant::now();
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(&cpu0);
    (out, Stopwatch { wall, cpu })
}
