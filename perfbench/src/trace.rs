//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end, the span that was open when it
//! began, and the request it belongs to. Spans stay in memory and are
//! written out when the run ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer function the span wraps, e.g. `runtime.run`.
    pub name: &'static str,
    /// Start time.
    pub start: u64,
    /// End time.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to (0 outside requests).
    pub request: u64,
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[must_use = "close the span with Tracer::end"]
pub struct Open(Option<usize>);

/// Per-name totals over a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per span, in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64 / 1000.0
    }
}

/// Records spans when enabled; does nothing at all when disabled, so the
/// untraced run pays one branch per call site.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Some(Instant::now()),
            ..Tracer::off()
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Stamps the spans that begin from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.origin.map_or(0, |o| o.elapsed().as_nanos() as u64)
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled() {
            return Open(None);
        }
        let start = self.now();
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request: self.request,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            let top = self.open.pop();
            assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx].end = self.now();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end - s.start;
            t.self_ns += own;
        }
        out
    }

    /// Writes every span, one tab-separated line each:
    /// `name start end parent request` (`-` for no parent).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(out);
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, parent, s.request
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}
