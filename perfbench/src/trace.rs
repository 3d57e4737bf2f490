//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each public call it makes into the simulator or the
//! server in a span: name, start, end, parent, and a request id shared by
//! the spans of one request (one timed repeat, or one service session).
//! Spans stay in memory and are written out once, at exit. A span's layer
//! is its name up to the last dot (`core.session.step` is in
//! `core.session`), and a layer's self time is the time its spans cover
//! minus the time covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.session.step`.
    pub name: &'static str,
    /// Request id shared by every span of one request.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// Records spans while active; a disabled or paused tracer just runs the
/// wrapped calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    active: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or never records.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            active: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's origin and mode;
    /// fold it back with [`absorb`](Self::absorb).
    pub fn fork(&self) -> Tracer {
        Tracer {
            enabled: self.enabled,
            active: self.active,
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Whether spans are being recorded right now.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Pauses (`false`) or resumes recording; ignored on a disabled
    /// tracer. The traced run alternates timed repeats between the two to
    /// measure the tracing overhead.
    pub fn set_active(&mut self, active: bool) {
        self.active = self.enabled && active;
    }

    /// Runs `f` inside a span named `name` belonging to `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.active {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Appends the spans of a tracer returned by [`fork`](Self::fork).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer, in seconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(children);
            *out.entry(layer_of(s.name)).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out.push(']');
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The layer a span belongs to: its name up to the last dot.
pub fn layer_of(name: &'static str) -> &'static str {
    name.rfind('.').map_or(name, |i| &name[..i])
}
