//! Spans the benchmark records around its calls into each layer.
//!
//! With tracing on, every set-up is a `setup` span whose children are its
//! layers (`corpus.ingest`, `core.build`, …), and every open-loop request
//! is a `request` span with a `gen.late` child (due time to submit call).
//! The traced pass derives its per-layer set-up times, the generator's
//! lateness and both layer sum-checks from these spans, and writes them
//! out as JSON lines when it ends.  With tracing off nothing is recorded
//! and those numbers are not made.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    /// Process CPU seconds spent during the span, where it was measured.
    pub cpu_s: Option<f64>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// One root span and the summed time of its children, by name.
#[derive(Debug, Default)]
pub struct Breakdown {
    pub total_s: f64,
    pub layers: BTreeMap<&'static str, (f64, f64)>,
}

impl Breakdown {
    /// Seconds spent in the children called `name` (0 if there are none).
    pub fn secs(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.0)
    }

    /// Process CPU seconds spent in the children called `name`.
    pub fn cpu_s(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.1)
    }

    /// The share of the root's time no child covers.
    pub fn unexplained_frac(&self) -> f64 {
        let covered: f64 = self.layers.values().map(|l| l.0).sum();
        (self.total_s - covered) / self.total_s
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a finished span `[start, end]`; returns its id, or `None`
    /// while tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            cpu_s: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end = Instant::now();
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent);
        out
    }

    /// Runs `f` inside a span that also records the process's CPU time.
    pub fn time_cpu<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let cpu = self.enabled.then(crate::host::process_cpu_seconds);
        let start = Instant::now();
        let out = f();
        let id = self.record(name, start, Instant::now(), parent);
        if let (Some(id), Some(cpu)) = (id, cpu) {
            self.spans[id].cpu_s = Some(crate::host::process_cpu_seconds() - cpu);
        }
        out
    }

    /// The spans called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// For every span called `root`, in order, its duration and its
    /// children's summed time by name.
    pub fn breakdown(&self, root: &str) -> Vec<Breakdown> {
        let mut out: Vec<(usize, Breakdown)> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(id, s)| {
                let b = Breakdown {
                    total_s: s.secs(),
                    ..Breakdown::default()
                };
                (id, b)
            })
            .collect();
        for span in &self.spans {
            let Some(parent) = span.parent else { continue };
            if let Some((_, b)) = out.iter_mut().find(|(id, _)| *id == parent) {
                let layer = b.layers.entry(span.name).or_default();
                layer.0 += span.secs();
                layer.1 += span.cpu_s.unwrap_or(0.0);
            }
        }
        out.into_iter().map(|(_, b)| b).collect()
    }

    /// Writes the spans as JSON lines, times in nanoseconds since the
    /// tracer was made.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name,
                ns(s.start),
                ns(s.end),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_are_kept_only_when_enabled() {
        let mut off = Tracer::new(false);
        let id = off.begin("setup", None);
        assert_eq!(id, None);
        off.time("x", id, || ());
        off.end(id);
        assert!(off.breakdown("setup").is_empty());
    }

    #[test]
    fn breakdown_sums_children_by_name() {
        let mut on = Tracer::new(true);
        for _ in 0..2 {
            let root = on.begin("setup", None);
            on.time("a", root, || std::thread::sleep(Duration::from_millis(2)));
            on.time("a", root, || std::thread::sleep(Duration::from_millis(2)));
            on.time_cpu("b", root, || ());
            on.end(root);
        }
        let other = on.begin("request", None);
        on.time("a", other, || ());
        let setups = on.breakdown("setup");
        assert_eq!(setups.len(), 2);
        for b in &setups {
            assert!(b.secs("a") >= 0.004 && b.secs("a") <= b.total_s);
            assert_eq!(b.secs("missing"), 0.0);
            assert!(b.cpu_s("b") >= 0.0);
            assert!((0.0..1.0).contains(&b.unexplained_frac()));
        }
        assert_eq!(on.named("setup").count(), 2);
    }
}
