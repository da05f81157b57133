//! The traced run's span recorder. Spans are taken from the benchmark's
//! own code, around each call it makes into a layer's public API; they
//! stay in memory and are written out when the run ends.

use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub id: usize,
    /// The call, e.g. `classifier-training` or `validate.fft`.
    pub name: String,
    /// The layer called, e.g. `core.session` or `serve.engine`.
    pub layer: String,
    /// Monotonic nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    pub workload: String,
    pub rep: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The key per-layer self time is grouped by: `layer.name`.
    pub fn key(&self) -> String {
        format!("{}.{}", self.layer, self.name)
    }
}

/// Records spans when enabled; when disabled, `span` is a plain call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Workload and repetition stamped on new spans.
    pub workload: String,
    pub rep: usize,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: String::new(),
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The most recent span of `layer`.
    pub fn last_of(&self, layer: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.layer == layer)
    }

    /// Runs `f` inside a span of `layer`/`name`. Spans opened by `f` (it
    /// receives the tracer back) become this span's children.
    pub fn span<T>(&mut self, layer: &str, name: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            layer: layer.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            workload: self.workload.clone(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// [`span`](Self::span) that also returns the call's wall seconds,
    /// measured whether or not tracing is on.
    pub fn timed<T>(
        &mut self,
        layer: &str,
        name: &str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let started = Instant::now();
        let out = self.span(layer, name, f);
        (out, started.elapsed().as_secs_f64())
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Every span's self time: its duration minus the part of its interval
/// its direct children cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Whether `span` is `root` or lies beneath it.
fn within(spans: &[Span], mut span: usize, root: usize) -> bool {
    loop {
        if span == root {
            return true;
        }
        match spans[span].parent {
            Some(parent) => span = parent,
            None => return false,
        }
    }
}

/// Self seconds per span key over the subtree under `root`, excluding the
/// root's own self time (which [`uncovered_share`] reports).
pub fn layer_self_seconds(spans: &[Span], root: usize) -> BTreeMap<String, f64> {
    let self_ns = self_times(spans);
    let mut layers = BTreeMap::new();
    for (i, span) in spans.iter().enumerate() {
        if i != root && within(spans, i, root) {
            *layers.entry(span.key()).or_insert(0.0) += self_ns[i] as f64 / 1e9;
        }
    }
    layers
}

/// The share of `root`'s wall that no child span covers: how far the
/// layer self times under it fall short of summing to its wall.
pub fn uncovered_share(spans: &[Span], root: usize) -> f64 {
    let root_ns = spans[root].duration_ns();
    if root_ns == 0 {
        return 0.0;
    }
    self_times(spans)[root] as f64 / root_ns as f64
}

/// Total seconds of every span with this layer and name.
pub fn total_seconds(spans: &[Span], layer: &str, name: &str) -> f64 {
    matching(spans, layer, name)
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Mean seconds per span with this layer and name (0 when there is none).
pub fn mean_seconds(spans: &[Span], layer: &str, name: &str) -> f64 {
    let count = matching(spans, layer, name).count();
    if count == 0 {
        0.0
    } else {
        total_seconds(spans, layer, name) / count as f64
    }
}

fn matching<'a>(
    spans: &'a [Span],
    layer: &'a str,
    name: &'a str,
) -> impl Iterator<Item = &'a Span> {
    spans
        .iter()
        .filter(move |s| s.layer == layer && s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: format!("s{id}"),
            layer: "test".to_string(),
            start_ns,
            end_ns,
            parent,
            workload: "test".to_string(),
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ⊃ a [10,40] ⊃ a1 [20,30];  root ⊃ b [50,90]
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        let layers = layer_self_seconds(&spans, 0);
        assert_eq!(layers.len(), 3, "the root is not its own layer: {layers:?}");
        let covered: f64 = layers.values().sum();
        assert!((covered - 70e-9).abs() < 1e-15);
        assert!((uncovered_share(&spans, 0) - 0.3).abs() < 1e-12);
        // A subtree reconciles on its own.
        assert_eq!(layer_self_seconds(&spans, 1).len(), 1);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 95, 120),
        ];
        // Covered: [10,70] and [95,100] → 65 of 100.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn tracer_links_nested_spans_and_stays_empty_when_off() {
        let mut t = Tracer::new(true);
        t.rep = 3;
        let (value, secs) = t.timed("outer", "a", |t| {
            t.span("inner", "b", |_| ());
            t.span("inner", "c", |t| t.span("leaf", "d", |_| 7))
        });
        assert_eq!(value, 7);
        assert!(secs >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        assert_eq!(spans[3].key(), "leaf.d");
        assert_eq!(mean_seconds(spans, "nope", "x"), 0.0);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", "a", |t| t.span("inner", "b", |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
