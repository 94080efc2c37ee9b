//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the scan it belongs to. Spans stay in memory while the run
//! measures and are written out once, when it ends ([`Tracer::to_json`]).
//! A span's *self time* is its duration minus the time its child spans
//! cover; children of one parent run one after another, so that is a
//! plain subtraction.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `symex` or `dataflow.indirect`.
    pub name: &'static str,
    /// The scan (image) this span belongs to.
    pub scan: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the start from the tracer's epoch.
    pub start: Duration,
    /// Offset of the end from the tracer's epoch.
    pub end: Duration,
    /// Peak net heap growth during the span, when it was measured.
    pub peak_bytes: Option<u64>,
}

impl Span {
    /// Wall time of the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    scan: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), scan: 0, spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Sets the scan id stamped on the spans opened from now on.
    pub fn set_scan(&mut self, scan: u64) {
        self.scan = scan;
    }

    /// Opens a span that encloses later ones; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            scan: self.scan,
            parent: self.open.last().copied(),
            start: self.epoch.elapsed(),
            end: Duration::ZERO,
            peak_bytes: None,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end = self.epoch.elapsed();
    }

    /// Runs one layer call inside a leaf span. With `memory`, the span
    /// also records the call's peak net heap growth.
    pub fn leaf<R>(&mut self, name: &'static str, memory: bool, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        if memory {
            crate::alloc::start();
        }
        let r = f();
        let peak = memory.then(crate::alloc::stop);
        self.close(id);
        self.spans[id].peak_bytes = peak;
        r
    }

    /// Number of spans recorded so far: a cursor for [`Tracer::tally`].
    pub fn cursor(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, by index.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// Per-name totals over the spans recorded since `from`: summed self
    /// seconds, and the largest peak heap growth in bytes.
    pub fn tally(&self, from: usize) -> BTreeMap<&'static str, (f64, u64)> {
        let own = self.self_times();
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, d) in self.spans.iter().zip(&own).skip(from) {
            let e = out.entry(s.name).or_default();
            e.0 += d.as_secs_f64();
            e.1 = e.1.max(s.peak_bytes.unwrap_or(0));
        }
        out
    }

    /// Every span as one JSON document (times in microseconds).
    pub fn to_json(&self) -> String {
        let own = self.self_times();
        let rows: Vec<String> = self
            .spans
            .iter()
            .zip(&own)
            .enumerate()
            .map(|(i, (s, d))| {
                format!(
                    "{{\"id\":{i},\"name\":\"{}\",\"scan\":{},\"parent\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{},\"peak_bytes\":{}}}",
                    s.name,
                    s.scan,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.start.as_micros(),
                    s.end.as_micros(),
                    d.as_micros(),
                    s.peak_bytes.map_or("null".to_owned(), |b| b.to_string()),
                )
            })
            .collect();
        format!("{{\"spans\":[\n{}\n]}}\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.open("scan");
        t.leaf("a", false, || std::thread::sleep(Duration::from_millis(5)));
        t.leaf("b", true, || vec![0u8; 1 << 20]);
        t.close(root);
        let own = t.self_times();
        assert_eq!(t.cursor(), 3);
        assert_eq!(t.self_times()[1], t.spans[1].duration());
        assert!(own[0] + own[1] + own[2] <= t.spans[0].duration());
        assert!(t.spans[2].peak_bytes.unwrap() >= 1 << 20);
        assert_eq!(t.spans[1].parent, Some(0));
        let tally = t.tally(0);
        assert!(tally["a"].0 >= 0.005);
    }
}
