//! In-memory span recorder for the traced run.
//!
//! Spans go around the benchmark's own calls into each layer's public
//! functions: name, start, end, parent, plus named counters (engine time
//! and message totals the layer reported). Boundaries crossed once per
//! message are not spans; they are aggregate counters kept by the
//! benchmark's node programs (see `programs::Probe`). Recording is off
//! unless [`enable`] was called, and a disabled [`Span`] costs one atomic
//! load. At the end of a run [`write_jsonl`] computes each span's self time
//! (duration minus the part of it its children cover) and writes the trace.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turn span recording on or off (off by default).
pub fn enable(on: bool) {
    epoch();
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// A finished span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, u64)>,
}

impl SpanRecord {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

/// An open span; recorded when [`Span::end`] is called. Inert (id 0) while
/// recording is off.
pub struct Span {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
    counters: Vec<(&'static str, u64)>,
}

impl Span {
    /// Open a root span.
    pub fn root(name: &'static str) -> Span {
        Span::under(0, name)
    }

    /// Open a child of the span with id `parent` (which may live on another
    /// thread, e.g. a service worker running a job for a batch span).
    pub fn under(parent: u64, name: &'static str) -> Span {
        if !enabled() {
            return Span {
                id: 0,
                parent,
                name,
                start: None,
                counters: Vec::new(),
            };
        }
        Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Some(Instant::now()),
            counters: Vec::new(),
        }
    }

    /// Open a child of this span.
    pub fn child(&self, name: &'static str) -> Span {
        Span::under(self.id, name)
    }

    /// This span's id (0 when recording is off).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attach a counter; repeated keys add up.
    pub fn count(&mut self, key: &'static str, value: u64) {
        if self.start.is_some() {
            self.counters.push((key, value));
        }
    }

    /// Close and record the span.
    pub fn end(self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        let base = epoch();
        let rec = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: start.duration_since(base).as_nanos() as u64,
            end_ns: end.duration_since(base).as_nanos() as u64,
            counters: self.counters,
        };
        SPANS.lock().expect("span store poisoned").push(rec);
    }
}

/// Every span recorded so far, in end order.
pub fn spans() -> Vec<SpanRecord> {
    SPANS.lock().expect("span store poisoned").clone()
}

/// Spans named `name`.
pub fn named(spans: &[SpanRecord], name: &str) -> Vec<SpanRecord> {
    spans.iter().filter(|s| s.name == name).cloned().collect()
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Children on other threads may
/// overlap one another, hence the union.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Write the trace as JSON lines, one span per line, with self times.
pub fn write_jsonl(path: &Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        write!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, self_ns
        )?;
        for (k, v) in &s.counters {
            write!(out, ",\"{k}\":{v}")?;
        }
        writeln!(out, "}}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = [
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 40),
            rec(3, 1, 30, 50),  // overlaps 2
            rec(4, 1, 90, 120), // clipped to the parent
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30, 20, 30]);
    }
}
