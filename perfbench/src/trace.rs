//! In-memory spans recorded around calls into the workspace crates.
//!
//! A span is a named interval with an optional parent; spans of one
//! home, config or upload share a `group` id. Spans are only ever
//! recorded by the traced run and are written out once, at exit.
//!
//! A span's self time is its duration minus the part of its interval
//! that its child spans cover, minus `attributed_ns`: time inside the
//! span that wrapped host and sink callbacks already charged to another
//! layer as a counter (one span per callback would be millions of spans).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub group: u64,
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attributed_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span that has started and not yet been recorded.
pub struct Open(Span);

/// Start a span now.
pub fn begin(name: &'static str, group: u64, parent: Option<u64>) -> Open {
    Open(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        group,
        thread: THREAD.with(|t| *t),
        start_ns: now_ns(),
        end_ns: 0,
        attributed_ns: 0,
    })
}

impl Open {
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Stop the clock without recording yet, for spans whose attributed
    /// callback time is only known later.
    pub fn stop(mut self) -> Stopped {
        self.0.end_ns = now_ns();
        Stopped(self.0)
    }

    /// Stop and record.
    pub fn end(self) {
        self.stop().record(0);
    }
}

/// A span whose interval is fixed, waiting to be recorded.
pub struct Stopped(Span);

impl Stopped {
    pub fn dur_ns(&self) -> u64 {
        self.0.dur_ns()
    }

    pub fn record(mut self, attributed_ns: u64) {
        self.0.attributed_ns = attributed_ns;
        SPANS.lock().expect("span list poisoned").push(self.0);
    }
}

/// Run `f` inside a span.
pub fn span<R>(name: &'static str, group: u64, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
    let open = begin(name, group, parent);
    let out = f();
    open.end();
    out
}

/// Take every span recorded so far.
pub fn drain() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list poisoned"))
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (
                s.id,
                s.dur_ns()
                    .saturating_sub(covered)
                    .saturating_sub(s.attributed_ns),
            )
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
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

/// Self time summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += selfs[&s.id];
    }
    out
}

/// Total duration per span name.
pub fn dur_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.dur_ns();
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .collect()
}

/// Write spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"group\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"attributed_ns\":{}}}",
            s.id, parent, s.name, s.group, s.thread, s.start_ns, s.end_ns, s.attributed_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: Option<u64>, start: u64, end: u64, attributed: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            group: 0,
            thread: 0,
            start_ns: start,
            end_ns: end,
            attributed_ns: attributed,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Root 0..100 with children 10..40 and 30..50 (overlapping: the
        // union covers 40) and a grandchild inside the first child.
        let spans = vec![
            sp(1, None, 0, 100, 0),
            sp(2, Some(1), 10, 40, 0),
            sp(3, Some(1), 30, 50, 0),
            sp(4, Some(2), 15, 25, 0),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 60);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 20);
        assert_eq!(s[&4], 10);
    }

    #[test]
    fn children_outside_the_parent_are_clipped_and_attribution_subtracts() {
        let spans = vec![sp(1, None, 100, 200, 30), sp(2, Some(1), 150, 260, 0)];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 50 - 30);
        assert_eq!(s[&2], 110);
        // Self times of a tree never exceed the root's duration.
        let spans = vec![sp(1, None, 0, 10, 50)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn per_name_sums() {
        let mut a = sp(1, None, 0, 10, 0);
        a.name = "a";
        let mut b = sp(2, Some(1), 2, 5, 0);
        b.name = "b";
        let mut c = sp(3, None, 20, 24, 0);
        c.name = "a";
        let spans = vec![a, b, c];
        assert_eq!(self_by_name(&spans)["a"], 7 + 4);
        assert_eq!(dur_by_name(&spans)["a"], 14);
        assert_eq!(durations(&spans, "b"), vec![3.0]);
    }
}
