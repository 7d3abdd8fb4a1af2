//! The benchmark's span recorder: one span around every call the drivers
//! make into a layer's public functions. Spans nest on a stack (the drivers
//! are single-threaded), stay in memory, and are written out when the run
//! ends. With the recorder off every call is a branch on a bool — the
//! end-to-end runs pay nothing and read no clock here.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    /// The operation this span belongs to (query / publish / get index), so
    /// the spans of one operation share an identifier; `NO_OP` for phase
    /// and set-up spans.
    pub op: u64,
}

pub const NO_OP: u64 = u64::MAX;

/// Handle returned by [`Spans::enter`]; pass it back to [`Spans::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(u32);

pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Self-time and call count of every span name.
pub type SelfTimes = BTreeMap<&'static str, (f64, u64)>;

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(0);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        SpanId(id)
    }

    #[inline]
    pub fn exit(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        let top = self.open.pop().expect("exit without enter");
        assert_eq!(top, id.0, "spans must close innermost first");
        self.spans[top as usize].end_ns = self.now_ns();
    }

    /// Run `f` under a span. The closure may not use the recorder itself;
    /// nest with `enter`/`exit` where it must.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    /// Per name: Σ (duration − time covered by child spans), and the number
    /// of spans. Because spans nest strictly, the self-times of all names
    /// sum to the root span's duration exactly.
    pub fn self_times(&self) -> SelfTimes {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = SelfTimes::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0.0, 0));
            e.0 += (s.end_ns - s.start_ns - covered) as f64 / 1e9;
            e.1 += 1;
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The trace file body: one array per span, `[name, start_ns, end_ns,
    /// parent, op]` with -1 for "none", under a `columns` legend.
    pub fn to_json(&self) -> Json {
        let rows: Vec<Json> = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::from(s.name),
                    Json::from(s.start_ns),
                    Json::from(s.end_ns),
                    Json::Num(s.parent.map_or(-1.0, f64::from)),
                    Json::Num(if s.op == NO_OP { -1.0 } else { s.op as f64 }),
                ])
            })
            .collect();
        obj([
            ("columns", Json::from(vec!["name", "start_ns", "end_ns", "parent", "op"])),
            ("spans", Json::Arr(rows)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut sp = Spans::new(true);
        let root = sp.enter("root", NO_OP);
        for i in 0..3 {
            let a = sp.enter("a", i);
            sp.span("b", i, || std::hint::black_box((0..1000u64).sum::<u64>()));
            sp.exit(a);
        }
        sp.exit(root);
        let st = sp.self_times();
        assert_eq!(st["a"].1, 3);
        assert_eq!(st["b"].1, 3);
        let total: f64 = st.values().map(|v| v.0).sum();
        let root_s = (sp.spans[0].end_ns - sp.spans[0].start_ns) as f64 / 1e9;
        assert!((total - root_s).abs() < 1e-9, "{total} vs {root_s}");
        assert_eq!(sp.spans[2].parent, Some(1));
        assert_eq!(sp.spans[2].op, 0);
    }

    #[test]
    fn off_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        let id = sp.enter("x", 1);
        assert_eq!(sp.span("y", 2, || 7), 7);
        sp.exit(id);
        assert!(sp.is_empty());
    }
}
