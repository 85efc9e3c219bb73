//! Span recording for the traced run: one [`Recorder`] per client thread
//! (a per-thread buffer, no sharing), spans opened and closed around each
//! public call the client makes, aggregated into per-layer durations and
//! self times after the run, and optionally written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span: a public call (or the whole client request) with its
/// wall interval, the span that caused it and the request it served.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<u32>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Returned by [`Recorder::open`] and consumed by [`Recorder::close`].
#[must_use]
pub struct Open(Option<u32>);

/// A client thread's span buffer. Disabled recorders cost one branch per
/// call and never read the clock.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Self { on: false, epoch, spans: Vec::new(), stack: Vec::new() }
    }

    /// Starts (or stops) recording; spans already recorded are kept.
    pub fn enable(&mut self, on: bool) {
        self.on = on;
    }

    pub fn open(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = u32::try_from(self.spans.len()).expect("span buffer below 2^32 entries");
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx as usize].end_ns = end_ns;
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
        self.stack.pop();
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Every span of one name, pooled over threads and rounds.
#[derive(Default)]
pub struct Layer {
    /// Span durations (sorted once aggregation finishes).
    pub durs_ns: Vec<u64>,
    /// Σ (duration − the part covered by child spans).
    pub self_ns: u64,
}

/// Pools per-thread span buffers into per-name [`Layer`]s.
pub fn aggregate<'a>(
    threads: impl IntoIterator<Item = &'a [Span]>,
) -> BTreeMap<&'static str, Layer> {
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        for (s, child) in spans.iter().zip(child_ns) {
            let layer = out.entry(s.name).or_default();
            layer.durs_ns.push(s.dur_ns());
            layer.self_ns += s.dur_ns().saturating_sub(child);
        }
    }
    for layer in out.values_mut() {
        layer.durs_ns.sort_unstable();
    }
    out
}

/// Appends one JSON line per span to `out`. `parent` indexes the same
/// `(workload, round, thread)` buffer.
pub fn write_jsonl(
    out: &mut impl Write,
    workload: &str,
    round: usize,
    thread: usize,
    spans: &[Span],
) -> std::io::Result<()> {
    for s in spans {
        let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"round\":{round},\"thread\":{thread},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, s.req
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_disabled_records_nothing() {
        let mut rec = Recorder::new(Instant::now());
        let idle = rec.open("client.request", 0);
        rec.close(idle);
        rec.enable(true);
        let root = rec.open("client.request", 1);
        let child = rec.open("session.drain", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(child);
        rec.close(root);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let layers = aggregate([spans.as_slice()]);
        let root = &layers["client.request"];
        let drain = &layers["session.drain"];
        assert_eq!(root.self_ns + drain.self_ns, root.durs_ns[0]);
        assert!(drain.self_ns >= 2_000_000);
    }
}
