//! Client-side spans: what one request looked like from outside, the
//! self-time arithmetic over spans and ladder rungs, and the trace file.
//!
//! Spans are recorded around the calls into the product, never inside it;
//! times are nanoseconds since the run's epoch.

use std::io::Write;

/// One request as its load-generator thread saw it. The root span
/// `request` runs from `due` to `verified`; its children are `slot_wait`
/// (`due → start`), `connect` (`start → connected`, reconnecting clients
/// only), `call` (`connected → replied`: the one public call) and
/// `verify` (`replied → verified`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Record {
    /// Request number: the input is `id % 256`, a keyed call's key is `id`.
    pub id: u64,
    pub thread: u32,
    /// The reply arrived and matched the oracle.
    pub ok: bool,
    /// When the request should have been sent. Open loop: the schedule.
    /// Closed loop: the moment the thread was free to send it.
    pub due: u64,
    /// When the thread was free to take the request.
    pub free: u64,
    pub start: u64,
    pub connected: u64,
    pub replied: u64,
    pub verified: u64,
}

impl Record {
    /// Client-observed latency: from `due`, so an open-loop request that
    /// waited behind a stalled one is charged that wait.
    pub fn latency_ns(&self) -> u64 {
        self.replied - self.due
    }

    /// How long the request waited for a free caller.
    pub fn slot_wait_ns(&self) -> u64 {
        self.start - self.due
    }

    /// How late the generator itself ran: the part of the wait that is not
    /// the system's doing (the thread was free and the request due).
    pub fn lateness_ns(&self) -> u64 {
        self.start - self.due.max(self.free)
    }

    /// The root span and its children, for the trace file and self time.
    pub fn spans(&self) -> (Span, Vec<Span>) {
        let span = |name, start, end| Span { name, start, end };
        let mut children = vec![span("slot_wait", self.due, self.start)];
        if self.connected > self.start {
            children.push(span("connect", self.start, self.connected));
        }
        children.push(span("call", self.connected, self.replied));
        children.push(span("verify", self.replied, self.verified));
        (span("request", self.due, self.verified), children)
    }
}

/// A named interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// A span's self time: its duration minus the part of it its children
/// cover. Children may overlap each other or hang over the parent's edges;
/// covered time is counted once and only inside the parent.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.end - parent.start) - covered
}

/// A ladder rung's self time: its time minus the times of the rungs
/// directly below it. Reported as measured: a small negative value means
/// the difference is inside the noise of the two.
pub fn rung_self(rung: f64, below: &[f64]) -> f64 {
    rung - below.iter().sum::<f64>()
}

/// Writes the trace file: a header (with the per-layer metrics) and one line per
/// request `[id, thread, ok, [name, start_ns, end_ns]...]`, root first.
pub fn write_trace(
    path: &std::path::Path,
    header: &crate::json::Json,
    records: &[Record],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"header\": {header},")?;
    writeln!(
        out,
        "\"span_format\": \"[id, thread, ok, [name, start_ns, end_ns]...], root span first\","
    )?;
    writeln!(out, "\"requests\": [")?;
    for (i, r) in records.iter().enumerate() {
        let (root, children) = r.spans();
        write!(out, "[{}, {}, {}", r.id, r.thread, r.ok)?;
        for s in std::iter::once(&root).chain(&children) {
            write!(out, ", [\"{}\", {}, {}]", s.name, s.start, s.end)?;
        }
        writeln!(out, "]{}", if i + 1 < records.len() { "," } else { "" })?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span {
            name: "s",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let parent = span(100, 200);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(&parent, &[span(110, 120), span(150, 180)]), 60);
        // Overlapping children cover 110..140 once, in any order.
        assert_eq!(self_time_ns(&parent, &[span(120, 140), span(110, 130)]), 70);
        // A child nested in another adds nothing.
        assert_eq!(self_time_ns(&parent, &[span(110, 190), span(120, 130)]), 20);
        // Coverage outside the parent does not count.
        assert_eq!(self_time_ns(&parent, &[span(50, 110), span(190, 300)]), 80);
        assert_eq!(self_time_ns(&parent, &[span(0, 1000)]), 0);
        assert_eq!(self_time_ns(&parent, &[span(10, 20), span(300, 400)]), 100);
    }

    #[test]
    fn a_request_is_covered_by_its_children() {
        let r = Record {
            id: 7,
            thread: 1,
            ok: true,
            due: 1_000,
            free: 400,
            start: 1_250,
            connected: 1_900,
            replied: 4_000,
            verified: 4_100,
        };
        assert_eq!(r.latency_ns(), 3_000);
        assert_eq!(r.slot_wait_ns(), 250);
        assert_eq!(r.lateness_ns(), 250); // free before due: all generator
        let (root, children) = r.spans();
        let names: Vec<_> = children.iter().map(|c| c.name).collect();
        assert_eq!(names, ["slot_wait", "connect", "call", "verify"]);
        assert_eq!(self_time_ns(&root, &children), 0);

        // Busy until after the due time: the wait is the system's, and
        // only the tail after `free` is the generator's lateness.
        let busy = Record {
            free: 1_200,
            connected: 1_250,
            ..r
        };
        assert_eq!(busy.slot_wait_ns(), 250);
        assert_eq!(busy.lateness_ns(), 50);
        assert_eq!(busy.spans().1.len(), 3); // no connect span
    }

    #[test]
    fn rung_self_is_the_rung_minus_the_rungs_below() {
        assert_eq!(rung_self(0.5, &[0.125]), 0.375);
        assert_eq!(rung_self(2.0, &[0.5, 0.25, 0.25]), 1.0);
        assert_eq!(rung_self(0.25, &[]), 0.25);
        assert!(rung_self(0.1, &[0.125]) < 0.0); // noise is not clamped
    }
}
