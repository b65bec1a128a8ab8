//! Offline analysis of trace logs: span-tree reconstruction, integrity
//! checking, critical paths, retry waterfalls, wait-time attribution, and
//! exports (text report, Chrome `trace_event` JSON).
//!
//! The input is the flat event stream a [`crate::Tracer`] drains (or its
//! JSONL serialization, via [`parse_jsonl`]). [`build_trees`] turns it
//! back into one tree per trace *and* verifies the causal invariants the
//! tracer promises — every event in exactly one trace, contiguous
//! sequence numbers, every span closed exactly once, children closing
//! before their parents, points attached to known spans. Analysis on top
//! of a validated forest is then straightforward tree walking.
//!
//! Wait-time attribution ([`attribute_wait`]) answers "where did session
//! 41's virtual time go": the session's end-to-end duration is split into
//! active negotiation work, backoff waits (further split by what caused
//! the retry — admission-queue rejection vs network rejection), the user
//! confirmation window, and unattributed gap — and the parts sum exactly
//! to the total, in integer microseconds.

use std::collections::BTreeMap;

use crate::trace::TraceEvent;

/// One reconstructed span with its children and point annotations.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name (e.g. `session`, `attempt`, `negotiate`).
    pub name: String,
    /// Span id (unique per recorder run).
    pub span: u64,
    /// Start timestamp, µs.
    pub start_us: u64,
    /// End timestamp, µs.
    pub end_us: u64,
    /// True when the span ended via drop rather than an explicit `end()`.
    pub dropped: bool,
    /// Point events recorded under this span (not under descendants).
    pub points: Vec<TraceEvent>,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Span duration in µs.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Depth-first search for the first descendant (or self) named `name`.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// All descendants (including self) named `name`, in start order.
    pub fn find_all<'a>(&'a self, name: &str, out: &mut Vec<&'a SpanNode>) {
        if self.name == name {
            out.push(self);
        }
        for c in &self.children {
            c.find_all(name, out);
        }
    }

    /// A structural fingerprint of the subtree — name, timing, points and
    /// children, but not span ids (ids depend on allocation order across
    /// the whole run, not on the session). Two same-seed runs must agree
    /// on every session's shape.
    pub fn shape(&self) -> String {
        let mut out = format!(
            "{}[{}..{}{}](",
            self.name,
            self.start_us,
            self.end_us,
            if self.dropped { ",dropped" } else { "" }
        );
        for p in &self.points {
            out.push_str(&format!("p:{}@{};", p.name, p.t_us));
        }
        for c in &self.children {
            out.push_str(&c.shape());
            out.push(';');
        }
        out.push(')');
        out
    }
}

/// All spans of one trace. Usually a single `session` root (broker runs);
/// scenario drivers that trace a whole run under one id produce several
/// roots.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The trace id (broker: session index).
    pub trace: u64,
    /// Root spans, in start order.
    pub roots: Vec<SpanNode>,
}

impl TraceTree {
    /// Structural fingerprint of the whole trace (see [`SpanNode::shape`]).
    pub fn shape(&self) -> String {
        let mut out = format!("trace {}:", self.trace);
        for r in &self.roots {
            out.push_str(&r.shape());
            out.push(';');
        }
        out
    }
}

/// Parse a JSONL trace log (as written by `--trace-out`).
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| TraceEvent::from_json_line(l).map_err(|e| format!("line {}: {e:?}", i + 1)))
        .collect()
}

/// Span state while rebuilding one trace.
struct OpenSpan {
    node: SpanNode,
    parent: u64,
    end_seq: Option<u64>,
}

/// Rebuild one tree per trace and verify the causal invariants. Errors
/// name the trace and the violated invariant.
pub fn build_trees(events: &[TraceEvent]) -> Result<Vec<TraceTree>, String> {
    let mut by_trace: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for ev in events {
        by_trace.entry(ev.trace).or_default().push(ev);
    }
    let mut out = Vec::new();
    for (trace, evs) in by_trace {
        out.push(build_one(trace, &evs)?);
    }
    Ok(out)
}

fn build_one(trace: u64, evs: &[&TraceEvent]) -> Result<TraceTree, String> {
    for (i, ev) in evs.iter().enumerate() {
        if ev.seq != i as u64 {
            return Err(format!(
                "trace {trace}: seq gap at position {i} (got {})",
                ev.seq
            ));
        }
    }
    // First pass: collect spans.
    let mut spans: BTreeMap<u64, OpenSpan> = BTreeMap::new();
    let mut root_order: Vec<u64> = Vec::new();
    let mut child_order: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for ev in evs {
        match &*ev.kind {
            "span_start" => {
                if spans.contains_key(&ev.span) {
                    return Err(format!("trace {trace}: span {} started twice", ev.span));
                }
                if ev.parent != 0 {
                    let parent = spans.get(&ev.parent).ok_or_else(|| {
                        format!(
                            "trace {trace}: span {} has unknown parent {}",
                            ev.span, ev.parent
                        )
                    })?;
                    if parent.end_seq.is_some() {
                        return Err(format!(
                            "trace {trace}: span {} starts under already-closed parent {}",
                            ev.span, ev.parent
                        ));
                    }
                    child_order.entry(ev.parent).or_default().push(ev.span);
                } else {
                    root_order.push(ev.span);
                }
                spans.insert(
                    ev.span,
                    OpenSpan {
                        node: SpanNode {
                            name: ev.name.to_string(),
                            span: ev.span,
                            start_us: ev.t_us,
                            end_us: ev.t_us,
                            dropped: false,
                            points: Vec::new(),
                            children: Vec::new(),
                        },
                        parent: ev.parent,
                        end_seq: None,
                    },
                );
            }
            "span_end" => {
                let open = spans.get_mut(&ev.span).ok_or_else(|| {
                    format!("trace {trace}: span_end for unknown span {}", ev.span)
                })?;
                if open.end_seq.is_some() {
                    return Err(format!("trace {trace}: span {} ended twice", ev.span));
                }
                if ev.t_us < open.node.start_us {
                    return Err(format!(
                        "trace {trace}: span {} ends before it starts",
                        ev.span
                    ));
                }
                open.node.end_us = ev.t_us;
                open.node.dropped = ev.detail == "dropped";
                open.end_seq = Some(ev.seq);
            }
            "point" => {
                let open = spans.get_mut(&ev.span).ok_or_else(|| {
                    format!(
                        "trace {trace}: point `{}` attached to unknown span {}",
                        ev.name, ev.span
                    )
                })?;
                if open.end_seq.is_some() {
                    return Err(format!(
                        "trace {trace}: point `{}` recorded after span {} closed",
                        ev.name, ev.span
                    ));
                }
                open.node.points.push((*ev).clone());
            }
            other => return Err(format!("trace {trace}: unknown event kind `{other}`")),
        }
    }
    // Every span must have closed, and parents must close after children.
    for (id, open) in &spans {
        let Some(end) = open.end_seq else {
            return Err(format!("trace {trace}: span {id} never closed"));
        };
        if open.parent != 0 {
            let parent = &spans[&open.parent];
            let parent_end = parent
                .end_seq
                .ok_or_else(|| format!("trace {trace}: span {} never closed", open.parent))?;
            if parent_end < end {
                return Err(format!(
                    "trace {trace}: parent {} closed before child {id}",
                    open.parent
                ));
            }
        }
    }
    // Assemble bottom-up: children attach in start order. Spans start in
    // seq order, so walking span ids in reverse start order guarantees a
    // child is complete before its parent consumes it.
    let start_order: Vec<u64> = evs
        .iter()
        .filter(|e| e.kind == "span_start")
        .map(|e| e.span)
        .collect();
    let mut done: BTreeMap<u64, SpanNode> = BTreeMap::new();
    for &id in start_order.iter().rev() {
        let open = spans.remove(&id).expect("collected above");
        let mut node = open.node;
        for child_id in child_order.remove(&id).unwrap_or_default() {
            node.children.push(
                done.remove(&child_id)
                    .expect("children start after their parent, so they were assembled first"),
            );
        }
        done.insert(id, node);
    }
    let roots = root_order
        .into_iter()
        .map(|id| done.remove(&id).expect("roots assembled"))
        .collect();
    Ok(TraceTree { trace, roots })
}

/// The critical path from `node` to its latest-ending leaf: `(name,
/// duration_us)` per hop, root first.
pub fn critical_path(node: &SpanNode) -> Vec<(String, u64)> {
    let mut path = vec![(node.name.clone(), node.duration_us())];
    let mut cur = node;
    while let Some(next) = cur.children.iter().max_by_key(|c| c.end_us) {
        path.push((next.name.clone(), next.duration_us()));
        cur = next;
    }
    path
}

/// Where a session's end-to-end virtual time went. All fields are µs and
/// sum exactly to `total_us`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WaitAttribution {
    /// End-to-end session duration.
    pub total_us: u64,
    /// Time inside negotiation attempts (submit → verdict).
    pub active_us: u64,
    /// Backoff waits not attributable to a single rejection cause.
    pub backoff_us: u64,
    /// Backoff waits caused by server admission rejection.
    pub admission_us: u64,
    /// Backoff waits caused by network reservation rejection.
    pub network_us: u64,
    /// The user confirmation (choicePeriod) window.
    pub confirmation_us: u64,
    /// Gap not covered by any child span (scheduling slack).
    pub other_us: u64,
}

impl WaitAttribution {
    /// Sum of all attributed parts (equals `total_us` by construction).
    pub fn attributed_us(&self) -> u64 {
        self.active_us
            + self.backoff_us
            + self.admission_us
            + self.network_us
            + self.confirmation_us
            + self.other_us
    }
}

/// Attribute a session root's duration to its phases. Direct children
/// are classified by name (`attempt` → active, `backoff` → by its
/// `backoff.reason{...}` point, `confirm` → confirmation, anything else →
/// active); the uncovered remainder is `other_us`.
pub fn attribute_wait(session: &SpanNode) -> WaitAttribution {
    let mut a = WaitAttribution {
        total_us: session.duration_us(),
        ..WaitAttribution::default()
    };
    for child in &session.children {
        let d = child.duration_us();
        match child.name.as_str() {
            "backoff" => {
                let reason = child
                    .points
                    .iter()
                    .find(|p| p.name.starts_with("backoff.reason{"))
                    .map(|p| &*p.name);
                match reason {
                    Some(r) if r.contains("reason=admission") => a.admission_us += d,
                    Some(r) if r.contains("reason=network") => a.network_us += d,
                    _ => a.backoff_us += d,
                }
            }
            "confirm" => a.confirmation_us += d,
            _ => a.active_us += d,
        }
    }
    let covered = a.active_us + a.backoff_us + a.admission_us + a.network_us + a.confirmation_us;
    a.other_us = a.total_us.saturating_sub(covered);
    a
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.3}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

/// Render a human-readable report over a validated forest: per-session
/// retry waterfalls with wait attribution, then a fleet summary with the
/// slowest session's critical path.
pub fn text_report(trees: &[TraceTree]) -> String {
    let mut out = String::new();
    out.push_str("=== trace report ===\n");
    let mut totals = WaitAttribution::default();
    let mut slowest: Option<(&TraceTree, &SpanNode)> = None;
    for tree in trees {
        for root in &tree.roots {
            let session = if root.name == "session" {
                root
            } else {
                match root.find("session") {
                    Some(s) => s,
                    None => root,
                }
            };
            let a = attribute_wait(session);
            let mut attempts = Vec::new();
            session.find_all("attempt", &mut attempts);
            out.push_str(&format!(
                "trace {:>3} `{}`: total {:>9}  attempts {:>2}  active {} ({:.0}%)  backoff {} adm {} net {}  confirm {}  other {}\n",
                tree.trace,
                session.name,
                fmt_us(a.total_us),
                attempts.len(),
                fmt_us(a.active_us),
                pct(a.active_us, a.total_us),
                fmt_us(a.backoff_us),
                fmt_us(a.admission_us),
                fmt_us(a.network_us),
                fmt_us(a.confirmation_us),
                fmt_us(a.other_us),
            ));
            // Retry waterfall: one line per attempt, offset from session
            // start, with the verdict points seen inside it.
            for (i, at) in attempts.iter().enumerate() {
                let verdicts: Vec<&str> = at
                    .points
                    .iter()
                    .map(|p| &*p.name)
                    .chain(
                        at.children
                            .iter()
                            .flat_map(|c| c.points.iter().map(|p| &*p.name)),
                    )
                    .collect();
                out.push_str(&format!(
                    "    attempt {:>2} @+{:>9}  {}\n",
                    i + 1,
                    fmt_us(at.start_us.saturating_sub(session.start_us)),
                    verdicts.join(" ")
                ));
            }
            totals.total_us += a.total_us;
            totals.active_us += a.active_us;
            totals.backoff_us += a.backoff_us;
            totals.admission_us += a.admission_us;
            totals.network_us += a.network_us;
            totals.confirmation_us += a.confirmation_us;
            totals.other_us += a.other_us;
            if slowest
                .as_ref()
                .map(|(_, s)| session.duration_us() > s.duration_us())
                .unwrap_or(true)
            {
                slowest = Some((tree, session));
            }
        }
    }
    out.push_str(&format!(
        "--- fleet: {} sessions, total {}  active {:.1}%  backoff {:.1}%  admission {:.1}%  network {:.1}%  confirmation {:.1}%  other {:.1}%\n",
        trees.iter().map(|t| t.roots.len()).sum::<usize>(),
        fmt_us(totals.total_us),
        pct(totals.active_us, totals.total_us),
        pct(totals.backoff_us, totals.total_us),
        pct(totals.admission_us, totals.total_us),
        pct(totals.network_us, totals.total_us),
        pct(totals.confirmation_us, totals.total_us),
        pct(totals.other_us, totals.total_us),
    ));
    if let Some((tree, session)) = slowest {
        out.push_str(&format!(
            "--- slowest: trace {} ({}); critical path: {}\n",
            tree.trace,
            fmt_us(session.duration_us()),
            critical_path(session)
                .iter()
                .map(|(n, d)| format!("{n}({})", fmt_us(*d)))
                .collect::<Vec<_>>()
                .join(" → ")
        ));
    }
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Export events as Chrome `trace_event` JSON (load in `chrome://tracing`
/// or Perfetto). Spans become complete (`"X"`) events with the trace id
/// as `tid`, points become instant (`"i"`) events.
pub fn chrome_trace_json(trees: &[TraceTree]) -> String {
    fn emit(out: &mut Vec<String>, tid: u64, node: &SpanNode) {
        out.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"cat\":\"span\"{}}}",
            json_escape(&node.name),
            node.start_us,
            node.duration_us(),
            tid,
            if node.dropped {
                ",\"args\":{\"dropped\":\"true\"}"
            } else {
                ""
            }
        ));
        for p in &node.points {
            out.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{},\"s\":\"t\",\"cat\":\"point\"}}",
                json_escape(&p.name),
                p.t_us,
                tid
            ));
        }
        for c in &node.children {
            emit(out, tid, c);
        }
    }
    let mut items = Vec::new();
    for tree in trees {
        for root in &tree.roots {
            emit(&mut items, tree.trace, root);
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use nod_simcore::json::ToJson;

    /// Drive a tracer through a two-attempt session with an admission
    /// backoff and a confirmation window.
    fn sample_events() -> Vec<TraceEvent> {
        let t = Tracer::new();
        t.resume(41);
        t.span_start(1_000, "session", 1, 0);
        t.span_start(1_000, "attempt", 2, 0);
        t.point(
            1_000,
            || "cmfs.admission{result=disk,server=s0}".to_string(),
            None,
        );
        t.span_end(1_000, "attempt", 2, 0, 0.0, false, 41);
        t.span_start(1_000, "backoff", 3, 0);
        t.point(
            1_000,
            || "backoff.reason{reason=admission}".to_string(),
            None,
        );
        t.span_end(51_000, "backoff", 3, 0, 50.0, false, 41);
        t.span_start(51_000, "attempt", 4, 0);
        t.span_end(53_000, "attempt", 4, 0, 2.0, false, 41);
        t.span_start(53_000, "confirm", 5, 0);
        t.span_end(83_000, "confirm", 5, 0, 30.0, false, 41);
        t.span_end(90_000, "session", 1, 0, 89.0, false, 41);
        t.drain()
    }

    #[test]
    fn builds_a_valid_tree() {
        let events = sample_events();
        let trees = build_trees(&events).unwrap();
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.trace, 41);
        assert_eq!(tree.roots.len(), 1);
        let session = &tree.roots[0];
        assert_eq!(session.name, "session");
        assert_eq!(
            session
                .children
                .iter()
                .map(|c| c.name.as_str())
                .collect::<Vec<_>>(),
            vec!["attempt", "backoff", "attempt", "confirm"]
        );
        assert_eq!(session.children[0].points.len(), 1);
    }

    #[test]
    fn attribution_sums_exactly() {
        let events = sample_events();
        let trees = build_trees(&events).unwrap();
        let a = attribute_wait(&trees[0].roots[0]);
        assert_eq!(a.total_us, 89_000);
        assert_eq!(a.active_us, 2_000);
        assert_eq!(a.admission_us, 50_000);
        assert_eq!(a.network_us, 0);
        assert_eq!(a.confirmation_us, 30_000);
        assert_eq!(a.other_us, 7_000);
        assert_eq!(a.attributed_us(), a.total_us);
    }

    #[test]
    fn critical_path_follows_latest_end() {
        let events = sample_events();
        let trees = build_trees(&events).unwrap();
        let path = critical_path(&trees[0].roots[0]);
        assert_eq!(path[0].0, "session");
        assert_eq!(path[1].0, "confirm");
    }

    #[test]
    fn integrity_violations_are_named() {
        let mut events = sample_events();
        // Unclosed span: drop the session's end event.
        let cut: Vec<TraceEvent> = events[..events.len() - 1].to_vec();
        let err = build_trees(&cut).unwrap_err();
        assert!(
            err.contains("seq gap") || err.contains("never closed"),
            "{err}"
        );

        // Orphan point: unknown span id.
        let mut orphan = sample_events();
        orphan[2].span = 999;
        let err = build_trees(&orphan).unwrap_err();
        assert!(err.contains("unknown span"), "{err}");

        // Seq gap.
        events[3].seq = 42;
        let err = build_trees(&events).unwrap_err();
        assert!(err.contains("seq gap"), "{err}");
    }

    #[test]
    fn shapes_ignore_span_ids() {
        let a = build_trees(&sample_events()).unwrap();
        // Same structure, shifted span ids.
        let shifted: Vec<TraceEvent> = sample_events()
            .into_iter()
            .map(|mut e| {
                if e.kind != "point" || e.span != 0 {
                    e.span += 100;
                }
                if e.parent != 0 {
                    e.parent += 100;
                }
                e
            })
            .collect();
        let b = build_trees(&shifted).unwrap();
        assert_eq!(a[0].shape(), b[0].shape());
    }

    #[test]
    fn report_and_chrome_export_smoke() {
        let trees = build_trees(&sample_events()).unwrap();
        let report = text_report(&trees);
        assert!(report.contains("trace  41"), "{report}");
        assert!(report.contains("attempts  2"), "{report}");
        assert!(report.contains("critical path"), "{report}");
        let chrome = chrome_trace_json(&trees);
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
        assert!(chrome.contains("\"tid\":41"));
    }

    #[test]
    fn jsonl_round_trip() {
        let events = sample_events();
        let mut text = String::new();
        for e in &events {
            e.write_json(&mut text);
            text.push('\n');
        }
        assert_eq!(parse_jsonl(&text).unwrap(), events);
        assert!(parse_jsonl("not json\n").is_err());
    }
}
