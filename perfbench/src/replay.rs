//! Replay an outcome log through the public negotiation calls and time
//! each layer.
//!
//! The broker's drive loop makes the same calls on every transition:
//! each attempt runs [`prepare`] (negotiation steps 1–4) and, when offers
//! exist, [`commit_prepared`] (step 5); a departure calls
//! [`SessionReservation::release`]; a fault edge calls
//! [`FaultPlan::apply_state_at`]. Replaying the log in order against a
//! pristine world repeats exactly that work outside the drive loop, so
//! each call can be timed on its own. The replayed status of every
//! attempt must equal the logged outcome.
//!
//! A drive with observability consumers negotiates with a recorder
//! attached and decision provenance on; its replay does the same (see
//! [`replay`]'s `hooks`), so the hook cost inside the negotiation calls is
//! timed with them.

use std::time::Instant;

use nod_broker::{BrokerConfig, CapacitySnapshot, OutcomeEvent, OutcomeKind, SessionSpec};
use nod_obs::Recorder;
use nod_qosneg::negotiate::{commit_prepared, prepare, CommitFailure, NegotiationStatus, Prepared};
use nod_qosneg::{QosError, SessionReservation};

use crate::workload::World;

/// One recorded span. Spans of one session share its `session` id;
/// `parent` is the enclosing span's `id` (0 for a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// 1-based span id.
    pub id: u32,
    /// Enclosing span id, 0 for a root span.
    pub parent: u32,
    /// Session index, `None` for fault edges.
    pub session: Option<u32>,
    /// `attempt`, `prepare`, `commit`, `release` or `fault`.
    pub name: &'static str,
    /// Start, ns since the replay began.
    pub start_ns: u64,
    /// End, ns since the replay began.
    pub end_ns: u64,
}

/// Step-5 refusals by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Refusals {
    /// CMFS admission refused a stream.
    pub server: u64,
    /// A path violated the jitter/loss/delay bounds.
    pub path_qos: u64,
    /// A link lacked bandwidth.
    pub network: u64,
    /// Decode budget or startup bound.
    pub other: u64,
}

impl Refusals {
    fn count(&mut self, failures: &[(usize, CommitFailure)]) {
        for (_, f) in failures {
            match f {
                CommitFailure::Server { .. } => self.server += 1,
                CommitFailure::PathQos { .. } => self.path_qos += 1,
                CommitFailure::Network { .. } => self.network += 1,
                CommitFailure::DecodeBudget | CommitFailure::Startup { .. } => self.other += 1,
            }
        }
    }
}

/// What a replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Wall time of each attempt (prepare plus commit), ns.
    pub attempt_ns: Vec<u64>,
    /// Wall time of each `prepare` call, ns.
    pub prepare_ns: Vec<u64>,
    /// Wall time of each `commit_prepared` call, ns.
    pub commit_ns: Vec<u64>,
    /// `release` calls and their total wall time, ns.
    pub release_calls: u64,
    pub release_ns: u64,
    /// `apply_state_at` calls, and the total wall time of the fault
    /// layer (those calls plus the one `edges_ms` a drive makes), ns.
    pub fault_calls: u64,
    pub fault_ns: u64,
    /// Prepares of a session that had already been prepared (retries).
    pub repeat_prepares: u64,
    /// Offers enumerated by steps 1–4, summed over prepares.
    pub offers_enumerated: u64,
    /// Offers whose reservation step 5 attempted.
    pub reservation_attempts: u64,
    /// Commits that reserved an offer.
    pub reserved: u64,
    /// Refused commits by kind.
    pub refused: Refusals,
    /// Attempts whose replayed status differs from the log.
    pub mismatches: u64,
    /// The first few mismatches, described.
    pub mismatch_notes: Vec<String>,
    /// Streams still held after the replay drained (must be 0).
    pub leaked_streams: usize,
    /// Recorded spans (empty unless requested).
    pub spans: Vec<Span>,
}

impl Replay {
    /// Total busy time of the replayed layers, ns.
    pub fn busy_ns(&self) -> u64 {
        self.prepare_ns.iter().sum::<u64>()
            + self.commit_ns.iter().sum::<u64>()
            + self.release_ns
            + self.fault_ns
    }

    /// Add `next`'s measurements after this replay's, as if the two
    /// logs were one: its sessions are numbered from `session_offset`,
    /// its span ids follow this replay's, and its span times follow the
    /// last span recorded so far.
    pub fn append(&mut self, next: Replay, session_offset: u32) {
        let id_offset = self.spans.len() as u32;
        let time_offset = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        self.spans.extend(next.spans.into_iter().map(|s| Span {
            id: s.id + id_offset,
            parent: if s.parent == 0 {
                0
            } else {
                s.parent + id_offset
            },
            session: s.session.map(|i| i + session_offset),
            start_ns: s.start_ns + time_offset,
            end_ns: s.end_ns + time_offset,
            ..s
        }));
        self.attempt_ns.extend(next.attempt_ns);
        self.prepare_ns.extend(next.prepare_ns);
        self.commit_ns.extend(next.commit_ns);
        self.release_calls += next.release_calls;
        self.release_ns += next.release_ns;
        self.fault_calls += next.fault_calls;
        self.fault_ns += next.fault_ns;
        self.repeat_prepares += next.repeat_prepares;
        self.offers_enumerated += next.offers_enumerated;
        self.reservation_attempts += next.reservation_attempts;
        self.reserved += next.reserved;
        self.refused.server += next.refused.server;
        self.refused.path_qos += next.refused.path_qos;
        self.refused.network += next.refused.network;
        self.refused.other += next.refused.other;
        self.mismatches += next.mismatches;
        for note in next.mismatch_notes {
            if self.mismatch_notes.len() < 8 {
                self.mismatch_notes.push(note);
            }
        }
        self.leaked_streams += next.leaked_streams;
    }

    fn mismatch(&mut self, note: String) {
        self.mismatches += 1;
        if self.mismatch_notes.len() < 8 {
            self.mismatch_notes.push(note);
        }
    }
}

/// How an attempt ended, as far as the log can tell.
enum Replayed {
    Status {
        status: NegotiationStatus,
        /// Could waiting help (the broker's retry rule)?
        transient: bool,
    },
    Errored(String),
}

/// Does the logged outcome of attempt number `attempt` agree with what
/// the replay produced?
fn agrees(logged: &OutcomeKind, replayed: &Replayed, attempt: u32, config: &BrokerConfig) -> bool {
    match replayed {
        Replayed::Errored(e) => matches!(logged, OutcomeKind::Errored { error } if error == e),
        Replayed::Status { status, transient } => match status {
            NegotiationStatus::Succeeded => {
                *logged
                    == OutcomeKind::Admitted {
                        degraded: false,
                        attempt,
                    }
            }
            NegotiationStatus::FailedWithOffer if config.accept_degraded => {
                *logged
                    == OutcomeKind::Admitted {
                        degraded: true,
                        attempt,
                    }
            }
            NegotiationStatus::FailedTryLater if *transient => match logged {
                OutcomeKind::RetryScheduled { attempt: a, .. } => *a == attempt,
                OutcomeKind::Starved { attempts } => *attempts == attempt,
                _ => false,
            },
            status => *logged == OutcomeKind::Rejected { status: *status },
        },
    }
}

fn is_attempt(kind: &OutcomeKind) -> bool {
    matches!(
        kind,
        OutcomeKind::Admitted { .. }
            | OutcomeKind::RetryScheduled { .. }
            | OutcomeKind::Starved { .. }
            | OutcomeKind::Rejected { .. }
            | OutcomeKind::Errored { .. }
    )
}

/// Replay `events` — the outcome log of a drive over `specs` under
/// `config` — against `world`, which must be pristine (freshly built,
/// nothing reserved).
///
/// With `hooks` set, negotiation runs as it does in a drive with
/// consumers: that recorder (already attached to `world`'s farm and
/// network) on the context, decision provenance on, and the recorder's
/// clock set to each event's virtual time. With `record_spans` every
/// call is also kept as a [`Span`].
pub fn replay(
    world: &World,
    specs: &[SessionSpec<'_>],
    config: &BrokerConfig,
    events: &[OutcomeEvent],
    hooks: Option<&Recorder>,
    record_spans: bool,
) -> Replay {
    let mut ctx = world.ctx(hooks);
    ctx.explain = hooks.is_some();
    let faults = &world.faults;
    let before = CapacitySnapshot::capture(&world.farm, &world.network);
    let mut out = Replay::default();
    let mut attempts = vec![0u32; specs.len()];
    let mut held: Vec<Option<SessionReservation>> = vec![None; specs.len()];
    let origin = Instant::now();
    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    let push = |out: &mut Replay, parent: u32, session, name, start, end| {
        if !record_spans {
            return 0;
        }
        let id = out.spans.len() as u32 + 1;
        out.spans.push(Span {
            id,
            parent,
            session,
            name,
            start_ns: start,
            end_ns: end,
        });
        id
    };

    let t0 = Instant::now();
    let edges = faults.edges_ms();
    out.fault_ns += t0.elapsed().as_nanos() as u64;
    std::hint::black_box(edges);

    for ev in events {
        let i = ev.session;
        if let Some(rec) = hooks {
            rec.set_sim_time_us(ev.at_ms.saturating_mul(1_000));
        }
        if is_attempt(&ev.kind) {
            let spec = &specs[i];
            if attempts[i] > 0 {
                out.repeat_prepares += 1;
            }
            attempts[i] += 1;
            let t0 = Instant::now();
            let prepared = prepare(&ctx, spec.client, spec.document, spec.profile);
            let t1 = Instant::now();
            let mut reservation = None;
            let mut commit_end = None;
            let replayed = match prepared {
                Err(e) => Replayed::Errored(QosError::from(e).to_string()),
                Ok(Prepared::Early(early)) => {
                    out.offers_enumerated += early.trace.offers_enumerated as u64;
                    Replayed::Status {
                        status: early.status,
                        transient: false,
                    }
                }
                Ok(Prepared::Offers(ordered, trace, decisions)) => {
                    out.offers_enumerated += trace.offers_enumerated as u64;
                    let outcome =
                        commit_prepared(&ctx, spec.client, spec.profile, ordered, trace, decisions);
                    commit_end = Some(Instant::now());
                    out.reservation_attempts += outcome.trace.reservation_attempts as u64;
                    out.refused.count(&outcome.commit_failures);
                    let transient = outcome.commit_failures.is_empty()
                        || outcome.commit_failures.iter().any(|(_, f)| f.transient());
                    reservation = outcome.reservation;
                    if reservation.is_some() {
                        out.reserved += 1;
                    }
                    Replayed::Status {
                        status: outcome.status,
                        transient,
                    }
                }
            };
            let t2 = commit_end.unwrap_or(t1);
            out.prepare_ns.push((t1 - t0).as_nanos() as u64);
            if commit_end.is_some() {
                out.commit_ns.push((t2 - t1).as_nanos() as u64);
            }
            out.attempt_ns.push((t2 - t0).as_nanos() as u64);
            let session = Some(i as u32);
            let attempt = push(&mut out, 0, session, "attempt", ns(t0), ns(t2));
            push(&mut out, attempt, session, "prepare", ns(t0), ns(t1));
            if commit_end.is_some() {
                push(&mut out, attempt, session, "commit", ns(t1), ns(t2));
            }

            if !agrees(&ev.kind, &replayed, attempts[i], config) {
                let got = match &replayed {
                    Replayed::Errored(e) => format!("error `{e}`"),
                    Replayed::Status { status, transient } => {
                        format!("{status} (transient: {transient})")
                    }
                };
                out.mismatch(format!(
                    "session {i} attempt {} at {} ms: log has {:?}, replay produced {got}",
                    attempts[i], ev.at_ms, ev.kind
                ));
            }
            // Keep what the log says is held; anything else goes back.
            if let Some(res) = reservation {
                if matches!(ev.kind, OutcomeKind::Admitted { .. }) {
                    held[i] = Some(res);
                } else {
                    res.release(&world.farm, &world.network);
                }
            }
        } else {
            match ev.kind {
                OutcomeKind::Departed => match held[i].take() {
                    Some(res) => {
                        let t0 = Instant::now();
                        res.release(&world.farm, &world.network);
                        let t1 = Instant::now();
                        out.release_calls += 1;
                        out.release_ns += (t1 - t0).as_nanos() as u64;
                        push(&mut out, 0, Some(i as u32), "release", ns(t0), ns(t1));
                    }
                    None => out.mismatch(format!(
                        "session {i} departed at {} ms holding nothing",
                        ev.at_ms
                    )),
                },
                OutcomeKind::FaultEdge => {
                    let t0 = Instant::now();
                    faults.apply_state_at(&world.farm, &world.network, ev.at_ms);
                    let t1 = Instant::now();
                    out.fault_calls += 1;
                    out.fault_ns += (t1 - t0).as_nanos() as u64;
                    push(&mut out, 0, None, "fault", ns(t0), ns(t1));
                }
                // Confirmation only starts the hold; it calls no layer.
                _ => {}
            }
        }
    }
    for (i, res) in held.into_iter().enumerate() {
        if let Some(res) = res {
            out.mismatch(format!("session {i} was admitted but never departed"));
            res.release(&world.farm, &world.network);
        }
    }
    let after = CapacitySnapshot::capture(&world.farm, &world.network);
    out.leaked_streams = before.leaked_streams(&after);
    out
}
