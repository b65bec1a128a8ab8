//! Decision provenance: per-negotiation "explain" artifacts.
//!
//! The negotiation is a five-step decision procedure, but its normal
//! outputs — aggregate counters, causal spans, a terminal status — cannot
//! answer "why did session 4412 get offer 7 instead of offer 3, and which
//! link refused the better one?". This module carries the load-bearing
//! facts of each step in a [`DecisionLog`]:
//!
//! * which offers dominance pruning removed and the dominating pair that
//!   killed each one ([`PruneRecord`]),
//! * the score decomposition (QoS importance vs CostNet vs CostSer) for
//!   the top-k classified offers plus the chosen one ([`ScoreRow`]),
//! * every refused step-5 commit with the concrete shortfall — which
//!   server or link said no, requested vs available ([`RefusalRecord`],
//!   [`Shortfall`]),
//! * choice-period settlement ([`Settlement`]) and adaptation verdicts
//!   including the make-before-break check ([`AdaptationRecord`]).
//!
//! Collection is opt-in via [`NegotiationContext::explain`]; the disabled
//! path is a boolean check on the hot path and allocates nothing. Logs are
//! plain data with [`ToJson`]/[`FromJson`] impls, serialized as JSON lines
//! ([`ExplainArtifact`]) so a `--explain-out` artifact is diffable,
//! byte-identical across worker counts, and queryable offline by the
//! `nod_explain` CLI.
//!
//! [`NegotiationContext::explain`]: crate::negotiate::NegotiationContext::explain

use nod_cmfs::Guarantee;
use nod_obs::RetentionStats;
use nod_simcore::json::{FromJson, Json, JsonError, ToJson};
use nod_simcore::json_struct;

use crate::classify::ScoredOffer;
use crate::cost::CostModel;
use crate::money::Money;
use crate::negotiate::NegotiationStatus;
use crate::sns::StaticNegotiationStatus;

/// How many top-ranked offers get a full [`ScoreRow`] in each log (the
/// chosen offer is appended when it ranks below this).
pub const EXPLAIN_TOP_K: usize = 8;

/// The concrete resource shortfall behind one refused commit: which
/// quantity ran out, requested vs available. Stack-only (`Copy`), so
/// capturing it costs no allocation even on the refusal path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Shortfall {
    /// No quantitative shortfall (load-independent refusals).
    #[default]
    None,
    /// The client cannot decode the offer's streams concurrently.
    DecodeBudget,
    /// No route, or the path's jitter/loss/delay violate the §6 bounds.
    PathQos,
    /// Estimated startup exceeds the time profile's bound, ms.
    Startup {
        /// The estimate, ms.
        estimated_ms: u64,
        /// The bound, ms.
        limit_ms: u64,
    },
    /// The server's disk round schedule cannot absorb the stream, µs.
    Disk {
        /// Current round usage, µs.
        used_us: u64,
        /// Additional cost of the stream, µs.
        requested_us: u64,
        /// Round capacity, µs.
        capacity_us: u64,
    },
    /// The server's network interface is out of bandwidth, bits/s.
    Interface {
        /// Currently reserved, bits/s.
        used_bps: u64,
        /// Requested, bits/s.
        requested_bps: u64,
        /// Interface capacity, bits/s.
        capacity_bps: u64,
    },
    /// The server's concurrent-stream limit is full.
    StreamLimit {
        /// The configured limit.
        limit: u64,
    },
    /// The server is draining (admission paused).
    AdmissionPaused,
    /// A link on the path could not carry the stream's bandwidth.
    Link {
        /// The saturated link.
        link: u64,
        /// Requested, bits/s.
        requested_bps: u64,
        /// Still available on the link, bits/s.
        available_bps: u64,
    },
}

impl Shortfall {
    /// Hand `f` the variant name and the variant's quantities in
    /// declaration order (none for the unit variants): the one description
    /// both JSON encodings are built from.
    fn with_fields<R>(&self, f: impl FnOnce(&'static str, &[(&'static str, u64)]) -> R) -> R {
        match *self {
            Shortfall::None => f("None", &[]),
            Shortfall::DecodeBudget => f("DecodeBudget", &[]),
            Shortfall::PathQos => f("PathQos", &[]),
            Shortfall::AdmissionPaused => f("AdmissionPaused", &[]),
            Shortfall::Startup {
                estimated_ms,
                limit_ms,
            } => f(
                "Startup",
                &[("estimated_ms", estimated_ms), ("limit_ms", limit_ms)],
            ),
            Shortfall::Disk {
                used_us,
                requested_us,
                capacity_us,
            } => f(
                "Disk",
                &[
                    ("used_us", used_us),
                    ("requested_us", requested_us),
                    ("capacity_us", capacity_us),
                ],
            ),
            Shortfall::Interface {
                used_bps,
                requested_bps,
                capacity_bps,
            } => f(
                "Interface",
                &[
                    ("used_bps", used_bps),
                    ("requested_bps", requested_bps),
                    ("capacity_bps", capacity_bps),
                ],
            ),
            Shortfall::StreamLimit { limit } => f("StreamLimit", &[("limit", limit)]),
            Shortfall::Link {
                link,
                requested_bps,
                available_bps,
            } => f(
                "Link",
                &[
                    ("link", link),
                    ("requested_bps", requested_bps),
                    ("available_bps", available_bps),
                ],
            ),
        }
    }
}

// Unit variants encode as their name, the others externally tagged
// (`{"Disk":{"used_us":…,…}}`), as a `serde` derive would.
impl ToJson for Shortfall {
    fn to_json(&self) -> Json {
        self.with_fields(|tag, fields| {
            if fields.is_empty() {
                return Json::Str(tag.to_string());
            }
            let body = fields.iter().map(|&(k, v)| (k.to_string(), v.to_json()));
            Json::tagged(tag, Json::Obj(body.collect()))
        })
    }

    fn write_json(&self, out: &mut String) {
        self.with_fields(|tag, fields| {
            if fields.is_empty() {
                return tag.write_json(out);
            }
            out.push_str("{\"");
            out.push_str(tag);
            out.push_str("\":");
            for (i, &(k, v)) in fields.iter().enumerate() {
                out.push(if i == 0 { '{' } else { ',' });
                k.write_json(out);
                out.push(':');
                v.write_json(out);
            }
            out.push_str("}}");
        })
    }
}

impl FromJson for Shortfall {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        if let Json::Str(s) = v {
            return match s.as_str() {
                "None" => Ok(Shortfall::None),
                "DecodeBudget" => Ok(Shortfall::DecodeBudget),
                "PathQos" => Ok(Shortfall::PathQos),
                "AdmissionPaused" => Ok(Shortfall::AdmissionPaused),
                other => Err(JsonError(format!("unknown Shortfall variant `{other}`"))),
            };
        }
        let (tag, inner) = v.as_tagged()?;
        let get = |k: &str| -> Result<u64, JsonError> { u64::from_json(inner.field(k)?) };
        match tag {
            "Startup" => Ok(Shortfall::Startup {
                estimated_ms: get("estimated_ms")?,
                limit_ms: get("limit_ms")?,
            }),
            "Disk" => Ok(Shortfall::Disk {
                used_us: get("used_us")?,
                requested_us: get("requested_us")?,
                capacity_us: get("capacity_us")?,
            }),
            "Interface" => Ok(Shortfall::Interface {
                used_bps: get("used_bps")?,
                requested_bps: get("requested_bps")?,
                capacity_bps: get("capacity_bps")?,
            }),
            "StreamLimit" => Ok(Shortfall::StreamLimit {
                limit: get("limit")?,
            }),
            "Link" => Ok(Shortfall::Link {
                link: get("link")?,
                requested_bps: get("requested_bps")?,
                available_bps: get("available_bps")?,
            }),
            other => Err(JsonError(format!("unknown Shortfall variant `{other}`"))),
        }
    }
}

impl std::fmt::Display for Shortfall {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Shortfall::None => write!(f, "no quantitative shortfall"),
            Shortfall::DecodeBudget => write!(f, "client decode budget exceeded"),
            Shortfall::PathQos => write!(f, "path QoS out of bounds or unroutable"),
            Shortfall::AdmissionPaused => write!(f, "server draining (admission paused)"),
            Shortfall::Startup {
                estimated_ms,
                limit_ms,
            } => write!(f, "startup {estimated_ms} ms > {limit_ms} ms bound"),
            Shortfall::Disk {
                used_us,
                requested_us,
                capacity_us,
            } => write!(
                f,
                "disk round {used_us}+{requested_us} µs > {capacity_us} µs"
            ),
            Shortfall::Interface {
                used_bps,
                requested_bps,
                capacity_bps,
            } => write!(
                f,
                "interface {used_bps}+{requested_bps} bps > {capacity_bps} bps"
            ),
            Shortfall::StreamLimit { limit } => write!(f, "stream limit {limit} reached"),
            Shortfall::Link {
                link,
                requested_bps,
                available_bps,
            } => write!(
                f,
                "link {link}: requested {requested_bps} bps, {available_bps} bps available"
            ),
        }
    }
}

/// One offer removed by dominance pruning, with the pair that killed it.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneRecord {
    /// Variant ids of the pruned offer, in component order.
    pub victim_variants: Vec<u64>,
    /// Cost of the pruned offer.
    pub victim_cost: Money,
    /// Variant ids of the first dominating offer found.
    pub dominator_variants: Vec<u64>,
    /// Cost of the dominator (never more than the victim's).
    pub dominator_cost: Money,
}

json_struct!(PruneRecord {
    victim_variants,
    victim_cost,
    dominator_variants,
    dominator_cost,
});

/// `(variant id, serving server)` per document component, in component
/// order. Documents aggregate at most a handful of monomedia, so up to
/// four pairs live inline and recording a score row allocates nothing;
/// wider documents spill to the heap. Serializes exactly like a plain
/// list of pairs, and the two representations never alias: a list is
/// inline iff it fits, so derived equality is structural equality.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamList {
    /// At most four components, stored inline.
    Inline(u8, [(u64, u64); 4]),
    /// Five or more components.
    Spilled(Vec<(u64, u64)>),
}

impl StreamList {
    /// The pairs as a slice, in component order.
    pub fn as_slice(&self) -> &[(u64, u64)] {
        match self {
            StreamList::Inline(len, buf) => &buf[..*len as usize],
            StreamList::Spilled(v) => v,
        }
    }
}

impl Default for StreamList {
    fn default() -> Self {
        StreamList::Inline(0, [(0, 0); 4])
    }
}

impl std::ops::Deref for StreamList {
    type Target = [(u64, u64)];

    fn deref(&self) -> &[(u64, u64)] {
        self.as_slice()
    }
}

impl FromIterator<(u64, u64)> for StreamList {
    fn from_iter<I: IntoIterator<Item = (u64, u64)>>(iter: I) -> Self {
        let mut buf = [(0u64, 0u64); 4];
        let mut len = 0usize;
        let mut it = iter.into_iter();
        for pair in it.by_ref() {
            if len == buf.len() {
                let mut v = Vec::with_capacity(buf.len() * 2);
                v.extend_from_slice(&buf);
                v.push(pair);
                v.extend(it);
                return StreamList::Spilled(v);
            }
            buf[len] = pair;
            len += 1;
        }
        StreamList::Inline(len as u8, buf)
    }
}

impl From<Vec<(u64, u64)>> for StreamList {
    fn from(v: Vec<(u64, u64)>) -> Self {
        v.into_iter().collect()
    }
}

impl ToJson for StreamList {
    fn to_json(&self) -> Json {
        self.as_slice().to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl FromJson for StreamList {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Vec::<(u64, u64)>::from_json(v)?.into())
    }
}

/// Score decomposition of one classified offer: the terms the ordering
/// actually compared, not just the final rank.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreRow {
    /// Rank in the classified list (0 = best).
    pub rank: u64,
    /// The offer's streams. Inline ([`StreamList`]): rows are recorded on
    /// every explained attempt, so each saved allocation counts (B13
    /// bounds the overhead).
    pub streams: StreamList,
    /// Static negotiation status (DESIRABLE / ACCEPTABLE / CONSTRAINT).
    pub sns: StaticNegotiationStatus,
    /// QoS importance component (before cost subtraction).
    pub qos_importance: f64,
    /// Overall importance factor (the classification's tiebreak score).
    pub oif: f64,
    /// Σ CostNetᵢ of the offer's streams.
    pub cost_net: Money,
    /// Σ CostSerᵢ of the offer's streams.
    pub cost_ser: Money,
    /// Total document cost (CostNet + CostSer + copyright).
    pub cost_total: Money,
    /// Satisfies the worst-acceptable QoS and cost ceiling?
    pub satisfies_request: bool,
    /// Is this the offer step 5 finally reserved?
    pub chosen: bool,
}

json_struct!(ScoreRow {
    rank,
    streams,
    sns,
    qos_importance,
    oif,
    cost_net,
    cost_ser,
    cost_total,
    satisfies_request,
    chosen,
});

impl ScoreRow {
    /// Decompose one classified offer. `durations_ms` maps monomedia id →
    /// playout duration (from the document), so CostNet/CostSer can be
    /// recomputed per stream exactly as formula (1) priced them.
    pub fn build(
        rank: usize,
        scored: &ScoredOffer,
        durations_ms: &[(u64, u64)],
        cost_model: &CostModel,
        guarantee: Guarantee,
        chosen: bool,
    ) -> ScoreRow {
        let mut cost_net = Money::default();
        let mut cost_ser = Money::default();
        for v in &scored.offer.variants {
            let duration = durations_ms
                .iter()
                .find(|(m, _)| *m == v.monomedia.0)
                .map(|&(_, d)| d)
                .unwrap_or(0);
            let (net, ser) = cost_model.monomedia_cost(v, duration, guarantee);
            cost_net += net;
            cost_ser += ser;
        }
        ScoreRow {
            rank: rank as u64,
            streams: scored
                .offer
                .variants
                .iter()
                .map(|v| (v.id.0, v.server.0))
                .collect(),
            sns: scored.sns,
            qos_importance: scored.qos_importance,
            oif: scored.oif,
            cost_net,
            cost_ser,
            cost_total: scored.offer.cost,
            satisfies_request: scored.satisfies_request,
            chosen,
        }
    }
}

/// Stable refusal kind — the same labels as the `reason` dimension of
/// the `negotiation.commit.refused` counter. `Copy`, so a contended walk
/// that refuses the whole classified list records every verdict without
/// allocating.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RefusalKind {
    /// The client cannot decode the offer's streams concurrently.
    DecodeBudget,
    /// No route, or the path's QoS violates the §6 bounds.
    PathQos,
    /// Estimated startup exceeds the time profile's bound.
    Startup,
    /// The server refused admission (disk round, interface, stream
    /// limit, or draining).
    Server,
    /// A link on the path could not carry the stream.
    Network,
}

impl RefusalKind {
    /// The stable label (`decode_budget`, `path_qos`, `startup`,
    /// `server`, `network`).
    pub fn as_str(self) -> &'static str {
        match self {
            RefusalKind::DecodeBudget => "decode_budget",
            RefusalKind::PathQos => "path_qos",
            RefusalKind::Startup => "startup",
            RefusalKind::Server => "server",
            RefusalKind::Network => "network",
        }
    }
}

impl std::fmt::Display for RefusalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ToJson for RefusalKind {
    fn to_json(&self) -> Json {
        Json::Str(self.as_str().to_string())
    }

    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for RefusalKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let Json::Str(s) = v else {
            return Err(JsonError("RefusalKind expects a string".to_string()));
        };
        match s.as_str() {
            "decode_budget" => Ok(RefusalKind::DecodeBudget),
            "path_qos" => Ok(RefusalKind::PathQos),
            "startup" => Ok(RefusalKind::Startup),
            "server" => Ok(RefusalKind::Server),
            "network" => Ok(RefusalKind::Network),
            other => Err(JsonError(format!("unknown RefusalKind `{other}`"))),
        }
    }
}

/// One refused step-5 (or adaptation) commit.
#[derive(Debug, Clone, PartialEq)]
pub struct RefusalRecord {
    /// Rank of the refused offer in the classified list.
    pub rank: u64,
    /// Stable refusal kind ([`CommitFailure::kind`] as an enum).
    ///
    /// [`CommitFailure::kind`]: crate::negotiate::CommitFailure::kind
    pub kind: RefusalKind,
    /// The refusing server, when one is implicated.
    pub server: Option<u64>,
    /// The concrete shortfall.
    pub shortfall: Shortfall,
}

json_struct!(RefusalRecord {
    rank,
    kind,
    server,
    shortfall,
});

/// The per-negotiation decision log: what each paper step decided and why.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DecisionLog {
    /// Variants surviving step-2 compatibility filtering.
    pub feasible_variants: u64,
    /// System offers enumerated in step 3/4.
    pub offers_enumerated: u64,
    /// `(monomedia id, duration_ms)` of the document's components — kept
    /// so score rows can be (re)decomposed after the fact. Inline
    /// ([`StreamList`]) for the same reason score rows are.
    pub durations_ms: StreamList,
    /// Offers removed by dominance pruning, with their dominators.
    pub pruned: Vec<PruneRecord>,
    /// Score decomposition of the top-[`EXPLAIN_TOP_K`] classified offers
    /// (plus the chosen offer when it ranks below the cut).
    pub scores: Vec<ScoreRow>,
    /// Every refused commit of the step-5 walk, in attempt order.
    pub refusals: Vec<RefusalRecord>,
    /// Rank of the offer finally reserved.
    pub chosen_rank: Option<u64>,
    /// Terminal [`NegotiationStatus`] (serialized in the paper spelling,
    /// `SUCCEEDED` / `FAILEDTRYLATER` / …). `None` only on a log whose
    /// negotiation never reached a terminal status.
    ///
    /// [`NegotiationStatus`]: crate::negotiate::NegotiationStatus
    pub status: Option<NegotiationStatus>,
}

json_struct!(DecisionLog {
    feasible_variants,
    offers_enumerated,
    durations_ms,
    pruned,
    scores,
    refusals,
    chosen_rank,
    status,
});

impl DecisionLog {
    /// Record the top-k score rows of a freshly classified list.
    ///
    /// The top offers are combos over a small shared variant pool, so
    /// the same stream shows up in many rows; each distinct variant is
    /// priced once through a stack cache (B13 bounds the per-attempt
    /// overhead, and this runs on every explained attempt).
    pub fn record_scores(
        &mut self,
        ordered: &[ScoredOffer],
        cost_model: &CostModel,
        guarantee: Guarantee,
    ) {
        self.scores.clear();
        self.scores.reserve_exact(ordered.len().min(EXPLAIN_TOP_K));
        let mut cache = [(u64::MAX, Money::default(), Money::default()); 32];
        let mut cached = 0usize;
        for (rank, scored) in ordered.iter().take(EXPLAIN_TOP_K).enumerate() {
            let mut cost_net = Money::default();
            let mut cost_ser = Money::default();
            for v in &scored.offer.variants {
                let (net, ser) = match cache[..cached].iter().find(|&&(id, _, _)| id == v.id.0) {
                    Some(&(_, net, ser)) => (net, ser),
                    None => {
                        let duration = self
                            .durations_ms
                            .iter()
                            .find(|(m, _)| *m == v.monomedia.0)
                            .map(|&(_, d)| d)
                            .unwrap_or(0);
                        let (net, ser) = cost_model.monomedia_cost(v, duration, guarantee);
                        if cached < cache.len() {
                            cache[cached] = (v.id.0, net, ser);
                            cached += 1;
                        }
                        (net, ser)
                    }
                };
                cost_net += net;
                cost_ser += ser;
            }
            self.scores.push(ScoreRow {
                rank: rank as u64,
                streams: scored
                    .offer
                    .variants
                    .iter()
                    .map(|v| (v.id.0, v.server.0))
                    .collect(),
                sns: scored.sns,
                qos_importance: scored.qos_importance,
                oif: scored.oif,
                cost_net,
                cost_ser,
                cost_total: scored.offer.cost,
                satisfies_request: scored.satisfies_request,
                chosen: false,
            });
        }
    }

    /// Mark `rank` as the reserved offer, appending its row when it ranks
    /// below the top-k cut.
    pub fn mark_chosen(
        &mut self,
        rank: usize,
        scored: &ScoredOffer,
        cost_model: &CostModel,
        guarantee: Guarantee,
    ) {
        self.chosen_rank = Some(rank as u64);
        if let Some(row) = self.scores.iter_mut().find(|r| r.rank == rank as u64) {
            row.chosen = true;
        } else {
            let row = ScoreRow::build(
                rank,
                scored,
                &self.durations_ms,
                cost_model,
                guarantee,
                true,
            );
            self.scores.push(row);
        }
    }
}

/// One adaptation verdict: which alternates were tried, which committed,
/// and whether the transition held the old resources until the new ones
/// were in place (make-before-break).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationRecord {
    /// What triggered the adaptation (`server_congestion`,
    /// `network_congestion`, `user_request`).
    pub reason: String,
    /// Rank of the offer in difficulty (excluded from the re-walk).
    pub from_rank: u64,
    /// Refused alternates, in attempt order.
    pub attempts: Vec<RefusalRecord>,
    /// Rank of the alternate that committed, if any.
    pub new_rank: Option<u64>,
    /// `true` iff the current reservation was still held when the
    /// alternate committed — the make-before-break invariant. A failed
    /// adaptation also reports `true`: the session kept its resources.
    pub make_before_break: bool,
}

json_struct!(AdaptationRecord {
    reason,
    from_rank,
    attempts,
    new_rank,
    make_before_break,
});

/// One negotiation attempt of a broker-driven session (arrival or retry).
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptExplain {
    /// Virtual instant of the attempt, ms.
    pub at_ms: u64,
    /// The attempt's decision log.
    pub decisions: DecisionLog,
}

json_struct!(AttemptExplain { at_ms, decisions });

/// Choice-period settlement of an admitted session (paper step 6).
#[derive(Debug, Clone, PartialEq)]
pub struct Settlement {
    /// When the admission (resource commit) happened, ms.
    pub admitted_at_ms: u64,
    /// How long the simulated user deliberated, ms.
    pub choice_delay_ms: u64,
    /// Did the user confirm? (Always `true` for the current broker, which
    /// models acceptance; kept so decline policies stay representable.)
    pub confirmed: bool,
}

json_struct!(Settlement {
    admitted_at_ms,
    choice_delay_ms,
    confirmed,
});

/// The full provenance of one session: every attempt's decision log plus
/// settlement and adaptation history.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionExplain {
    /// Session index (spec order).
    pub session: u64,
    /// Arrival instant, ms.
    pub arrival_ms: u64,
    /// Terminal fate label (`admitted`, `admitted_degraded`, `starved`,
    /// `rejected`, `errored`).
    pub fate: String,
    /// Arrival → terminal event, ms.
    pub duration_ms: u64,
    /// Every negotiation attempt, in order.
    pub attempts: Vec<AttemptExplain>,
    /// Choice-period settlement, when one happened.
    pub settlement: Option<Settlement>,
    /// Adaptation verdicts, in order.
    pub adaptations: Vec<AdaptationRecord>,
}

json_struct!(SessionExplain {
    session,
    arrival_ms,
    fate,
    duration_ms,
    attempts,
    settlement,
    adaptations,
});

/// One reserved stream of an admitted session, for the capacity ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamRow {
    /// The serving server.
    pub server: u64,
    /// Charged network bandwidth, bits/s (0 for discrete media).
    pub bps: u64,
}

json_struct!(StreamRow { server, bps });

/// One admission in the capacity ledger: who held what, from when to
/// when. Unlike [`SessionExplain`] (tail-retained), the ledger keeps
/// **every** admitted session — it is what lets `nod_explain` rebuild
/// per-resource utilization timelines over virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Session index.
    pub session: u64,
    /// Admission (resource commit) instant, ms.
    pub admit_ms: u64,
    /// Departure instant, ms (equal to `admit_ms` when the run ended
    /// before the session departed).
    pub depart_ms: u64,
    /// The reserved streams.
    pub streams: Vec<StreamRow>,
}

json_struct!(LedgerRow {
    session,
    admit_ms,
    depart_ms,
    streams,
});

/// Artifact header: where the artifact came from and how it was sampled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplainMeta {
    /// Producing tool (`run_contended`, `run_scenario`, `run_fleet`).
    pub source: String,
    /// Workload seed.
    pub seed: u64,
    /// Total sessions driven. The worker count is deliberately not
    /// recorded: same-seed artifacts are byte-identical at every count.
    pub sessions: u64,
    /// Retention: slowest sessions kept.
    pub top_k: u64,
    /// Retention: baseline sample cadence (0 = none).
    pub sample_every: u64,
    /// Retention: baseline sample seed.
    pub sample_seed: u64,
}

json_struct!(ExplainMeta {
    source,
    seed,
    sessions,
    top_k,
    sample_every,
    sample_seed,
});

/// What a run hands back before the artifact header is known: the ledger,
/// the tail-retained session explanations (sorted by session id) and the
/// retention totals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplainData {
    /// Capacity ledger, one row per admitted session.
    pub ledger: Vec<LedgerRow>,
    /// Retained per-session explanations, ascending session id.
    pub sessions: Vec<SessionExplain>,
    /// Tail-retention totals.
    pub stats: RetentionStats,
}

/// A complete `--explain-out` artifact: meta + ledger + sessions + stats,
/// serialized as JSON lines.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExplainArtifact {
    /// Artifact header.
    pub meta: ExplainMeta,
    /// Capacity ledger (every admitted session).
    pub ledger: Vec<LedgerRow>,
    /// Tail-retained session explanations.
    pub sessions: Vec<SessionExplain>,
    /// Retention totals.
    pub stats: RetentionStats,
}

impl ExplainArtifact {
    /// Assemble an artifact from a run's data and its header.
    pub fn new(meta: ExplainMeta, data: ExplainData) -> Self {
        ExplainArtifact {
            meta,
            ledger: data.ledger,
            sessions: data.sessions,
            stats: data.stats,
        }
    }

    /// Serialize as JSON lines: one `meta` line, one `ledger` line per
    /// admission, one `session` line per retained explanation, one final
    /// `stats` line. Fully deterministic for a given artifact.
    pub fn to_jsonl(&self) -> String {
        /// Append `{"<tag>":<v>}` and a newline.
        fn line<T: ToJson>(out: &mut String, tag: &str, v: &T) {
            out.push_str("{\"");
            out.push_str(tag);
            out.push_str("\":");
            v.write_json(out);
            out.push_str("}\n");
        }
        let mut out = String::new();
        line(&mut out, "meta", &self.meta);
        for row in &self.ledger {
            line(&mut out, "ledger", row);
        }
        for s in &self.sessions {
            line(&mut out, "session", s);
        }
        line(&mut out, "stats", &self.stats);
        out
    }

    /// Parse a JSON-lines artifact produced by [`ExplainArtifact::to_jsonl`].
    pub fn from_jsonl(text: &str) -> Result<Self, JsonError> {
        let mut art = ExplainArtifact::default();
        for (n, raw) in text.lines().enumerate() {
            let raw = raw.trim();
            if raw.is_empty() {
                continue;
            }
            let v = nod_simcore::json::from_str::<Json>(raw)
                .map_err(|e| JsonError(format!("line {}: {}", n + 1, e.0)))?;
            let (tag, inner) = v.as_tagged()?;
            match tag {
                "meta" => art.meta = ExplainMeta::from_json(inner)?,
                "ledger" => art.ledger.push(LedgerRow::from_json(inner)?),
                "session" => art.sessions.push(SessionExplain::from_json(inner)?),
                "stats" => art.stats = RetentionStats::from_json(inner)?,
                other => return Err(JsonError(format!("line {}: unknown tag `{other}`", n + 1))),
            }
        }
        Ok(art)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_simcore::json::to_string;

    fn sample_artifact() -> ExplainArtifact {
        ExplainArtifact {
            meta: ExplainMeta {
                source: "test".to_string(),
                seed: 7,
                sessions: 3,
                top_k: 16,
                sample_every: 64,
                sample_seed: 0,
            },
            ledger: vec![LedgerRow {
                session: 1,
                admit_ms: 10,
                depart_ms: 4_010,
                streams: vec![StreamRow {
                    server: 0,
                    bps: 1_200_000,
                }],
            }],
            sessions: vec![SessionExplain {
                session: 1,
                arrival_ms: 10,
                fate: "admitted".to_string(),
                duration_ms: 0,
                attempts: vec![AttemptExplain {
                    at_ms: 10,
                    decisions: DecisionLog {
                        feasible_variants: 4,
                        offers_enumerated: 8,
                        durations_ms: vec![(1, 60_000)].into(),
                        pruned: vec![PruneRecord {
                            victim_variants: vec![3],
                            victim_cost: Money::from_millis(4_000),
                            dominator_variants: vec![2],
                            dominator_cost: Money::from_millis(3_000),
                        }],
                        scores: vec![],
                        refusals: vec![
                            RefusalRecord {
                                rank: 0,
                                kind: RefusalKind::Server,
                                server: Some(0),
                                shortfall: Shortfall::Disk {
                                    used_us: 900,
                                    requested_us: 200,
                                    capacity_us: 1_000,
                                },
                            },
                            RefusalRecord {
                                rank: 1,
                                kind: RefusalKind::Network,
                                server: Some(1),
                                shortfall: Shortfall::Link {
                                    link: 4,
                                    requested_bps: 1_200_000,
                                    available_bps: 300_000,
                                },
                            },
                        ],
                        chosen_rank: Some(2),
                        status: Some(NegotiationStatus::Succeeded),
                    },
                }],
                settlement: Some(Settlement {
                    admitted_at_ms: 10,
                    choice_delay_ms: 900,
                    confirmed: true,
                }),
                adaptations: vec![AdaptationRecord {
                    reason: "server_congestion".to_string(),
                    from_rank: 2,
                    attempts: vec![],
                    new_rank: Some(3),
                    make_before_break: true,
                }],
            }],
            stats: RetentionStats {
                finished: 3,
                kept_failed: 1,
                kept_head: 1,
                kept_slow: 1,
                dropped: 1,
                truncated_events: 0,
            },
        }
    }

    #[test]
    fn artifact_round_trips_through_jsonl() {
        let art = sample_artifact();
        let text = art.to_jsonl();
        let back = ExplainArtifact::from_jsonl(&text).unwrap();
        assert_eq!(art, back);
        // Serialization is deterministic.
        assert_eq!(text, back.to_jsonl());
    }

    #[test]
    fn shortfall_variants_round_trip() {
        let cases = [
            Shortfall::None,
            Shortfall::DecodeBudget,
            Shortfall::PathQos,
            Shortfall::AdmissionPaused,
            Shortfall::Startup {
                estimated_ms: 900,
                limit_ms: 500,
            },
            Shortfall::Disk {
                used_us: 1,
                requested_us: 2,
                capacity_us: 3,
            },
            Shortfall::Interface {
                used_bps: 4,
                requested_bps: 5,
                capacity_bps: 6,
            },
            Shortfall::StreamLimit { limit: 40 },
            Shortfall::Link {
                link: 2,
                requested_bps: 7,
                available_bps: 8,
            },
        ];
        for s in cases {
            let back = Shortfall::from_json(&s.to_json()).unwrap();
            assert_eq!(s, back);
            assert!(!s.to_string().is_empty());
            assert_eq!(to_string(&s), s.to_json().to_string_compact(), "{s:?}");
        }
        assert_eq!(to_string(&Shortfall::PathQos), r#""PathQos""#);
        assert_eq!(
            to_string(&cases[5]),
            r#"{"Disk":{"used_us":1,"requested_us":2,"capacity_us":3}}"#
        );
        assert_eq!(to_string(&cases[7]), r#"{"StreamLimit":{"limit":40}}"#);
    }

    /// The artifact as the tree path writes it: one `{"<tag>": …}` object
    /// per line, built as a `Json` value and then printed.
    fn tree_jsonl(art: &ExplainArtifact) -> String {
        let mut lines = vec![Json::tagged("meta", art.meta.to_json())];
        lines.extend(
            art.ledger
                .iter()
                .map(|r| Json::tagged("ledger", r.to_json())),
        );
        lines.extend(
            art.sessions
                .iter()
                .map(|s| Json::tagged("session", s.to_json())),
        );
        lines.push(Json::tagged("stats", art.stats.to_json()));
        lines.iter().map(|l| l.to_string_compact() + "\n").collect()
    }

    #[test]
    fn jsonl_writer_matches_tree_path() {
        let mut art = sample_artifact();
        art.meta.source = "quote \" tab \t é".to_string();
        let row = |rank: u64, streams: StreamList, chosen: bool| ScoreRow {
            rank,
            streams,
            sns: StaticNegotiationStatus::Constraint,
            qos_importance: f64::NAN,
            oif: -0.0,
            cost_net: Money::from_millis(-1_250),
            cost_ser: Money::from_millis(i64::MAX),
            cost_total: Money::from_millis(i64::MIN),
            satisfies_request: !chosen,
            chosen,
        };
        let decisions = &mut art.sessions[0].attempts[0].decisions;
        decisions.scores = vec![
            row(0, vec![(1, 0), (2, 1)].into(), false),
            row(9, (0..6).map(|i| (i, i * 2)).collect(), true),
        ];
        assert!(matches!(
            decisions.scores[1].streams,
            StreamList::Spilled(_)
        ));
        decisions.status = Some(NegotiationStatus::FailedWithLocalOffer);
        decisions.refusals[0].shortfall = Shortfall::AdmissionPaused;
        let mut failed = art.sessions[0].clone();
        failed.session = 2;
        failed.settlement = None;
        failed.attempts[0].decisions.status = None;
        failed.adaptations[0].attempts = failed.attempts[0].decisions.refusals.clone();
        art.sessions.push(failed);
        let text = art.to_jsonl();
        assert_eq!(text, tree_jsonl(&art));
        for (line, tag) in text
            .lines()
            .zip(["meta", "ledger", "session", "session", "stats"])
        {
            assert!(line.starts_with(&format!("{{\"{tag}\":")), "{line}");
        }
        assert_eq!(text.lines().count(), 5);
        for status in [
            NegotiationStatus::Succeeded,
            NegotiationStatus::FailedWithOffer,
            NegotiationStatus::FailedTryLater,
            NegotiationStatus::FailedWithoutOffer,
            NegotiationStatus::FailedWithLocalOffer,
        ] {
            assert_eq!(to_string(&status), format!("\"{status}\""));
            assert_eq!(to_string(&status), status.to_json().to_string_compact());
        }
        for kind in [RefusalKind::DecodeBudget, RefusalKind::Network] {
            assert_eq!(to_string(&kind), kind.to_json().to_string_compact());
        }
    }

    #[test]
    fn mark_chosen_appends_rows_past_the_cut() {
        let mut log = DecisionLog::default();
        log.scores.push(ScoreRow {
            rank: 0,
            streams: vec![(1, 0)].into(),
            sns: StaticNegotiationStatus::Desirable,
            qos_importance: 1.0,
            oif: 1.0,
            cost_net: Money::default(),
            cost_ser: Money::default(),
            cost_total: Money::default(),
            satisfies_request: true,
            chosen: false,
        });
        let scored = ScoredOffer {
            offer: crate::offer::SystemOffer {
                variants: vec![],
                cost: Money::default(),
            },
            sns: crate::sns::StaticNegotiationStatus::Acceptable,
            oif: 0.5,
            qos_importance: 0.5,
            satisfies_request: false,
        };
        let model = CostModel::era_default();
        // Chosen within the recorded rows: marked in place.
        log.mark_chosen(0, &scored, &model, Guarantee::Guaranteed);
        assert_eq!(log.scores.len(), 1);
        assert!(log.scores[0].chosen);
        // Chosen past the cut: appended.
        log.mark_chosen(11, &scored, &model, Guarantee::Guaranteed);
        assert_eq!(log.scores.len(), 2);
        assert_eq!(log.scores[1].rank, 11);
        assert!(log.scores[1].chosen);
    }
}
