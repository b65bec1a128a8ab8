//! The benchmark's workloads: a fixed world per workload plus seeded
//! traffic.
//!
//! Every parameter and generator lives here rather than in the program's
//! own experiment harnesses (`MetroFleet`, `ContendedConfig`), so editing
//! those cannot change what the benchmark offers. The split is:
//!
//! - the **world** — catalog, server farm, topology, the fault drill and,
//!   on `metro`, the fixed pool of client machines — is built from the
//!   workload's own world seed, so every seed measures the same
//!   deployment;
//! - the **traffic** — the Poisson arrival schedule, document choices,
//!   per-session users on `contended`/`observed` and backoff jitter — is
//!   drawn from the `--seed` argument.
//!
//! All three are virtual-time open loops: arrivals are scheduled up front
//! and never wait on outcomes.
//!
//! A pass splits a workload's sessions into a few independent [`Fleet`]s:
//! consecutive slices of the same arrival process (same rate, same hold,
//! same world parameters), each driven on a freshly built world of its
//! own. Each fleet's drive is short, so a run times each one many times.

use nod_broker::{BrokerConfig, FaultPlan, SessionSpec};
use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::{ClientId, DocumentId, ServerId};
use nod_netsim::{Network, Topology};
use nod_obs::Recorder;
use nod_qosneg::negotiate::{NegotiationContext, StreamingMode};
use nod_qosneg::{ClassificationStrategy, CostModel, UserProfile};
use nod_simcore::{StreamRng, ZipfSampler};
use nod_workload::UserPopulation;

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Metro-scale fleet: a catalog and farm scaled with the session
    /// count, gentle popularity skew, admission-bound.
    Metro,
    /// An undersized farm under steep popularity skew: retry-heavy, the
    /// step-5 walk dominates.
    Contended,
    /// A mid-sized farm with fault windows, a choice period and every
    /// observability consumer attached.
    Observed,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Metro, Workload::Contended, Workload::Observed];

    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Metro => "metro",
            Workload::Contended => "contended",
            Workload::Observed => "observed",
        }
    }

    /// Does the workload attach the observability consumers (recorder
    /// with tracer, explain retention, SLOs, windows, journal) and
    /// serialise their artifacts?
    pub fn observed(self) -> bool {
        self == Workload::Observed
    }

    /// Independent fleets a pass of this workload is split into.
    pub fn fleets(self) -> usize {
        match self {
            Workload::Metro => 10,
            Workload::Contended => 24,
            Workload::Observed => 16,
        }
    }
}

/// A workload's parameters at one size.
struct Params {
    world_seed: u64,
    documents: usize,
    servers: usize,
    /// Extra replicas per variant (min, max).
    replicas: (usize, usize),
    clients: usize,
    access_bps: u64,
    backbone_bps: u64,
    /// Zipf exponent of article popularity.
    zipf: f64,
    /// Mean gap between arrivals, s.
    mean_gap_s: f64,
    hold_ms: u64,
    /// Round-robin over a fixed pool of `clients` machines (else every
    /// session draws its own user).
    client_pool: bool,
    fault_windows: usize,
    choice_period_ms: u64,
}

impl Params {
    fn of(workload: Workload, sessions: usize) -> Self {
        match workload {
            Workload::Metro => {
                // Arrivals spread over 30 virtual minutes, each holding
                // 60 s; ~1 article per 40 sessions (256 floor) and one
                // server per ~12 streams held concurrently.
                const SPAN_S: f64 = 30.0 * 60.0;
                const HOLD_MS: u64 = 60_000;
                let concurrent = (sessions as f64 * (HOLD_MS as f64 / 1_000.0) / SPAN_S).ceil();
                Params {
                    world_seed: 12,
                    documents: (sessions / 40).max(256),
                    servers: (concurrent as usize / 12).max(2),
                    replicas: (1, 3),
                    clients: 64,
                    access_bps: 10_000_000_000,
                    backbone_bps: 400_000_000_000,
                    zipf: 0.3,
                    mean_gap_s: SPAN_S / sessions.max(1) as f64,
                    hold_ms: HOLD_MS,
                    client_pool: true,
                    fault_windows: 0,
                    choice_period_ms: 0,
                }
            }
            Workload::Contended | Workload::Observed => {
                let contended = workload == Workload::Contended;
                Params {
                    world_seed: if contended { 9 } else { 3 },
                    documents: 16,
                    servers: if contended { 2 } else { 8 },
                    replicas: (0, 1),
                    clients: 8,
                    access_bps: 25_000_000,
                    backbone_bps: 155_000_000,
                    zipf: 0.9,
                    mean_gap_s: 60.0 / if contended { 180.0 } else { 120.0 },
                    hold_ms: if contended { 12_000 } else { 20_000 },
                    client_pool: false,
                    fault_windows: if contended { 0 } else { 4 },
                    choice_period_ms: if contended { 0 } else { 2_000 },
                }
            }
        }
    }
}

/// The fixed system state a workload runs against.
pub struct World {
    /// The metadata catalog.
    pub catalog: Catalog,
    /// The file-server farm.
    pub farm: ServerFarm,
    /// The network.
    pub network: Network,
    /// The pricing model.
    pub cost: CostModel,
    /// Fault windows over the run (empty except on `observed`).
    pub faults: FaultPlan,
    /// `metro`'s client machines and their users' profiles; empty on the
    /// workloads that draw a user per session.
    pub clients: Vec<(ClientMachine, UserProfile)>,
}

impl World {
    /// Build `fleet`'s world. The metro world scales with the session
    /// count of the whole pass; the fault drill spans the fleet's own
    /// arrivals.
    pub fn build(fleet: Fleet) -> Self {
        let p = Params::of(fleet.workload, fleet.scale);
        let sessions = fleet.sessions;
        let mut rng = StreamRng::new(p.world_seed);
        let catalog = CorpusBuilder::new(CorpusParams {
            documents: p.documents,
            servers: (0..p.servers as u64).map(ServerId).collect(),
            replicas: p.replicas,
            ..CorpusParams::default()
        })
        .build(&mut rng);
        let farm = ServerFarm::uniform(p.servers, ServerConfig::era_default());
        let network = Network::new(Topology::dumbbell(
            p.clients,
            p.servers,
            p.access_bps,
            p.backbone_bps,
        ));
        // Metro's machine pool belongs to the deployment: drawn per
        // traffic seed, the class mix of 64 users would swing the
        // per-session demand, and with it the refusal rate, by seed.
        let population = UserPopulation::era_default();
        let pool = if p.client_pool { p.clients } else { 0 };
        let clients = (0..pool)
            .map(|i| {
                let (_, profile, machine) = population.sample(&mut rng, ClientId(i as u64));
                (machine, profile)
            })
            .collect();
        // The fault drill is part of the scenario too: its windows fall
        // over the expected arrival span plus one hold.
        let faults = if p.fault_windows == 0 {
            FaultPlan::none()
        } else {
            let horizon_ms = (sessions as f64 * p.mean_gap_s * 1_000.0) as u64 + p.hold_ms;
            FaultPlan::seeded(
                &mut rng,
                &farm.ids(),
                &network.topology().link_ids(),
                horizon_ms.max(1_000),
                p.fault_windows,
            )
        };
        World {
            catalog,
            farm,
            network,
            cost: CostModel::era_default(),
            faults,
            clients,
        }
    }

    /// The negotiation context every workload uses: the paper's SNS→OIF
    /// ordering, guaranteed service, streaming step 5.
    pub fn ctx<'w>(&'w self, recorder: Option<&'w Recorder>) -> NegotiationContext<'w> {
        NegotiationContext {
            catalog: &self.catalog,
            farm: &self.farm,
            network: &self.network,
            cost_model: &self.cost,
            strategy: ClassificationStrategy::SnsThenOif,
            guarantee: Guarantee::Guaranteed,
            enumeration_cap: 500_000,
            jitter_buffer_ms: 2_000,
            prune_dominated: false,
            streaming: StreamingMode::Auto,
            recorder,
            explain: false,
        }
    }
}

/// One offered session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Index into [`Traffic::users`].
    pub user: u32,
    /// The requested article.
    pub document: DocumentId,
    /// Arrival instant, ms.
    pub arrival_ms: u64,
}

/// One of the independent fleets a pass drives.
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    pub workload: Workload,
    /// Sessions of the whole pass. They size the metro world and set
    /// every workload's arrival rate.
    pub scale: usize,
    /// Sessions this fleet offers.
    pub sessions: usize,
    /// Traffic seed.
    pub seed: u64,
}

/// What the users do: who they are, what they ask for and when, plus
/// the broker policy the run is driven under.
pub struct Traffic {
    /// Client machines and profiles.
    pub users: Vec<(ClientMachine, UserProfile)>,
    /// Sessions in arrival order.
    pub arrivals: Vec<Arrival>,
    /// How long an admitted session holds its resources, ms.
    pub hold_ms: u64,
    /// Broker policy (retry, jitter seed, choice period).
    pub broker: BrokerConfig,
}

impl Traffic {
    /// Draw `fleet`'s sessions from its seed, at the arrival rate of the
    /// whole pass.
    pub fn build(fleet: Fleet, world: &World) -> Self {
        let p = Params::of(fleet.workload, fleet.scale);
        let (seed, sessions) = (fleet.seed, fleet.sessions);
        let mut master = StreamRng::new(seed);
        let mut arrival_rng = master.split();
        let mut user_rng = master.split();
        let population = UserPopulation::era_default();
        // Precomputed zipf: per-draw zipf is O(catalog).
        let popularity = ZipfSampler::new(world.catalog.document_count(), p.zipf);

        // One user per session, unless the world has a machine pool.
        let per_session = if p.client_pool { 0 } else { sessions };
        let mut users = Vec::with_capacity(world.clients.len() + per_session);
        users.extend_from_slice(&world.clients);
        let mut arrivals = Vec::with_capacity(sessions);
        let mut at_s = 0.0;
        for n in 0..sessions {
            at_s += arrival_rng.exp(p.mean_gap_s);
            let user = if p.client_pool {
                n % users.len()
            } else {
                let client = ClientId((n % p.clients) as u64);
                let (_, profile, machine) = population.sample(&mut user_rng, client);
                users.push((machine, profile));
                users.len() - 1
            };
            arrivals.push(Arrival {
                user: user as u32,
                document: DocumentId(popularity.sample(&mut user_rng) as u64 + 1),
                arrival_ms: (at_s * 1_000.0) as u64,
            });
        }
        Traffic {
            users,
            arrivals,
            hold_ms: p.hold_ms,
            broker: BrokerConfig {
                seed: seed ^ 0x6272_6f6b,
                choice_period_ms: p.choice_period_ms,
                ..BrokerConfig::era_default()
            },
        }
    }

    /// The session specs, in arrival order.
    pub fn specs(&self) -> Vec<SessionSpec<'_>> {
        self.arrivals
            .iter()
            .map(|a| {
                let (client, profile) = &self.users[a.user as usize];
                SessionSpec {
                    client,
                    document: a.document,
                    profile,
                    arrival_ms: a.arrival_ms,
                    hold_ms: Some(self.hold_ms),
                }
            })
            .collect()
    }

    /// Distinct (client, document) pairs among the sessions of all
    /// `traffics`.
    pub fn distinct_pairs(traffics: &[&Traffic]) -> usize {
        let mut pairs: Vec<(u64, u64)> = traffics
            .iter()
            .flat_map(|t| {
                t.arrivals
                    .iter()
                    .map(|a| (t.users[a.user as usize].0.id.0, a.document.0))
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }
}
