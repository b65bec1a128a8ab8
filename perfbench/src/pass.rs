//! The two passes a benchmark process runs.
//!
//! A pass drives a workload as a few independent fleets (see
//! [`crate::workload::Fleet`]), one after the other.
//!
//! - [`plain`]: set up and drive every fleet through `Broker::drive` with
//!   one worker (plus the artifact export the workload requests), reading
//!   the process's peak RSS after the first, then replay each fleet's
//!   outcome log against
//!   a pristine world timing each negotiation attempt. Tracing is off.
//!   [`plain_run`] repeats it for the measuring period.
//! - [`traced`]: per fleet, drive the workload, drive the same specs
//!   again with no consumers attached, then replay the log recording a
//!   span around every call into a layer; fold the spans into the
//!   per-layer table.
//!
//! On `observed` the replay's world carries the same consumers as the
//! drive's, so its negotiation calls run the enabled hooks.
//!
//! Both return the checks they ran as a list of problems; an empty list
//! means every check passed.

use std::time::Instant;

use nod_broker::{Broker, BrokerReport, FleetSpec, Journal, JournalConfig};
use nod_obs::{default_fleet_slos, to_prometheus_text, Recorder, RetentionPolicy, Tracer};
use nod_qosneg::explain::{ExplainArtifact, ExplainMeta};

use crate::replay::{replay, Replay, Span};
use crate::stats::{combine_digests, log_digest, percentile};
use crate::workload::{Fleet, Traffic, Workload, World};

/// Fleet-window cadence on `observed`, ms.
const WINDOW_MS: u64 = 5_000;

/// Set-up rounds per drive (see [`drive`]).
const SETUP_ROUNDS: usize = 3;

/// What one pass is asked to run.
#[derive(Debug, Clone, Copy)]
pub struct PassSpec {
    /// The traffic mix.
    pub workload: Workload,
    /// The traffic seed.
    pub seed: u64,
    /// Sessions offered, over all fleets.
    pub sessions: usize,
    /// Independent fleets the sessions are split into.
    pub fleets: usize,
}

impl PassSpec {
    /// A pass of `workload` split into its usual number of fleets.
    pub fn new(workload: Workload, seed: u64, sessions: usize) -> Self {
        PassSpec {
            workload,
            seed,
            sessions,
            fleets: workload.fleets(),
        }
    }

    /// The fleets, in driving order: the sessions split as evenly as
    /// possible, fleet `i` seeded with `seed · 256 + i`.
    pub fn fleet_list(&self) -> Vec<Fleet> {
        let n = self.fleets.clamp(1, self.sessions.max(1)).min(256);
        (0..n)
            .map(|i| Fleet {
                workload: self.workload,
                scale: self.sessions,
                sessions: self.sessions / n + usize::from(i < self.sessions % n),
                seed: self.seed.wrapping_mul(256).wrapping_add(i as u64),
            })
            .collect()
    }
}

/// Set-up wall times, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// Catalog, farm and topology.
    pub world_s: f64,
    /// Users, arrival schedule and fault plan.
    pub schedule_s: f64,
    /// Everything up to a ready broker: the two above plus consumers and
    /// `Broker::new`.
    pub total_s: f64,
}

impl Setup {
    /// The per-part median of `rounds`.
    fn median(rounds: &[Setup]) -> Setup {
        let med = |f: fn(&Setup) -> f64| {
            let mut v: Vec<f64> = rounds.iter().map(f).collect();
            v.sort_unstable_by(f64::total_cmp);
            v[v.len() / 2]
        };
        Setup {
            world_s: med(|s| s.world_s),
            schedule_s: med(|s| s.schedule_s),
            total_s: med(|s| s.total_s),
        }
    }
}

/// Artifact serialisation inside the measured section: wall time (s)
/// and size (bytes) of each. Every step is timed on every workload; a
/// workload without consumers has nothing to serialise.
#[derive(Debug, Clone, Copy, Default)]
pub struct Export {
    pub trace_s: f64,
    pub prom_s: f64,
    pub windows_s: f64,
    pub explain_s: f64,
    pub trace_bytes: u64,
    pub explain_bytes: u64,
    /// Bytes the in-memory journal held at the end of the drive.
    pub journal_bytes: u64,
}

impl Export {
    /// Total serialisation time, s.
    pub fn total_s(&self) -> f64 {
        self.trace_s + self.prom_s + self.windows_s + self.explain_s
    }

    fn add(&mut self, o: &Export) {
        self.trace_s += o.trace_s;
        self.prom_s += o.prom_s;
        self.windows_s += o.windows_s;
        self.explain_s += o.explain_s;
        self.trace_bytes += o.trace_bytes;
        self.explain_bytes += o.explain_bytes;
        self.journal_bytes += o.journal_bytes;
    }
}

/// One drive of a fleet.
pub struct Drive {
    /// Every set-up round before the drive.
    pub setup_rounds: Vec<Setup>,
    /// `Broker::drive` wall time, s.
    pub drive_s: f64,
    pub export: Export,
    pub report: BrokerReport,
    pub traffic: Traffic,
}

/// The observability consumers `observed` attaches.
struct Consumers {
    recorder: Recorder,
    tracer: Tracer,
    journal: Journal,
    policy: RetentionPolicy,
}

/// A recorder carrying a tail-sampling tracer, attached to `world`'s
/// farm and network.
fn attach_recorder(world: &World) -> (Recorder, Tracer) {
    let recorder = Recorder::new();
    let tracer = Tracer::with_sampling(RetentionPolicy::default());
    recorder.set_tracer(tracer.clone());
    world.farm.set_recorder(&recorder);
    world.network.set_recorder(recorder.clone());
    (recorder, tracer)
}

/// Build the fleet's world and traffic, then drive every session to a
/// terminal fate. With `consumers` set (and only on a workload that asks
/// for them) every observability consumer is attached and its artifact
/// serialised after the drive.
pub fn drive(fleet: Fleet, consumers: bool) -> Drive {
    // Set-up is short next to the drive, so it is repeated; the last
    // round's state is driven.
    let mut rounds = Vec::with_capacity(SETUP_ROUNDS);
    for round in 1..=SETUP_ROUNDS {
        let t0 = Instant::now();
        let world = World::build(fleet);
        let t1 = Instant::now();
        let traffic = Traffic::build(fleet, &world);
        let specs = traffic.specs();
        let t2 = Instant::now();
        let consumers = (consumers && fleet.workload.observed()).then(|| {
            let (recorder, tracer) = attach_recorder(&world);
            Consumers {
                recorder,
                tracer,
                journal: Journal::in_memory(JournalConfig::default()),
                policy: RetentionPolicy::default(),
            }
        });
        let broker = Broker::new(
            world.ctx(consumers.as_ref().map(|c| &c.recorder)),
            traffic.broker,
        );
        let mut spec = FleetSpec::new(&specs).workers(1).faults(&world.faults);
        if let Some(c) = &consumers {
            spec = spec
                .slos(default_fleet_slos())
                .explain(c.policy)
                .windows(WINDOW_MS)
                .journal(&c.journal);
        }
        let t3 = Instant::now();
        rounds.push(Setup {
            world_s: (t1 - t0).as_secs_f64(),
            schedule_s: (t2 - t1).as_secs_f64(),
            total_s: (t3 - t0).as_secs_f64(),
        });
        if round < SETUP_ROUNDS {
            continue;
        }

        let t = Instant::now();
        let mut report = broker.drive(&spec);
        let drive_s = t.elapsed().as_secs_f64();

        let mut export = Export::default();
        let c = consumers.as_ref();
        let t = Instant::now();
        let trace = c.map(|c| c.tracer.to_jsonl());
        export.trace_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let prom = c.map(|c| to_prometheus_text(&c.recorder.snapshot()));
        export.prom_s = t.elapsed().as_secs_f64();
        std::hint::black_box(prom);
        let t = Instant::now();
        let windows: String = report
            .windows
            .iter()
            .map(|w| w.to_prometheus_text())
            .collect();
        export.windows_s = t.elapsed().as_secs_f64();
        std::hint::black_box(windows);
        let t = Instant::now();
        let explain = report.explains.take().map(|data| {
            let policy = c.map_or_else(RetentionPolicy::default, |c| c.policy);
            ExplainArtifact::new(
                ExplainMeta {
                    source: "perfbench".to_string(),
                    seed: fleet.seed,
                    sessions: fleet.sessions as u64,
                    top_k: policy.top_k as u64,
                    sample_every: policy.sample_every,
                    sample_seed: policy.seed,
                },
                data,
            )
            .to_jsonl()
        });
        export.explain_s = t.elapsed().as_secs_f64();
        let len = |s: &Option<String>| s.as_ref().map_or(0, |s| s.len() as u64);
        export.trace_bytes = len(&trace);
        export.explain_bytes = len(&explain);
        export.journal_bytes = c.map_or(0, |c| c.journal.stats().bytes as u64);
        drop(spec);
        drop(specs);
        return Drive {
            setup_rounds: rounds,
            drive_s,
            export,
            report,
            traffic,
        };
    }
    unreachable!("the last set-up round drives")
}

/// Checks every drive must pass, as problem descriptions.
fn check_drive(label: &str, fleet: Fleet, report: &BrokerReport, problems: &mut Vec<String>) {
    if report.leaked_streams != 0 {
        problems.push(format!("{label}: {} leaked streams", report.leaked_streams));
    }
    let terminal = report.admitted + report.starved + report.rejected + report.errored;
    if report.results.len() != fleet.sessions || terminal != fleet.sessions {
        problems.push(format!(
            "{label}: {} results and {terminal} terminal fates for {} sessions",
            report.results.len(),
            fleet.sessions
        ));
    }
    // Every session ends in exactly one terminal outcome event (an
    // admission counts once, whether or not a confirmation follows).
    let mut ends = vec![0u32; fleet.sessions];
    for ev in &report.events {
        use nod_broker::OutcomeKind as K;
        if matches!(
            ev.kind,
            K::Admitted { .. } | K::Starved { .. } | K::Rejected { .. } | K::Errored { .. }
        ) {
            ends[ev.session] += 1;
        }
    }
    let unterminated = ends.iter().filter(|&&n| n != 1).count();
    if unterminated != 0 {
        problems.push(format!(
            "{label}: {unterminated} sessions without exactly one terminal outcome"
        ));
    }
}

fn check_replay(label: &str, rp: &Replay, problems: &mut Vec<String>) {
    if rp.mismatches != 0 {
        problems.push(format!("{label}: replay: {} mismatches", rp.mismatches));
        problems.extend(
            rp.mismatch_notes
                .iter()
                .map(|n| format!("{label}: replay: {n}")),
        );
    }
    if rp.leaked_streams != 0 {
        problems.push(format!(
            "{label}: replay: {} leaked streams",
            rp.leaked_streams
        ));
    }
}

/// Simulated outcomes, summed over a pass's fleets.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcomes {
    pub admitted: usize,
    pub degraded: usize,
    pub starved: usize,
    pub rejected: usize,
    pub errored: usize,
    pub retries: u64,
}

impl Outcomes {
    fn add(&mut self, r: &BrokerReport) {
        self.admitted += r.admitted;
        self.degraded += r.degraded;
        self.starved += r.starved;
        self.rejected += r.rejected;
        self.errored += r.errored;
        self.retries += r.retries;
    }

    /// Sessions that ended starved, rejected or errored.
    pub fn failed(&self) -> usize {
        self.starved + self.rejected + self.errored
    }
}

/// The traffic census of one pass and its replay: properties of the
/// offered load that a later claim may need to cite.
#[derive(Debug, Clone, Copy, Default)]
pub struct Census {
    pub attempts: u64,
    /// Attempts that were retries, as a share of all attempts.
    pub retry_share: f64,
    /// Refused commits per attempt, by kind.
    pub refused_per_attempt: [f64; 4],
    /// Distinct (client, document) pairs over all fleets.
    pub distinct_pairs: usize,
    /// The largest fleet's peak of live sessions.
    pub peak_live_sessions: usize,
    /// Outcome-log events over all fleets.
    pub log_len: usize,
}

fn census(drives: &[Drive], rp: &Replay) -> Census {
    let attempts = rp.prepare_ns.len() as u64;
    let per = |n: u64| n as f64 / attempts.max(1) as f64;
    let r = rp.refused;
    let traffics: Vec<&Traffic> = drives.iter().map(|d| &d.traffic).collect();
    Census {
        attempts,
        retry_share: per(rp.repeat_prepares),
        refused_per_attempt: [per(r.server), per(r.path_qos), per(r.network), per(r.other)],
        distinct_pairs: Traffic::distinct_pairs(&traffics),
        peak_live_sessions: drives
            .iter()
            .map(|d| d.report.peak_live_sessions)
            .max()
            .unwrap_or(0),
        log_len: drives.iter().map(|d| d.report.events.len()).sum(),
    }
}

/// Replay each fleet's outcome log against a freshly built world, adding
/// the replays' checks to `problems`, and fold the replays into one. On a
/// workload with consumers each world gets a recorder and tracer, as the
/// drive's did.
fn replay_all(
    fleets: &[Fleet],
    drives: &[Drive],
    record_spans: bool,
    problems: &mut Vec<String>,
) -> Replay {
    let mut all = Replay::default();
    let mut offset = 0;
    for (i, (&fleet, drive)) in fleets.iter().zip(drives).enumerate() {
        let world = World::build(fleet);
        let hooks = fleet.workload.observed().then(|| attach_recorder(&world));
        let specs = drive.traffic.specs();
        let rp = replay(
            &world,
            &specs,
            &drive.traffic.broker,
            &drive.report.events,
            hooks.as_ref().map(|(recorder, _)| recorder),
            record_spans,
        );
        check_replay(&format!("fleet {i}"), &rp, problems);
        all.append(rp, offset);
        offset += fleet.sessions as u32;
    }
    all
}

fn pass_digest(drives: &[Drive]) -> u64 {
    let digests: Vec<u64> = drives
        .iter()
        .map(|d| log_digest(&d.report.events))
        .collect();
    combine_digests(&digests)
}

/// What the plain pass measured.
pub struct Plain {
    /// Every set-up round of every fleet.
    pub setup_rounds: Vec<Setup>,
    /// Each fleet's measured section (drive plus export), s.
    pub measured_s: Vec<f64>,
    /// Wall time of each attempt, fleet by fleet in outcome-log order,
    /// ns. Empty when the pass skipped its replay.
    pub attempt_ns: Vec<u64>,
    pub outcomes: Outcomes,
    pub digest: u64,
    pub census: Census,
    pub problems: Vec<String>,
}

/// The process's peak resident set size (`VmHWM`), MB. `None` where
/// `/proc` is unavailable.
fn read_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The plain pass (see the module docs).
pub fn plain(spec: PassSpec) -> Plain {
    plain_pass(spec, true)
}

/// The plain pass, with or without its replays. Without them the pass
/// has no attempt times and its census counts no attempts.
fn plain_pass(spec: PassSpec, with_replay: bool) -> Plain {
    let fleets = spec.fleet_list();
    let mut problems = Vec::new();
    let drives: Vec<Drive> = fleets
        .iter()
        .enumerate()
        .map(|(i, &fleet)| {
            let d = drive(fleet, true);
            check_drive(&format!("fleet {i} drive"), fleet, &d.report, &mut problems);
            d
        })
        .collect();
    let rp = if with_replay {
        replay_all(&fleets, &drives, false, &mut problems)
    } else {
        Replay::default()
    };
    let mut outcomes = Outcomes::default();
    drives.iter().for_each(|d| outcomes.add(&d.report));
    Plain {
        setup_rounds: drives.iter().flat_map(|d| d.setup_rounds.clone()).collect(),
        measured_s: drives
            .iter()
            .map(|d| d.drive_s + d.export.total_s())
            .collect(),
        digest: pass_digest(&drives),
        census: census(&drives, &rp),
        attempt_ns: rp.attempt_ns,
        outcomes,
        problems,
    }
}

/// The plain pass repeated in one process.
pub struct PlainRun {
    /// The process's peak RSS after driving the whole workload once as a
    /// single fleet, before any pass, MB.
    pub peak_rss_mb: f64,
    pub first: Plain,
    /// Passes made, the first included.
    pub passes: usize,
    /// Every set-up round of every pass (`Setup::total_s`), s.
    pub setup_s: Vec<f64>,
    /// Each fleet's fastest measured section over all passes, s.
    pub best_measured_s: Vec<f64>,
    /// Each attempt's fastest wall time over all replays, sorted, ns.
    pub best_attempt_ns: Vec<u64>,
    /// The checks of every pass.
    pub problems: Vec<String>,
}

/// Call it first in a fresh process. It drives the whole workload once
/// as a single fleet, so that the process's high-water mark is that
/// drive's, and reads the peak RSS. Then it runs the plain pass at least
/// `min_passes` times, and until `seconds` have gone by; every other pass
/// skips the replays, so the drives are timed more often. Every pass
/// drives the same fleets, so every pass must produce the same outcome
/// logs, and attempt `i` of one replay does the same work as attempt `i`
/// of any other.
pub fn plain_run(spec: PassSpec, min_passes: usize, seconds: f64) -> PlainRun {
    let whole = PassSpec { fleets: 1, ..spec }.fleet_list()[0];
    let mut problems = Vec::new();
    let d = drive(whole, true);
    check_drive("single-fleet drive", whole, &d.report, &mut problems);
    let peak_rss_mb = read_peak_rss_mb().unwrap_or(0.0);
    drop(d);

    let start = Instant::now();
    let first = plain(spec);
    problems.extend(first.problems.iter().cloned());
    let mut run = PlainRun {
        peak_rss_mb,
        passes: 1,
        setup_s: first.setup_rounds.iter().map(|s| s.total_s).collect(),
        best_measured_s: first.measured_s.clone(),
        best_attempt_ns: first.attempt_ns.clone(),
        problems,
        first,
    };
    while run.passes < min_passes || start.elapsed().as_secs_f64() < seconds {
        let with_replay = run.passes.is_multiple_of(2);
        let p = plain_pass(spec, with_replay);
        run.passes += 1;
        let label = format!("pass {}", run.passes);
        run.problems
            .extend(p.problems.iter().map(|e| format!("{label}: {e}")));
        if p.digest != run.first.digest {
            run.problems.push(format!(
                "{label}: outcome logs differ from the first pass's"
            ));
        }
        if with_replay && p.attempt_ns.len() == run.best_attempt_ns.len() {
            fold_min(&mut run.best_attempt_ns, &p.attempt_ns);
        } else if with_replay {
            run.problems.push(format!(
                "{label}: {} replayed attempts, the first pass had {}",
                p.attempt_ns.len(),
                run.best_attempt_ns.len()
            ));
        }
        fold_min(&mut run.best_measured_s, &p.measured_s);
        run.setup_s.extend(p.setup_rounds.iter().map(|s| s.total_s));
    }
    run.best_attempt_ns.sort_unstable();
    run
}

/// Keep in `best` the smaller of each pair of elements.
fn fold_min<T: PartialOrd + Copy>(best: &mut [T], next: &[T]) {
    for (b, &n) in best.iter_mut().zip(next) {
        if n < *b {
            *b = n;
        }
    }
}

/// Per-layer latency and busy time of one call kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    pub calls: u64,
    pub busy_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
}

impl LayerTimes {
    fn of(samples: &[u64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let us = |q| percentile(&sorted, q).unwrap_or(0) as f64 / 1_000.0;
        LayerTimes {
            calls: samples.len() as u64,
            busy_s: samples.iter().sum::<u64>() as f64 / 1e9,
            p50_us: us(0.5),
            p99_us: us(0.99),
        }
    }
}

/// What the traced pass measured, summed over its fleets.
pub struct Traced {
    /// The per-part median of every fleet's set-up rounds.
    pub setup: Setup,
    /// The workload's own drives (consumers attached on `observed`), s.
    pub drive_s: f64,
    /// The same specs driven with no consumers attached, s.
    pub bare_drive_s: f64,
    pub export: Export,
    /// Whole attempts: `prepare` plus `commit_prepared`.
    pub attempt: LayerTimes,
    pub prepare: LayerTimes,
    pub commit: LayerTimes,
    pub replay: Replay,
    pub census: Census,
    pub digest: u64,
    pub problems: Vec<String>,
}

impl Traced {
    /// Busy time of every replayed layer, s.
    pub fn busy_s(&self) -> f64 {
        self.replay.busy_ns() as f64 / 1e9
    }
}

/// The traced pass (see the module docs).
pub fn traced(spec: PassSpec) -> Traced {
    let fleets = spec.fleet_list();
    let mut problems = Vec::new();
    let mut work = Vec::with_capacity(fleets.len());
    let mut bare_drive_s = 0.0;
    for (i, &fleet) in fleets.iter().enumerate() {
        let w = drive(fleet, true);
        check_drive(&format!("fleet {i} drive"), fleet, &w.report, &mut problems);
        let b = drive(fleet, false);
        check_drive(
            &format!("fleet {i} bare drive"),
            fleet,
            &b.report,
            &mut problems,
        );
        if log_digest(&b.report.events) != log_digest(&w.report.events) {
            problems.push(format!(
                "fleet {i}: outcome log differs between the workload drive and the bare drive"
            ));
        }
        bare_drive_s += b.drive_s;
        work.push(w);
    }
    let rp = replay_all(&fleets, &work, true, &mut problems);
    let mut export = Export::default();
    work.iter().for_each(|d| export.add(&d.export));
    let rounds: Vec<Setup> = work.iter().flat_map(|d| d.setup_rounds.clone()).collect();
    Traced {
        setup: Setup::median(&rounds),
        drive_s: work.iter().map(|d| d.drive_s).sum(),
        bare_drive_s,
        export,
        attempt: LayerTimes::of(&rp.attempt_ns),
        prepare: LayerTimes::of(&rp.prepare_ns),
        commit: LayerTimes::of(&rp.commit_ns),
        census: census(&work, &rp),
        digest: pass_digest(&work),
        replay: rp,
        problems,
    }
}

/// Write `spans` as JSON lines: one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        let session = s.session.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"session\":{session},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}
